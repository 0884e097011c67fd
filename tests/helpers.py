"""Shared constructions for the test suite."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from sgprecond import coeffexpr
from sgprecond.basis import MultiIndexSet, assemble_G
from sgprecond.fem import MU_REFINE, CoefficientField, build_mesh, compute_mu
from sgprecond.operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_TP,
    TRUNCATED_TP,
    DiscreteProblem,
    block_layout,
    coloring,
)
from sgprecond.orthopoly import jacobi_matrix


def dense_h_matrix(family, mu, s, sign=+1):
    """Dense coarse/detail comparison matrix of order s:
    inv(I + sign*mu*Jhat) @ (I + sign*mu*J) with Jhat the Jacobi matrix of
    order s-1 padded by a zero row/column."""
    j = jacobi_matrix(family, s)
    jhat = np.zeros_like(j)
    jhat[: s - 1, : s - 1] = jacobi_matrix(family, max(s - 1, 1)) if s > 1 else 0.0
    left = np.eye(s) + sign * mu * jhat
    right = np.eye(s) + sign * mu * j
    return scipy.linalg.solve(left, right)


def random_field(rng, nterms, n_elements, target_mu):
    """Coefficient field with a_0 in [0.5, 2] and fluctuations scaled so the
    elementwise dominance ratio equals target_mu."""
    a0 = rng.uniform(0.5, 2.0, size=n_elements)
    fluct = rng.uniform(-1.0, 1.0, size=(nterms, n_elements))
    current = np.max(np.abs(fluct).sum(axis=0) / a0)
    if current == 0.0:
        fluct[0, 0] = a0[0]
        current = 1.0
    fluct *= target_mu / current
    return CoefficientField(np.vstack([a0[None, :], fluct]))


def random_instance(rng, family, max_vars=3, max_order=4, target_mu=None):
    """A small random problem: mesh, index set and coefficient field."""
    nterms = int(rng.integers(1, max_vars + 1))
    if rng.random() < 0.5:
        iset = MultiIndexSet.complete(nterms, int(rng.integers(1, max_order + 1)))
    else:
        orders = tuple(int(rng.integers(1, max_order + 1)) for _ in range(nterms))
        iset = MultiIndexSet.tensor(orders)
    if rng.random() < 0.5:
        mesh = build_mesh(1, int(rng.integers(2, 10)))
    else:
        mesh = build_mesh(2, (3, 3))
    if target_mu is None:
        target_mu = rng.uniform(0.1, 0.9)
    field = random_field(rng, nterms, mesh.n_elements, target_mu)
    return mesh, iset, field


def dense_pencil_extremes(problem: DiscreteProblem, m_dense):
    """Extreme eigenvalues of the pencil (A, M) by a dense solve."""
    a = problem.operator.matrix.toarray()
    w = scipy.linalg.eigh(a, m_dense, eigvals_only=True)
    return float(w[0]), float(w[-1])


def dense_preconditioner_matrix(problem: DiscreteProblem, kind):
    """Dense M of preconditioner ``kind`` from the couplings it keeps:
    sum_k kron(G_k masked, F_k) for a block-diagonal kind, and for gs2 the
    sweep L D^-1 L^T split after its coarse indices."""
    a = problem.operator
    if kind == GAUSS_SEIDEL_2:
        _lead, cut = block_layout(kind, problem.index_set)
        return dense_gs2_matrix(a.matrix.toarray(), cut * a.n_fe)
    keep = kept_mask(kind, problem.index_set)
    return sum(np.kron(np.where(keep, g.toarray(), 0.0), f.toarray()) for g, f in zip(a.gs, a.fs))


def kinds_on(basis):
    """The preconditioner kinds admissible on a ``basis`` kind, in the
    order the package lists them."""
    if basis == "complete":
        return ("mean_based", "splitting_complete", "gs2")
    return ("mean_based", "truncated_tp", "splitting_tp", "gs2")


def kept_mask(kind, index_set):
    """The paper's N_P x N_P mask of the couplings (i, j) that ``kind``
    keeps, read off the multi-indices alone: i = j (mean_based); equal last
    degrees (truncated_tp); both below the top order of the last coordinate
    or both at it (splitting_tp); both of total degree below the top one,
    or i = j (splitting_complete).  gs2 keeps what its basis's splitting
    keeps, in D."""
    i = np.arange(index_set.size)
    last = index_set.indices[:, -1]
    if kind == MEAN_BASED:
        label = i
    elif kind == TRUNCATED_TP:
        label = last
    elif kind == SPLITTING_TP or (kind == GAUSS_SEIDEL_2 and index_set.kind == "tensor"):
        label = last == index_set.orders[-1] - 1
    else:
        label = np.where(index_set.total_degrees() <= index_set.order - 2, -1, i)
    return label[:, None] == label[None, :]


def masked_G(family, index_set, k):
    """G_k with only the couplings that the two-block splitting of the
    basis keeps, without stored zeros: the matrix ``sgp dump-matrix``
    writes for Gt<k>."""
    splitting = SPLITTING_TP if index_set.kind == "tensor" else SPLITTING_COMPLETE
    mat = assemble_G(family, index_set, k).multiply(kept_mask(splitting, index_set)).tocsr()
    mat.eliminate_zeros()
    return mat


def first_coloring_fault(kind, index_set, gs):
    """(k, i, j) of the first G_k, and its first (i, j) in row-major order,
    where G_k differs from what M keeps of it inside one color of ``kind``,
    or None.  Formed densely: inside the ``kept_mask`` the kept value is
    that of G_k's coarse block, or of its leading block of ``lead`` indices
    at the index's place in its group; outside it, 0."""
    lead, cut = block_layout(kind, index_set)
    color = coloring(kind, index_set)
    i = np.arange(index_set.size)
    local = np.where(i < cut, i, (i - cut) % lead)
    keep, same = kept_mask(kind, index_set), color[:, None] == color[None, :]
    for k, g in enumerate(gs):
        d = g.toarray()
        rows, cols = np.nonzero((d != np.where(keep, d[np.ix_(local, local)], 0.0)) & same)
        if rows.size:
            return k, int(rows[0]), int(cols[0])
    return None


def dense_gs2_matrix(a, cut):
    """L D^-1 L^T for the dense matrix a with L = [[A11, 0], [B, A22]] and
    D = diag(A11, A22), the blocks split after the first ``cut`` rows."""
    zero = np.zeros((cut, a.shape[0] - cut))
    d1, d2 = a[:cut, :cut], a[cut:, cut:]
    lower = np.block([[d1, zero], [a[cut:, :cut], d2]])
    dinv = np.linalg.inv(np.block([[d1, zero], [zero.T, d2]]))
    return lower @ dinv @ lower.T


def indefinite_shift(mat):
    """mat - s I with s midway between the two largest eigenvalues of the
    symmetric mat: nonsingular, one positive eigenvalue, the rest negative."""
    w = np.linalg.eigvalsh(mat.toarray())
    return (mat - 0.5 * (w[-2] + w[-1]) * sp.identity(mat.shape[0])).tocsr()


def raises_before_allocating(error, call, *args):
    """Assert that call(*args) raises ``error`` with less than 1 MiB of
    Python and numpy memory allocated on the way; return its message."""
    tracemalloc.start()
    try:
        with pytest.raises(error) as err:
            call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"{peak} bytes allocated before {error.__name__}"
    return str(err.value)


def full_grid_mu(exprs, mesh):
    """mu_from_exprs as whole arrays: every expression copied out to the
    full MU_REFINE grid and reduced at once, as the package did before it
    reduced in blocks of grid rows."""
    x1, x2 = mesh.midpoint_axes(MU_REFINE)
    a0, *rows = (np.array(coeffexpr.evaluate_on(coeffexpr.parse(e), x1, x2)) for e in exprs)
    total = np.zeros_like(a0)
    maxima = []
    for row in rows:
        row = np.abs(row)
        total += row
        maxima.append(row.max())
    if not maxima:
        return 0.0, 0.0
    return float(np.max(total / a0)), float(np.sum(maxima) / a0.min())


__all__ = [
    "dense_h_matrix",
    "random_field",
    "random_instance",
    "dense_pencil_extremes",
    "dense_preconditioner_matrix",
    "kinds_on",
    "kept_mask",
    "masked_G",
    "first_coloring_fault",
    "dense_gs2_matrix",
    "indefinite_shift",
    "raises_before_allocating",
    "full_grid_mu",
    "compute_mu",
]

