"""The Kronecker-structured global operator, assembled once per problem, and
the block preconditioners obtained by modifying the stochastic couplings.

With basis functions numbered so that the finite-element index changes
fastest, the global matrix is sum_k G_k (x) F_k, assembled as one sparse
matrix on the first product or block taken of it.

Every preconditioner is M = diag(A11, I_copies (x) T): an optional coarse
block A11 followed by one block T repeated along the diagonal, both leading
blocks of A (the operator on its first so many stochastic indices); gs2
also keeps the coupling B between the two.  Each kind is one
``PreconditionerKind`` record in ``PRECONDITIONER_KINDS``, which
``check_basis``, the one check of a kind name, returns.  ``block_layout``
reads from it the kind's (lead, cut), the repeated-block and coarse index
counts, and ``kept_blocks`` what the kind keeps of a coupling G_k, sparse and
laid out as M's factors hold it: a block-diagonal M is
sum_k kept_blocks(G_k) (x) F_k.  With s the last tensor order and c the
number of complete-basis indices of total degree at most p - 2:

    kind                coarse indices  repeated-block indices  copies
    mean_based          none            1 (F0)                  N_P
    truncated_tp        none            N_P / s                 s
    splitting_tp        N_P - N_P / s   N_P / s                 1
    splitting_complete  c               1 (F0)                  N_P - c
    gs2                 as for the splitting, with the coupling B

One index gives F0, since G_k[0, 0] = 0 for k >= 1.  ``DiscreteProblem.factor``
slices every leading block from A and factors it once per problem, on first
use, into a cache of factors keyed by the index count; a Preconditioner is
built from factors alone.  The cache takes no lock: ``factor`` is called
from one thread, and other threads only solve with what it returned.

Every recurrence has alpha_n = 0, so G_k (k >= 1) joins only indices whose
k-th degree differs by one.  ``coloring`` two-colors the stochastic indices
so that M (for gs2 its block diagonal D) is block diagonal and A - M
(A - D) joins only the two colors: coarse against detail, or the parity of
the last degree (truncated_tp) or of the total degree (mean_based).
``_check_coloring`` asserts this exactly on the G_k: G_k - kept_blocks(G_k)
has no stored nonzero inside one color.  In color order
A = [[M1, C^T], [C, M2]], so the spectrum of M^-1 A is 1 -+ sigma_i.
``ColoredPencil`` is the Schur-complement pencil of one color, with
eigenvalues 1 - sigma_i^2, sliced from A and solved on each color by a
block-diagonal Preconditioner of its own; its ``extremes`` reads the
extremes of M^-1 A and their eigenvector off the pencil's low end.

F0 is LU-factored by SuperLU without pivoting, in its multiple-minimum-degree
order; the signs of its pivots test that F0 is positive definite.  Every
larger leading block is factored by LAPACK's banded Cholesky (dpbtrf)
node-major, each node's stochastic indices together: the meshes number nodes
in a band order, so a block of count indices has a band about count times
F0's.  Both band calls, dpbtrf and dpbtrs, go through ctypes pointers to
the routines scipy links, which release the GIL: another thread runs while
a band is factored, and threads sharing one problem's factors solve at once,
each with the bits of a solve on its own.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cython_lapack

from . import eigsolve
from .basis import COMPLETE, TENSOR, MultiIndexSet, assemble_G
from .errors import EnclosureError, FactorizationError, UsageError
from .fem import CoefficientField, Mesh, assemble_F
from .orthopoly import RecurrenceFamily

__all__ = [
    "GalerkinOperator",
    "DiscreteProblem",
    "Preconditioner",
    "ColoredPencil",
    "PreconditionerKind",
    "block_layout",
    "coloring",
    "kept_blocks",
    "build_preconditioner",
    "MEAN_BASED",
    "TRUNCATED_TP",
    "SPLITTING_TP",
    "SPLITTING_COMPLETE",
    "GAUSS_SEIDEL_2",
    "PRECONDITIONER_KINDS",
]

MEAN_BASED = "mean_based"
TRUNCATED_TP = "truncated_tp"
SPLITTING_TP = "splitting_tp"
SPLITTING_COMPLETE = "splitting_complete"
GAUSS_SEIDEL_2 = "gs2"



@dataclass(frozen=True)
class PreconditionerKind:
    """One preconditioner kind: its name, the output ``column`` of its
    Lanczos condition number and the ``basis`` kind it needs (None: either).
    ``along_last``: on a tensor basis its groups span the last coordinate,
    N_P / s indices each, not one index each.  ``coarse``: a coarse group
    comes first.  ``block_diagonal`` is false for gs2 alone.  Its pencil
    runs on color ``side`` (None: the smaller, ties going to color 0), and
    ``colors`` names the two colors of ``coloring`` in messages."""

    name: str
    column: str
    basis: str | None
    along_last: bool
    coarse: bool
    block_diagonal: bool = True
    side: int | None = None
    colors: tuple[str, str] = ("coarse", "detail")


PRECONDITIONER_KINDS = {kind.name: kind for kind in (
    PreconditionerKind(MEAN_BASED, "kappa_MB", None, False, False,
                       colors=("even total degree", "odd total degree")),
    PreconditionerKind(TRUNCATED_TP, "kappa_TR", TENSOR, True, False,
                       colors=("even last degree", "odd last degree")),
    PreconditionerKind(SPLITTING_TP, "kappa_SB", TENSOR, True, True, side=0),
    PreconditionerKind(SPLITTING_COMPLETE, "kappa_SB", COMPLETE, False, True, side=0),
    PreconditionerKind(GAUSS_SEIDEL_2, "kappa_GS2", None, True, True, block_diagonal=False, side=1),
)}
# the two-block splitting of each basis kind: its block-diagonal kind with a coarse group
SPLITTING_OF_BASIS = {kind.basis: kind.name for kind in PRECONDITIONER_KINDS.values()
                      if kind.coarse and kind.block_diagonal}


def check_basis(kind: str, basis: str) -> PreconditionerKind:
    """The record of preconditioner ``kind``; UsageError if there is no such
    kind or it needs another basis kind."""
    record = PRECONDITIONER_KINDS.get(kind)
    if record is None:
        raise UsageError(
            f"unknown preconditioner {kind!r} (choose from {', '.join(PRECONDITIONER_KINDS)})"
        )
    if record.basis not in (None, basis):
        raise UsageError(f"{kind} requires a {record.basis} basis")
    return record


def _vector(v, n: int) -> np.ndarray:
    """v as a float array, checked to be a length-n vector or (n, 1) column."""
    v = np.asarray(v, dtype=float)
    if v.shape not in ((n,), (n, 1)):
        raise ValueError(f"expected shape ({n},) or ({n}, 1), got {v.shape}")
    return v


class GalerkinOperator:
    """sum_k G_k (x) F_k, held as its terms and, from the first product or
    block taken of it, as one assembled sparse matrix."""

    def __init__(self, gs, fs):
        if len(gs) != len(fs) or not gs:
            raise UsageError("need matching nonempty G and F sequences")
        self.gs = [sp.csr_matrix(g) for g in gs]
        self.fs = [sp.csr_matrix(f) for f in fs]
        self.n_p = self.gs[0].shape[0]
        self.n_fe = self.fs[0].shape[0]
        for g, f in zip(self.gs, self.fs):
            if g.shape != (self.n_p, self.n_p) or f.shape != (self.n_fe, self.n_fe):
                raise UsageError("inconsistent term dimensions")

    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_p * self.n_fe
        return (n, n)

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """The assembled global matrix, built on first use."""
        return self.assemble_sparse()

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector or an (n, 1) column; the result has v's shape."""
        return self.matrix @ _vector(v, self.shape[0])

    def assemble_sparse(self) -> sp.csr_matrix:
        total = sp.csr_matrix(self.shape)
        for g, f in zip(self.gs, self.fs):
            total = total + sp.kron(g, f, format="csr")
        total.sort_indices()
        return total


class DiscreteProblem:
    """A mesh, a coefficient field and a basis, with the operator's terms assembled."""

    def __init__(self, index_set, mesh, field, operator, f0=None):
        self.index_set = index_set
        self.mesh = mesh
        self.field = field
        self.operator = operator
        self._factors = {} if f0 is None else {1: f0}  # count -> SuperLU's F0 or a _BandCholesky

    @classmethod
    def build(
        cls,
        family: RecurrenceFamily,
        index_set: MultiIndexSet,
        mesh: Mesh,
        field: CoefficientField,
        like: "DiscreteProblem | None" = None,
    ) -> "DiscreteProblem":
        """The problem of ``index_set`` on ``mesh`` and ``field``, with its
        terms G_0..G_K and F_0..F_K assembled.  The F_k, and so F0 and its
        factor, depend on the mesh and the field alone: ``like``, an earlier
        problem on an equal mesh and field (UsageError otherwise), lends its
        F_k and its factor ``f0`` of F0, which are shared with it; None
        assembles the F_k.  Larger blocks are factored anew."""
        if field.nterms != index_set.nvars:
            raise UsageError(
                f"field has {field.nterms} fluctuation terms, basis has {index_set.nvars} variables"
            )
        gs = [assemble_G(family, index_set, k) for k in range(field.nterms + 1)]
        if like is None:
            fs = [assemble_F(mesh, field, k) for k in range(field.nterms + 1)]
            return cls(index_set, mesh, field, GalerkinOperator(gs, fs))
        if like.mesh != mesh or not np.array_equal(like.field.values, field.values):
            raise UsageError("like is a problem on another mesh or coefficient field")
        return cls(index_set, mesh, field, GalerkinOperator(gs, like.operator.fs), like.factor(1))

    def factor(self, count: int):
        """Factors of A[:n, :n], n = count * n_fe: A on its first ``count``
        stochastic indices, factored on first use.  One index is F0, which
        SuperLU factors; every larger block is a ``_BandCholesky``."""
        if count not in self._factors:
            n = count * self.operator.n_fe
            block = self.operator.matrix[:n, :n]
            self._factors[count] = _factor(block) if count == 1 else _BandCholesky(block, count)
        return self._factors[count]


def _factor(block: sp.spmatrix):
    """LU-factor F0 without pivoting in SuperLU's multiple-minimum-degree
    order P.  The pivots test definiteness: with no row interchanged, U's
    diagonal holds the pivots of the symmetric L D L^T of P F0 P^T, all
    positive exactly when F0 is positive definite (Sylvester)."""
    try:
        lu = spla.splu(
            block.tocsc(),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise FactorizationError(f"factorization of the mean block failed: {exc}") from None
    if not (np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all()):
        raise FactorizationError("the mean block is not positive definite")
    return lu


class _BandCholesky:
    """Cholesky factor of a symmetric block of ``count`` stochastic indices
    by LAPACK's banded routines, in the node-major numbering: the block's dof
    p*n_fe + i, stochastic index p at node i, is factored as i*count + p.
    The factorization itself is the definiteness check.  ``solve`` applies
    the block's inverse to a vector or to each column of a matrix, in the
    block's own numbering.  dpbtrf and dpbtrs are called through ctypes,
    without holding the GIL; the band is that of scipy's dpbtrf wrapper,
    bit for bit."""

    def __init__(self, block: sp.spmatrix, count: int):
        self.count, self.shape = count, block.shape
        n_fe = block.shape[0] // count
        coo = block.tocoo()
        row, col = ((i % n_fe) * count + i // n_fe for i in (coo.row, coo.col))
        lower = row >= col
        offset, col = row[lower] - col[lower], col[lower]
        self.band = np.zeros((offset.max(initial=0) + 1, block.shape[0]), order="F")
        self.band[offset, col] = coo.data[lower]
        n, rows = ctypes.c_int(self.shape[0]), ctypes.c_int(self.band.shape[0])
        kd, info = ctypes.c_int(rows.value - 1), ctypes.c_int(0)
        _dpbtrf(b"L", n, kd, self.band, rows, info)
        if info.value != 0:
            raise FactorizationError(
                f"the leading block of {count} stochastic indices is not positive definite")

    def solve(self, b: np.ndarray) -> np.ndarray:
        m = b.size // self.shape[0]
        # (index, node, column) -> (column, node, index): node-major columns
        rhs = np.empty((m, self.shape[0] // self.count, self.count))
        rhs[...] = b.reshape(self.count, -1, m).transpose(2, 1, 0)
        n, rows = ctypes.c_int(self.shape[0]), ctypes.c_int(self.band.shape[0])
        kd, nrhs, info = ctypes.c_int(rows.value - 1), ctypes.c_int(m), ctypes.c_int(0)
        _dpbtrs(b"L", n, kd, nrhs, self.band, rows, rhs.reshape(m, -1).T, n, info)
        if info.value != 0:
            raise ValueError(f"dpbtrs rejected its argument {-info.value}")
        return rhs.transpose(2, 1, 0).reshape(b.shape)


def _lapack_function(name: str, *argtypes):
    """LAPACK routine ``name`` of the copy that scipy links, called through
    ctypes, which releases the GIL for the length of each call."""
    capsule = cython_lapack.__pyx_capi__[name]
    api = ctypes.pythonapi
    capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", api))(capsule)
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api))(capsule, capsule_name)
    return ctypes.CFUNCTYPE(None, *argtypes)(address)


_INT = ctypes.POINTER(ctypes.c_int)
_MATRIX = np.ctypeslib.ndpointer(np.float64, ndim=2, flags="F_CONTIGUOUS")
# dpbtrf(uplo, n, kd, ab, ldab, info): LAPACK's banded Cholesky
# factorization, in place on the band ab
_dpbtrf = _lapack_function("dpbtrf", ctypes.c_char_p, _INT, _INT, _MATRIX, _INT, _INT)
# dpbtrs(uplo, n, kd, nrhs, ab, ldab, b, ldb, info): the banded Cholesky
# solve of LAPACK, on the band of dpbtrf and on b in place
_dpbtrs = _lapack_function("dpbtrs", ctypes.c_char_p, _INT, _INT, _INT, _MATRIX, _INT,
                           _MATRIX, _INT, _INT)


class Preconditioner:
    """M = diag(A11, I_count (x) T) with exact solves from the factors alone.

    T, with the factor ``lu``, is repeated ``count`` times along the diagonal;
    the optional coarse block A11 = A[:cut, :cut], with the factor ``lu11``,
    comes first.  With the ``coupling`` B = A[cut:, :cut], M is the
    symmetric two-block Gauss-Seidel sweep L D^-1 L^T with
    L = [[A11, 0], [B, I (x) T]] and D = diag(A11, I (x) T).
    """

    def __init__(self, lu, count, lu11=None, coupling=None):
        self._lu = lu
        self.count = count
        self._lu11 = lu11
        self.coupling = coupling

    @property
    def split_index(self) -> int | None:
        """First degree of freedom after the coarse block, None without one."""
        return None if self._lu11 is None else self._lu11.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        n = (self.split_index or 0) + self.count * self._lu.shape[0]
        return (n, n)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r for a vector or an (n, 1) column; the result has r's shape."""
        r = _vector(r, self.shape[0])
        return self._solve(r.ravel()).reshape(r.shape)

    def _solve(self, r: np.ndarray) -> np.ndarray:
        cut = self.split_index or 0
        r2 = r[cut:]
        if self._lu11 is not None:
            x1 = self._lu11.solve(r[:cut])
            if self.coupling is not None:
                r2 = r2 - self.coupling.dot(x1)
        x2 = self._lu.solve(r2.reshape(self.count, -1).T).T.ravel()  # T^-1 on each copy
        if self._lu11 is None:
            return x2
        if self.coupling is not None:
            x1 = x1 - self._lu11.solve(self.coupling.T.dot(x2))
        return np.concatenate([x1, x2])


class ColoredPencil:
    """The Schur-complement pencil of preconditioner ``kind`` on one color
    of ``coloring``: (A_ss - C^T A_oo^-1 C, A_ss) with A_ss and A_oo the
    diagonal blocks of A on this color and the other, and C = A[other
    color, this color].

    ``_check_coloring`` asserts that M and A agree inside each color, so in
    color order A = [[M_s, C^T], [C, M_o]] with M_s = A_ss and M_o = A_oo,
    M^-1 A - I is 2-cyclic and the spectrum of M^-1 A is 1 -+ sigma_i, and
    1 for any dof left over, where the pencil's eigenvalues are
    1 - sigma_i^2 and 1.  For gs2 the congruence by
    [[I, 0], [-B A11^-1, I]] takes A to diag(A11, S) and M to diag(A11, D2),
    so the spectrum of M^-1 A is 1 with that of its detail-side pencil
    (S, D2).  The pencil runs on the kind's ``side`` color.

    A product is one solve on the other color, one product with A_ss and
    two sparse products with C; a solve is one solve on this color.  Each
    color is solved through a block-diagonal Preconditioner: A11 alone on
    the coarse group, or T on each of the color's groups.  ``extremes``
    gives the extremes of M^-1 A from the pencil's low end.
    """

    def __init__(self, problem: DiscreteProblem, kind: str):
        _check_coloring(problem, kind)
        self.kind = kind
        iset, a = problem.index_set, problem.operator
        lead, cut = block_layout(kind, iset)
        color = coloring(kind, iset)
        indices = [np.flatnonzero(color == c) for c in (0, 1)]
        sizes = [idx.size for idx in indices]
        side = PRECONDITIONER_KINDS[kind].side
        side = int(sizes[1] < sizes[0]) if side is None else side
        # with a coarse group, color 0 is that group: A11 once
        solvers = [Preconditioner(problem.factor(cut), 1) if cut and c == 0
                   else Preconditioner(problem.factor(lead), size // lead)
                   for c, size in enumerate(sizes)]
        self._m_s, self._m_o = solvers[side], solvers[1 - side]
        dofs = [(idx[:, None] * a.n_fe + np.arange(a.n_fe)).ravel() for idx in indices]
        this, other = self._dofs = dofs[side], dofs[1 - side]
        self._a_ss = a.matrix[this][:, this]
        self._c = a.matrix[other][:, this]
        self.shape = self._a_ss.shape

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """(A_ss - C^T A_oo^-1 C) v for a vector."""
        return self._a_ss @ v - self._c.T @ self._m_o.solve(self._c @ v)

    def solve(self, r: np.ndarray) -> np.ndarray:
        """A_ss^-1 r for a vector."""
        return self._m_s.solve(r)

    def extremes(self, previous=None, **lanczos):
        """Lanczos extremes of M^-1 A, read off the low end of this pencil,
        and the pencil's top Ritz value.

        Lanczos iterates only the low end theta_min = 1 - sigma_max^2 to
        tolerance.  A block-diagonal kind's spectrum is 1 -+ sigma_i, so its
        extremes are 1 -+ sigma, with sigma^2 = y^T C^T A_oo^-1 C y / y^T A_ss y
        at the Ritz vector y of theta_min.  That Rayleigh quotient is at most
        sigma_max^2 and is 0 when C y = 0, where sqrt(1 - theta_min) would
        read the rounding of theta_min as a sigma near 1e-8.  gs2's spectrum
        is 1 with the pencil's, so its extremes are theta_min and
        max(1, theta_max).  With one color empty, M = A and the spectrum is
        {1}, with no Lanczos run.  ``lanczos`` goes to
        ``eigsolve.extreme_eigs_generalized``.

        The estimate's ``vector_min`` is the eigenvector of M^-1 A at
        lambda_min over all of A's degrees of freedom: y on this color and
        -s A_oo^-1 C y on the other, with s = 1/sigma for a block-diagonal
        kind (0 when sigma = 0) and s = 1 for gs2.  ``previous``, such a
        vector of a smaller problem whose A is the leading block of this
        one, starts the run: zero-padded to x, its start is (A x) on this
        color, A_ss x_s + C^T x_o, which is M_s x_s when x is an
        eigenvector of M^-1 A.
        """
        this, other = self._dofs
        if 0 in (this.size, other.size):
            return eigsolve.EigEstimate(1.0, 1.0, (0.0, 0.0), 0), 1.0
        start = None
        if previous is not None:
            x = np.zeros(this.size + other.size)
            x[: previous.size] = previous
            start = self._a_ss @ x[this] + self._c.T @ x[other]  # (A x) on this color
        est = eigsolve.extreme_eigs_generalized(self, self, start=start, **lanczos)
        theta, y = est.lambda_min, est.vector_min
        z = self._m_o.solve(self._c @ y)
        if not PRECONDITIONER_KINDS[self.kind].block_diagonal:
            ends, s = (min(1.0, theta), max(1.0, est.lambda_max)), 1.0
        else:
            sigma = math.sqrt(max(0.0, y @ (self._c.T @ z)) / (y @ (self._a_ss @ y)))
            ends = theta / (1.0 + sigma), 1.0 + sigma  # 1 -+ sigma, without cancellation
            s = 1.0 / sigma if sigma > 0.0 else 0.0
        vector = np.empty(this.size + other.size)
        vector[this], vector[other] = y, -s * z
        return replace(est, lambda_min=ends[0], lambda_max=ends[1], vector_min=vector), est.lambda_max


def coloring(kind: str, index_set: MultiIndexSet) -> np.ndarray:
    """Color, 0 or 1, of each stochastic index for preconditioner ``kind``:
    coarse 0 against detail 1, or the parity of the last degree, which
    numbers the groups along the last coordinate (truncated_tp), or of the
    total degree (mean_based).  Every group of ``block_layout`` lies inside
    one color, so M is block diagonal over the colors."""
    lead, cut = block_layout(kind, index_set)
    record, i = PRECONDITIONER_KINDS[kind], np.arange(index_set.size)
    if record.coarse:
        return (i >= cut).astype(int)
    return (i // lead) % 2 if record.along_last else index_set.total_degrees() % 2


def _check_coloring(problem: DiscreteProblem, kind: str) -> None:
    """Raise EnclosureError unless A and M agree inside each color of
    ``coloring``: G_k - ``kept_blocks`` of it has no stored nonzero joining
    two indices of one color, for every G_k.  So every coupling that
    ``kind`` drops joins two colors, and every coupling inside a color is
    kept exactly.  Every recurrence has alpha_n = 0, so this holds for the
    assembled G_k.  The check is exact, and a fault is reported at its
    first (i, j) in row-major order."""
    iset = problem.index_set
    color = coloring(kind, iset)
    for k, g in enumerate(problem.operator.gs):
        i, j = (g - kept_blocks(kind, iset, g)).nonzero()
        inside = color[i] == color[j]
        if inside.any():
            i, j = min(zip(i[inside].tolist(), j[inside].tolist()))
            names = PRECONDITIONER_KINDS[kind].colors
            raise EnclosureError(
                f"{kind}: G_{k} on the {names[color[i]]} indices joins {i} and {j} "
                f"unlike the preconditioner, so A and M differ inside one color"
            )


def block_layout(kind: str, index_set: MultiIndexSet) -> tuple[int, int]:
    """(lead, cut) of preconditioner ``kind``: the first ``cut`` stochastic
    indices form the coarse group, and the rest fall into consecutive groups
    of ``lead`` indices each, on which M repeats A's leading block of
    ``lead`` indices (``kept_blocks``).  The coarse group of a splitting
    holds every index below the top order of the last coordinate (tensor)
    or below the top total degree (complete)."""
    record = check_basis(kind, index_set.kind)
    tensor = index_set.kind == TENSOR
    lead = index_set.size // index_set.orders[-1] if tensor and record.along_last else 1
    if not record.coarse:
        cut = 0
    elif tensor:
        cut = index_set.size - lead
    else:
        cut = int(np.count_nonzero(index_set.total_degrees() <= index_set.order - 2))
    return lead, cut


def kept_blocks(kind: str, index_set: MultiIndexSet, g: sp.spmatrix) -> sp.csr_matrix:
    """What preconditioner ``kind`` keeps of the N_P x N_P coupling ``g``,
    in the layout of ``block_layout``: g[:cut, :cut] on the coarse group and
    g[:lead, :lead] on every repeated group, as M's factors hold them.  A
    block-diagonal kind is M = sum_k kept_blocks(G_k) (x) F_k; gs2 keeps
    these blocks in D and adds B through L D^-1 L^T."""
    lead, cut = block_layout(kind, index_set)
    g = g.tocoo()
    coarse = (g.row < cut) & (g.col < cut)
    top = (g.row < lead) & (g.col < lead)
    starts = cut + lead * np.arange((index_set.size - cut) // lead)[:, None]
    row = np.concatenate([g.row[coarse], (starts + g.row[top]).ravel()])
    col = np.concatenate([g.col[coarse], (starts + g.col[top]).ravel()])
    data = np.concatenate([g.data[coarse], np.tile(g.data[top], starts.size)])
    return sp.csr_matrix((data, (row, col)), shape=g.shape)


def build_preconditioner(problem: DiscreteProblem, kind: str) -> Preconditioner:
    """Build the requested preconditioner from the problem's factored
    blocks in the layout of ``block_layout``."""
    iset = problem.index_set
    lead, cut = block_layout(kind, iset)
    lu, count = problem.factor(lead), (iset.size - cut) // lead
    if cut == 0:
        return Preconditioner(lu, count)
    n11 = cut * problem.operator.n_fe
    block_diagonal = PRECONDITIONER_KINDS[kind].block_diagonal
    coupling = None if block_diagonal else problem.operator.matrix[n11:, :n11]
    return Preconditioner(lu, count, problem.factor(cut), coupling)
