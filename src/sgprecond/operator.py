"""The Kronecker-structured global operator, matrix-free products, and the
block preconditioners obtained by modifying the stochastic couplings.

With basis functions numbered so that the finite-element index changes
fastest, the global matrix is sum_k G_k (x) F_k and a product with a vector
v reshaped into an (N_P, N_FE) array W is sum_k G_k @ W @ F_k.  All
preconditioners here are block-diagonal restrictions of the operator to
groups of stochastic indices (plus, for the two-block Gauss-Seidel variant,
the coupling between the two groups), so their blocks coincide with diagonal
blocks of the operator itself.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .basis import COMPLETE, TENSOR, MultiIndexSet, assemble_G
from .errors import FactorizationError, SizeError, UsageError
from .fem import CoefficientField, Mesh, assemble_F
from .orthopoly import RecurrenceFamily

__all__ = [
    "GalerkinOperator",
    "DiscreteProblem",
    "Preconditioner",
    "build_preconditioner",
    "matvec",
    "apply_inverse",
    "assemble_dense",
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

PRECONDITIONER_KINDS = (
    MEAN_BASED,
    TRUNCATED_TP,
    SPLITTING_TP,
    SPLITTING_COMPLETE,
    GAUSS_SEIDEL_2,
)

DENSE_CAP = 6000


def _vector(v, n: int) -> np.ndarray:
    """v as a float array, checked to be a length-n vector or (n, 1) column."""
    v = np.asarray(v, dtype=float)
    if v.shape not in ((n,), (n, 1)):
        raise ValueError(f"expected shape ({n},) or ({n}, 1), got {v.shape}")
    return v


class GalerkinOperator:
    """sum_k G_k (x) F_k applied without forming the global matrix."""

    def __init__(self, gs, fs):
        if len(gs) != len(fs) or not gs:
            raise UsageError("need matching nonempty G and F sequences")
        self.gs = [g.mat if hasattr(g, "mat") else sp.csr_matrix(g) for g in gs]
        self.fs = [sp.csr_matrix(f) for f in fs]
        self.n_p = self.gs[0].shape[0]
        self.n_fe = self.fs[0].shape[0]
        for g, f in zip(self.gs, self.fs):
            if g.shape != (self.n_p, self.n_p) or f.shape != (self.n_fe, self.n_fe):
                raise UsageError("inconsistent term dimensions")

    @property
    def nterms(self) -> int:
        return len(self.gs) - 1

    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_p * self.n_fe
        return (n, n)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """A v for a vector or an (n, 1) column; the result has v's shape."""
        v = _vector(v, self.shape[0])
        w = v.reshape(self.n_p, self.n_fe)
        out = np.zeros_like(w)
        for g, f in zip(self.gs, self.fs):
            out += f.dot((g.dot(w)).T).T
        return out.reshape(v.shape)

    def assemble_sparse(self) -> sp.csr_matrix:
        total = sp.csr_matrix(self.shape)
        for g, f in zip(self.gs, self.fs):
            total = total + sp.kron(g, f, format="csr")
        total.sort_indices()
        return total

    def assemble_dense(self, cap: int = DENSE_CAP) -> np.ndarray:
        n = self.shape[0]
        if n > cap:
            raise SizeError(f"dense assembly of size {n} exceeds cap {cap}")
        return self.assemble_sparse().toarray()


def matvec(op: GalerkinOperator, v: np.ndarray) -> np.ndarray:
    return op.matvec(v)


def assemble_dense(op: GalerkinOperator, cap: int = DENSE_CAP) -> np.ndarray:
    return op.assemble_dense(cap)


class DiscreteProblem:
    """A mesh, a coefficient field and a basis, with all matrices assembled."""

    def __init__(self, family, index_set, mesh, field, gs, fs):
        self.family = family
        self.index_set = index_set
        self.mesh = mesh
        self.field = field
        self.gs = gs
        self.fs = fs
        self.operator = GalerkinOperator(gs, fs)
        self._sparse = None

    @classmethod
    def build(
        cls,
        family: RecurrenceFamily,
        index_set: MultiIndexSet,
        mesh: Mesh,
        field: CoefficientField,
    ) -> "DiscreteProblem":
        if field.nterms != index_set.nvars:
            raise UsageError(
                f"field has {field.nterms} fluctuation terms, basis has {index_set.nvars} variables"
            )
        gs = [assemble_G(family, index_set, k) for k in range(field.nterms + 1)]
        fs = [assemble_F(mesh, field, k) for k in range(field.nterms + 1)]
        return cls(family, index_set, mesh, field, gs, fs)

    def assemble_sparse(self) -> sp.csr_matrix:
        if self._sparse is None:
            self._sparse = self.operator.assemble_sparse()
        return self._sparse


def _factor(block: sp.spmatrix, what: str):
    """LU-factor a block that is positive definite by construction, with a
    cheap definiteness spot check so dominance violations surface here."""
    block = block.tocsc()
    try:
        lu = spla.splu(block)
    except RuntimeError as exc:
        raise FactorizationError(f"factorization of {what} failed: {exc}") from None
    rng = np.random.default_rng(0)
    for _ in range(2):
        v = rng.standard_normal(block.shape[0])
        if float(v @ (block @ v)) <= 0.0:
            raise FactorizationError(f"{what} is not positive definite")
    return lu


def _splitting_cut(index_set: MultiIndexSet) -> int:
    """Number of leading indices in the coarse group of the two-block
    splitting (all remaining indices form the detail group)."""
    if index_set.kind == TENSOR:
        s_last = index_set.orders[-1]
        return (s_last - 1) * (index_set.size // s_last)
    return int(np.count_nonzero(index_set.total_degrees() <= index_set.order - 2))


class Preconditioner:
    """Factorized block preconditioner; supports exact solves with M and
    products with M."""

    def __init__(self, kind, n_p, n_fe, data):
        self.kind = kind
        self.n_p = n_p
        self.n_fe = n_fe
        self._d = data

    @property
    def shape(self) -> tuple[int, int]:
        n = self.n_p * self.n_fe
        return (n, n)

    @property
    def split_index(self) -> int | None:
        """First degree of freedom of the detail block for the two-block
        kinds, None for the other kinds."""
        cut = self._d.get("cut")
        return cut if cut else None

    def solve(self, r: np.ndarray) -> np.ndarray:
        """M^-1 r for a vector or an (n, 1) column; the result has r's shape."""
        r = _vector(r, self.shape[0])
        return self._solve(r.ravel()).reshape(r.shape)

    def _solve(self, r: np.ndarray) -> np.ndarray:
        d = self._d
        if self.kind == MEAN_BASED:
            w = r.reshape(self.n_p, self.n_fe)
            return d["lu"].solve(w.T).T.ravel()
        if self.kind == TRUNCATED_TP:
            w = r.reshape(d["nblocks"], d["block_n"])
            return d["lu"].solve(w.T).T.ravel()
        cut = d["cut"]
        if self.kind in (SPLITTING_TP, SPLITTING_COMPLETE):
            out = np.empty_like(r)
            if cut > 0:
                out[:cut] = d["lu1"].solve(r[:cut])
            if cut < r.size:
                out[cut:] = d["lu2"].solve(r[cut:])
            return out
        # symmetric two-block Gauss-Seidel sweep
        r1, r2 = r[:cut], r[cut:]
        u1 = d["lu1"].solve(r1)
        x2 = d["lu2"].solve(r2 - d["B"].dot(u1))
        x1 = u1 - d["lu1"].solve(d["Bt"].dot(x2))
        return np.concatenate([x1, x2])

    def matvec(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        d = self._d
        if self.kind == MEAN_BASED:
            w = v.reshape(self.n_p, self.n_fe)
            return d["f0"].dot(w.T).T.ravel()
        if self.kind == TRUNCATED_TP:
            w = v.reshape(d["nblocks"], d["block_n"])
            return d["block"].dot(w.T).T.ravel()
        cut = d["cut"]
        if self.kind in (SPLITTING_TP, SPLITTING_COMPLETE):
            parts = []
            if cut > 0:
                parts.append(d["A11"].dot(v[:cut]))
            if cut < v.size:
                parts.append(d["A22"].dot(v[cut:]))
            return np.concatenate(parts)
        v1, v2 = v[:cut], v[cut:]
        t1 = d["A11"].dot(v1) + d["Bt"].dot(v2)
        u1 = d["lu1"].solve(t1)
        return np.concatenate([t1, d["B"].dot(u1) + d["A22"].dot(v2)])


def build_preconditioner(problem: DiscreteProblem, kind: str) -> Preconditioner:
    """Build and factorize the requested preconditioner for a problem."""
    if kind not in PRECONDITIONER_KINDS:
        raise UsageError(f"unknown preconditioner kind {kind!r}")
    iset = problem.index_set
    n_p, n_fe = iset.size, problem.fs[0].shape[0]
    # with no fluctuation terms every kind collapses to the mean block
    if kind == MEAN_BASED or problem.field.nterms == 0:
        lu = _factor(problem.fs[0], "the mean block")
        return Preconditioner(MEAN_BASED, n_p, n_fe, {"lu": lu, "f0": problem.fs[0]})
    if kind == TRUNCATED_TP:
        if iset.kind != TENSOR:
            raise UsageError("truncated preconditioner requires a tensor-product basis")
        nblocks = iset.orders[-1]
        if iset.nvars == 1:
            block = problem.fs[0]
        else:
            sub = MultiIndexSet.tensor(iset.orders[:-1])
            block = sp.kron(sp.identity(sub.size, format="csr"), problem.fs[0], format="csr")
            for k in range(1, iset.nvars):  # terms 1..K-1 only
                g = assemble_G(problem.family, sub, k).mat
                block = block + sp.kron(g, problem.fs[k], format="csr")
        lu = _factor(block, "the truncated leading block")
        return Preconditioner(
            TRUNCATED_TP,
            n_p,
            n_fe,
            {"lu": lu, "block": block.tocsr(), "nblocks": nblocks, "block_n": block.shape[0]},
        )
    if kind in (SPLITTING_TP, SPLITTING_COMPLETE, GAUSS_SEIDEL_2):
        if kind == SPLITTING_TP and iset.kind != TENSOR:
            raise UsageError("tensor splitting requires a tensor-product basis")
        if kind == SPLITTING_COMPLETE and iset.kind != COMPLETE:
            raise UsageError("complete splitting requires a complete basis")
        cut = _splitting_cut(iset) * n_fe
        a = problem.assemble_sparse()
        n = a.shape[0]
        if cut == 0 or cut == n:
            # degenerate splitting (s = 1): one group, M equals the operator
            lu = _factor(a, "the full operator")
            data = {"cut": 0, "lu1": _EmptySolve(), "lu2": lu, "A11": _EMPTY, "A22": a}
            if kind == GAUSS_SEIDEL_2:
                data["B"] = sp.csr_matrix((n, 0))
                data["Bt"] = sp.csr_matrix((0, n))
            return Preconditioner(kind, n_p, n_fe, data)
        a11 = a[:cut, :][:, :cut].tocsr()
        a22 = a[cut:, :][:, cut:].tocsr()
        lu1 = _factor(a11, "the coarse splitting block")
        lu2 = _factor(a22, "the detail splitting block")
        data = {"cut": cut, "lu1": lu1, "lu2": lu2, "A11": a11, "A22": a22}
        if kind == GAUSS_SEIDEL_2:
            b = a[cut:, :][:, :cut].tocsr()
            data["B"] = b
            data["Bt"] = b.T.tocsr()
        return Preconditioner(kind, n_p, n_fe, data)
    raise UsageError(f"unknown preconditioner kind {kind!r}")


class _EmptySolve:
    """Stand-in factorization for a zero-size block."""

    def solve(self, r):
        return r


_EMPTY = sp.csr_matrix((0, 0))


def apply_inverse(m: Preconditioner, r: np.ndarray) -> np.ndarray:
    return m.solve(r)
