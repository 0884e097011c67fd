"""Uniform meshes on the unit interval/square, element stiffness blocks,
coefficient sampling, stiffness assembly and the dominance statistics.

Elements are intervals (linear hat functions) in 1D.  In 2D the unit square
is split into equal squares carrying either bilinear functions (``q1``, the
default) or linear functions on the two triangles obtained by cutting each
square along its SW-NE diagonal (``p1``).  Boundary conditions are
homogeneous Dirichlet, so only interior nodes carry degrees of freedom.
Coefficients are constant per square (per interval in 1D), sampled at its
midpoint; with such coefficients the ``p1`` square block is the 5-point
stencil and does not depend on which diagonal is cut.  The dominance ratio
of expressions is read on an odd sub-grid that contains those midpoints, so
it is never below the ratio of the assembled field.

The published 2D tables (Table 4 and Table 5) use ``p1`` on 21x21 squares,
that is a 20x20 grid of interior nodes with h = 1/21.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import coeffexpr
from .errors import CoefficientError, ParameterDomainError

ELEMENT_KINDS = ("q1", "p1")

# cells per element and axis on which mu_from_exprs reads the expressions
MU_REFINE = 63
# grid points per block of the dominance reduction (0.5 MiB of float64)
_BLOCK_POINTS = 1 << 16

__all__ = [
    "ELEMENT_KINDS",
    "MU_REFINE",
    "Mesh",
    "CoefficientField",
    "build_mesh",
    "element_stiffness",
    "sample_coefficients",
    "assemble_F",
    "compute_mu",
    "mu_from_exprs",
    "load_vector",
    "parse_coefficient_table",
    "load_coefficient_table",
]


@dataclass(frozen=True)
class Mesh:
    """Uniform mesh of the unit interval (dim 1) or unit square (dim 2);
    ``element`` is the 2D element kind, ``q1`` or ``p1``."""

    dim: int
    extents: tuple
    element: str = "q1"

    @property
    def h(self) -> float:
        return 1.0 / self.extents[0]

    @property
    def n_elements(self) -> int:
        n = 1
        for e in self.extents:
            n *= e
        return n

    @property
    def n_interior(self) -> int:
        n = 1
        for e in self.extents:
            n *= e - 1
        return n

    def midpoint_axes(self, refine: int = 1) -> tuple[np.ndarray, np.ndarray | None]:
        """x1 and x2 (None in 1D) of the midpoints of ``refine`` cells per
        element and axis, in 2D as a row and a column that broadcast to the
        grid, x index fastest; refine=1 gives element midpoints."""
        axes = [(np.arange(e * refine) + 0.5) / (e * refine) for e in self.extents]
        if self.dim == 1:
            return axes[0], None
        return axes[0][None, :], axes[1][:, None]

    def element_nodes(self) -> np.ndarray:
        """(N_elem, nodes_per_element) global node ids; 1D order (left,
        right), 2D order (SW, SE, NE, NW) matching element_stiffness."""
        if self.dim == 1:
            n = self.extents[0]
            left = np.arange(n)
            return np.column_stack([left, left + 1])
        nx, ny = self.extents
        ex, ey = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
        ex = ex.ravel()
        ey = ey.ravel()
        sw = ey * (nx + 1) + ex
        return np.column_stack([sw, sw + 1, sw + nx + 2, sw + nx + 1])

    def interior_dof(self) -> np.ndarray:
        """Map node id -> interior dof id, -1 for boundary nodes."""
        if self.dim == 1:
            n = self.extents[0]
            dof = -np.ones(n + 1, dtype=np.int64)
            dof[1:n] = np.arange(n - 1)
            return dof
        nx, ny = self.extents
        dof = -np.ones((ny + 1) * (nx + 1), dtype=np.int64)
        for iy in range(1, ny):
            start = iy * (nx + 1) + 1
            dof[start : start + nx - 1] = (iy - 1) * (nx - 1) + np.arange(nx - 1)
        return dof


def build_mesh(dim: int, extents, element: str = "q1") -> Mesh:
    """The uniform mesh of ``extents`` elements per axis; the one check of
    every mesh and element rule."""
    if dim not in (1, 2):
        raise ParameterDomainError("dim must be 1 or 2")
    extents = (int(extents),) if np.isscalar(extents) else tuple(int(e) for e in extents)
    if len(extents) != dim:
        raise ParameterDomainError(f"elements needs {dim} value(s)")
    if min(extents) < 2:
        raise ParameterDomainError("elements must be >= 2 per axis")
    if extents[0] != extents[-1]:
        raise ParameterDomainError("2D meshes must be square (equal extents)")
    if element not in ELEMENT_KINDS:
        raise ParameterDomainError(
            f"element must be one of {', '.join(ELEMENT_KINDS)}, got {element!r}"
        )
    if dim == 1 and element != "q1":
        raise ParameterDomainError(f"element {element!r} applies to 2D meshes only")
    return Mesh(dim, extents, element)


def element_stiffness(mesh: Mesh) -> np.ndarray:
    """Stiffness block of one element (identical on a uniform mesh)."""
    if mesh.dim == 1:
        return (1.0 / mesh.h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    if mesh.element == "p1":
        # two linear triangles sharing one diagonal, scale free for equal spacings
        return 0.5 * np.array(
            [
                [2.0, -1.0, 0.0, -1.0],
                [-1.0, 2.0, -1.0, 0.0],
                [0.0, -1.0, 2.0, -1.0],
                [-1.0, 0.0, -1.0, 2.0],
            ]
        )
    # bilinear square element, scale free for equal spacings
    return (1.0 / 6.0) * np.array(
        [
            [4.0, -1.0, -2.0, -1.0],
            [-1.0, 4.0, -1.0, -2.0],
            [-2.0, -1.0, 4.0, -1.0],
            [-1.0, -2.0, -1.0, 4.0],
        ]
    )


@dataclass(frozen=True)
class CoefficientField:
    """Per-element coefficient values, shape (K+1, N_elem); row 0 is the
    mean part and must be strictly positive."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise CoefficientError("coefficient table must be 2-dimensional")
        bad = np.argwhere(~np.isfinite(vals))
        if len(bad):
            k, j = bad[0]
            raise CoefficientError(f"coefficient row {k} is not finite on element {j}")
        if np.any(vals[0] <= 0.0):
            j = int(np.argmin(vals[0]))
            raise CoefficientError(f"mean coefficient is nonpositive on element {j}")
        object.__setattr__(self, "values", vals)

    @property
    def nterms(self) -> int:
        """Number of fluctuation terms K."""
        return self.values.shape[0] - 1

    @property
    def n_elements(self) -> int:
        return self.values.shape[1]


def sample_coefficients(exprs, mesh: Mesh) -> CoefficientField:
    """Evaluate K+1 coefficient expression strings at the element midpoints,
    x index fastest."""
    x1, x2 = mesh.midpoint_axes()
    return CoefficientField(
        np.vstack([coeffexpr.evaluate_on(coeffexpr.parse(e), x1, x2).ravel() for e in exprs])
    )


def assemble_F(mesh: Mesh, field: CoefficientField, k: int) -> sp.csr_matrix:
    """Global stiffness of coefficient row k on the interior nodes."""
    if field.n_elements != mesh.n_elements:
        raise CoefficientError("coefficient field does not match the mesh")
    if k < 0 or k > field.nterms:
        raise ParameterDomainError(f"coefficient row {k} outside 0..{field.nterms}")
    block = element_stiffness(mesh)
    enodes = mesh.element_nodes()
    dof = mesh.interior_dof()[enodes]  # (N_elem, m)
    coeff = field.values[k]
    m = block.shape[0]
    rows = []
    cols = []
    vals = []
    for a in range(m):
        for b in range(m):
            mask = (dof[:, a] >= 0) & (dof[:, b] >= 0)
            rows.append(dof[mask, a])
            cols.append(dof[mask, b])
            vals.append(coeff[mask] * block[a, b])
    n = mesh.n_interior
    mat = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    )
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _row_blocks(a: np.ndarray) -> list[slice]:
    """Slices of ``a`` along its first axis of about _BLOCK_POINTS points
    each: whole grid rows in 2D, single points in 1D."""
    step = max(1, _BLOCK_POINTS // a[:1].size)
    return [slice(start, start + step) for start in range(0, a.shape[0], step)]


def _dominance(a0: np.ndarray, rows) -> tuple[float, float]:
    """compute_mu's (mu, mu_class) of a_0 and the rows a_1..a_K, each of
    a_0's shape.  Sum_k |a_k| / a_0 and each max |a_k| are reduced over the
    ``_row_blocks`` of a_0, so read-only broadcast views of a grid cost one
    block at a time; every sum, ratio and maximum is the one of whole
    arrays, bit for bit."""
    rows = list(rows)
    if not rows:
        return 0.0, 0.0
    ratios, maxima = [], []
    for block in _row_blocks(a0):
        total = np.zeros(a0[block].shape)
        peaks = []
        for row in rows:
            part = np.abs(row[block])
            total += part
            peaks.append(part.max())
        ratios.append(np.max(total / a0[block]))
        maxima.append(peaks)
    return float(np.max(ratios)), float(np.sum(np.max(maxima, axis=0)) / a0.min())


def compute_mu(field: CoefficientField) -> tuple[float, float]:
    """Dominance statistics of a sampled field.

    mu is the elementwise ratio max_j sum_k |a_k(j)| / a_0(j); mu_class the
    global-norm variant sum_k max_j |a_k(j)| / min_j a_0(j).  Both reduce to
    the familiar unit-mean formulas when a_0 is constant 1.
    """
    return _dominance(field.values[0], field.values[1:])


def mu_from_exprs(exprs, mesh: Mesh) -> tuple[float, float]:
    """Dominance statistics of the expression strings read at the midpoints of
    MU_REFINE cells per element and axis, which approach the essential
    supremum for smooth coefficients.  MU_REFINE is odd, so the grid holds
    every element midpoint bit for bit and the result is at least
    compute_mu(sample_coefficients(exprs, mesh)) of the assembled field.

    Each expression is evaluated once on the grid's axes, so an expression
    of x1 alone costs one value per column, and is kept as the read-only
    broadcast view ``coeffexpr.evaluate_on`` returns; ``_dominance`` reads the
    views in blocks of grid rows, so no expression is copied out to the grid."""
    exprs = [coeffexpr.parse(e) for e in exprs]
    x1, x2 = mesh.midpoint_axes(MU_REFINE)
    a0 = coeffexpr.evaluate_on(exprs[0], x1, x2)
    if any(np.any(a0[block] <= 0.0) for block in _row_blocks(a0)):
        raise CoefficientError("mean coefficient is nonpositive on the sampling grid")
    return _dominance(a0, [coeffexpr.evaluate_on(e, x1, x2) for e in exprs[1:]])


def load_vector(mesh: Mesh, f: str) -> np.ndarray:
    """Right-hand side for the source expression string f using the element
    midpoint rule; for ``p1`` each square's mass goes h^2/3 to the two ends
    of the cut diagonal (SW, NE) and h^2/6 to the other two corners."""
    fv = coeffexpr.evaluate_on(coeffexpr.parse(f), *mesh.midpoint_axes()).ravel()
    if mesh.dim == 1:
        shares = np.full(2, mesh.h / 2.0)
    elif mesh.element == "p1":
        shares = mesh.h * mesh.h * np.array([1.0 / 3.0, 1.0 / 6.0, 1.0 / 3.0, 1.0 / 6.0])
    else:
        shares = np.full(4, mesh.h * mesh.h / 4.0)
    dof = mesh.interior_dof()[mesh.element_nodes()]
    out = np.zeros(mesh.n_interior)
    for a in range(dof.shape[1]):
        mask = dof[:, a] >= 0
        np.add.at(out, dof[mask, a], fv[mask] * shares[a])
    return out


def parse_coefficient_table(text: str) -> CoefficientField:
    """Parse a plain-text table with one row per element and K+1
    whitespace-separated columns a_0 .. a_K."""
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise CoefficientError(f"table line {ln}: expected {width} columns, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise CoefficientError(f"table line {ln}: {exc}") from None
    if not rows:
        raise CoefficientError("coefficient table is empty")
    return CoefficientField(np.asarray(rows, dtype=float).T)


def load_coefficient_table(path) -> CoefficientField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CoefficientError(f"cannot read {path}: {exc.strerror or exc}") from None
    return parse_coefficient_table(text)
