"""Uniform meshes on the unit interval/square, element stiffness blocks,
coefficient sampling, stiffness assembly and the dominance statistics.

Elements are intervals (linear hat functions) in 1D.  In 2D the unit square
is split into equal squares carrying either bilinear functions (``q1``, the
default) or linear functions on the two triangles obtained by cutting each
square along its SW-NE diagonal (``p1``).  Boundary conditions are
homogeneous Dirichlet, so only interior nodes carry degrees of freedom.
Coefficients are constant per square (per interval in 1D), sampled at its
midpoint; with such coefficients the ``p1`` square block is the 5-point
stencil and does not depend on which diagonal is cut.

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

__all__ = [
    "ELEMENT_KINDS",
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

    def element_midpoints(self) -> np.ndarray:
        """(N_elem, dim) array of element midpoints, x index fastest."""
        axes = [(np.arange(e) + 0.5) / e for e in self.extents]
        if self.dim == 1:
            return axes[0][:, None]
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="xy")
        return np.column_stack([xg.ravel(), yg.ravel()])

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
    if element not in ELEMENT_KINDS:
        raise ParameterDomainError(
            f"element must be one of {', '.join(ELEMENT_KINDS)}, got {element!r}"
        )
    if dim == 1:
        if np.isscalar(extents):
            extents = (int(extents),)
        else:
            extents = tuple(int(e) for e in extents)
        if len(extents) != 1 or extents[0] < 2:
            raise ParameterDomainError("1D mesh needs one extent >= 2")
        if element != "q1":
            raise ParameterDomainError(f"element {element!r} applies to 2D meshes only")
    elif dim == 2:
        extents = tuple(int(e) for e in extents)
        if len(extents) != 2 or min(extents) < 2:
            raise ParameterDomainError("2D mesh needs two extents >= 2")
        if extents[0] != extents[1]:
            raise ParameterDomainError("2D elements must be squares (equal extents)")
    else:
        raise ParameterDomainError("dim must be 1 or 2")
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


def _as_exprs(exprs):
    return [coeffexpr.parse(e) if isinstance(e, str) else e for e in exprs]


def sample_coefficients(exprs, mesh: Mesh) -> CoefficientField:
    """Evaluate K+1 coefficient expressions at the element midpoints."""
    exprs = _as_exprs(exprs)
    mids = mesh.element_midpoints()
    x1 = mids[:, 0]
    x2 = mids[:, 1] if mesh.dim == 2 else None
    rows = [coeffexpr.evaluate_on(e, x1, x2) for e in exprs]
    return CoefficientField(np.vstack(rows))


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


def compute_mu(field: CoefficientField) -> tuple[float, float]:
    """Dominance statistics of a sampled field.

    mu is the elementwise ratio max_j sum_k |a_k(j)| / a_0(j); mu_class the
    global-norm variant sum_k max_j |a_k(j)| / min_j a_0(j).  Both reduce to
    the familiar unit-mean formulas when a_0 is constant 1.
    """
    vals = field.values
    if field.nterms == 0:
        return 0.0, 0.0
    fluct = np.abs(vals[1:])
    mu = float(np.max(fluct.sum(axis=0) / vals[0]))
    mu_class = float(fluct.max(axis=1).sum() / vals[0].min())
    return mu, mu_class


def mu_from_exprs(exprs, mesh: Mesh, refine: int = 64) -> tuple[float, float]:
    """Dominance statistics sampled on a refined midpoint grid.

    Each element is split into ``refine`` cells per axis and the coefficient
    expressions are read at the sub-midpoints, which approaches the essential
    supremum over the domain for smooth coefficients.  refine=1 reproduces
    compute_mu(sample_coefficients(exprs, mesh)).
    """
    if refine < 1:
        raise ParameterDomainError("refine must be >= 1")
    exprs = _as_exprs(exprs)
    axes = [(np.arange(e * refine) + 0.5) / (e * refine) for e in mesh.extents]
    if mesh.dim == 1:
        x1 = axes[0]
        x2 = None
    else:
        xg, yg = np.meshgrid(axes[0], axes[1], indexing="xy")
        x1 = xg.ravel()
        x2 = yg.ravel()
    a0 = coeffexpr.evaluate_on(exprs[0], x1, x2)
    if np.any(a0 <= 0.0):
        raise CoefficientError("mean coefficient is nonpositive on the sampling grid")
    if len(exprs) == 1:
        return 0.0, 0.0
    total = np.zeros_like(a0)
    class_sum = 0.0
    for e in exprs[1:]:
        vals = np.abs(coeffexpr.evaluate_on(e, x1, x2))
        total += vals
        class_sum += float(vals.max())
    mu = float(np.max(total / a0))
    mu_class = class_sum / float(a0.min())
    return mu, mu_class


def load_vector(mesh: Mesh, f) -> np.ndarray:
    """Right-hand side for source f using the element midpoint rule; for
    ``p1`` each square's mass goes h^2/3 to the two ends of the cut diagonal
    (SW, NE) and h^2/6 to the other two corners."""
    if isinstance(f, str):
        f = coeffexpr.parse(f)
    mids = mesh.element_midpoints()
    fv = coeffexpr.evaluate_on(f, mids[:, 0], mids[:, 1] if mesh.dim == 2 else None)
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
