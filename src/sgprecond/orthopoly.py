"""Classical orthogonal polynomial recurrences and the small-matrix spectral
machinery built on them.

The symmetric families (Hermite, Legendre, Chebyshev second kind, Gegenbauer)
all have three-term recurrences with zero diagonal terms, so their Jacobi
matrices are determined by the offdiagonal entries sqrt(beta_n) alone.  The
eigenvalues of the order-s Jacobi matrix are the roots of the degree-s
polynomial; together with the squared last components of its eigenvectors they
form the quadrature rule that evaluates corner entries of resolvent-like
matrix functions.  The pivot sequence d_1..d_s of I + mu*J drives the
splitting-preconditioner bounds.

Every tridiagonal eigenproblem of the package, these Jacobi matrices and the
Lanczos Ritz matrices of ``eigsolve`` alike, is solved by LAPACK through
``_tridiag_eig`` (``scipy.linalg.eigh_tridiagonal``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, DominanceError, ParameterDomainError, SizeError

__all__ = [
    "RecurrenceFamily",
    "GaussRule",
    "hermite",
    "legendre",
    "chebyshev_u",
    "gegenbauer",
    "family_from_name",
    "jacobi_matrix",
    "max_root",
    "gauss_rule",
    "check_mu",
    "d_sequence",
    "d_last_via_quadrature",
    "mu_bar",
]

HERMITE = "hermite"
LEGENDRE = "legendre"
CHEBYSHEV_U = "chebyshev_u"
GEGENBAUER = "gegenbauer"

_KINDS = (HERMITE, LEGENDRE, CHEBYSHEV_U, GEGENBAUER)
QUADRATURE_CAP = 4096  # the largest Gauss rule: its eigenvectors take 128 MiB


@dataclass(frozen=True)
class RecurrenceFamily:
    """A symmetric orthonormal polynomial family: alpha_n = 0 for all n and an
    explicit rule for beta_n.

    Legendre and Chebyshev (second kind) coincide with the Gegenbauer family
    at shape parameters 1/2 and 1 respectively; they are kept as separate
    kinds so that their exact beta formulas are used.
    """

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterDomainError(f"unknown family name {self.kind!r}")
        if self.kind != GEGENBAUER:
            if self.gamma is not None:
                raise ParameterDomainError(f"{self.kind} takes no gamma value")
        elif self.gamma is None:
            raise ParameterDomainError("gegenbauer requires a gamma value")
        elif not self.gamma > -0.5:
            raise ParameterDomainError(
                f"gegenbauer shape parameter must exceed -1/2, got {self.gamma}"
            )
        elif not math.isfinite(4.0 * self.gamma * self.gamma):
            # beta_n divides by (2n - 2 + 2g)(2n + 2g), about (2g)^2
            raise ParameterDomainError(
                f"gegenbauer shape parameter {self.gamma} overflows the recurrence "
                "coefficients beta_n"
            )

    @property
    def label(self) -> str:
        if self.kind == GEGENBAUER:
            return f"gegenbauer(gamma={self.gamma:g})"
        return self.kind

    def beta(self, n: int) -> float:
        if n < 1:
            raise ParameterDomainError("recurrence index must be >= 1")
        if self.kind == HERMITE:
            return n / 2.0
        if self.kind == CHEBYSHEV_U:
            return 0.25
        if self.kind == LEGENDRE:
            return n * n / ((2.0 * n - 1.0) * (2.0 * n + 1.0))
        g = self.gamma
        if n == 1:
            # (2g) / ((2g)(2 + 2g)) with the common factor cancelled, which
            # also covers the g -> 0 limit.
            return 1.0 / (2.0 + 2.0 * g)
        return (n + 2.0 * g - 1.0) * n / ((2.0 * n - 2.0 + 2.0 * g) * (2.0 * n + 2.0 * g))


def hermite() -> RecurrenceFamily:
    return RecurrenceFamily(HERMITE)


def legendre() -> RecurrenceFamily:
    return RecurrenceFamily(LEGENDRE)


def chebyshev_u() -> RecurrenceFamily:
    return RecurrenceFamily(CHEBYSHEV_U)


def gegenbauer(gamma: float) -> RecurrenceFamily:
    return RecurrenceFamily(GEGENBAUER, float(gamma))


def family_from_name(name: str, gamma: float | None = None) -> RecurrenceFamily:
    """Build a family from its configuration name."""
    return RecurrenceFamily(name.strip().lower(), gamma)


def _jacobi_bands(family: RecurrenceFamily, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Zero diagonal and offdiagonal sqrt(beta_1..beta_{s-1}) of the order-s Jacobi matrix."""
    if s < 1:
        raise ParameterDomainError("matrix order must be >= 1")
    return np.zeros(s), np.sqrt([family.beta(n) for n in range(1, s)])


def jacobi_matrix(family: RecurrenceFamily, s: int) -> np.ndarray:
    """Order-s Jacobi matrix of the family's recurrence, a dense symmetric array."""
    _, off = _jacobi_bands(family, s)
    return np.diag(off, 1) + np.diag(off, -1)


def _tridiag_eig(diag, offdiag, vectors=False):
    """Eigen decomposition of a symmetric tridiagonal matrix by LAPACK
    (``scipy.linalg.eigh_tridiagonal``).

    Returns eigenvalues in ascending order and, when ``vectors`` is set, the
    matrix whose columns are the matching orthonormal eigenvectors (None
    otherwise).  A LAPACK failure or a NaN/inf entry raises ConvergenceError.
    """
    d = np.asarray(diag, dtype=float)
    if d.size == 0:
        raise ParameterDomainError("empty matrix")
    e = np.asarray(offdiag, dtype=float)
    if not (np.isfinite(d).all() and np.isfinite(e).all()):
        raise ConvergenceError(f"tridiagonal matrix (n={d.size}) has a NaN or inf entry")
    try:
        if vectors:
            return eigh_tridiagonal(d, e)
        return eigh_tridiagonal(d, e, eigvals_only=True), None
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolve failed (n={d.size}): {exc}") from exc


def max_root(family: RecurrenceFamily, s: int) -> float:
    """Largest root of the family's degree-s polynomial (0 for s = 1)."""
    if s == 1:
        return 0.0
    values, _ = _tridiag_eig(*_jacobi_bands(family, s))
    return float(values[-1])


@dataclass(frozen=True)
class GaussRule:
    """Nodes and weights of the quadrature generated by reading the
    recurrence backwards (offdiagonals reversed), evaluated without ever
    forming the reversed matrix: the nodes are the Jacobi eigenvalues and
    the weights the squared last components of its orthonormal eigenvectors.

    For these symmetric families the nodes coincide with the classical Gauss
    nodes and the weights are positive and sum to one.  Sums of
    weights[j] * f(nodes[j]) reproduce the corner entry e_s^T f(J) e_s for
    any f, which is what the splitting bounds need.
    """

    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(family: RecurrenceFamily, s: int) -> GaussRule:
    if s > QUADRATURE_CAP:
        raise SizeError(f"quadrature order {s} exceeds cap {QUADRATURE_CAP}")
    values, z = _tridiag_eig(*_jacobi_bands(family, s), vectors=True)
    weights = z[-1, :] ** 2
    return GaussRule(values, weights)


def check_mu(mu: float) -> None:
    """Reject a dominance ratio that is negative, NaN or infinite."""
    if not (math.isfinite(mu) and mu >= 0.0):
        raise ParameterDomainError(f"mu must be finite and nonnegative, got {mu!r}")


def d_sequence(family: RecurrenceFamily, mu: float, s: int) -> np.ndarray:
    """Pivots d_1..d_s of the LDL^T factorization of I + mu*J: d_1 = 1 and
    d_j = 1 - mu^2 beta_{j-1} / d_{j-1}.  All pivots are positive exactly
    when mu * max_root(family, j) < 1 for every j up to s."""
    check_mu(mu)
    if s < 1:
        raise ParameterDomainError("sequence length must be >= 1")
    vals = np.empty(s)
    vals[0] = 1.0
    musq = mu * mu
    for j in range(2, s + 1):
        d = 1.0 - musq * family.beta(j - 1) / vals[j - 2]
        if d <= 0.0:
            raise DominanceError(
                f"pivot d_{j} = {d:.3g} is nonpositive for {family.label} with mu={mu:g}",
                index=j,
            )
        vals[j - 1] = d
    return vals


def d_last_via_quadrature(family: RecurrenceFamily, mu: float, s: int) -> float:
    """d_s evaluated through the quadrature identity
    1/d_s = sum_j w_j / (1 - mu^2 node_j^2), an independent route used to
    cross-check the pivot recursion."""
    check_mu(mu)
    rule = gauss_rule(family, s)
    denom = 1.0 - (mu * rule.nodes) ** 2
    if np.any(denom <= 0.0):
        j = int(np.argmin(denom))
        raise DominanceError(
            f"mu={mu:g} reaches a quadrature node of {family.label} (node {rule.nodes[j]:g})",
            index=j,
        )
    return float(1.0 / np.sum(rule.weights / denom))


def mu_bar(family: RecurrenceFamily, basis_kind: str, orders) -> float:
    """Largest dominance ratio that still guarantees positive definiteness of
    the assembled operator.

    Beta-type families (Legendre, Chebyshev second kind, Gegenbauer) allow
    mu_bar = 1 because their roots stay inside (-1, 1).  For Hermite the
    bound shrinks with the polynomial order; the degenerate all-constant
    basis returns +inf, meaning unconstrained.
    """
    if family.kind != HERMITE:
        return 1.0
    if basis_kind == "tensor":
        m = sum(int(s) - 1 for s in orders)
    elif basis_kind == "complete":
        m = int(orders) - 1
    else:
        raise ParameterDomainError(f"unknown basis kind {basis_kind!r}")
    if m < 0:
        raise ParameterDomainError("orders must be >= 1")
    if m == 0:
        return math.inf
    return 1.0 / math.sqrt(2.0 * m)
