"""Guaranteed two-sided spectral bounds for the preconditioned operators,
and a brute-force per-element oracle that computes the sharp equivalence
constants for a concrete coefficient field.

All analytic bounds depend only on the dominance ratio mu, the polynomial
family and the basis orders.  They are valid for every admissible
coefficient field with that mu, hence they enclose the per-element oracle
values, which in turn enclose the true eigenvalues of the preconditioned
operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import MultiIndexSet, assemble_G
from .errors import DominanceError, ParameterDomainError, SizeError, UsageError
from .fem import CoefficientField
from .operator import (
    GAUSS_SEIDEL_2,
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_OF_BASIS,
    SPLITTING_TP,
    TRUNCATED_TP,
    check_basis,
    kept_couplings,
)
from .orthopoly import RecurrenceFamily, check_mu, d_sequence, max_root

__all__ = [
    "SpectralBounds",
    "bounds_for",
    "mean_based_bounds",
    "classical_bounds",
    "truncated_bounds",
    "splitting_bounds_tp",
    "splitting_bounds_complete",
    "element_equivalence_oracle",
]

ORACLE_CAP = 600


@dataclass(frozen=True)
class SpectralBounds:
    """Equivalence constants c_lower <= spectrum(M^-1 A) <= c_upper.

    ``vacuous`` marks a nonpositive lower constant: the factorized
    preconditioner can still exist but the bound carries no information and
    kappa_bound is +inf.  t_arg is the block order attaining the extremes.

    Each preconditioner kind has one record (``bounds_for``).  For the
    splitting kinds, gamma = c_upper - 1 bounds the strengthened
    Cauchy-Schwarz constant of the two subspaces; the two-block Gauss-Seidel
    record is [1 - gamma^2, 1] with kappa_bound 1/(1 - gamma^2) for that
    same gamma.
    """

    kind: str
    c_lower: float
    c_upper: float
    vacuous: bool
    kappa_bound: float
    t_arg: int | None = None


def _symmetric_bounds(kind: str, reach: float, t_arg: int | None = None) -> SpectralBounds:
    c_lo = 1.0 - reach
    c_hi = 1.0 + reach
    vacuous = not c_lo > 0.0
    kappa = math.inf if vacuous else c_hi / c_lo
    return SpectralBounds(kind, c_lo, c_hi, vacuous, kappa, t_arg)


def mean_based_bounds(family: RecurrenceFamily, index_set: MultiIndexSet, mu: float) -> SpectralBounds:
    """Bounds for the block-diagonal mean preconditioner: 1 -+ mu times the
    largest root at the highest order appearing in the basis."""
    check_mu(mu)
    return _symmetric_bounds(MEAN_BASED, mu * max_root(family, index_set.max_order))


def classical_bounds(family: RecurrenceFamily, index_set: MultiIndexSet, mu_class: float) -> SpectralBounds:
    """Counterpart bounds from the global-norm dominance ratio."""
    check_mu(mu_class, "mu_class")
    return _symmetric_bounds("classical", mu_class * max_root(family, index_set.max_order))


def truncated_bounds(family: RecurrenceFamily, s_last: int, mu: float) -> SpectralBounds:
    """Bounds for the preconditioner that drops the last expansion term of a
    tensor-product basis; controlled by the last coordinate's order only."""
    check_mu(mu)
    if s_last < 1:
        raise ParameterDomainError("order must be >= 1")
    return _symmetric_bounds(TRUNCATED_TP, mu * max_root(family, s_last))


def splitting_bounds_tp(family: RecurrenceFamily, s_last: int, mu: float) -> SpectralBounds:
    """Bounds for the two-block splitting of a tensor-product basis along the
    top order of the last coordinate."""
    d_last = float(d_sequence(family, mu, s_last)[-1])
    return _symmetric_bounds(SPLITTING_TP, math.sqrt(max(1.0 - d_last, 0.0)), t_arg=s_last)


def splitting_bounds_complete(family: RecurrenceFamily, order: int, mu: float) -> SpectralBounds:
    """Bounds for the two-block splitting of a complete basis at its top
    total degree; the extremes sweep the comparison blocks of every order
    t <= s and are attained at the smallest pivot."""
    pivots = d_sequence(family, mu, order)
    t = int(np.argmin(pivots)) + 1  # ties resolve to the smaller order
    return _symmetric_bounds(SPLITTING_COMPLETE, math.sqrt(max(1.0 - float(pivots[t - 1]), 0.0)), t_arg=t)


def bounds_for(kind: str, family: RecurrenceFamily, index_set: MultiIndexSet, mu: float) -> SpectralBounds:
    """The bounds record of preconditioner ``kind`` on ``index_set``.

    The tensor kinds are controlled by the last coordinate's order and the
    complete splitting by the total order.  gs2 takes gamma = c_upper - 1 of
    the splitting of its basis: M_gs2 - A = diag(0, B A11^-1 B^T) is positive
    semidefinite and the detail block of the splitting equals A22, so the
    spectrum of M_gs2^-1 A lies in [1 - gamma^2, 1] (Eijkhout-Vassilevski
    1991; Axelsson 1994, ch. 9).
    """
    check_basis(kind, index_set.kind)
    if kind == MEAN_BASED:
        return mean_based_bounds(family, index_set, mu)
    if kind == TRUNCATED_TP:
        return truncated_bounds(family, index_set.orders[-1], mu)
    if kind == GAUSS_SEIDEL_2:
        split = bounds_for(SPLITTING_OF_BASIS[index_set.kind], family, index_set, mu)
        gamma = split.c_upper - 1.0
        c_lo = 1.0 - gamma * gamma
        vacuous = not c_lo > 0.0
        return SpectralBounds(GAUSS_SEIDEL_2, c_lo, 1.0, vacuous,
                              math.inf if vacuous else 1.0 / c_lo, t_arg=split.t_arg)
    if kind == SPLITTING_TP:
        return splitting_bounds_tp(family, index_set.orders[-1], mu)
    if kind == SPLITTING_COMPLETE:
        return splitting_bounds_complete(family, index_set.order, mu)
    raise UsageError(f"unknown preconditioner kind {kind!r}")


def element_equivalence_oracle(
    family: RecurrenceFamily,
    index_set: MultiIndexSet,
    field: CoefficientField,
    kind: str,
    cap: int = ORACLE_CAP,
) -> tuple[float, float]:
    """Sharp per-element equivalence constants for a concrete field.

    For every element, solves the dense generalized eigenproblem between the
    element's coupling combination and the same combination restricted to
    the couplings the preconditioner keeps (``operator.kept_couplings``),
    and returns the global (min, max).  These constants are what lifts to
    the full operator, so they always sit inside the analytic bounds and
    outside the true eigenvalues.
    """
    if kind == GAUSS_SEIDEL_2:
        raise UsageError("the per-element oracle applies to block-diagonal kinds only")
    if index_set.size > cap:
        raise SizeError(f"oracle needs a dense basis solve; {index_set.size} > cap {cap}")
    if field.nterms != index_set.nvars:
        raise UsageError("field and basis disagree on the number of variables")
    gs = [assemble_G(family, index_set, k).toarray() for k in range(index_set.nvars + 1)]
    keep = kept_couplings(kind, index_set)
    lo = math.inf
    hi = -math.inf
    for j in range(field.n_elements):
        values = field.values[:, j]
        lhs = sum(values[k] * gs[k] for k in range(len(gs)))
        rhs = np.where(keep, lhs, 0.0)
        try:
            np.linalg.cholesky(rhs)
        except np.linalg.LinAlgError:
            raise DominanceError(
                f"preconditioner comparison matrix is not positive definite on element {j}",
                index=j,
            ) from None
        w = scipy.linalg.eigh(lhs, rhs, eigvals_only=True)
        lo = min(lo, float(w[0]))
        hi = max(hi, float(w[-1]))
    return lo, hi
