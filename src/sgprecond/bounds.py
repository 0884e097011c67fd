"""Guaranteed two-sided spectral bounds for the preconditioned operators,
and a brute-force per-element oracle that computes the sharp equivalence
constants for a concrete coefficient field.

``bounds_for`` builds every bounds record: one per preconditioner kind, and
the classical record as the mean_based one for mu_class.  Each depends only
on the dominance ratio, the polynomial family and the basis orders.  The
records are valid for every admissible coefficient field with that ratio,
hence they enclose the per-element oracle values, which in turn enclose the
true eigenvalues of the preconditioned operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import MultiIndexSet, assemble_G
from .errors import DominanceError, SizeError, UsageError
from .fem import CoefficientField
from .operator import (
    MEAN_BASED,
    SPLITTING_COMPLETE,
    SPLITTING_OF_BASIS,
    SPLITTING_TP,
    TRUNCATED_TP,
    check_basis,
    kept_blocks,
)
from .orthopoly import RecurrenceFamily, check_mu, d_sequence, max_root

__all__ = [
    "SpectralBounds",
    "bounds_for",
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

    c_lower: float
    c_upper: float
    t_arg: int | None = None

    @property
    def vacuous(self) -> bool:
        return not self.c_lower > 0.0

    @property
    def kappa_bound(self) -> float:
        return math.inf if self.vacuous else self.c_upper / self.c_lower


def bounds_for(kind: str, family: RecurrenceFamily, index_set: MultiIndexSet, mu: float) -> SpectralBounds:
    """The bounds record of preconditioner ``kind`` on ``index_set``.

    The block-diagonal kinds have the record [1 - r, 1 + r] for a reach r:
    mu times the largest root at the highest order of the basis (mean_based)
    or of the last coordinate (truncated_tp); sqrt(1 - d_t) for the pivot
    d_t of the splitting at the last coordinate's order t (splitting_tp) or
    the smallest pivot over the total orders t <= s (splitting_complete).
    gs2 takes gamma = c_upper - 1 of the splitting of its basis:
    M_gs2 - A = diag(0, B A11^-1 B^T) is positive semidefinite and the
    detail block of the splitting equals A22, so the spectrum of M_gs2^-1 A
    lies in [1 - gamma^2, 1] (Eijkhout-Vassilevski 1991; Axelsson 1994,
    ch. 9).

    The classical bound is the mean_based record with the global-norm ratio
    mu_class in place of mu.
    """
    check_basis(kind, index_set.kind)
    t_arg = None
    if kind == MEAN_BASED:
        check_mu(mu)
        reach = mu * max_root(family, index_set.max_order)
    elif kind == TRUNCATED_TP:
        check_mu(mu)
        reach = mu * max_root(family, index_set.orders[-1])
    elif kind == SPLITTING_TP:
        t_arg = index_set.orders[-1]
        reach = math.sqrt(max(1.0 - float(d_sequence(family, mu, t_arg)[-1]), 0.0))
    elif kind == SPLITTING_COMPLETE:
        pivots = d_sequence(family, mu, index_set.order)
        t_arg = int(np.argmin(pivots)) + 1  # ties resolve to the smaller order
        reach = math.sqrt(max(1.0 - float(pivots[t_arg - 1]), 0.0))
    else:  # gs2
        split = bounds_for(SPLITTING_OF_BASIS[index_set.kind], family, index_set, mu)
        gamma = split.c_upper - 1.0
        return SpectralBounds(1.0 - gamma * gamma, 1.0, split.t_arg)
    return SpectralBounds(1.0 - reach, 1.0 + reach, t_arg)


def element_equivalence_oracle(
    family: RecurrenceFamily,
    index_set: MultiIndexSet,
    field: CoefficientField,
    kind: str,
) -> tuple[float, float]:
    """Sharp per-element equivalence constants for a concrete field.

    For every element, solves the dense generalized eigenproblem between the
    element's coupling combination sum_k a_k G_k and the same combination
    of what the preconditioner keeps of each G_k (``operator.kept_blocks``),
    and returns the global (min, max).  These constants are what lifts to
    the full operator, so they always sit inside the analytic bounds and
    outside the true eigenvalues.
    """
    if not check_basis(kind, index_set.kind).block_diagonal:
        raise UsageError("the per-element oracle applies to block-diagonal kinds only")
    if index_set.size > ORACLE_CAP:
        raise SizeError(f"oracle needs a dense basis solve; {index_set.size} > cap {ORACLE_CAP}")
    if field.nterms != index_set.nvars:
        raise UsageError("field and basis disagree on the number of variables")
    gs = [assemble_G(family, index_set, k) for k in range(index_set.nvars + 1)]
    kept = [kept_blocks(kind, index_set, g).toarray() for g in gs]
    gs = [g.toarray() for g in gs]
    lo = math.inf
    hi = -math.inf
    for j in range(field.n_elements):
        values = field.values[:, j]
        lhs = sum(values[k] * gs[k] for k in range(len(gs)))
        rhs = sum(values[k] * kept[k] for k in range(len(kept)))
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
