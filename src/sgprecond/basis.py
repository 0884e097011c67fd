"""Multi-index sets for the polynomial chaos bases and the sparse coupling
matrices assembled over them.

Two basis kinds are supported: tensor-product sets with per-variable order
caps s_k (indices enumerated with the first coordinate changing fastest) and
complete sets with a total-degree cap s-1 (indices sorted by total degree,
ties broken by decreasing first coordinate, then decreasing second, and so
on).  Both orderings are deterministic so that assembled matrices are
reproducible entry for entry.
"""

from __future__ import annotations

from math import comb, prod, sqrt

import numpy as np
import scipy.sparse as sp

from .errors import ParameterDomainError, SizeError, UsageError
from .orthopoly import RecurrenceFamily

__all__ = [
    "MultiIndexSet",
    "assemble_G",
    "check_kind",
]

SIZE_CAP = 2_000_000  # the most indices a basis may hold

TENSOR = "tensor"
COMPLETE = "complete"
BASIS_KINDS = (COMPLETE, TENSOR)


def check_kind(kind: str) -> None:
    """Raise UsageError unless ``kind`` is a basis kind."""
    if kind not in BASIS_KINDS:
        raise UsageError(f"unknown basis kind {kind!r} (choose from {', '.join(BASIS_KINDS)})")


def _degree_level(nvars: int, degree: int):
    """Multi-indices of total degree ``degree``, first coordinate decreasing."""
    if nvars == 1:
        yield (degree,)
        return
    for lead in range(degree, -1, -1):
        for rest in _degree_level(nvars - 1, degree - lead):
            yield (lead, *rest)


class MultiIndexSet:
    """Ordered set of K-variate polynomial degree multi-indices."""

    def __init__(self, kind, indices, orders=None, order=None):
        self.kind = kind
        self.indices = indices
        self.orders = orders
        self.order = order
        self._positions = None

    @classmethod
    def tensor(cls, orders):
        orders = tuple(int(s) for s in orders)
        if len(orders) < 1 or any(s < 1 for s in orders):
            raise ParameterDomainError("tensor orders must be a nonempty sequence of s_k >= 1")
        size = prod(orders)
        if size > SIZE_CAP:
            raise SizeError(f"tensor basis size {size} exceeds cap {SIZE_CAP}")
        rows = np.empty((size, len(orders)), dtype=np.int64)
        pos = 0
        # first coordinate fastest
        for tail in np.ndindex(*orders[::-1]):
            rows[pos] = tail[::-1]
            pos += 1
        return cls(TENSOR, rows, orders=orders)

    @classmethod
    def complete(cls, nvars, order):
        nvars = int(nvars)
        order = int(order)
        if nvars < 1 or order < 1:
            raise ParameterDomainError("complete basis needs K >= 1 and s >= 1")
        size = comb(nvars + order - 1, nvars)
        if size > SIZE_CAP:
            raise SizeError(f"complete basis size {size} exceeds cap {SIZE_CAP}")
        rows = np.empty((size, nvars), dtype=np.int64)
        pos = 0
        for degree in range(order):
            for tup in _degree_level(nvars, degree):
                rows[pos] = tup
                pos += 1
        return cls(COMPLETE, rows, order=order)

    @property
    def nvars(self) -> int:
        return self.indices.shape[1]

    @property
    def size(self) -> int:
        return self.indices.shape[0]

    @property
    def max_order(self) -> int:
        """The s that controls mean-based bounds: max(s_k) for tensor sets,
        the total-degree cap s for complete sets."""
        if self.kind == TENSOR:
            return max(self.orders)
        return self.order

    def total_degrees(self) -> np.ndarray:
        return self.indices.sum(axis=1)

    def position(self, tup) -> int | None:
        if self._positions is None:
            self._positions = {tuple(row): i for i, row in enumerate(self.indices.tolist())}
        return self._positions.get(tuple(tup))

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        if self.kind == TENSOR:
            return f"MultiIndexSet(tensor, orders={self.orders}, size={self.size})"
        return f"MultiIndexSet(complete, K={self.nvars}, order={self.order}, size={self.size})"


def assemble_G(family: RecurrenceFamily, index_set: MultiIndexSet, k: int) -> sp.csr_matrix:
    """Coupling matrix of coordinate k over the basis (identity for k = 0),
    with sorted indices.

    Entry (i, j) is nonzero only when the two multi-indices differ by exactly
    one in coordinate k and agree elsewhere; its value is
    sqrt(beta_{min(i_k, j_k) + 1}).
    """
    if k < 0 or k > index_set.nvars:
        raise ParameterDomainError(f"coordinate {k} outside 0..{index_set.nvars}")
    if k == 0:
        return sp.identity(index_set.size, format="csr")
    rows = []
    cols = []
    vals = []
    col = k - 1
    for i, tup in enumerate(index_set.indices.tolist()):
        up = list(tup)
        up[col] += 1
        j = index_set.position(up)
        if j is None:
            continue
        v = sqrt(family.beta(tup[col] + 1))
        rows += [i, j]
        cols += [j, i]
        vals += [v, v]
    n = index_set.size
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    mat.sort_indices()
    return mat
