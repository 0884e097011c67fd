"""The guaranteed enclosure chain on a concrete problem:

    classical lower <= analytic lower <= sharp element constants
        <= true spectrum <= sharp element constants
        <= analytic upper <= classical upper

Everything right of the classical bounds uses only the local dominance
ratio mu, so the chain survives coefficient fields whose global variation
would make the classical constants useless.

Run:  python3 demos/bounds_vs_spectrum.py
"""

import numpy as np
import scipy.linalg

from sgprecond import (
    MEAN_BASED,
    DiscreteProblem,
    MultiIndexSet,
    bounds_for,
    build_mesh,
    compute_mu,
    element_equivalence_oracle,
    legendre,
    sample_coefficients,
)
from sgprecond.operator import kept_blocks

mesh = build_mesh(1, 30)
exprs = ["1", "0.5*chi(0,1/3)", "0.3*chi(1/3,2/3)", "0.1*chi(2/3,1)"]
field = sample_coefficients(exprs, mesh)
mu, mu_class = compute_mu(field)
print(f"piecewise-constant setting: mu = {mu}, mu_class = {mu_class}")

for degree in (1, 2, 4):
    iset = MultiIndexSet.complete(3, degree + 1)
    problem = DiscreteProblem.build(legendre(), iset, mesh, field)

    analytic = bounds_for(MEAN_BASED, legendre(), iset, mu)
    # the classical constants are the same formula for the global ratio
    classical = bounds_for(MEAN_BASED, legendre(), iset, mu_class)
    oracle_lo, oracle_hi = element_equivalence_oracle(legendre(), iset, field, "mean_based")

    # M = sum_k kron(G_k on the couplings mean_based keeps, F_k) = I (x) F0
    op = problem.operator
    a = op.matrix.toarray()
    m_dense = sum(np.kron(kept_blocks("mean_based", iset, g).toarray(), f.toarray())
                  for g, f in zip(op.gs, op.fs))
    w = scipy.linalg.eigh(a, m_dense, eigvals_only=True)

    print(f"\ntotal degree {degree} ({a.shape[0]} unknowns)")
    print(f"  classical   [{classical.c_lower:+.6f}, {classical.c_upper:.6f}]")
    print(f"  analytic    [{analytic.c_lower:+.6f}, {analytic.c_upper:.6f}]")
    print(f"  per-element [{oracle_lo:+.6f}, {oracle_hi:.6f}]")
    print(f"  spectrum    [{w[0]:+.6f}, {w[-1]:.6f}]")
    slack = 1e-9  # the indicator field attains the constants exactly
    chain = (
        classical.c_lower <= analytic.c_lower + slack
        and analytic.c_lower <= oracle_lo + slack
        and oracle_lo <= w[0] + slack
        and w[-1] <= oracle_hi + slack
        and oracle_hi <= analytic.c_upper + slack
        and analytic.c_upper <= classical.c_upper + slack
    )
    print(f"  chain holds: {chain}")
