"""Walk through the small-matrix machinery: recurrence coefficients, Jacobi
matrices and their spectra, the backward-recurrence quadrature rule, and the
pivot sequence d_1..d_s that drives the splitting bounds.

Run:  python3 demos/quadrature_and_pivots.py
"""

import numpy as np

from sgprecond import (
    SPLITTING_TP,
    MultiIndexSet,
    bounds_for,
    chebyshev_u,
    d_last_via_quadrature,
    d_sequence,
    gauss_rule,
    gegenbauer,
    hermite,
    jacobi_matrix,
    legendre,
    mu_bar,
)

families = [hermite(), legendre(), chebyshev_u(), gegenbauer(2.0)]

print("three-term recurrence coefficients beta_n (alpha_n = 0 throughout)")
for fam in families:
    betas = ", ".join(f"{fam.beta(n):.6f}" for n in range(1, 6))
    print(f"  {fam.label:<22} {betas}")

print("\nJacobi matrix spectra are the polynomial roots, symmetric about zero:")
for s in (2, 3, 5):
    roots = np.linalg.eigvalsh(jacobi_matrix(legendre(), s))
    print(f"  legendre, order {s}: {np.array2string(roots, precision=6)}")

print("\nthe quadrature rule built from the reversed recurrence")
print("(weights are squared last eigenvector components; they sum to one):")
for fam in families:
    rule = gauss_rule(fam, 4)
    print(f"  {fam.label:<22} weights {np.array2string(rule.weights, precision=6)}")

print("\npivot sequences d_j = 1 - mu^2 beta_(j-1)/d_(j-1), checked against")
print("the quadrature identity 1/d_s = sum w_j / (1 - mu^2 node_j^2):")
for fam, mu in ((legendre(), 1.0), (legendre(), 0.83), (hermite(), 0.3)):
    pivots = d_sequence(fam, mu, 5)
    quad = d_last_via_quadrature(fam, mu, 5)
    print(f"  {fam.label:<10} mu={mu:<5} d = {np.array2string(pivots, precision=6)}")
    print(f"             recursion 1/d_5 = {1/pivots[-1]:.12f}, quadrature = {1/quad:.12f}")

print("\nextreme eigenvalues 1 -/+ sqrt(1 - d_s) of the coarse/detail block:")
for mu in (0.5, 0.83, 0.95):
    b = bounds_for(SPLITTING_TP, legendre(), MultiIndexSet.tensor((3,)), mu)
    lo, hi = b.c_lower, b.c_upper
    print(f"  legendre, order 3, mu={mu}: ({lo:.6f}, {hi:.6f}), ratio {hi/lo:.4f}")

print("\ndominance thresholds that keep the assembled operator definite:")
print(f"  any Beta-type family: {mu_bar(legendre(), 'complete', 8)}")
print(f"  hermite, complete order 3: {mu_bar(hermite(), 'complete', 3)}")
print(f"  hermite, tensor orders (3, 3): {mu_bar(hermite(), 'tensor', (3, 3)):.6f}")
