"""Show the block anatomy of a small assembled operator: the coupling
matrices over tensor-product and complete bases, their annihilated variants
(the couplings the two-block splitting keeps), and the sparsity patterns of
the block preconditioners built from the couplings each kind keeps.

Run:  python3 demos/small_operator_anatomy.py
"""

import numpy as np

from sgprecond import (
    DiscreteProblem,
    MultiIndexSet,
    assemble_G,
    build_mesh,
    legendre,
    sample_coefficients,
)
from sgprecond.cli import coordinate_text
from sgprecond.operator import block_layout, kept_blocks


def pattern(mat, cut=None):
    mat = np.asarray(mat)
    lines = []
    for i, row in enumerate(mat):
        cells = "".join(" X" if abs(v) > 1e-14 else " ." for v in row)
        lines.append(cells)
        if cut is not None and i + 1 == cut and cut < len(mat):
            lines.append("-" * (2 * len(row)))
    return "\n".join(lines)


fam = legendre()

print("tensor basis with orders (3, 3): first coordinate changes fastest")
tset = MultiIndexSet.tensor((3, 3))
print(f"  indices: {[tuple(r) for r in tset.indices.tolist()]}")
print("\ncoupling matrix of the second coordinate:")
g2 = assemble_G(fam, tset, 2)
print(pattern(g2.toarray()))
print("\nits annihilated variant drops the top-order coupling:")
print(pattern(kept_blocks("splitting_tp", tset, g2).toarray()))

print("\ncomplete basis with total order 3 groups indices by degree:")
cset = MultiIndexSet.complete(2, 3)
print(f"  indices: {[tuple(r) for r in cset.indices.tolist()]}")
g1 = assemble_G(fam, cset, 1)
print("\ncoupling matrix of the first coordinate and its annihilated variant:")
print(pattern(g1.toarray()))
print()
print(pattern(kept_blocks("splitting_complete", cset, g1).toarray()))

mesh = build_mesh(1, 4)
field = sample_coefficients(["1", "0.4", "0.25"], mesh)
problem = DiscreteProblem.build(fam, cset, mesh, field)
op = problem.operator
a = op.matrix.toarray()
print(f"\nassembled operator: {a.shape[0]} unknowns "
      f"({cset.size} basis polynomials x {mesh.n_interior} interior nodes)")

for kind in ("mean_based", "splitting_complete", "gs2"):
    # D = sum_k kron(G_k on the kept couplings, F_k); gs2 is L D^-1 L^T with
    # L = D plus the dropped couplings below the diagonal
    d = sum(np.kron(kept_blocks(kind, cset, g).toarray(), f.toarray())
            for g, f in zip(op.gs, op.fs))
    lower = d + np.tril(a - d)
    mat = lower @ np.linalg.solve(d, lower.T) if kind == "gs2" else d
    print(f"\n{kind} preconditioner pattern:")
    print(pattern(mat, cut=block_layout(kind, cset)[1] * op.n_fe or None))

print("\ncoordinate text dump of the first coupling matrix:")
print(coordinate_text(g1))
