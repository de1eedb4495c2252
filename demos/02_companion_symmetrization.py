"""Symmetrize a companion matrix to seed 28 MUBs for three qutrits.

The route that works for every prime power: pick a monic irreducible
polynomial f over Z_p, form its companion matrix C, and conjugate C into
a symmetric matrix Q.  The transform P comes from reducing a symmetric
bilinear form B (with C B = B C^T) to the identity by congruence steps.
"""

from graphmub import (
    MatZp,
    PolyZp,
    congruence,
    mub_set,
    symmetrize_companion,
    symmetrizing_form_odd,
)

f = PolyZp(3, [1, 2, 1, 1])  # x^3 + x^2 + 2x + 1, irreducible over Z_3
print(f"f = {f} over Z_3, irreducible: {f.is_irreducible()}, "
      f"primitive: {f.is_primitive()}")


def show(name, m):
    print(f"{name}:")
    for row in m.rows:
        print("   ", " ".join(map(str, row)))


rep = symmetrize_companion(f)
show("companion matrix C", rep.companion)

b0 = symmetrizing_form_odd(f)
show("base form B_0 (satisfies C B_0 = B_0 C^T)", b0)
print(f"det(B_0) = {b0.det()} is a non-residue mod 3, so a multiplier is needed")
print(f"chosen multiplier g = {rep.multiplier}; det(g B_0) becomes a residue")

b = b0.scale(rep.multiplier)
show("P with P (g B_0) P^T = identity", rep.transform)
assert congruence(rep.transform, b) == MatZp.identity(3, 3)

show("symmetric seed Q = P C P^-1", rep.q)
assert rep.q.is_symmetric and rep.q.char_poly() == f
show("Q^2 (the third fundamental graph)", rep.q @ rep.q)

family = mub_set(3, 3, method="companion", poly=f)
print(f"\nfamily: {len(family.matrices)} graph bases + computational "
      f"= {family.num_bases} MUBs for dimension 27")

# f is primitive, so the same family is the matrix powers of Q plus zero:
# Q^k runs through all 26 nonzero members before it returns to Q^0 = 1.
powers, acc = {MatZp.zeros(3, 3)}, MatZp.identity(3, 3)
for _ in range(26):
    powers.add(acc)
    acc = acc @ rep.q
assert acc == MatZp.identity(3, 3) and powers == set(family.matrices)
print("power enumeration {Q^i} u {0} reproduces the same family: True")
