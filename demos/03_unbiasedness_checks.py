"""Two independent certificates of mutual unbiasedness, and a negative control.

The exact layer checks that every pairwise difference of adjacency
matrices is invertible over Z_p.  The numeric layer builds the actual
complex basis vectors and sweeps squared overlaps against 1/p^n.  A
deliberately corrupted family shows the sweeps really discriminate.
"""

from graphmub import MatZp, MubSet, mub_set, verify_mu_condition, verify_mu_numeric

for p, n in ((2, 2), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)):
    family = mub_set(p, n)
    algebraic = verify_mu_condition(family)
    numeric = verify_mu_numeric(family, tol=1e-10)
    print(f"(p={p}, n={n}) d={p**n:4d}: algebraic {algebraic.ok} "
          f"({algebraic.mode}), numeric {numeric.ok} "
          f"(worst {numeric.worst_deviation:.1e}, "
          f"{numeric.pairs_checked} basis pairs)")

# Larger qubit registers: exact check on all pairs + sampled overlaps.
family = mub_set(2, 7)
algebraic = verify_mu_condition(family, pairwise=True)
numeric = verify_mu_numeric(family, sample=5000, seed=1)
print(f"(p=2, n=7) d=128: algebraic {algebraic.ok} (full pairwise), "
      f"sampled numeric {numeric.ok} (worst {numeric.worst_deviation:.1e})")

# Negative control: flip one edge of one matrix.  The difference of two
# members becomes singular and overlaps drift off 1/d.
family = mub_set(2, 3, d=(1, 0, 0))
rows = family.matrices[2].to_lists()
rows[0][1] = rows[1][0] = (rows[0][1] + 1) % 2
corrupted = MubSet(
    p=2, n=3,
    stack=[m.rows for m in family.matrices[:2] + (MatZp(2, rows),) + family.matrices[3:]],
)
algebraic = verify_mu_condition(corrupted)
numeric = verify_mu_numeric(corrupted, tol=1e-10)
print(f"\ncorrupted family: algebraic ok={algebraic.ok} "
      f"(first failing pair {algebraic.failing_pair}), "
      f"numeric ok={numeric.ok}")
if numeric.first_violation:
    r, s, mr, ms, dev = numeric.first_violation
    print(f"  first overlap violation: bases {r},{s} elements {mr},{ms} "
          f"deviate by {dev:.3f} from 1/8")
