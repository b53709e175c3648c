"""Desk-scale verification of the area's identities and conjectures.

Everything below re-checks a published statement on a finite range: Wilf's
inequality, the exact second-order census identity, the strong-descent
geometric-sum inequality, ordinarization monotonicity, the effective-weight
bound, the gap-sumset criterion, and the concentration of typical shape.
"""

import sgforge as sf

census = sf.enumerate_tree(22)

print("Wilf's inequality F + 1 <= n * e:")
for gens in [{2, 3}, {3, 5}, {4, 6, 9}, {7, 9, 11, 12}]:
    res = sf.check_wilf(sf.from_generators(gens))
    tag = "=" if res.f_plus_1 == res.n * res.e else "<"
    print(f"  <{','.join(map(str, sorted(gens)))}>: "
          f"{res.f_plus_1} {tag} {res.n} * {res.e}")
print(f"  swept all {sum(census.n_of_g):,} semigroups with g <= 22: "
      f"{sum(census.wilf_violations)} violations")

print("\nExact identity N(g+2) = N(g+1) - N(g) + S(g+1) + 1 + correction:")
for g in (0, 5, 12, 20):
    res = sf.ye_identity(g, census)
    print(f"  g={g:>2}: {res.lhs} = {res.rhs}  ({'ok' if res.holds else 'FAIL'})")

print("\nStrong-descent classes and the geometric-sum bound:")
rep = sf.zhai_sweep(18)
print(f"  checked {rep.stats['cells']} (m, F) classes with F <= 18: "
      f"{'all hold' if rep.ok else rep.violations}")

print("\nOrdinarization: swap multiplicity for Frobenius number until ordinary.")
s = sf.from_generators({5, 7, 9, 11, 13})
chain = [s]
while not chain[-1].is_ordinary():
    chain.append(sf.ordinarize(chain[-1]))
for step, t in enumerate(chain):
    print(f"  step {step}: gaps {t.gaps()}")
counts = sf.ordinarization_census(12)
level = {r: counts.get((12, r), 0) for r in range(7)}
print(f"  counts by steps needed, genus 12: {level}")
print(f"  monotonicity sweep to genus 14: "
      f"{'ok' if sf.ordinarization_sweep(14).ok else 'FAIL'}")

print("\nEffective-weight bound ewt <= floor((g+1)^2 / 8):")
rep = sf.pflueger_sweep(20)
for g, mx, bound in rep.stats["rows"][-5:]:
    print(f"  g={g:>2}: max ewt {mx:>3}  bound {bound:>3}")
print(f"  violations: {len(rep.violations)}")

print("\nGap-sumset criterion |L+L| <= 3(g-1) (necessary for Weierstrass):")
rep = sf.buchweitz_sweep(16)
print(f"  failures by genus: {rep.stats['failures'] or 'none below 16'}")
print(f"  least failing gap sets: {rep.stats['witnesses']}")

print("\nConcentration of shape (eps = 0.25):")
stats = sf.concentration_sweep(20, 0.25)
print("   g   F/m in (1.75, 2.25)   m/g near 0.7236   2g < 3m")
for g in (8, 12, 16, 20):
    row = stats[g]
    print(f"  {g:>2}   {row['f_over_m']:>19.3f}   {row['m_over_g']:>16.3f}"
          f"   {row['two_g_lt_3m']:>7.3f}")

print("\nGlobal bounds and the Fibonacci floor:")
for g in (10, 15, 20):
    lo, hi = sf.global_bounds(g)
    print(f"  g={g}: {lo} <= N(g) = {census.n(g)} <= {hi};  "
          f"F<2m count = {census.f_lt_2m[g]} = fibonacci({g + 1})")
