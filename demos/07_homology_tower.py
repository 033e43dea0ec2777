"""Second homology of lamplighter quotients from a minimal resolution.

The double lamplighter quotient at level i is the order p^(3i) group
(F_p[x]/(x^i))^2 x| Z/p^i.  Its mod-p H2 is computed from multiplication
tables alone: minres_h2 counts the minimal generators of the second
syzygy of F_p over F_pG, and the normalized bar complex (bar_h2) is its
independent oracle on the small groups below; the module-theoretic tensor
collapse supplies a lower bound h2 >= i + 2 * h2((Z/p)^i) that every
computed level satisfies.  The five-term sequence ties the same bar
pipeline to a purely subgroup-theoretic quotient, giving an independent
consistency check on both.
"""

from procyclic import (
    bar_h2,
    build_lamplighter,
    cyclic_group,
    elementary_abelian,
    five_term_check,
    hopf_quotient,
    lamplighter_socle,
    minres_h2,
    tower_report,
)

print("minimal resolution beside the bar oracle:")
for name, group in [
    ("Z/2", cyclic_group(2, 1)),
    ("Z/4", cyclic_group(2, 2)),
    ("(Z/2)^2", elementary_abelian(2, 2)),
    ("(Z/2)^3", elementary_abelian(2, 3)),
]:
    engine, oracle = minres_h2(group), bar_h2(group)
    print(f"  H2({name}; F_2) = {engine}  (bar: {oracle})")
    assert engine == oracle

print("\nfive-term consistency on the order-16 lamplighter quotient:")
lamp = build_lamplighter(2, 2, 1)
socle = lamplighter_socle(2, 2, 1)  # x F_2, central in the base
report = five_term_check(lamp, socle)
print(
    f"  cokernel of H2(G) -> H2(G/H): {report['cokernel_dim']}, "
    f"subgroup-theoretic quotient: {report['hopf_dim']}, equal: {report['equal']}"
)
assert report["equal"] == (hopf_quotient(lamp, socle) == report["cokernel_dim"])

print("\ndouble lamplighter tower over F_2:")
tower = tower_report(2, 2)
print("  i  order  h2  coinv  tensor  bound")
for row in tower.rows:  # report rows, keyed by the names the report prints
    print(
        f" {row['i']:>2} {row['order']:>6} {row['h2_dim']:>3} "
        f"{row['coinv_dim']:>6} {row['tensor_gr_dim']:>7} {row['lower_bound']:>6}"
    )
    assert row["collapse_ok"] and row["inequality_ok"]
print("ok")
