"""Counting the image of tau and finding balls it misses.

At level i the census holds the p^i powers of 1 - x modulo x^(p^i).
Ratio sets collect every solution of r * den = num with numerator and
denominator drawn from the census; their size is bounded by
p^(2in + p^k), while the ambient ring has p^(p^i) elements, so the
occupied fraction decays doubly exponentially.  That decay is what the
density-gap search exploits: scan the cosets of a small ball and return
one that the census misses entirely.
"""

from procyclic import TruncSeries, census_ratio_set, density_gap, enum_A

p = 2
print("census at level 2:", [str(s) for s in enum_A(p, 2).series()])

print("\nratio-set decay for n=1, k=1:")
print(" i   size     bound    ambient      ratio")
for i in range(1, 5):
    cs = census_ratio_set(p, [1], [1], 1, i)
    bound = p ** (2 * i + 2)
    ambient = p ** (p**i)
    print(f"{i:>2} {len(cs):>6} {bound:>9} {ambient:>10} {len(cs)/ambient:>10.6f}")

print("\nsearching for a census-free ball around 0:")
result = density_gap(TruncSeries.zero(p, 2), 1, 4)
for level, size, cosets in result.log:
    print(f"  level {level}: census {size} vs {cosets} cosets")
print(
    f"  witness {result.witness} at level {result.level} "
    f"after scanning {result.scanned} representative(s)"
)
# verify by hand: every census member has constant term 1, the witness not
census = enum_A(p, result.level)
assert all(member != result.witness for member in census.series())
print("ok")
