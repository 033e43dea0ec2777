"""The antipode and the bijection between two tensor-square quotients.

sigma is the ring involution with sigma(1 - x) = (1 - x)^(-1); on a
module with generator action T it becomes a matrix S satisfying
S T = T^(-1) S.  Twisting one tensor factor by S carries the span of

    T m (x) T m' - m (x) m'     (diagonal coinvariants)

onto the span of

    T m (x) m' - m (x) T m'     (tensor over the group ring)

so the two quotients are isomorphic, not just equidimensional.  The
check below certifies this on the truncated polynomial modules.
"""

from procyclic import (
    TruncSeries,
    antipode_iso_check,
    regular_antipode,
    sigma,
)

# the series-level involution
f = TruncSeries.one_minus_x(3, 12)
print("sigma(1-x)       =", sigma(f))
print("sigma(sigma(f))  =", sigma(sigma(f)), "(involution)")
assert sigma(sigma(f)) == f
assert sigma(f) * f == TruncSeries.one(3, 12)

# module level: F_p[x]/(x^i) with T = multiplication by 1 - x
for p in (2, 3):
    for i in range(1, 7):
        check = antipode_iso_check(regular_antipode(p, i))
        print(
            f"p={p} i={i}: coinvariants dim {check.coinvariant_dim}, "
            f"group-ring tensor dim {check.tensor_dim}, "
            f"bijective {check.bijective}"
        )
        assert check.bijective
print("ok")
