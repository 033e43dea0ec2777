"""p-adic exponents acting on power series through tau.

tau(alpha) is (1 - x)^alpha: for a nonnegative integer exponent this is
the usual power, but it extends to every p-adic integer because raising
to p^i collapses to the single monomial substitution x -> x^(p^i).  The
digit expansion of alpha is therefore all tau needs.
"""

from procyclic import PadicInt, TruncSeries, min_digit_precision, tau

p, N = 2, 32
k = min_digit_precision(p, N)  # digits needed to resolve precision N
print(f"precision {N} needs {k} base-{p} digits")

minus_one = PadicInt.from_int(-1, p, k)
print("digits of -1:", list(minus_one.digits))

image = tau(minus_one, N)
print("tau(-1)    =", image)
assert image == TruncSeries.one_minus_x(p, N).invert()

# tau is a homomorphism from exponents to units
a = PadicInt.from_int(19, p, k)
b = PadicInt.from_int(-7, p, k)
assert tau(a + b, N) == tau(a, N) * tau(b, N)

# continuity: exponents that agree in low digits give series that agree
# to the corresponding x-power
c = PadicInt(p, list(a.digits[:3]) + [1, 0, 1, 1][: k - 3])
assert tau(a, N).truncate(p**3) == tau(c, N).truncate(p**3)
print("tau(a)     =", tau(a, N))
print("tau(c)     =", tau(c, N))
print("   (agree below x^8)")

# the action on a series is multiplication by tau(alpha)
f = TruncSeries.geometric(p, N)
moved = tau(PadicInt.from_int(4, p, k), f.prec) * f
assert moved.truncate(4) == f.truncate(4)  # t^4 acts trivially mod x^4
print("ok")
