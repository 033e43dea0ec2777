"""Tensor squares of truncated polynomial modules collapse to dimension i.

R_i = F_p[x]/(x^i) is a cyclic module over the group ring of its own
unipotent action, so tensoring two copies over the group ring collapses
the i^2-dimensional tensor square down to dimension i.  The diagonal
coinvariants agree, which is exactly what the antipode bijection predicts.
"""

from procyclic import (
    diagonal_coinvariants,
    regular_module,
    tensor_over_groupring,
    trivial_module,
)

print(" p  i  dim(MxM)  coinvariants  tensor/groupring")
for p in (2, 3):
    for i in range(1, 9):
        m = regular_module(p, i)
        coinv = diagonal_coinvariants(m, m)
        tensor = tensor_over_groupring(m, m)
        print(f"{p:>2} {i:>2} {i*i:>9} {coinv:>13} {tensor:>16}")
        assert coinv == tensor == i

# mixed sizes surject onto the smaller quotient
a, b = regular_module(2, 2), regular_module(2, 4)
print("mixed R_2 (x)_gr R_4 dim:", tensor_over_groupring(a, b))

# a trivial action leaves nothing to quotient
t = trivial_module(3, 4)
print("trivial dim-4 coinvariants:", diagonal_coinvariants(t, t))

print("ok")
