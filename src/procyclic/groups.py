"""Finite p-groups as explicit multiplication tables.

A group of order m is a uint16 table t with t[a, b] = index of a*b, plus
the identity index and an inverse table.  Construction verifies the group
axioms exactly at every order: a two-sided identity, two-sided inverses,
and associativity by Light's test, one m x m table comparison per
element of a greedily chosen generating set.

The builders cover the groups this package studies: cyclic p-groups,
elementary abelian groups, and the (single or double) lamplighter
quotients

    (F_p[x]/(x^i))^copies  x|  Z/p^i

with the cyclic generator acting on each coordinate as multiplication by
1 - x.  The semidirect convention is fixed once and for all as

    (u, n) * (u', n') = (u . T^(n') + u', n + n'),

acting on the left factor by the power of the generator matrix named by
the *right* factor's cyclic part.  The opposite convention gives an
isomorphic group; one choice is canonical so tables are reproducible.

Subgroup-flavored operations (closure, normality, the p-Frattini-style
products [G,G]G^p and [H,G]H^p, quotient groups) work on index sets and
power the mod-p Hopf quotient.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import ResourceLimitError, UsageError, env_budget, exact_int, exact_ints
from .fpx import validate_prime

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "cyclic_group",
    "elementary_abelian",
    "build_lamplighter",
    "lamplighter_socle",
    "hopf_quotient",
    "max_group_order",
]

DEFAULT_MAX_GROUP = 4096
_UINT16_ORDERS = 1 << 16


def max_group_order() -> int:
    """Table-construction budget; override with PROCYCLIC_MAX_GROUP.

    Tables hold uint16 element indices, so the budget is capped at 65536.
    """
    return env_budget("PROCYCLIC_MAX_GROUP", DEFAULT_MAX_GROUP, limit=_UINT16_ORDERS)


def _p_power_exponent(order: int, p: int) -> int:
    e = 0
    m = order
    while m > 1 and m % p == 0:  # m > 1: every p divides 0
        m //= p
        e += 1
    if m != 1:
        raise UsageError(f"group order {order} is not a power of {p}")
    return e


def _right_closure(tab: np.ndarray, reached: np.ndarray, gens) -> None:
    """Add to the mask ``reached`` all it reaches by right multiplication by gens."""
    frontier = np.flatnonzero(reached)
    while frontier.size:
        # dedupe by mask: np.unique lazily imports numpy.ma (about 0.9 MB of RSS)
        new = np.zeros(tab.shape[0], dtype=bool)
        new[tab[np.ix_(frontier, gens)].ravel()] = True
        new &= ~reached
        reached |= new
        frontier = np.flatnonzero(new)


def _generator_names(names) -> tuple[str, ...]:
    """names (None for none) as a tuple; UsageError unless a sequence of str."""
    if names is None:
        return ()
    if isinstance(names, (list, tuple)) and all(isinstance(n, str) for n in names):
        return tuple(names)
    raise UsageError(f"generator_names must be a list of strings, got {names!r}")


class FiniteGroup:
    """Multiplication-table group of p-power order."""

    __slots__ = ("p", "order", "table", "identity", "inverses", "generator_names")

    def __init__(self, p: int, table, generator_names=None):
        p = validate_prime(p)
        # entries index the rows; a table that is not square fails below
        tab = exact_ints(table, "table entry", ndim=2, hi=len(table), dtype=np.uint16)
        m = tab.shape[0]
        if tab.shape[1] != m:
            raise UsageError("multiplication table must be square")
        _p_power_exponent(m, p)
        identity = self._find_identity(tab)
        inverses = self._find_inverses(tab, identity)
        self._check_associativity(tab, identity)
        tab.flags.writeable = False
        inverses.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "order", m)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "generator_names", _generator_names(generator_names))

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    @staticmethod
    def _find_identity(tab: np.ndarray) -> int:
        m = tab.shape[0]
        idx = np.arange(m, dtype=np.uint16)
        for e in range(m):
            if np.array_equal(tab[e], idx) and np.array_equal(tab[:, e], idx):
                return e
        raise UsageError("table has no two-sided identity")

    @staticmethod
    def _find_inverses(tab: np.ndarray, identity: int) -> np.ndarray:
        m = tab.shape[0]
        inv = np.full(m, -1, dtype=np.int64)
        rows, cols = np.nonzero(tab == identity)
        inv[rows] = cols
        if (inv < 0).any():
            raise UsageError("some element has no inverse")
        # two-sidedness: a*b = e must imply b*a = e
        if not np.array_equal(tab[inv, np.arange(m)], np.full(m, identity, dtype=np.uint16)):
            raise UsageError("inverses are not two-sided")
        return inv.astype(np.uint16)

    @staticmethod
    def _check_associativity(tab: np.ndarray, identity: int) -> None:
        """Light's associativity test, exact at every order.

        Call g *good* when (x g) y = x (g y) for all x, y.  The identity is
        good, and good elements are closed under the product: for good g, h,
        (x (g h)) y = ((x g) h) y = (x g) (h y) = x (g (h y)) = x ((g h) y).
        So if the elements of a set generating the table as a magma are
        good, the table is associative.  The set is picked greedily: walk
        the indices, keeping each element not yet reached from the identity
        by right multiplication by those kept.  Each kept g costs one m x m
        comparison, O(d m^2) in all; a group keeps d <= log_2 m elements.

        A. H. Clifford and G. B. Preston, *The Algebraic Theory of
        Semigroups* I, Amer. Math. Soc. (1961), Section 1.2.
        """
        reached = np.zeros(len(tab), dtype=bool)
        reached[identity] = True
        kept: list[int] = []
        for g in range(len(tab)):
            if reached[g]:
                continue
            # row x: (x g) y against x (g y), for all y
            if not np.array_equal(tab[tab[:, g]], np.take(tab, tab[g], axis=1)):
                raise UsageError(f"associativity fails at element {g}")
            kept.append(g)
            _right_closure(tab, reached, kept)

    # -- element arithmetic -------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(a), -n)
        result = self.identity
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    # -- subgroup machinery ---------------------------------------------

    def subgroup_closure(self, generators) -> frozenset[int]:
        """Subgroup generated by a set of element indices (BFS closure)."""
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        _right_closure(self.table, reached, self._index_set(generators))
        return frozenset(np.flatnonzero(reached).tolist())

    def _index_set(self, elements) -> list[int]:
        """Sorted distinct element indices; UsageError unless each is an exact
        integer in [0, order), so a float never truncates and -1 never wraps."""
        if not isinstance(elements, np.ndarray):
            elements = list(elements)
        return sorted(set(exact_ints(elements, "element index", hi=self.order).tolist()))

    def _mask(self, elements) -> np.ndarray:
        """Membership mask of an index list or array (dedupe without np.unique)."""
        mask = np.zeros(self.order, dtype=bool)
        mask[elements] = True
        return mask

    def is_subgroup(self, elements) -> bool:
        h = self._index_set(elements)
        mask = self._mask(h)
        return bool(mask[self.identity]) and bool(mask[self.table[np.ix_(h, h)]].all())

    def is_normal(self, elements) -> bool:
        h = self._index_set(elements)
        if not self.is_subgroup(h):
            return False
        tab, g = self.table, np.arange(self.order)
        # every conjugate g^(-1) x g, g in G (rows), x in H (columns), in one gather
        return bool(self._mask(h)[tab[tab[np.ix_(self.inverses, h)], g[:, None]]].all())

    def commutator_p_subgroup(self) -> frozenset[int]:
        """[G, G] G^p: the kernel of the maximal elementary abelian quotient."""
        return self.relative_commutator_p(np.arange(self.order))

    def relative_commutator_p(self, h_elements) -> frozenset[int]:
        """[H, G] H^p for a subgroup H given as an index set."""
        h = self._index_set(h_elements)
        tab, inv = self.table, self.inverses
        # every commutator x^(-1) g^(-1) x g, x in H (rows), g in G, in one gather
        gens = self._mask(tab[tab[np.ix_(inv[h], inv)], tab[h]])
        gens[[self.power(x, self.p) for x in h]] = True
        return self.subgroup_closure(np.flatnonzero(gens))

    def quotient(self, h_elements) -> tuple["FiniteGroup", "GroupHom"]:
        """Quotient by a normal subgroup, with the projection homomorphism."""
        h = self._index_set(h_elements)
        if not self.is_normal(h):
            raise UsageError("can only quotient by a normal subgroup")
        # each coset aH is labelled by its first element a, in index order
        coset_of = np.full(self.order, -1, dtype=np.int64)
        reps: list[int] = []
        for a in range(self.order):
            if coset_of[a] < 0:
                coset_of[self.table[a, h]] = len(reps)
                reps.append(a)
        table = coset_of[self.table[np.ix_(reps, reps)]]
        quotient = FiniteGroup(self.p, table, generator_names=self.generator_names)
        return quotient, GroupHom(self, quotient, coset_of)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "order": self.order,
            "prime": self.p,
            "identity": self.identity,
            "generator_names": list(self.generator_names),
            "table": [int(v) for v in self.table.reshape(-1)],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteGroup":
        try:
            prime, order, table = data["prime"], data["order"], data["table"]
        except (KeyError, TypeError) as exc:
            raise UsageError(
                "group JSON needs 'prime', 'order' and an order x order 'table' "
                f"({type(exc).__name__}: {exc})"
            ) from None
        order = exact_int(order, "group order")
        table = exact_ints(table, "table entry", hi=order, dtype=np.uint16)
        if table.size != order * order:
            raise UsageError(f"a group of order {order} needs {order * order} table entries")
        return cls(prime, table.reshape(order, order), data.get("generator_names"))

    def __repr__(self) -> str:
        return f"FiniteGroup(p={self.p}, order={self.order})"


class GroupHom:
    """Homomorphism between table groups, stored as an image table."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: FiniteGroup, target: FiniteGroup, images):
        img = exact_ints(images, "image", hi=target.order, dtype=np.uint16)
        if img.shape != (source.order,):
            raise UsageError("image table length must equal the source order")
        if int(img[source.identity]) != target.identity:
            raise UsageError("homomorphism must preserve the identity")
        if not np.array_equal(img[source.table], target.table[np.ix_(img, img)]):
            raise UsageError("not a homomorphism: f(ab) != f(a)f(b) somewhere")
        img.flags.writeable = False
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "images", img)

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    def __call__(self, a: int) -> int:
        return int(self.images[a])


# -- builders ----------------------------------------------------------


def cyclic_group(p: int, e: int) -> FiniteGroup:
    """Z / p^e as a table group."""
    p = validate_prime(p)
    e = exact_int(e, "exponent")
    if e < 0:
        raise UsageError("exponent must be nonnegative")
    m = p**e
    if m > max_group_order():
        raise ResourceLimitError(f"order {m} exceeds budget {max_group_order()}")
    idx = np.arange(m)
    table = (idx[:, None] + idx[None, :]) % m
    return FiniteGroup(p, table.astype(np.uint16), generator_names=("g",))


def elementary_abelian(p: int, r: int) -> FiniteGroup:
    """(Z/p)^r, elements encoded as little-endian base-p words."""
    p = validate_prime(p)
    r = exact_int(r, "rank")
    if r < 0:
        raise UsageError("rank must be nonnegative")
    m = p**r
    if m > max_group_order():
        raise ResourceLimitError(f"order {m} exceeds budget {max_group_order()}")
    names = tuple(f"e{j+1}" for j in range(r))
    return FiniteGroup(p, _word_sums(p, r), generator_names=names)


def _digits(count: int, base: int, width: int) -> np.ndarray:
    """Little-endian base-``base`` digits of 0 .. count-1, one row each."""
    return np.arange(count)[:, None] // base ** np.arange(width) % base


def _word_sums(p: int, width: int) -> np.ndarray:
    """Table of digitwise sums mod p of little-endian base-p words."""
    m = p**width
    digits = _digits(m, p, width)
    weights = p ** np.arange(width)
    table = np.zeros((m, m), dtype=np.uint16)
    for a in range(m):
        table[a] = ((digits[a][None, :] + digits) % p) @ weights
    return table


def build_lamplighter(p: int, i: int, copies: int = 2) -> FiniteGroup:
    """(F_p[x]/(x^i))^copies semidirect Z/p^i with the 1-x shift action.

    Element index layout: the coordinate series come first as base-p
    digits, coefficient of x^j of coordinate c at digit j + i c, and the
    cyclic part n is the most significant word,

        index = sum_c sum_j u_c[j] p^(j + i c)  +  n p^(i copies).

    So the base subgroup is ``range(p**(i * copies))``; see
    `lamplighter_socle` for the central socle.
    """
    p = validate_prime(p)
    i = exact_int(i, "level")
    if i < 1:
        raise UsageError("level i must be >= 1")
    if exact_int(copies, "copies") not in (1, 2):
        raise UsageError("copies must be 1 or 2")
    cyclic_order = p**i
    order = p ** (i * copies) * cyclic_order
    if order > max_group_order():
        raise ResourceLimitError(
            f"order {order} exceeds budget {max_group_order()} "
            "(set PROCYCLIC_MAX_GROUP to raise it)"
        )

    # powers of the action matrix, applied to all p^i coordinate values
    base_count = p**i
    t_action = np.eye(i, dtype=np.int64) + (p - 1) * np.eye(i, k=-1, dtype=np.int64)
    digits = _digits(base_count, p, i)
    weights = p ** np.arange(i)

    acted = np.zeros((cyclic_order, base_count), dtype=np.int64)
    power = np.eye(i, dtype=np.int64)
    for n in range(cyclic_order):
        acted[n] = ((digits @ power.T) % p) @ weights
        power = (t_action @ power) % p

    # element index = sum_c coord_c * base_count^c + n * base_count^copies
    coord_weights = base_count ** np.arange(copies)
    n_weight = base_count**copies

    coords = _digits(order, base_count, copies)
    n_part = np.arange(order) // n_weight  # cyclic component of every element
    add = _word_sums(p, i)  # add[u, w]: index of the coordinate sum u + w

    # the columns b with cyclic part nb form one contiguous block, and
    # every block lists the base coordinates in the same order
    base = coords[:n_weight]
    table = np.zeros((order, order), dtype=np.uint16)
    for nb in range(cyclic_order):
        moved = acted[nb][coords]  # apply T^(nb) to every coordinate of a
        summed = sum(add[moved[:, c]][:, base[:, c]] * w for c, w in enumerate(coord_weights))
        n_sum = ((n_part + nb) % cyclic_order) * n_weight
        table[:, nb * n_weight : (nb + 1) * n_weight] = summed + n_sum[:, None]

    return FiniteGroup(p, table, generator_names=("a", "b", "c")[: copies + 1])


def lamplighter_socle(p: int, i: int, copies: int, coordinate: int = 0) -> frozenset[int]:
    """Indices of the subgroup x^(i-1) F_p in one coordinate of `build_lamplighter`.

    These base elements are killed by 1 - T, so they are central: a small
    normal subgroup.  In the index layout, c x^(i-1) in coordinate k is
    c p^(i-1 + i k).
    """
    if not 0 <= coordinate < copies:
        raise UsageError(f"no coordinate {coordinate} in {copies} copies")
    return frozenset(c * p ** (i - 1 + i * coordinate) for c in range(p))


def hopf_quotient(group: FiniteGroup, h_elements) -> int:
    """dim over F_p of (H intersect [G,G]G^p) / ([H,G]H^p).

    H must be normal.  Both subgroups are produced by exhaustive closure
    over commutator and p-th-power generators; the quotient is elementary
    abelian because H^p and [H, G] land in the denominator, so its
    dimension is log_p of the index.
    """
    h = frozenset(group._index_set(h_elements))
    if not group.is_normal(h):
        raise UsageError("H must be a normal subgroup")
    numerator = h & group.commutator_p_subgroup()
    denominator = group.relative_commutator_p(h)
    num_closure = group.subgroup_closure(numerator)
    if num_closure != numerator:
        # H cap [G,G]G^p is an intersection of subgroups, hence a subgroup;
        # anything else means the inputs were inconsistent.
        raise UsageError("numerator is not a subgroup; H was not closed")
    if not denominator <= numerator:
        raise UsageError("[H,G]H^p escapes H cap [G,G]G^p; H was not normal")
    return _p_power_exponent(len(numerator) // len(denominator), group.p)
