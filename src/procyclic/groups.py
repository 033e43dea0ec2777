"""Finite p-groups as explicit multiplication tables.

A group of order m is a uint16 table t with t[a, b] = index of a*b, plus
the identity index and an inverse table.  Construction verifies the group
axioms exactly at every order: a two-sided identity, two-sided inverses,
and associativity by Light's test, one m x m table comparison per
element that `greedy_walk` keeps; `homology.minres_h2` walks it modulo
[G,G]G^p too.  It goes highest index first because the builders put the
cyclic part in the top digits: on their groups it keeps exactly d(G).

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
The coordinates form one base-p word u (index u + n p^(i copies)), on
which T acts block-diagonally; all builders share one budget check.

Subgroup-flavored operations (closure, normality, the p-Frattini-style
products [G,G]G^p and [H,G]H^p, quotient groups) work on index sets and
power the mod-p Hopf quotient.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, UsageError, env_budget, exact_int, exact_ints
from .fpx import validate_prime
from .linfp import matmul_mod

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "cyclic_group",
    "elementary_abelian",
    "build_lamplighter",
    "lamplighter_socle",
    "hopf_quotient",
    "max_group_order",
    "check_order",
    "greedy_walk",
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


def greedy_walk(tab: np.ndarray, reached: np.ndarray):
    """Yield, highest index first, each element that the mask ``reached`` lacks.

    After each yield, ``reached`` is closed under right multiplication by
    every element yielded so far.  From {e} it grows into the subgroup the
    yielded elements generate; from a normal subgroup N into <yielded, N>.
    """
    kept: list[int] = []
    for g in range(len(tab) - 1, -1, -1):
        if not reached[g]:
            yield g
            kept.append(g)
            _right_closure(tab, reached, kept)


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
        good, the table is associative.  The set is `greedy_walk` from the
        identity.  Each kept g costs one m x m comparison, O(d m^2) in all;
        a group keeps d <= log_2 m elements.

        A. H. Clifford and G. B. Preston, *The Algebraic Theory of
        Semigroups* I, Amer. Math. Soc. (1961), Section 1.2.
        """
        reached = np.arange(len(tab)) == identity
        for g in greedy_walk(tab, reached):
            # row x: (x g) y against x (g y), for all y
            if not np.array_equal(tab[tab[:, g]], np.take(tab, tab[g], axis=1)):
                raise UsageError(f"associativity fails at element {g}")

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


# -- builders ----------------------------------------------------------


def check_order(p: int, e: int) -> int:
    """p**e, or ResourceLimitError if a table of that order exceeds the group budget.

    e is compared with log_p of the budget first, so a huge e is refused
    without forming p**e; an order of over 3000 bits is written as p^e.
    """
    budget, e_max, power = max_group_order(), 0, p
    while power <= budget:
        e_max, power = e_max + 1, power * p
    if e > e_max:
        order = p**e if e * p.bit_length() <= 3000 else f"{p}^{e}"
        raise ResourceLimitError(
            f"order {order} exceeds budget {budget} (set PROCYCLIC_MAX_GROUP to raise it)"
        )
    return p**e


def cyclic_group(p: int, e: int) -> FiniteGroup:
    """Z / p^e as a table group."""
    p = validate_prime(p)
    e = exact_int(e, "exponent")
    if e < 0:
        raise UsageError("exponent must be nonnegative")
    m = check_order(p, e)
    # row i is the window at i of 0..m-1 written twice: (i + j) mod m
    twice = np.tile(np.arange(m, dtype=np.uint16), 2)
    table = np.lib.stride_tricks.sliding_window_view(twice, m)[:m].copy()
    return FiniteGroup(p, table, generator_names=("g",))


def elementary_abelian(p: int, r: int) -> FiniteGroup:
    """(Z/p)^r, elements encoded as little-endian base-p words."""
    p = validate_prime(p)
    r = exact_int(r, "rank")
    if r < 0:
        raise UsageError("rank must be nonnegative")
    check_order(p, r)
    names = tuple(f"e{j+1}" for j in range(r))
    return FiniteGroup(p, _word_sums(p, r), generator_names=names)


def _word_sums(p: int, width: int) -> np.ndarray:
    """Table of digitwise sums mod p of little-endian base-p words.

    A word of width w + 1 is its low digit plus p times a word of width w,
    so the table grows one digit at a time.
    """
    # Z/p as a table, none for width 0 (p may be 65521); uint32 holds 2p - 2
    idx = np.arange(p if width else 0, dtype=np.uint32)
    digit = ((idx[:, None] + idx) % p).astype(np.uint16)
    table = np.zeros((1, 1), dtype=np.uint16)
    for _ in range(width):
        n = table.shape[0] * p
        table = (p * table[:, None, :, None] + digit[:, None, :]).reshape(n, n)
    return table


def _lamplighter_shape(p: int, i: int, copies: int) -> tuple[int, int, int]:
    """(p, i, copies) checked: a prime, a level i >= 1, and 1 or 2 copies."""
    p = validate_prime(p)
    i = exact_int(i, "level")
    if i < 1:
        raise UsageError("level i must be >= 1")
    copies = exact_int(copies, "copies")
    if copies not in (1, 2):
        raise UsageError("copies must be 1 or 2")
    return p, i, copies


def build_lamplighter(p: int, i: int, copies: int = 2) -> FiniteGroup:
    """(F_p[x]/(x^i))^copies semidirect Z/p^i with the 1-x shift action.

    The coordinate series form one little-endian base-p word u (coefficient
    of x^j of coordinate c at digit j + i c), on which T acts block-diagonally;
    index = u + n p^(i copies) for the cyclic part n, so the base subgroup is
    ``range(p**(i * copies))``; `lamplighter_socle` names the central socle.
    """
    p, i, copies = _lamplighter_shape(p, i, copies)
    width = i * copies
    order = check_order(p, width + i)
    words, cyclic_order = p**width, p**i
    t_action = np.eye(i, dtype=np.int64) + (p - 1) * np.eye(i, k=-1, dtype=np.int64)
    action = np.kron(np.eye(copies, dtype=np.int64), t_action)
    weights = p ** np.arange(width)
    digits = np.arange(words)[:, None] // weights % p
    shift = matmul_mod(digits, action.T, p) @ weights  # shift[u] = u . T
    add = _word_sums(p, width)  # add[u, w]: index of the word sum u + w
    n, u = np.divmod(np.arange(order), words)
    # the columns with cyclic part nb form one block, listing the words in order
    table = np.empty((order, order), dtype=np.uint16)
    for nb in range(cyclic_order):
        block = table[:, nb * words : (nb + 1) * words]
        # u: every element's word times T^nb; "clip" (all in range) is unbuffered
        np.take(add, u, axis=0, out=block, mode="clip")
        block += (((n + nb) % cyclic_order) * words).astype(np.uint16)[:, None]
        u = shift[u]

    return FiniteGroup(p, table, generator_names=("a", "b", "c")[: copies + 1])


def lamplighter_socle(p: int, i: int, copies: int, coordinate: int = 0) -> frozenset[int]:
    """Indices of the subgroup x^(i-1) F_p in one coordinate of `build_lamplighter`.

    These base elements are killed by 1 - T, so they are central: a small
    normal subgroup.  In the index layout, c x^(i-1) in coordinate k is
    c p^(i-1 + i k).
    """
    p, i, copies = _lamplighter_shape(p, i, copies)
    if not 0 <= exact_int(coordinate, "coordinate") < copies:
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
