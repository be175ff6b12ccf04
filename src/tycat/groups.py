"""Finite abelian groups in invariant-factor form.

Groups are stored canonically as a divisibility chain d_1 | d_2 | ... | d_r
(each >= 2), so two isomorphic groups compare equal.  Elements are coordinate
tuples reduced mod the factors.  The module also provides the positive-set
split for odd groups, character groups with their canonical pairing,
automorphisms found by backtracking over generator images, and subgroup
enumeration -- all at the desk scale (|G| up to a few hundred) this package
targets -- and the cached index tables (of g + e_j per generator, of g + h)
the form code runs on.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from operator import itemgetter, mul

from .cyclo import RootOfUnity, factorize
from .errors import CapacityError, InvalidArgumentError, ModularityError

__all__ = [
    "FinAbGroup",
    "GroupElement",
    "PositiveSet",
    "GroupAut",
    "positive_set",
    "character_group",
    "automorphisms",
    "span",
    "subgroups",
    "product_group",
]

# largest group order the form code accepts; forms are proven on |G| x rank
# tables, and the |G| x |G| tables (moddata's, and the full checks of a value
# table that is not a form) stay below 2048^2 entries
MAX_TABLE_ORDER = 2048
# most candidate generator images (the product of the pool sizes) the
# automorphism search accepts
MAX_AUT_CANDIDATES = 200_000


def primary_pieces(orders) -> list[tuple[int, int, int]]:
    """The prime-power pieces of a list of cyclic orders, as (p, q, slot)
    with q = p^e exactly dividing ``orders[slot]``: Z_q is the piece of
    Z_{orders[slot]} read off by x mod q.  Sorted by prime, then largest
    piece first, then slot; this is the one place orders are split."""
    pieces = []
    for slot, d in enumerate(orders):
        d = int(d)
        if d < 1:
            raise InvalidArgumentError(f"cyclic factor {d} is not positive")
        pieces += [(p, p**e, slot) for p, e in factorize(d).items()]
    return sorted(pieces, key=lambda t: (t[0], -t[1], t[2]))


def _canonical_invariant_factors(factors) -> tuple[int, ...]:
    """Normalize an arbitrary list of cyclic orders to the divisibility
    chain: chain slot j (from the top) multiplies the j-th largest piece of
    each prime."""
    chain: list[int] = []
    for _, run in groupby(primary_pieces(factors), key=itemgetter(0)):
        for j, (_, q, _) in enumerate(run):
            if j == len(chain):
                chain.append(1)
            chain[j] *= q
    return tuple(reversed(chain))


@dataclass(frozen=True)
class FinAbGroup:
    invariant_factors: tuple[int, ...]

    @staticmethod
    def of(*factors) -> "FinAbGroup":
        if len(factors) == 1 and isinstance(factors[0], (list, tuple)):
            factors = tuple(factors[0])
        return FinAbGroup(_canonical_invariant_factors(factors))

    def __post_init__(self):
        fac = self.invariant_factors
        if fac != _canonical_invariant_factors(fac):
            raise InvalidArgumentError(f"{fac} is not a divisibility chain")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def element(self, coords) -> "GroupElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise InvalidArgumentError("coordinate vector has wrong length")
        return GroupElement(
            self, tuple(c % d for c, d in zip(coords, self.invariant_factors))
        )

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def generators(self) -> tuple["GroupElement", ...]:
        return tuple(
            GroupElement(self, tuple(int(i == j) for j in range(self.rank)))
            for i in range(self.rank)
        )

    def elements(self) -> tuple["GroupElement", ...]:
        return _elements_of(self)

    def index_of(self, g: "GroupElement") -> int:
        idx = 0
        for c, d in zip(g.coords, self.invariant_factors):
            idx = idx * d + c
        return idx

    def __repr__(self):
        if self.is_trivial():
            return "FinAbGroup(trivial)"
        return "FinAbGroup(" + "x".join(f"Z{d}" for d in self.invariant_factors) + ")"


@lru_cache(maxsize=None)
def _elements_of(group: FinAbGroup) -> tuple["GroupElement", ...]:
    ranges = [range(d) for d in group.invariant_factors]
    return tuple(GroupElement(group, coords) for coords in product(*ranges))


@dataclass(frozen=True)
class GroupElement:
    group: FinAbGroup
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        if other.group != self.group:
            raise InvalidArgumentError("elements of different groups")
        return GroupElement(
            self.group,
            tuple(
                (a + b) % d
                for a, b, d in zip(self.coords, other.coords, self.group.invariant_factors)
            ),
        )

    def __neg__(self) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple((-a) % d for a, d in zip(self.coords, self.group.invariant_factors)),
        )

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return self + (-other)

    def __mul__(self, k: int) -> "GroupElement":
        return GroupElement(
            self.group,
            tuple((a * k) % d for a, d in zip(self.coords, self.group.invariant_factors)),
        )

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        n = 1
        for c, d in zip(self.coords, self.group.invariant_factors):
            n = math.lcm(n, d // math.gcd(c, d))
        return n

    def __repr__(self):
        return "(" + ",".join(map(str, self.coords)) + ")"


# -- index tables ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _strides(group: FinAbGroup) -> tuple[int, ...]:
    """The place value of each coordinate in the element index."""
    facs = group.invariant_factors
    return tuple(math.prod(facs[j + 1:]) for j in range(len(facs)))


@lru_cache(maxsize=None)
def shift_table(group: FinAbGroup) -> tuple[tuple[int, ...], ...]:
    """Row j holds the index of g + e_j for every g, in element order; its
    entry 0 is the index of e_j."""
    rows = []
    for d, s in zip(group.invariant_factors, _strides(group)):
        wrap = (d - 1) * s
        rows.append(tuple(i - wrap if i // s % d == d - 1 else i + s for i in range(group.order)))
    return tuple(rows)


def check_table_order(order: int) -> None:
    """Refuse a |G| x |G| table above ``MAX_TABLE_ORDER``, before allocating."""
    if order > MAX_TABLE_ORDER:
        raise CapacityError(
            f"|G| = {order} exceeds {MAX_TABLE_ORDER}, the limit for |G| x |G| tables"
        )


@lru_cache(maxsize=None)
def add_table(group: FinAbGroup) -> tuple[tuple[int, ...], ...]:
    """The (|G|, |G|) table of the index of g + h.  Coordinate j of g + h
    adds ((g_j + h_j) mod d_j) s_j to the index, so row h joins one
    rotation per coordinate, the first coordinate slowest."""
    check_table_order(group.order)
    facs, strides = group.invariant_factors, _strides(group)

    def row(h: GroupElement) -> tuple[int, ...]:
        out = [0]
        for c, d, s in zip(h.coords, facs, strides):
            rot = [(x + c) % d * s for x in range(d)]
            out = [a + b for a in out for b in rot]
        return tuple(out)

    return tuple(map(row, group.elements()))


# -- positive sets -----------------------------------------------------------


@dataclass(frozen=True)
class PositiveSet:
    """A choice of G_+ with G = G_+ | {0} | -G_+, for |G| odd.

    The deterministic rule: g is positive iff its first nonzero coordinate
    x_i satisfies 1 <= x_i <= (d_i - 1) / 2.
    """

    group: FinAbGroup
    members: tuple[GroupElement, ...]

    @staticmethod
    def _is_positive(g: GroupElement) -> bool:
        for c, d in zip(g.coords, g.group.invariant_factors):
            if c:
                return 1 <= c <= (d - 1) // 2
        return False

    def fold(self, g: GroupElement) -> GroupElement:
        """|g|: the representative of {g, -g} in G_+ u {0}."""
        if g.is_zero() or self._is_positive(g):
            return g
        return -g


def positive_set(group: FinAbGroup) -> PositiveSet:
    if group.order % 2 == 0:
        raise InvalidArgumentError("positive sets need a group of odd order")
    members = tuple(g for g in group.elements() if PositiveSet._is_positive(g))
    if len(members) != (group.order - 1) // 2:
        raise ModularityError(f"positive set of {group} has {len(members)} members")
    return PositiveSet(group, members)


# -- characters --------------------------------------------------------------


def character_group(group: FinAbGroup):
    """The dual group (isomorphic copy) together with the canonical pairing
    chi_h(g) = e^{2 pi i sum h_i g_i / d_i}."""
    n = group.exponent
    weights = tuple(n // d for d in group.invariant_factors)

    def pairing(h: GroupElement, g: GroupElement) -> RootOfUnity:
        return RootOfUnity(sum(hi * gi * w for hi, gi, w in zip(h.coords, g.coords, weights)), n)

    return group, pairing


# -- automorphisms -----------------------------------------------------------


@dataclass(frozen=True)
class GroupAut:
    """An automorphism given by the images of the canonical generators."""

    group: FinAbGroup
    images: tuple[GroupElement, ...]

    def __call__(self, g: GroupElement) -> GroupElement:
        out = self.group.zero()
        for c, img in zip(g.coords, self.images):
            out = out + img * c
        return out

    def indices(self) -> Iterator[int]:
        """The index of phi(g) for each g in element order, computed as it
        is read, so a caller that stops early pays for what it read.  Each
        step of the element odometer adds the image y_j of every coordinate
        j it moves: rolling g_j over from d_j - 1 to 0 adds y_j as well,
        since d_j y_j = 0."""
        facs = self.group.invariant_factors
        strides = _strides(self.group)
        images = [y.coords for y in self.images]
        last = len(facs) - 1
        acc = [0] * len(facs)  # the coordinates of phi(g)
        g = [0] * len(facs)
        for _ in range(self.group.order):
            yield sum(map(mul, acc, strides))
            j = last
            while j >= 0:
                acc = [(a + b) % d for a, b, d in zip(acc, images[j], facs)]
                g[j] += 1
                if g[j] < facs[j]:
                    break
                g[j] = 0
                j -= 1


@lru_cache(maxsize=None)
def automorphisms(group: FinAbGroup) -> tuple[GroupAut, ...]:
    """All automorphisms of the group, by backtracking over generator images
    of the right orders.  Raises CapacityError before searching when the
    candidate images number more than ``MAX_AUT_CANDIDATES``."""
    if group.is_trivial():
        return (GroupAut(group, ()),)
    facs = group.invariant_factors
    # the candidate images of e_i: the y with d_i y = 0, in element order
    pools = [
        [y for y in group.elements() if all(d * c % f == 0 for c, f in zip(y.coords, facs))]
        for d in facs
    ]
    n_candidates = math.prod(map(len, pools))
    if n_candidates > MAX_AUT_CANDIDATES:
        raise CapacityError(
            f"{n_candidates} candidate generator images exceed the bound {MAX_AUT_CANDIDATES}"
        )
    return tuple(_backtrack(group, pools))


def _backtrack(group: FinAbGroup, pools) -> list[GroupAut]:
    """The automorphisms among the generator images in ``pools``, in the
    product order of the pools (the first image varies slowest).

    Images y_i with d_i y_i = 0 define a homomorphism; it is injective, so
    bijective, iff each y_i meets the span S of the earlier images only in
    0.  The intersection is a subgroup of the cyclic group <y_i>, so it is 0
    iff it misses the subgroup of order p for every prime p | d_i, generated
    by (d_i/p) y_i; as 0 is in S, the same test proves y_i has order d_i."""
    facs = group.invariant_factors
    last = len(facs) - 1
    cofactors = [[d // p for p in factorize(d)] for d in facs]
    found: list[GroupAut] = []

    def scaled(c, k: int) -> tuple[int, ...]:
        return tuple(x * k % f for x, f in zip(c, facs))

    def extend(i: int, images: tuple[GroupElement, ...], span: set) -> None:
        for y in pools[i]:
            if any(scaled(y.coords, k) in span for k in cofactors[i]):
                continue
            if i == last:
                found.append(GroupAut(group, images + (y,)))
                continue
            multiples = [scaled(y.coords, t) for t in range(facs[i])]
            extend(i + 1, images + (y,), {
                tuple((a + b) % f for a, b, f in zip(s, m, facs))
                for s in span for m in multiples
            })

    extend(0, (), {(0,) * len(facs)})
    return found


# -- subgroups ---------------------------------------------------------------


@lru_cache(maxsize=None)
def span(group: FinAbGroup, gens: frozenset[GroupElement]) -> frozenset[GroupElement]:
    """The subgroup generated by ``gens``."""
    found = {group.zero()}
    frontier = [group.zero()]
    gens = list(gens)
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = cur + g
            if nxt not in found:
                found.add(nxt)
                frontier.append(nxt)
    return frozenset(found)


def subgroups(group: FinAbGroup) -> list[frozenset[GroupElement]]:
    """All subgroups, as frozensets of elements (brute-force closure search)."""
    found = {frozenset({group.zero()})}
    frontier = [frozenset({group.zero()})]
    while frontier:
        h = frontier.pop()
        for g in group.elements():
            if g in h:
                continue
            bigger = span(group, frozenset(h | {g}))
            if bigger not in found:
                found.add(bigger)
                frontier.append(bigger)
    return sorted(found, key=lambda h: (len(h), sorted(group.index_of(x) for x in h)))


# -- structured products ------------------------------------------------------


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    if math.gcd(m1, m2) != 1:
        raise ModularityError(f"CRT moduli {m1} and {m2} are not coprime")
    return (r1 + (r2 - r1) * pow(m1, -1, m2) % m2 * m1) % (m1 * m2)


def product_group(orders):
    """The canonical group isomorphic to prod Z_{orders[i]}, together with
    both directions of the isomorphism (as coordinate maps).

    Returns (group, to_canonical, from_canonical) where to_canonical maps a
    coordinate tuple over ``orders`` to a GroupElement and from_canonical
    inverts it.  The chain is made of the pieces of ``orders``, so the k-th
    piece of each sorted list is the same Z_q; CRT joins them.
    """
    orders = [int(d) for d in orders]
    group = FinAbGroup.of(orders)
    src, dst = primary_pieces(orders), primary_pieces(group.invariant_factors)
    fwd = [(i, j, q) for (_, q, i), (_, _, j) in zip(src, dst)]
    back = [(j, i, q) for i, j, q in fwd]

    def crt(coords, size: int, moves) -> tuple[int, ...]:
        out, mod = [0] * size, [1] * size
        for a, b, q in moves:
            out[b] = _crt_pair(out[b], mod[b], int(coords[a]) % q, q)
            mod[b] *= q
        return tuple(out)

    def to_canonical(coords) -> GroupElement:
        return GroupElement(group, crt(coords, group.rank, fwd))

    def from_canonical(g: GroupElement):
        return crt(g.coords, len(orders), back)

    return group, to_canonical, from_canonical
