"""Finite abelian groups in invariant-factor form.

Groups are stored canonically as a divisibility chain d_1 | d_2 | ... | d_r
(each >= 2), so two isomorphic groups compare equal.  Elements are coordinate
tuples reduced mod the factors.  The module also provides the positive-set
split for odd groups, character groups with their canonical pairing,
brute-force automorphism enumeration, and subgroup enumeration -- all at the
desk scale (|G| up to a few hundred) this package targets -- and the cached
integer tables (coordinates, index of g + h) the form code runs on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from operator import itemgetter

import numpy as np

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
    "automorphism_perms",
    "span",
    "subgroups",
    "product_group",
]

# largest group order with |G| x |G| integer tables (32 MB of int64 each)
MAX_TABLE_ORDER = 2048
# most candidate generator images the automorphism enumeration tries
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


# -- integer tables ------------------------------------------------------------


@lru_cache(maxsize=None)
def coords_array(group: FinAbGroup) -> np.ndarray:
    """The (|G|, rank) int64 coordinates of the elements, in element order."""
    c = np.array(list(product(*map(range, group.invariant_factors))), dtype=np.int64)
    c = c.reshape(group.order, group.rank)
    c.flags.writeable = False
    return c


def index_of_coords(group: FinAbGroup, coords) -> np.ndarray:
    """Element indices of integer coordinate rows (last axis), reduced mod
    the invariant factors."""
    facs = group.invariant_factors
    strides = [math.prod(facs[j + 1:]) for j in range(len(facs))]
    return np.asarray(coords) % np.array(facs, dtype=np.int64) @ np.array(strides, dtype=np.int64)


def check_table_order(order: int) -> None:
    """Refuse a |G| x |G| table above ``MAX_TABLE_ORDER``, before allocating."""
    if order > MAX_TABLE_ORDER:
        raise CapacityError(
            f"|G| = {order} exceeds {MAX_TABLE_ORDER}, the limit for |G| x |G| tables"
        )


@lru_cache(maxsize=None)
def add_table(group: FinAbGroup) -> np.ndarray:
    """The (|G|, |G|) table of the index of g + h."""
    check_table_order(group.order)
    c = coords_array(group)
    table = np.array([index_of_coords(group, c + row) for row in c])
    table.flags.writeable = False
    return table


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

    def compose(self, other: "GroupAut") -> "GroupAut":
        return GroupAut(self.group, tuple(self(img) for img in other.images))

    def inverse(self) -> "GroupAut":
        table = {self(g): g for g in self.group.elements()}
        return GroupAut(self.group, tuple(table[g] for g in self.group.generators()))

    def is_identity(self) -> bool:
        return self.images == self.group.generators()


@lru_cache(maxsize=None)
def _automorphisms_cached(group: FinAbGroup):
    """(automorphisms, their generator images as an (n, rank, rank) array)."""
    if group.is_trivial():
        return (GroupAut(group, ()),), np.zeros((1, 0, 0), dtype=np.int64)
    facs = group.invariant_factors
    c = coords_array(group)
    pools = [np.flatnonzero(((c * d) % facs == 0).all(axis=1)) for d in facs]
    sizes = [len(pool) for pool in pools]
    n_candidates = math.prod(sizes)
    if n_candidates > MAX_AUT_CANDIDATES:
        raise CapacityError(
            f"{n_candidates} candidate generator images exceed the bound {MAX_AUT_CANDIDATES}"
        )
    # images define a homomorphism; keep it iff it is injective, i.e. only
    # the zero element (index 0) maps to zero; candidates in product order
    kept = []
    chunk = max(1, (1 << 16) // (group.order * group.rank))
    for start in range(0, n_candidates, chunk):
        pos = np.unravel_index(np.arange(start, min(start + chunk, n_candidates)), sizes)
        images = np.stack([c[pool[p]] for pool, p in zip(pools, pos)], axis=1)
        mapped = index_of_coords(group, np.einsum("gi,nij->ngj", c, images))
        kept.append(images[(mapped[:, 1:] != 0).all(axis=1)])
    images = np.concatenate(kept)
    images.flags.writeable = False
    els = group.elements()  # shared, not one new element per image
    auts = tuple(
        GroupAut(group, tuple(els[i] for i in row))
        for row in index_of_coords(group, images).tolist()
    )
    return auts, images


def automorphisms(group: FinAbGroup):
    """All automorphisms of the group, by brute force over generator images
    with order pruning.  Raises CapacityError past ``MAX_AUT_CANDIDATES``."""
    return _automorphisms_cached(group)[0]


def automorphism_perms(group: FinAbGroup):
    """Yield (start, perms) over ``automorphisms(group)``: row i of
    ``perms`` holds the index of phi(g) for every g, phi the automorphism
    numbered start + i; blocks of about 2^16 coordinates."""
    images = _automorphisms_cached(group)[1]
    c = coords_array(group)
    chunk = max(1, (1 << 16) // (group.order * max(group.rank, 1)))
    for start in range(0, len(images), chunk):
        mapped = np.einsum("gi,nij->ngj", c, images[start:start + chunk])
        yield start, index_of_coords(group, mapped)


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
