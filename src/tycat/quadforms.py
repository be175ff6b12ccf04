"""Quadratic forms and symmetric bicharacters on finite abelian groups.

A metric group is a finite abelian group together with a nondegenerate
quadratic form q: G -> T.  For groups of odd order the form and the
symmetric bicharacter determine each other through

    b(g, h) = dq(g, h)^{(Exp(G)+1)/2},      q(g) = b(g, g)^{-1},

where dq(g, h) = q(g) q(h) q(g+h)^{-1}.  Forms store a full value table
(q is not multiplicative); bicharacters store generator data only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cyclo import CycNum, RootOfUnity, factorize, sqrt_int, zeta
from .errors import (
    DegeneracyError,
    InvalidArgumentError,
    ModularityError,
    UnsupportedError,
)
from .groups import FinAbGroup, GroupAut, GroupElement, automorphisms, product_group, subgroups

__all__ = [
    "QuadForm",
    "Bichar",
    "MetricGroup",
    "bichar_from_qform",
    "qform_from_bichar",
    "gauss_central_charge",
    "metric_equiv",
    "classify_metric_groups",
    "direct_sum",
    "lagrangian_subgroups",
    "isotropic_subgroups",
    "metric_double",
    "metric_group",
]


@dataclass(frozen=True)
class QuadForm:
    """A quadratic form as a full value table over the element enumeration."""

    group: FinAbGroup
    values: tuple[RootOfUnity, ...]

    @staticmethod
    def from_callable(group: FinAbGroup, f) -> "QuadForm":
        q = QuadForm(group, tuple(f(g) for g in group.elements()))
        q.validate()
        return q

    @staticmethod
    def from_exponents(group: FinAbGroup, exps) -> "QuadForm":
        return QuadForm.from_callable(
            group, lambda g: RootOfUnity(Fraction(exps[group.index_of(g)]))
        )

    def __call__(self, g: GroupElement) -> RootOfUnity:
        return self.values[self.group.index_of(g)]

    def boundary(self, g: GroupElement, h: GroupElement) -> RootOfUnity:
        """dq(g,h) = q(g) q(h) q(g+h)^{-1}, a symmetric bicharacter."""
        return self(g) * self(h) * self(g + h).inverse()

    def conj(self) -> "QuadForm":
        return QuadForm(self.group, tuple(v.inverse() for v in self.values))

    def __pow__(self, k: int) -> "QuadForm":
        return QuadForm(self.group, tuple(v**k for v in self.values))

    def validate(self) -> None:
        g0 = self.group.zero()
        if not self(g0).is_one():
            raise InvalidArgumentError("q(0) != 1")
        for g in self.group.elements():
            qg = self(g)
            for n in range(self.group.exponent):
                if self(g * n) != qg ** (n * n):
                    raise InvalidArgumentError(f"q({n}*{g}) != q({g})^{n * n}")
        gens = self.group.generators()
        for g in self.group.elements():
            for h in gens:
                for k in gens:
                    lhs = self.boundary(g + h, k)
                    rhs = self.boundary(g, k) * self.boundary(h, k)
                    if lhs != rhs:
                        raise InvalidArgumentError("dq is not bimultiplicative")

    def is_nondegenerate(self) -> bool:
        els = self.group.elements()
        for g in els:
            if g.is_zero():
                continue
            if all(self.boundary(g, h).is_one() for h in els):
                return False
        return True

    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(v.exponent for v in self.values)

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "values": [str(v.exponent) for v in self.values],
        }

    @staticmethod
    def from_json(obj: dict) -> "QuadForm":
        group = FinAbGroup.from_json(obj["group"])
        vals = [RootOfUnity(Fraction(s)) for s in obj["values"]]
        if len(vals) != group.order:
            raise InvalidArgumentError("value table has wrong length")
        q = QuadForm(group, tuple(vals))
        q.validate()
        return q


@dataclass(frozen=True)
class Bichar:
    """A symmetric bicharacter, stored on generator pairs and extended
    bimultiplicatively."""

    group: FinAbGroup
    gen_values: tuple[tuple[RootOfUnity, ...], ...]

    def __call__(self, g: GroupElement, h: GroupElement) -> RootOfUnity:
        r = Fraction(0)
        for i, gi in enumerate(g.coords):
            if not gi:
                continue
            row = self.gen_values[i]
            for j, hj in enumerate(h.coords):
                if hj:
                    r += row[j].exponent * gi * hj
        return RootOfUnity(r)

    def validate(self) -> None:
        facs = self.group.invariant_factors
        r = self.group.rank
        for i in range(r):
            for j in range(r):
                if self.gen_values[i][j] != self.gen_values[j][i]:
                    raise InvalidArgumentError("bicharacter is not symmetric")
                if not (self.gen_values[i][j] ** facs[i]).is_one():
                    raise InvalidArgumentError(
                        "bicharacter violates the generator order constraint"
                    )

    def is_nondegenerate(self) -> bool:
        els = self.group.elements()
        gens = self.group.generators()
        for g in els:
            if g.is_zero():
                continue
            if all(self(g, h).is_one() for h in gens):
                return False
        return True

    def conj(self) -> "Bichar":
        return Bichar(
            self.group,
            tuple(tuple(v.inverse() for v in row) for row in self.gen_values),
        )

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "generator_exponents": [
                [str(v.exponent) for v in row] for row in self.gen_values
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "Bichar":
        group = FinAbGroup.from_json(obj["group"])
        rows = obj["generator_exponents"]
        b = Bichar(
            group,
            tuple(
                tuple(RootOfUnity(Fraction(s)) for s in row) for row in rows
            ),
        )
        b.validate()
        return b


@dataclass(frozen=True)
class MetricGroup:
    group: FinAbGroup
    quad: QuadForm
    bichar: Bichar | None = None

    def __post_init__(self):
        if self.bichar is not None:
            for g in self.group.elements():
                if self.quad(g) * self.bichar(g, g) != RootOfUnity.one():
                    raise InvalidArgumentError("q(g) * b(g,g) != 1")

    def conj(self) -> "MetricGroup":
        return MetricGroup(
            self.group,
            self.quad.conj(),
            self.bichar.conj() if self.bichar else None,
        )


def metric_group(q: QuadForm) -> MetricGroup:
    """Package a nondegenerate form, deriving the bicharacter when |G| is odd."""
    if not q.is_nondegenerate():
        raise DegeneracyError("quadratic form is degenerate")
    b = bichar_from_qform(q) if q.group.order % 2 else None
    return MetricGroup(q.group, q, b)


def bichar_from_qform(q: QuadForm) -> Bichar:
    """The symmetric bicharacter b = dq^{(Exp(G)+1)/2} with q(g) = b(g,g)^{-1}."""
    group = q.group
    if group.order % 2 == 0:
        raise UnsupportedError("bicharacter extraction needs odd group order")
    if not q.is_nondegenerate():
        raise InvalidArgumentError("quadratic form is degenerate")
    m = (group.exponent + 1) // 2
    gens = group.generators()
    rows = tuple(
        tuple(q.boundary(gi, gj) ** m for gj in gens) for gi in gens
    )
    b = Bichar(group, rows)
    b.validate()
    for g in group.elements():
        if b(g, g).inverse() != q(g):
            raise InvalidArgumentError("b(g,g)^-1 != q(g); form is inconsistent")
        for h in group.elements():
            if b(g, h) ** 2 != q.boundary(g, h):
                raise InvalidArgumentError("b^2 != dq; form is inconsistent")
    return b


def qform_from_bichar(b: Bichar) -> QuadForm:
    """q(g) = b(g,g)^{-1} for a symmetric nondegenerate bicharacter, |G| odd."""
    group = b.group
    if group.order % 2 == 0:
        raise UnsupportedError("this translation needs odd group order")
    b.validate()
    if not b.is_nondegenerate():
        raise InvalidArgumentError("bicharacter is degenerate")
    q = QuadForm.from_callable(group, lambda g: b(g, g).inverse())
    return q


def gauss_central_charge(q: QuadForm) -> int:
    """The residue c mod 8 with sum_g q(g) = sqrt(|G|) e^{pi i c/4}.

    Raises DegeneracyError when the normalized sum is not of unit modulus
    (which happens exactly when q is degenerate).
    """
    group = q.group
    n = group.order
    conductor = math.lcm(8, *(v.exponent.denominator for v in q.values))
    total = CycNum.zero().promoted(conductor)
    for v in q.values:
        total = total + v.to_cyc(conductor)
    if total * total.conj() != n:
        raise DegeneracyError("Gauss sum is not of unit modulus; q is degenerate")
    root = sqrt_int(n)
    for c in range(8):
        if total == root * zeta(8, c):
            return c
    raise DegeneracyError("Gauss sum is not an 8th root of unity times sqrt(|G|)")


def metric_equiv(
    m1: MetricGroup, m2: MetricGroup, max_candidates: int = 10_000
) -> GroupAut | None:
    """An isomorphism phi with q1 = q2 o phi, or None.

    Both groups are canonical, so isomorphy means equal invariant factors and
    the search runs over the automorphism group (exhaustive: None is a proof
    at this scale).
    """
    if m1.group != m2.group:
        return None
    q1, q2 = m1.quad, m2.quad
    for phi in automorphisms(m1.group, max_candidates):
        if all(q1(g) == q2(phi(g)) for g in m1.group.elements()):
            return phi
    return None


def direct_sum(m1: MetricGroup, m2: MetricGroup) -> MetricGroup:
    """(G1 + G2, q1 + q2) with (q1+q2)(g1,g2) = q1(g1) q2(g2), on the
    canonical model of the product group."""
    orders = m1.group.invariant_factors + m2.group.invariant_factors
    group, _, back = product_group(orders)
    r1 = m1.group.rank

    def q(g: GroupElement) -> RootOfUnity:
        coords = back(g)
        g1 = m1.group.element(coords[:r1])
        g2 = m2.group.element(coords[r1:])
        return m1.quad(g1) * m2.quad(g2)

    return metric_group(QuadForm.from_callable(group, q))


def isotropic_subgroups(m: MetricGroup) -> list[frozenset[GroupElement]]:
    """All subgroups with q restricted to them identically 1."""
    return [
        h
        for h in subgroups(m.group)
        if all(m.quad(x).is_one() for x in h)
    ]


def lagrangian_subgroups(m: MetricGroup) -> list[frozenset[GroupElement]]:
    """Isotropic subgroups L with |L|^2 = |G| (empty unless |G| is a square)."""
    n = m.group.order
    return [h for h in isotropic_subgroups(m) if len(h) ** 2 == n]


@lru_cache(maxsize=None)
def _least_nonresidue(p: int) -> int:
    for a in range(2, p):
        if pow(a, (p - 1) // 2, p) == p - 1:
            return a
    raise InvalidArgumentError(f"{p} has no quadratic nonresidue")


def classify_metric_groups(G: FinAbGroup, max_candidates: int = 100_000):
    """One representative metric group per equivalence class of nondegenerate
    quadratic forms on G (|G| odd).

    Per prime-power type p^k appearing in G there are two classes, built from
    q(x) = e^{2 pi i a x^2 / p^k} with a = 1 (Jacobi symbol +1) or a = the
    least quadratic nonresidue mod p (Jacobi symbol -1); with k distinct
    types this yields 2^k classes, de-duplicated by metric_equiv.
    """
    if G.order % 2 == 0:
        raise UnsupportedError("classification implemented for odd order only")
    if G.is_trivial():
        return [metric_group(QuadForm(G, (RootOfUnity.one(),)))]
    # primary cyclic pieces of G, grouped by prime power
    pieces: list[int] = []
    for d in G.invariant_factors:
        for p, e in factorize(d).items():
            pieces.append(p**e)
    pieces.sort()
    types = sorted(set(pieces))
    group, _, back = product_group(pieces)
    if group != G:
        raise ModularityError(f"primary decomposition of {G} rebuilt {group}")

    reps: list[MetricGroup] = []
    for mask in range(1 << len(types)):
        minus = {t for i, t in enumerate(types) if mask >> i & 1}
        coeffs = []
        seen_of_type: set[int] = set()
        for q_piece in pieces:
            if q_piece in minus and q_piece not in seen_of_type:
                p = min(factorize(q_piece))
                coeffs.append(_least_nonresidue(p))
            else:
                coeffs.append(1)
            seen_of_type.add(q_piece)

        def qval(g: GroupElement, coeffs=coeffs) -> RootOfUnity:
            coords = back(g)
            r = Fraction(0)
            for x, a, q_piece in zip(coords, coeffs, pieces):
                r += Fraction(a * x * x, q_piece)
            return RootOfUnity(r)

        reps.append(metric_group(QuadForm.from_callable(group, qval)))

    deduped: list[MetricGroup] = []
    for m in reps:
        if all(
            metric_equiv(m, other, max_candidates) is None for other in deduped
        ):
            deduped.append(m)
    if len(deduped) != 2 ** len(types):
        raise ModularityError(
            f"{len(deduped)} metric classes on {G}, expected {2 ** len(types)}"
        )
    return deduped


def metric_double(A: FinAbGroup, q: QuadForm):
    """The two standard metric groups attached to (A, q), |A| odd, with an
    equivalence witness between them:

      * canonical:  (A + A^, q_can) with q_can(chi, a) = chi(a),
      * summed:     (A + A, q + conj(q)).

    A missing witness would contradict the underlying theory, so it raises.
    """
    if A.order % 2 == 0:
        raise UnsupportedError("metric doubles implemented for odd order only")
    from .groups import character_group

    dual, pairing = character_group(A)
    orders = dual.invariant_factors + A.invariant_factors
    group, _, back = product_group(orders)
    r = A.rank

    def q_can(g: GroupElement) -> RootOfUnity:
        coords = back(g)
        chi = dual.element(coords[:r])
        a = A.element(coords[r:])
        return pairing(chi, a)

    canonical = metric_group(QuadForm.from_callable(group, q_can))
    summed = direct_sum(metric_group(q), metric_group(q.conj()))
    witness = metric_equiv(canonical, summed, max_candidates=200_000)
    if witness is None:
        raise ModularityError(
            "no equivalence between the canonical pairing double and q + conj(q)"
        )
    return canonical, summed, witness
