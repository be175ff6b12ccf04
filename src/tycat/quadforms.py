"""Quadratic forms and symmetric bicharacters on finite abelian groups.

A metric group is a finite abelian group together with a nondegenerate
quadratic form q: G -> T.  For groups of odd order the form and the
symmetric bicharacter determine each other through

    b(g, h) = dq(g, h)^{(Exp(G)+1)/2},      q(g) = b(g, g)^{-1},

where dq(g, h) = q(g) q(h) q(g+h)^{-1}.  Both store exact phases as
integer exponents over one modulus M, the value at an exponent e being
e^{2 pi i e/M}: forms keep a full table over the element enumeration (q is
not multiplicative), bicharacters an integer generator matrix.  A form is
proven on |G| x rank tables, dq(g, e_j) and b(g, e_j) for the generators
e_j, read through the group's cached shift tables (the index of g + e_j);
a bicharacter is fixed by its values there.  Only a value table whose dq is
not bimultiplicative is checked on the full |G| x |G| table.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from .cyclo import CycNum, RootOfUnity, factorize, sqrt_int, zeta_sum
from .errors import DegeneracyError, InvalidArgumentError, ModularityError, UnsupportedError
from .groups import FinAbGroup, GroupAut, GroupElement, automorphisms, product_group, subgroups
from .groups import _strides, add_table, check_table_order, primary_pieces, shift_table

__all__ = [
    "QuadForm",
    "Bichar",
    "MetricGroup",
    "bichar_from_qform",
    "qform_from_bichar",
    "gauss_central_charge",
    "gauss_invariants",
    "metric_equiv",
    "classify_metric_groups",
    "standard_qform",
    "direct_sum",
    "lagrangian_subgroups",
    "isotropic_subgroups",
    "metric_double",
    "metric_group",
]


def _set_reduced(obj, group: FinAbGroup, modulus: int, rows) -> tuple:
    """Set ``group`` and the least ``modulus`` giving the same phases
    (M / gcd(M, entries)); return the reduced integer rows."""
    rows = [[int(e) % modulus for e in row] for row in rows]
    g = math.gcd(modulus, *(e for row in rows for e in row))
    object.__setattr__(obj, "group", group)
    object.__setattr__(obj, "modulus", modulus // g)
    return tuple(tuple(e // g for e in row) for row in rows)


@dataclass(frozen=True, init=False)
class QuadForm:
    """A quadratic form as an integer table over the element enumeration:
    q(g) = e^{2 pi i exps[g]/modulus}, with the modulus the lcm of the
    value orders, so equal forms compare equal.  Built from ``RootOfUnity``
    ``values`` or from integer ``exps`` over ``modulus``; not validated."""

    group: FinAbGroup
    modulus: int
    exps: tuple[int, ...]

    def __init__(self, group: FinAbGroup, values=None, *, modulus: int = 1, exps=()):
        if values is not None:
            values = tuple(values)
            modulus = math.lcm(1, *(v.n for v in values))
            exps = [v.k * (modulus // v.n) for v in values]
        (exps,) = _set_reduced(self, group, modulus, [exps])
        object.__setattr__(self, "exps", exps)

    @staticmethod
    def from_callable(group: FinAbGroup, f) -> "QuadForm":
        q = QuadForm(group, (f(g) for g in group.elements()))
        q.validate()
        return q

    @staticmethod
    def from_exponents(group: FinAbGroup, exps) -> "QuadForm":
        """The validated form e^{2 pi i r(g)} from rationals (or their
        strings) r over the element enumeration."""
        if len(exps) != group.order:
            raise InvalidArgumentError("value table has wrong length")
        q = QuadForm(group, [RootOfUnity(Fraction(r)) for r in exps])
        q.validate()
        return q

    @property
    def values(self) -> tuple[RootOfUnity, ...]:
        return tuple(RootOfUnity(e, self.modulus) for e in self.exps)

    def __call__(self, g: GroupElement) -> RootOfUnity:
        return RootOfUnity(self.exps[self.group.index_of(g)], self.modulus)

    def dq(self) -> tuple[tuple[int, ...], ...]:
        """The (|G|, |G|) exponent table of dq(g, h) = q(g) q(h) q(g+h)^{-1}."""
        return _dq_rows(self, add_table(self.group))

    def conj(self) -> "QuadForm":
        return self ** -1

    def __pow__(self, k: int) -> "QuadForm":
        return QuadForm(self.group, modulus=self.modulus, exps=[e * k for e in self.exps])

    @cached_property
    def _bimultiplicative(self) -> bool:
        """Whether dq(g + e_h, e_k) = dq(g, e_k) dq(e_h, e_k) for every g and
        generators e_h, e_k.  Then every dq(., e_k) is a character, and so is
        every dq(g, .): a coboundary satisfies dq(g, h) dq(g+h, k) =
        dq(g, h+k) dq(h, k), which at k = e_k reads dq(g, h + e_k) =
        dq(g, h) dq(g, e_k).  At g = 0 it also forces q(0) = 1."""
        a, m = self.exps, self.modulus
        shifts = shift_table(self.group)
        for sh in shifts:
            for sk in shifts:
                h, k = sh[0], sk[0]
                c = a[sk[h]] - a[h] - a[k]  # -dq(h, k)
                # dq(g + h, k) - dq(g, k) - dq(h, k), as exponents
                if any((a[x] - a[sk[x]] - y + a[z] + c) % m for x, y, z in zip(sh, a, sk)):
                    return False
        return True

    @cached_property
    def _dq_columns(self) -> tuple[tuple[int, ...], ...]:
        """Row g holds the exponents of dq(g, h), for h over the generators
        when dq is bimultiplicative, and over every element otherwise.  Both
        are refused above ``MAX_TABLE_ORDER``."""
        check_table_order(self.group.order)
        shifts = shift_table(self.group) if self._bimultiplicative else add_table(self.group)
        return _dq_rows(self, shifts)

    def validate(self) -> None:
        """Check that q is a quadratic form: q(0) = 1, dq is bimultiplicative
        (``_bimultiplicative``) and q(ng) = q(g)^{n^2} for every g and n.

        Once dq is a bicharacter, n = 2 decides every n: q(2g) = q(g)^4
        gives dq(g, g) = q(g)^2 / q(2g) = q(g)^{-2}, and then
        q((n+1)g) = q(ng) q(g) dq(ng, g)^{-1} = q(ng) q(g)^{2n+1}, so
        q(ng) = q(g)^{n^2} by induction.  So a g fails some n iff it fails
        n = 2, the least n it can fail.  Otherwise every n < Exp(G) is
        scanned.  Either way the message names the first failing g in
        element order and its least failing n."""
        group, m, a = self.group, self.modulus, self.exps
        if a[0] % m:  # the zero element has index 0
            raise InvalidArgumentError("q(0) != 1")
        e = group.exponent
        ns = range(2, min(3, e)) if self._bimultiplicative else range(e)
        facs, strides = group.invariant_factors, _strides(group)
        for i, g in enumerate(group.elements()):
            at = [0] * len(ns)  # the index of n g, one coordinate at a time
            for c, d, s in zip(g.coords, facs, strides):
                at = [x + n * c % d * s for x, n in zip(at, ns)]
            for n, j in zip(ns, at):
                if (a[j] - a[i] * n * n) % m:
                    raise InvalidArgumentError(f"q({n}*{g}) != q({g})^{n * n}")
        if not self._bimultiplicative:
            raise InvalidArgumentError("dq is not bimultiplicative")

    def is_nondegenerate(self) -> bool:
        """Whether no g != 0 has dq(g, h) = 1 for every h; holds for any
        value table, a form or not."""
        return all(map(any, self._dq_columns[1:]))


def _dq_rows(q: QuadForm, shifts) -> tuple[tuple[int, ...], ...]:
    """Row g: the exponents of dq(g, h) for each h of ``shifts``, a table
    whose row for h holds the index of g + h for every g (entry 0: h)."""
    a, m = q.exps, q.modulus
    return tuple(
        tuple((x + a[sh[0]] - a[sh[g]]) % m for sh in shifts) for g, x in enumerate(a)
    )


@dataclass(frozen=True, init=False)
class Bichar:
    """A symmetric bicharacter as an integer generator matrix,
    b(e_i, e_j) = e^{2 pi i mat[i][j]/modulus}, extended bimultiplicatively.
    Built from rows of ``RootOfUnity`` ``gen_values`` or from an integer
    ``mat`` over ``modulus``; not validated."""

    group: FinAbGroup
    modulus: int
    mat: tuple[tuple[int, ...], ...]

    def __init__(self, group: FinAbGroup, gen_values=None, *, modulus: int = 1, mat=()):
        if gen_values is not None:
            rows = [tuple(row) for row in gen_values]
            modulus = math.lcm(1, *(v.n for row in rows for v in row))
            mat = [[v.k * (modulus // v.n) for v in row] for row in rows]
        object.__setattr__(self, "mat", _set_reduced(self, group, modulus, mat))

    @property
    def gen_values(self) -> tuple[tuple[RootOfUnity, ...], ...]:
        return tuple(tuple(RootOfUnity(e, self.modulus) for e in row) for row in self.mat)

    def __call__(self, g: GroupElement, h: GroupElement) -> RootOfUnity:
        r = sum(gi * e * hj for gi, row in zip(g.coords, self.mat) for e, hj in zip(row, h.coords))
        return RootOfUnity(r, self.modulus)

    @cached_property
    def _gen_table(self) -> tuple[tuple[int, ...], ...]:
        """Row g: the exponents of b(g, e_j) for the generators e_j."""
        m = self.modulus
        return tuple(
            tuple(sum(map(mul, g.coords, col)) % m for col in zip(*self.mat))
            for g in self.group.elements()
        )

    def table(self) -> tuple[tuple[int, ...], ...]:
        """The (|G|, |G|) exponent table of b(g, h)."""
        check_table_order(self.group.order)
        els, m = self.group.elements(), self.modulus
        return tuple(tuple(sum(map(mul, row, h.coords)) % m for h in els) for row in self._gen_table)

    def diag(self) -> tuple[int, ...]:
        """The exponents of b(g, g)."""
        m = self.modulus
        return tuple(
            sum(map(mul, row, g.coords)) % m
            for row, g in zip(self._gen_table, self.group.elements())
        )

    def validate(self) -> None:
        facs = self.group.invariant_factors
        r = self.group.rank
        mat, m = self.mat, self.modulus
        if [len(row) for row in mat] != [r] * r:
            raise InvalidArgumentError(f"bicharacter needs a {r} x {r} generator matrix")
        for i in range(r):
            for j in range(r):
                if mat[i][j] != mat[j][i]:
                    raise InvalidArgumentError("bicharacter is not symmetric")
                if mat[i][j] * facs[i] % m:
                    raise InvalidArgumentError(
                        "bicharacter violates the generator order constraint"
                    )

    def is_nondegenerate(self) -> bool:
        return all(map(any, self._gen_table[1:]))

    def conj(self) -> "Bichar":
        return Bichar(self.group, modulus=self.modulus, mat=[[-e for e in row] for row in self.mat])


@dataclass(frozen=True)
class MetricGroup:
    group: FinAbGroup
    quad: QuadForm
    bichar: Bichar | None = None

    def __post_init__(self):
        if self.bichar is not None:
            qm, bm = self.quad.modulus, self.bichar.modulus
            m = math.lcm(qm, bm)
            pairs = zip(self.quad.exps, self.bichar.diag())
            if any((x * (m // qm) + y * (m // bm)) % m for x, y in pairs):
                raise InvalidArgumentError("q(g) * b(g,g) != 1")


def metric_group(q: QuadForm) -> MetricGroup:
    """Package a nondegenerate form, deriving the bicharacter when |G| is odd;
    both read the form's dq columns."""
    if not q.is_nondegenerate():
        raise DegeneracyError("quadratic form is degenerate")
    b = _bichar(q) if q.group.order % 2 else None
    return MetricGroup(q.group, q, b)


def bichar_from_qform(q: QuadForm) -> Bichar:
    """The symmetric bicharacter b = dq^{(Exp(G)+1)/2} with q(g) = b(g,g)^{-1}."""
    if q.group.order % 2 == 0:
        raise UnsupportedError("bicharacter extraction needs odd group order")
    if not q.is_nondegenerate():
        raise InvalidArgumentError("quadratic form is degenerate")
    return _bichar(q)


def _bichar(q: QuadForm) -> Bichar:
    """``bichar_from_qform`` of a nondegenerate form of odd order, checked on
    its dq columns: b^2 = dq there and b(g,g)^{-1} = q(g) at every g.  On
    the generator columns b^2 = dq proves it everywhere, both sides being
    bicharacters."""
    group, mod, a = q.group, q.modulus, q.exps
    half = (group.exponent + 1) // 2
    shifts = shift_table(group)
    b = Bichar(group, modulus=mod, mat=[
        [(a[sh[0]] + a[sk[0]] - a[sk[sh[0]]]) * half for sk in shifts] for sh in shifts
    ])
    b.validate()
    scale = mod // b.modulus  # b's modulus divides q's
    b_columns = b._gen_table if q._bimultiplicative else b.table()
    rows = zip(a, b.diag(), b_columns, q._dq_columns)
    for x, diag, b_row, dq_row in rows:
        if (x + diag * scale) % mod:
            raise InvalidArgumentError("b(g,g)^-1 != q(g); form is inconsistent")
        if any((2 * y * scale - z) % mod for y, z in zip(b_row, dq_row)):
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
    q = QuadForm(group, modulus=b.modulus, exps=[-e for e in b.diag()])
    q.validate()
    return q


def _gauss_sum(q: QuadForm, m: int = 1) -> CycNum:
    """sum_g q(g)^m, exactly, at the form's modulus."""
    return zeta_sum(q.modulus, Counter(e * m for e in q.exps).items())


def gauss_central_charge(q: QuadForm) -> int:
    """The residue c mod 8 with sum_g q(g) = sqrt(|G|) e^{pi i c/4}.

    Raises DegeneracyError when the normalized sum is not of unit modulus
    (which happens exactly when q is degenerate).
    """
    n = q.group.order
    total = _gauss_sum(q)
    if total * total.conj() != n:
        raise DegeneracyError("Gauss sum is not of unit modulus; q is degenerate")
    # guess c from the phase, then prove it; an even c keeps zeta_8^c in Q(zeta_4)
    c = round(cmath.phase(complex(total)) * 4 / math.pi) % 8
    if total != sqrt_int(n) * RootOfUnity(c, 8).to_cyc():
        raise DegeneracyError("Gauss sum is not an 8th root of unity times sqrt(|G|)")
    return c


def gauss_invariants(q: QuadForm) -> tuple:
    """The Gauss sums sum_g q(g)^m, keyed at q's modulus, for m = p^t Exp(G)/p^a
    over each prime power p^a exactly dividing Exp(G) and 0 <= t < a.

    Soundness: an isometry permutes G and fixes q, so isometric forms have
    equal sums; the classification proof uses only this.  Completeness for
    |G| odd: q^(Exp/p^a) is 1 on the prime-to-p part and a unit multiple of
    q on the p-part, where the layer of exponent p^k with Legendre sign
    eps_k contributes at step t a number fixed by G times eps_k^(k-t).  So
    the sum at t fixes R_t, the product of eps_k over k > t with k - t odd;
    eps_{t+1} = R_t R_{t+2}, and the eps_k with G determine q (Wall, 1963).
    """
    e = q.group.exponent
    steps = [p**t * e // p**a for p, a in sorted(factorize(e).items()) for t in range(a)]
    return tuple(_gauss_sum(q, m).key_at(q.modulus) for m in steps)


def metric_equiv(m1: MetricGroup, m2: MetricGroup) -> GroupAut | None:
    """An isomorphism phi with q1 = q2 o phi, or None.

    Both groups are canonical, so isomorphy means equal invariant factors.
    Forms with different moduli or ``gauss_invariants`` are not isometric;
    otherwise the search runs over the automorphism group (exhaustive: None
    is a proof), so it runs in full only to build a witness.
    """
    q1, q2 = m1.quad, m2.quad
    if m1.group != m2.group or q1.modulus != q2.modulus:  # the modulus is invariant
        return None
    if gauss_invariants(q1) != gauss_invariants(q2):
        return None
    a1, a2 = q1.exps, q2.exps
    for phi in automorphisms(m1.group):
        if all(a2[i] == x for i, x in zip(phi.indices(), a1)):
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
    return [h for h in subgroups(m.group) if all(m.quad(x).is_one() for x in h)]


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


def standard_qform(G: FinAbGroup, minus=()) -> QuadForm:
    """The diagonal form q(x) = e^{2 pi i sum_i a_i x_i^2 / p_i^{k_i}} over
    the primary cyclic pieces of G (|G| odd): a_i = 1, except on the first
    piece of each prime-power type in ``minus``, where a_i is the least
    quadratic nonresidue mod p.  The coordinate on the piece Z_q of slot j
    is g_j mod q, and a x^2 / q mod 1 depends on x mod q only, so q(g) sums
    w_j g_j^2 with w_j the slot's a_i M / q_i over the exponent M.
    ``standard_qform(G)`` is the first representative of
    ``classify_metric_groups(G)``."""
    if G.order % 2 == 0:
        raise UnsupportedError("classification implemented for odd order only")
    m = G.exponent  # the lcm of the pieces
    weights = [0] * G.rank
    last = None
    for p, t, j in primary_pieces(G.invariant_factors):
        a = _least_nonresidue(p) if t in minus and t != last else 1
        weights[j] = (weights[j] + a * (m // t)) % m
        last = t
    exps = [sum(w * c * c for w, c in zip(weights, g.coords)) % m for g in G.elements()]
    q = QuadForm(G, modulus=m, exps=exps)
    q.validate()
    return q


def classify_metric_groups(G: FinAbGroup):
    """One representative metric group per equivalence class of nondegenerate
    quadratic forms on G (|G| odd).

    Per prime-power type p^k appearing in G there are two classes, built from
    q(x) = e^{2 pi i a x^2 / p^k} with a = 1 (Jacobi symbol +1) or a = the
    least quadratic nonresidue mod p (Jacobi symbol -1); with k distinct
    types this yields 2^k classes (``standard_qform``), proven pairwise
    inequivalent by their distinct ``gauss_invariants``.
    """
    types = sorted({t for _, t, _ in primary_pieces(G.invariant_factors)})
    reps = [
        metric_group(standard_qform(G, {t for i, t in enumerate(types) if mask >> i & 1}))
        for mask in range(1 << len(types))
    ]
    classes = len({gauss_invariants(m.quad) for m in reps})
    if classes != len(reps):
        raise ModularityError(f"{classes} metric classes on {G}, expected {len(reps)}")
    return reps


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
    witness = metric_equiv(canonical, summed)
    if witness is None:
        raise ModularityError(
            "no equivalence between the canonical pairing double and q + conj(q)"
        )
    return canonical, summed, witness
