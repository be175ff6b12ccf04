"""Quadratic forms and symmetric bicharacters on finite abelian groups.

A metric group is a finite abelian group together with a nondegenerate
quadratic form q: G -> T.  For groups of odd order the form and the
symmetric bicharacter determine each other through

    b(g, h) = dq(g, h)^{(Exp(G)+1)/2},      q(g) = b(g, g)^{-1},

where dq(g, h) = q(g) q(h) q(g+h)^{-1}.  Both store exact phases as
integer exponents over one modulus M, the value at an exponent e being
e^{2 pi i e/M}: forms keep a full table over the element enumeration (q is
not multiplicative), bicharacters an integer generator matrix.  Every
check runs on integer arrays (the dq and b tables are built from the
group's cached index-addition table).
"""

from __future__ import annotations

import cmath
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .cyclo import CycNum, RootOfUnity, factorize, sqrt_int, zeta_sum
from .errors import DegeneracyError, InvalidArgumentError, ModularityError, UnsupportedError
from .groups import FinAbGroup, GroupAut, GroupElement, automorphisms, product_group, subgroups
from .groups import add_table, automorphism_perms, check_table_order, coords_array, index_of_coords
from .groups import primary_pieces

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


def _int_array(values, modulus: int) -> np.ndarray:
    # residue products fit int64 below 2^31; larger moduli use Python ints
    return np.array(values, dtype=np.int64 if modulus < 2**31 else object)


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

    @cached_property
    def array(self) -> np.ndarray:
        """The exponents as an integer array (read-only)."""
        a = _int_array(self.exps, self.modulus)
        a.flags.writeable = False
        return a

    @property
    def values(self) -> tuple[RootOfUnity, ...]:
        return tuple(RootOfUnity(e, self.modulus) for e in self.exps)

    def __call__(self, g: GroupElement) -> RootOfUnity:
        return RootOfUnity(self.exps[self.group.index_of(g)], self.modulus)

    def dq(self) -> np.ndarray:
        """The (|G|, |G|) exponent table of dq(g, h) = q(g) q(h) q(g+h)^{-1}."""
        a = self.array
        return (a[:, None] + a[None, :] - a[add_table(self.group)]) % self.modulus

    def conj(self) -> "QuadForm":
        return self ** -1

    def __pow__(self, k: int) -> "QuadForm":
        return QuadForm(self.group, modulus=self.modulus, exps=[e * k for e in self.exps])

    def validate(self) -> None:
        group, m, a = self.group, self.modulus, self.array
        if a[0] % m:  # the zero element has index 0
            raise InvalidArgumentError("q(0) != 1")
        c = coords_array(group)
        first = np.full(group.order, group.exponent)  # least n with a failure
        for n in range(group.exponent):
            bad = (a[index_of_coords(group, c * n)] - a * (n * n % m)) % m != 0
            first = np.where(bad & (first == group.exponent), n, first)
        failing = np.flatnonzero(first < group.exponent)
        if len(failing):
            g, n = group.elements()[failing[0]], int(first[failing[0]])
            raise InvalidArgumentError(f"q({n}*{g}) != q({g})^{n * n}")
        # the index of g + e_j for every g, per generator e_j (at g = 0: e_j)
        shifts = [index_of_coords(group, c + u) for u in np.eye(group.rank, dtype=np.int64)]
        gens = [int(s[0]) for s in shifts]
        for h, sh in zip(gens, shifts):
            for k, sk in zip(gens, shifts):
                # dq(g+h, k) = dq(g, k) dq(h, k) for every g, as exponents
                lhs = a[sh] + a[k] - a[sk[sh]]
                rhs = a + a[k] - a[sk] + a[h] + a[k] - a[sk[h]]
                if ((lhs - rhs) % m).any():
                    raise InvalidArgumentError("dq is not bimultiplicative")

    def is_nondegenerate(self) -> bool:
        return _nondegenerate(self.dq())


def _nondegenerate(dq: np.ndarray) -> bool:
    """Whether no g != 0 has dq(g, h) = 1 for every h, on a dq table."""
    return not (dq[1:] == 0).all(axis=1).any()


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

    def _gen_table(self) -> np.ndarray:
        """The (|G|, rank) exponents of b(g, e_j)."""
        mat = _int_array(self.mat, self.modulus).reshape(self.group.rank, self.group.rank)
        return coords_array(self.group) @ mat % self.modulus

    def table(self) -> np.ndarray:
        """The (|G|, |G|) exponent table of b(g, h)."""
        check_table_order(self.group.order)
        return self._gen_table() @ coords_array(self.group).T % self.modulus

    def diag(self) -> np.ndarray:
        """The exponents of b(g, g)."""
        return (self._gen_table() * coords_array(self.group)).sum(axis=1) % self.modulus

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
        return not (self._gen_table()[1:] == 0).all(axis=1).any()

    def conj(self) -> "Bichar":
        return Bichar(self.group, modulus=self.modulus, mat=[[-e for e in row] for row in self.mat])


@dataclass(frozen=True)
class MetricGroup:
    group: FinAbGroup
    quad: QuadForm
    bichar: Bichar | None = None

    def __post_init__(self):
        if self.bichar is not None:
            m = math.lcm(self.quad.modulus, self.bichar.modulus)
            q = self.quad.array * (m // self.quad.modulus)
            if ((q + self.bichar.diag() * (m // self.bichar.modulus)) % m).any():
                raise InvalidArgumentError("q(g) * b(g,g) != 1")


def metric_group(q: QuadForm) -> MetricGroup:
    """Package a nondegenerate form, deriving the bicharacter when |G| is odd;
    one dq table serves both."""
    dq = q.dq()
    if not _nondegenerate(dq):
        raise DegeneracyError("quadratic form is degenerate")
    b = _bichar_from_dq(q, dq) if q.group.order % 2 else None
    return MetricGroup(q.group, q, b)


def bichar_from_qform(q: QuadForm) -> Bichar:
    """The symmetric bicharacter b = dq^{(Exp(G)+1)/2} with q(g) = b(g,g)^{-1}."""
    group = q.group
    if group.order % 2 == 0:
        raise UnsupportedError("bicharacter extraction needs odd group order")
    dq = q.dq()
    if not _nondegenerate(dq):
        raise InvalidArgumentError("quadratic form is degenerate")
    return _bichar_from_dq(q, dq)


def _bichar_from_dq(q: QuadForm, dq: np.ndarray) -> Bichar:
    """``bichar_from_qform`` of a nondegenerate form of odd order, from its
    dq table."""
    group = q.group
    m, mod = (group.exponent + 1) // 2, q.modulus
    gens = index_of_coords(group, np.eye(group.rank, dtype=np.int64))
    b = Bichar(group, modulus=mod, mat=dq[np.ix_(gens, gens)] * m)
    b.validate()
    bt = b.table() * (mod // b.modulus)  # b's modulus divides q's
    diag_bad = (np.diagonal(bt) + q.array) % mod != 0
    square_bad = ((2 * bt - dq) % mod != 0).any(axis=1)
    failing = np.flatnonzero(diag_bad | square_bad)
    if len(failing):
        if diag_bad[failing[0]]:
            raise InvalidArgumentError("b(g,g)^-1 != q(g); form is inconsistent")
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
    q = QuadForm(group, modulus=b.modulus, exps=-b.diag())
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
    auts = automorphisms(m1.group)
    for start, perms in automorphism_perms(m1.group):
        hits = np.flatnonzero((q2.array[perms] == q1.array).all(axis=1))
        if len(hits):
            return auts[start + int(hits[0])]
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
    c = coords_array(G)
    exps = (c * c % m) @ np.array(weights, dtype=np.int64) % m
    q = QuadForm(G, modulus=m, exps=exps.tolist())
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
