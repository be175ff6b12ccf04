"""Construction and exact verification of modular data.

A ``ModularData`` holds a labeled S matrix, a diagonal T with the global
e^{-pi i c/12} prefactor, and the topological central charge mod 8.  S is
stored packed, as its K pairwise-distinct values and the read-only r x r
table of each entry's position among them; the constructor packs its rows
once, a product or a reverse is given its packed S, and ``S`` is a cached
view of the rows for callers outside the package.  No unproven datum
exists: the constructor proves the full axiom suite exactly, and a Deligne
product or a reverse of proven data is proven by them
(``ModularData._implied``).  The suite is S symmetric, conj(S) = CS
for a unit-fixing involution C with CTC = T, S^2 = C, TSTST = S,
positive real dimensions, Gauss-sum consistency of c, and integrality of
all Verlinde coefficients; unitarity, CSC = S and (ST)^3 = C follow from
these, and the dimensions and c are read off column 0 of S once TSTST = S
holds.
Each matrix identity is proven once, by the deterministic prover in
:mod:`tycat.modcheck`: symmetry on the index table of S's distinct values,
the others by modular evaluation; only S is packed, T enters as exponents.
Charge conjugation C and the signed Galois permutations of every generator
of (Z/N)^x are found and proven exactly in one ``verify_galois`` call
(conj(S) = CS is the generator -1), which lets S^2 = C and the Verlinde
relation be decided at one point per prime.  The Verlinde tensor is guessed
by the prover from the residues of S at one prime, then proven, so S is
evaluated one way only; its channel rows (i, j, k, N_ij^k) and the dimensions
become ``fusion_ring``, without a copy.  Structural invariants of the builders
(rank, total dimension) and the pairwise inequivalence of a
classification raise ``ModularityError``, not ``assert``.

Builders cover pointed data of a metric group, the generalized
metaplectic data, Deligne products, the double of a Tambara-Yamagami
category for odd groups as the product of the two, reverses, the
grading twist that flips Frobenius-Schur indicators, equivalence search,
and condensation certificates.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache

import numpy as np

from .cyclo import (
    CycNum,
    RootOfUnity,
    _real_sign,
    check_conductor,
    euler_phi,
    galois_generators,
    sqrt_int,
    sqrt_int_conductor,
    zeta,
    zeta_sum,
)
from .errors import (
    CapacityError,
    InvalidArgumentError,
    ModularityError,
    UnsupportedError,
)
from .fusionrings import FusionRing
from .groups import FinAbGroup, add_table, positive_set
from .labels import (
    MPAlpha,
    MPRho,
    MPSigma,
    MPUnit,
    Pointed,
    ProductLabel,
    TYPt,
    TYRho,
    TYSigma,
    label_from_json,
    label_to_json,
)
from .modcheck import MatProver, _c_order, check_cells, distinct_values
from .quadforms import (
    Bichar,
    MetricGroup,
    _nondegenerate,
    classify_metric_groups,
    gauss_central_charge,
    metric_group,
    qform_from_bichar,
)

__all__ = [
    "ModularData",
    "MDEquivalence",
    "BranchingMatrix",
    "pointed_md",
    "ty_center_md",
    "mp_md",
    "tensor_md",
    "reverse_md",
    "bantay_fs",
    "md_equivalent",
    "hat_twist",
    "verify_condensation",
    "classify_mp",
    "md_to_json",
    "md_from_json",
]

# label placements a bijection search may try before it gives up
MAX_PLACEMENTS = 100_000


def _md_conductor(group: FinAbGroup) -> int:
    # 48 covers e^{-pi i c/12}, 8*Exp covers the omega square roots,
    # 4*|G| covers sqrt(|G|)
    return math.lcm(48, 8 * group.exponent, 4 * group.order)


def _pointed_conductor(group: FinAbGroup) -> int:
    # pointed data carry no omega square roots, so a much smaller field
    # works: the prefactor needs mu_12 (the charge is even for odd groups)
    # or mu_24, the twists mu_{2 Exp}, and sqrt(|G|) its natural conductor
    n = max(group.order, 1)
    pref = 12 if n % 2 else 24
    return math.lcm(pref, 2 * group.exponent, sqrt_int_conductor(n))


def _rows(values, index) -> list[list]:
    """The rows of a matrix packed as its values and their index table."""
    return [[values[k] for k in row] for row in index.tolist()]


class ModularData:
    """Labeled modular data with exact entries at one common conductor.

    A datum is proven by one of two routes.  The constructor runs the full
    ``validate`` on its S and T.  ``_implied`` is the other, reached only
    from ``_product`` and ``reverse_md``: the Deligne product of two proven
    factors under a checked bijection of its labels onto pairs of factor
    labels, or the reverse of a proven datum, is given the channels and
    the charge conjugation that the proven data imply, and nothing is
    proven again.  S is held as ``values``, its K pairwise-distinct entries,
    and ``index``, so S[i][j] is values[index[i, j]]; no rows are kept."""

    def __init__(self, labels, s_matrix, thetas, c_top, conductor, grading=None):
        self._store(labels, thetas, c_top, conductor, grading)
        self.values, self.index = distinct_values(s_matrix)
        self.validate()

    @classmethod
    def _implied(cls, channels, cperm, labels, values, index, thetas, c_top, conductor,
                 grading=None) -> "ModularData":
        """A datum whose packed S, channel rows (in C order) and charge
        conjugation follow from proven data, which the caller has checked."""
        md = cls.__new__(cls)
        md._store(labels, thetas, c_top, conductor, grading)
        md.values, md.index = values, index
        md._channels = channels
        md._charge_conj = tuple(cperm)
        return md

    def _store(self, labels, thetas, c_top, conductor, grading) -> None:
        self.labels = tuple(labels)
        self.thetas = tuple(thetas)
        self.c_top = int(c_top) % 8
        self.conductor = conductor
        self.grading = None if grading is None else tuple(grading)
        pref = RootOfUnity(-self.c_top, 24)
        roots = [pref * th for th in self.thetas]
        for x in roots:
            if conductor % x.n:
                raise InvalidArgumentError(f"cannot promote conductor {x.n} to {conductor}")
        self.t_exps = tuple(x.k * (conductor // x.n) for x in roots)  # T_i = zeta_N^k_i
        self._charge_conj: tuple[int, ...] | None = None
        self._dims: tuple[CycNum, ...] | None = None
        self._channels: np.ndarray | None = None  # set once validate() succeeds
        self._fusion: FusionRing | None = None

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def S(self) -> tuple[tuple[CycNum, ...], ...]:
        """The rows of S, read-only, built once for callers outside the package."""
        return tuple(map(tuple, _rows(self.values, self.index)))

    # -- derived data --------------------------------------------------------

    def dims(self) -> tuple[CycNum, ...]:
        if self._dims is None:
            inv00 = self.values[self.index[0, 0]].inverse()
            self._dims = tuple(self.values[k] * inv00 for k in self.index[:, 0].tolist())
        return self._dims

    def charge_conjugation(self) -> tuple[int, ...]:
        """The permutation C = S^2, as construction proved it."""
        return self._charge_conj

    def index_of(self, label, what: str = "label") -> int:
        """The index of a label; an integer (numpy's too) is taken as an
        index and range-checked."""
        if isinstance(label, (int, np.integer)):
            if not 0 <= label < self.rank:
                raise InvalidArgumentError(f"{what} index {label} is outside [0, {self.rank})")
            return int(label)
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidArgumentError(f"{label} is not a label of this datum") from None

    def label_named(self, name: str):
        for l in self.labels:
            if str(l) == name:
                return l
        raise InvalidArgumentError(f"no label named {name!r}")

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Prove the axiom suite exactly, each identity once, and keep the
        channel rows of the proven Verlinde tensor.  The constructor runs it;
        a second run returns at once, and so does a run on a datum of
        ``_implied``, which holds what its proven data imply."""
        if self._channels is not None:  # immutable data: a second run cannot differ
            return
        r = self.rank
        if not self.thetas[0].is_one():
            raise ModularityError("the unit label must have trivial twist")
        n = self.conductor
        prover = MatProver(n)
        s = prover.pack(self.values, self.index)
        # symmetry, then one exact step finds and proves the signed
        # permutation Q_a of every Galois generator, -1 first: conj(S) = CS,
        # so C = pi_-1; with C^2 = I it gives CSC = S (conj(S) = conj(S)^T
        # = SC), and with S^2 = C unitarity S conj(S) = S C S = C S^2 = I,
        # and (ST)^3 = S (TSTST) = S^2 = C follows from TSTST = S; the
        # explicit product forms are exercised on small data in the tests
        prover.verify_galois(s, galois_generators(n))
        cperm = tuple(s["galois"][n - 1][0].tolist())
        if cperm[0] != 0:
            raise ModularityError("charge conjugation is not a unit-fixing permutation")
        for i in range(r):
            if cperm[cperm[i]] != i:
                raise ModularityError("charge conjugation is not an involution")
        if any(self.thetas[cperm[i]] != self.thetas[i] for i in range(r)):
            raise ModularityError("CTC = T fails")
        prover.verify_product(s, cperm)
        prover.verify_tstst(s, self.t_exps)

        # column 0 of S decides the dimensions d_i = S_i0 / S_00 and c:
        # conj(S_i0) = S_C(i),0 (conj(S) = CS), so S_i0 is real iff the two
        # share a value, and S_00 is real as C(0) = 0; d_i > 0 iff
        # S_i0 S_00 > 0, with each sign proven once per distinct value.
        # Entry (0, 0) of STS = T^-1 S T^-1, which is TSTST = S as proven
        # above, reads sum_l S_l0^2 theta_l = e^{2 pi i c/8} S_00, so the
        # Gauss sum sum_l d_l^2 theta_l = e^{2 pi i c/8} / S_00 matches c
        # iff S_00 > 0
        col = s["index"][:, 0].tolist()
        sign = cache(lambda k: _real_sign(self.values[k]))
        for i in range(r):
            if col[cperm[i]] != col[i]:
                raise ModularityError(f"dimension of label {i} is not real")
            if sign(col[i]) * sign(col[0]) <= 0:
                raise ModularityError(f"dimension of label {i} is not positive")
        if sign(col[0]) <= 0:
            raise ModularityError("Gauss sum does not match the stated central charge")

        # the proven ring passes check_fusion_ring, so it is not rerun:
        # N_i = S diag(S_il / S_0l) S^-1 commute (commutative, associative)
        # and N_0 = I; S_0l = d_l S_00 with d_l > 0 makes N_ij^0 a constant
        # times (S^2)_ij = C_ij, and N_00^0 = 1 the dual C; conj(S_kl) =
        # S_C(k),l and real N give the Frobenius symmetries; N_i d = d_i d
        # with d = S_.0 / S_00 > 0 makes d the Frobenius-Perron dimensions
        self._channels = self._verlinde_tensor(prover, s)
        self._charge_conj = cperm

    # -- fusion ---------------------------------------------------------------

    def _verlinde_tensor(self, prover: MatProver, packed_s: dict) -> np.ndarray:
        """The channels of N_ij^k = sum_l S_il S_jl conj(S_kl) / S_0l: guessed
        by the prover from the residues of S at one prime, refused at the
        first negative row, then proven.  S is proven unitary before this
        runs, so it is invertible and the proven relation sum_k N_ij^k S_kl
        S_0l = S_il S_jl (every l) fixes each N_ij^k: a wrong guess fails."""
        tensor = prover.guess_verlinde(packed_s)
        neg = tensor[tensor[:, 3] < 0]
        if len(neg):
            i, j, k, _ = neg[0].tolist()
            raise ModularityError(
                f"Verlinde coefficient at ({i}, {j}, {k}) is not a "
                "nonnegative integer"
            )
        prover.verify_verlinde(packed_s, tensor)
        return tensor

    def fusion_ring(self) -> FusionRing:
        if self._fusion is None:  # built once, with the proven dimensions
            self._fusion = FusionRing(self.labels, self._channels, self.dims())
        return self._fusion

    def __repr__(self):
        return f"ModularData(rank={self.rank}, c_top={self.c_top})"


# -- builders ------------------------------------------------------------------


@lru_cache(maxsize=None)
def pointed_md(m: MetricGroup) -> ModularData:
    """Modular data of the pointed category of a metric group:
    S_{gh} = dq(g,h)/sqrt(|G|), twists theta_g = q(g).

    The sign of the exponent is forced: only dq (not its inverse) satisfies
    TSTST = S together with theta = q, and it reproduces the invertible
    block conj(b(g,h))^2 of the Tambara-Yamagami double via dq-bar = b^-2.
    """
    group = m.group
    q = m.quad
    dq = q.dq()
    if not _nondegenerate(dq):
        raise InvalidArgumentError("the quadratic form must be nondegenerate")
    n = max(group.order, 1)
    conductor = _pointed_conductor(group)
    check_cells(n, n, euler_phi(conductor))
    c = gauss_central_charge(q)
    if conductor % q.modulus:
        raise InvalidArgumentError(f"cannot promote conductor {q.modulus} to {conductor}")
    scale = sqrt_int(n).promoted(conductor) * Fraction(1, n)
    entry = cache(lambda e: zeta(conductor, e) * scale)
    labels = [Pointed(g) for g in group.elements()]
    rows = [[entry(e) for e in row] for row in (dq * (conductor // q.modulus)).tolist()]
    return ModularData(labels, rows, q.values, c, conductor)


def _ty_prep(group: FinAbGroup, b: Bichar, sign: int, rank: int):
    """Shared setup: the size check of a datum of this rank, then q, the
    Fourier companion a, its charge, and omega (one root of unity per
    element index), all checked on integer tables."""
    if group.order % 2 == 0:
        raise UnsupportedError("these doubles are implemented for odd groups")
    if sign not in (1, -1):
        raise InvalidArgumentError("sign must be +1 or -1")
    conductor = _md_conductor(group)
    check_cells(rank, rank, euler_phi(conductor))
    q = qform_from_bichar(b)
    a_form = q ** ((group.exponent + 1) // 2)
    mod = math.lcm(b.modulus, a_form.modulus)
    bt = b.table() * (mod // b.modulus)
    a = a_form.array * (mod // a_form.modulus)
    add = add_table(group)
    if (a != a[add.argmin(axis=1)]).any():  # argmin: the h with g + h = 0
        raise ModularityError("a(g) != a(-g)")
    if ((a[:, None] + a[None, :] - bt - a[add]) % mod).any():
        raise ModularityError("a(g) a(h) != b(g,h) a(g+h)")
    c_a = gauss_central_charge(a_form)
    # hat(a)(g) = sum_h conj(b(g,h)) a(h) / sqrt(n) collapses to
    # e^{pi i c_a/4} / a(g); the closed form is cross-checked below
    a_hat = [RootOfUnity(Fraction(c_a, 8)) * v.inverse() for v in a_form.values]
    n = group.order
    root_n = sqrt_int(n).promoted(conductor)
    step = conductor // mod
    for g, row in enumerate(((a[None, :] - bt) % mod).tolist()):
        total = zeta_sum(conductor, ((e * step, k) for e, k in Counter(row).items()))
        if total != root_n * a_hat[g].to_cyc(conductor):
            raise ModularityError("Fourier transform of a is off unit modulus")
    half = RootOfUnity(1, 2)
    omega = tuple((v if sign == 1 else v * half).sqrt() for v in a_hat)
    return q, omega, conductor


@lru_cache(maxsize=None)
def ty_center_md(group: FinAbGroup, b: Bichar, sign: int) -> ModularData:
    """Modular data of the double of the Tambara-Yamagami category
    TY(G, b, sign) for G of odd order: 2|G| invertibles, 2|G| objects of
    dimension sqrt(|G|), and |G|(|G|-1)/2 of dimension 2.

    The double is the product of the metaplectic data mp(G, b, sign) and
    the pointed data of q-bar(g) = b(g, g), a modular subcategory, which
    therefore splits off (Mueger, Proc. LMS 87, 2003).  Each label is a pair
    of factor labels, with g/2 = g (Exp(G) + 1)/2: (g, i) is alpha^i x g,
    sigma{h, k} is sigma_|(h-k)/2| x (h+k)/2, and rho(g, i) is rho_j x g/2,
    where j = i if omega_g = omega_0 b(g/2, g/2) and j = 1 - i otherwise."""
    n = group.order
    q, omega, _ = _ty_prep(group, b, sign, 4 * n + n * (n - 1) // 2)
    mp = mp_md(group, b, sign)
    pt = pointed_md(metric_group(q.conj()))
    mp_index = {x: i for i, x in enumerate(mp.labels)}
    half = (group.exponent + 1) // 2
    fold = positive_set(group).fold
    els = group.elements()
    labels, pairs = [], []

    def put(label, x, g) -> None:
        labels.append(label)
        pairs.append((mp_index[x], group.index_of(g)))

    for g in els:
        for i in (0, 1):
            put(TYPt(g, i), MPAlpha() if i else MPUnit(), g)
    for g in els:
        g2 = g * half
        flip = omega[group.index_of(g)] != omega[0] * b(g2, g2)
        for i in (0, 1):
            put(TYRho(g, i), MPRho(i ^ flip), g2)
    for idx, h in enumerate(els):
        for k in els[idx + 1 :]:
            put(TYSigma.of(h, k), MPSigma(fold((h - k) * half)), (h + k) * half)
    md = _product(mp, pt, labels, pairs)
    _check_total_dim(md, 4 * n * n)
    return md


def _check_total_dim(md: ModularData, expected: int) -> None:
    # for proven data sum_i d_i^2 = (S^2)_00 / S_00^2 = 1 / S_00^2
    s00 = md.values[md.index[0, 0]]
    s00_sq = s00 * s00
    if s00_sq * expected != 1:
        raise ModularityError(f"total dimension is {s00_sq.inverse()}, expected {expected}")


@lru_cache(maxsize=None)
def mp_md(group: FinAbGroup, b: Bichar, sign: int) -> ModularData:
    """Generalized metaplectic modular data on {1, alpha, rho_0, rho_1}
    u {sigma_h : h in G_+}, of rank (|G|+7)/2, for G of odd order."""
    n = group.order
    rank = (n + 7) // 2
    q, omega, conductor = _ty_prep(group, b, sign, rank)
    pos = positive_set(group)
    root_n = sqrt_int(n).promoted(conductor)
    c = gauss_central_charge(q)

    labels = [MPUnit(), MPAlpha(), MPRho(0), MPRho(1)] + [
        MPSigma(h) for h in pos.members
    ]
    if len(labels) != rank:
        raise ModularityError(f"metaplectic data of {group} has rank {len(labels)}")

    step = conductor // b.modulus
    trace_b = zeta_sum(conductor, ((e * step, k) for e, k in Counter(b.diag().tolist()).items()))
    omega0 = omega[0]
    scale = root_n * Fraction(1, 2 * n)  # 1/(2 sqrt(n))
    unit, pt_rho, pt_sigma = scale, root_n * scale, 2 * scale
    rho_rho = (omega0 * omega0).to_cyc(conductor) * trace_b * scale
    zero = CycNum.zero().promoted(conductor)

    # sigma_h sigma_h': b(h', h)^-2 + b(h', h)^2, one value per exponent
    idx = [group.index_of(h) for h in pos.members]
    bt = (b.table()[np.ix_(idx, idx)] * step).tolist()
    sigma_sigma = cache(lambda e: zeta_sum(conductor, ((-2 * e, 1), (2 * e, 1))) * (2 * scale))
    m = len(idx)
    rows = [
        [unit, unit, pt_rho, pt_rho] + [pt_sigma] * m,
        [unit, unit, -pt_rho, -pt_rho] + [pt_sigma] * m,
        [pt_rho, -pt_rho, rho_rho, -rho_rho] + [zero] * m,
        [pt_rho, -pt_rho, -rho_rho, rho_rho] + [zero] * m,
    ]
    for x in range(m):
        rows.append([pt_sigma, pt_sigma, zero, zero] + [sigma_sigma(e) for e in bt[x]])

    def theta(x) -> RootOfUnity:
        if isinstance(x, (MPUnit, MPAlpha)):
            return RootOfUnity.one()
        if isinstance(x, MPRho):
            return omega0 * RootOfUnity(x.i, 2)
        return b(x.h, x.h).inverse()

    thetas = [theta(x) for x in labels]
    grading = [1 if isinstance(x, MPRho) else 0 for x in labels]
    md = ModularData(labels, rows, thetas, c, conductor, grading)
    _check_total_dim(md, 4 * n)
    return md


def _product(a: ModularData, b: ModularData, labels, pairs) -> ModularData:
    """The Deligne product of a and b on the given labels, label p being the
    pair of factor labels pairs[p] = (i, j): Kronecker S and T, added
    gradings and central charges.  S is built packed: its values are the
    Ka Kb products of the factors' values, each multiplied once and
    deduplicated by their canonical key, and entry (p, q) is read from
    a.index and b.index through the pair map.

    The product is proven by its factors, not by ``validate``: both are
    proven, and S and T are S_a x S_b and T_a x T_b read through the pair
    map, so every identity holds for the product, with the channels
    N_pq^r = N_ii'^i'' N_jj'^j'' of the pairs, C = C_a x C_b, positive
    dimensions d_i d_j and the sum of the central charges.  The pair map
    must first be one pair per label, the unit (0, 0) first, and a
    bijection onto range(a.rank) x range(b.rank); else ``ModularityError``."""
    if len(pairs) != len(labels):
        raise ModularityError(f"{len(pairs)} label pairs for {len(labels)} labels")
    if not pairs or tuple(pairs[0]) != (0, 0):
        raise ModularityError("the unit label is not the pair of the factors' units")
    seen = {}
    for p, (i, j) in enumerate(pairs):
        if not (0 <= i < a.rank and 0 <= j < b.rank):
            raise ModularityError(f"label {p} is the pair ({i}, {j}), outside "
                                  f"{a.rank} x {b.rank}")
        if (q := seen.setdefault((i, j), p)) != p:
            raise ModularityError(f"labels {q} and {p} are both the pair ({i}, {j})")
    if len(seen) != a.rank * b.rank:
        raise ModularityError(f"{len(seen)} label pairs do not cover the "
                              f"{a.rank} x {b.rank} pairs of factor labels")
    conductor = math.lcm(a.conductor, b.conductor)
    check_cells(len(pairs), len(pairs), euler_phi(conductor))

    # the pair map is onto, so every pair of factor values occurs: each is
    # multiplied once, and entry (p, q) is looked up by its two positions
    xa, xb = ([x.promoted(conductor) for x in md.values] for md in (a, b))
    values, of_pair = distinct_values([[x * y for x in xa for y in xb]])
    ia, ib = np.asarray(pairs, dtype=np.int64).T
    index = of_pair[0][a.index[np.ix_(ia, ia)] * len(xb) + b.index[np.ix_(ib, ib)]]
    index.flags.writeable = False
    thetas = [a.thetas[i] * b.thetas[j] for i, j in pairs]
    grading = None
    if a.grading is not None or b.grading is not None:
        ga = a.grading or (0,) * a.rank
        gb = b.grading or (0,) * b.rank
        grading = [(ga[i] + gb[j]) % 2 for i, j in pairs]
    # the label at each pair, then one channel per two factor channels
    at = np.empty((a.rank, b.rank), dtype=np.int64)
    at[ia, ib] = np.arange(len(pairs))
    ca = a._channels[:, None, :]
    cb = b._channels[None, :, :]
    channels = np.empty((ca.shape[0], cb.shape[1], 4), dtype=np.int64)
    channels[..., :3] = at[ca[..., :3], cb[..., :3]]
    channels[..., 3] = ca[..., 3] * cb[..., 3]
    cperm = at[np.take(a.charge_conjugation(), ia), np.take(b.charge_conjugation(), ib)]
    return ModularData._implied(_c_order(channels.reshape(-1, 4)), cperm.tolist(), labels,
                                values, index, thetas, (a.c_top + b.c_top) % 8, conductor,
                                grading)


def tensor_md(a: ModularData, b: ModularData) -> ModularData:
    """The Deligne product: Kronecker S and T, additive central charge."""
    labels = [ProductLabel(x, y) for x in a.labels for y in b.labels]
    return _product(a, b, labels, [(i, j) for i in range(a.rank) for j in range(b.rank)])


def reverse_md(a: ModularData) -> ModularData:
    """The same data with the opposite braiding: S and the twists conjugate,
    c changes sign mod 8.  conj(S) and T^-1 = conj(T) are the images of S
    and T under the field automorphism sigma_-1, which keeps every proven
    identity, the integer channels and the permutation C, so they are a's;
    one conjugate is taken per value, under a's index table."""
    thetas = [t.inverse() for t in a.thetas]
    return ModularData._implied(a._channels, a.charge_conjugation(), a.labels,
                                tuple(x.conj() for x in a.values), a.index, thetas, (-a.c_top) % 8,
                                a.conductor, a.grading)


def bantay_fs(md: ModularData, label) -> int:
    """The Frobenius-Schur indicator of a label from modular data:
    nu = sum_{x,y} S_{0,x} S_{0,y} N_{xy}^label (theta_x / theta_y)^2;
    theta_x / theta_y = T_x / T_y, so the twists are read as ``t_exps``."""
    idx = md.index_of(label)
    channels = md._channels
    total = CycNum.zero().promoted(md.conductor)
    rot = cache(lambda e: zeta(md.conductor, e))
    t, s0 = md.t_exps, [md.values[k] for k in md.index[0].tolist()]
    for x, y, _, nxy in channels[channels[:, 2] == idx].tolist():
        z = rot(2 * (t[x] - t[y]) % md.conductor)
        total = total + s0[x] * s0[y] * z * nxy
    for value in (0, 1, -1):
        if total == value:
            return value
    raise ModularityError(f"indicator of {label} is outside {{-1, 0, 1}}")


@dataclass(frozen=True)
class MDEquivalence:
    """A unit-fixing label bijection with S' = S and T' = T."""

    mapping: tuple[int, ...]


def _bijection(order, candidates, fits, accept, what: str) -> dict | None:
    """Place each item of ``order`` (not empty) in turn on an unused one of
    ``candidates[item]``, tried in list order, that ``fits(item, candidate,
    placed)`` given the placements before it.  Returns the first complete
    placement, a dict item -> candidate, that ``accept`` takes, or ``None``
    once every placement is tried, which proves that there is none; raises
    CapacityError past ``MAX_PLACEMENTS`` placements.  The stack is its own,
    so Python's recursion limit does not bound the number of items."""
    placed, used, budget = {}, set(), iter(range(MAX_PLACEMENTS))  # one item per placement
    trials = [iter(candidates[order[0]])]  # the candidates left at each level
    while trials:
        item = order[len(trials) - 1]
        cand = next((c for c in trials[-1] if c not in used and fits(item, c, placed)), None)
        if cand is None:  # this level is exhausted
            trials.pop()
        else:
            if next(budget, None) is None:
                raise CapacityError(f"{what} search exceeds {MAX_PLACEMENTS} label placements")
            placed[item] = cand
            used.add(cand)
            if len(placed) < len(order):
                trials.append(iter(candidates[order[len(placed)]]))
                continue
            if accept(placed):
                return placed
        if placed:  # undo the last placement
            used.remove(placed.popitem()[1])
    return None


def md_equivalent(a: ModularData, b: ModularData) -> MDEquivalence | None:
    """Search for an equivalence of modular data.

    Equivalent data have equal central charge: T' = zeta T with zeta a cube
    root of unity, zeta = e^{2 pi i (c_a - c_b)/24}, forces c_a = c_b mod 8,
    and then zeta = 1.  The bijection is constrained to classes of equal
    exact (S_0i, twist); within classes ``_bijection`` searches exhaustively,
    placing each label only where S agrees with the labels placed before it,
    so ``None`` is a proof of inequivalence.  The search raises
    CapacityError past ``MAX_PLACEMENTS`` label placements.
    """
    if a.rank != b.rank or a.c_top != b.c_top:
        return None

    # one integer per distinct value of both S: each value is promoted to
    # one conductor, and the two index tables are read through the joint map
    conductor = math.lcm(a.conductor, b.conductor)
    _, joint = distinct_values([[x.promoted(conductor) for x in a.values + b.values]])
    index_a, index_b = joint[0][: len(a.values)][a.index], joint[0][len(a.values) :][b.index]
    ka, kb = index_a.tolist(), index_b.tolist()
    # classes of (S_0i value, twist); S is symmetric
    ca = [(ka[i][0], a.thetas[i]) for i in range(a.rank)]
    cb = [(kb[i][0], b.thetas[i]) for i in range(b.rank)]
    if Counter(ca) != Counter(cb):
        return None
    candidates = {
        i: [j for j in range(b.rank) if cb[j] == ca[i]] for i in range(a.rank)
    }
    candidates[0] = [0] if cb[0] == ca[0] else []
    order = sorted(range(a.rank), key=lambda i: (len(candidates[i]), i))

    def fits(i: int, j: int, placed: dict) -> bool:
        ki, kj = ka[i], kb[j]
        return ki[i] == kj[j] and all(ki[ip] == kj[jp] for ip, jp in placed.items())

    placed = _bijection(order, candidates, fits, lambda _: True, "equivalence")
    if placed is None:
        return None
    mapping = [placed[i] for i in range(a.rank)]

    # full verification of the witness
    if any(b.thetas[mapping[i]] != a.thetas[i] for i in range(a.rank)):
        raise ModularityError("equivalence witness fails on T")
    if not np.array_equal(index_b[np.ix_(mapping, mapping)], index_a):
        raise ModularityError("equivalence witness fails on S")
    return MDEquivalence(tuple(mapping))


def hat_twist(md: ModularData) -> ModularData:
    """Flip the odd part of a Z2-graded datum: S gains (-1)^{eps(x) eps(y)},
    twists gain i^{eps}, c is unchanged.  Requires a fusion-compatible
    grading."""
    if md.grading is None:
        raise InvalidArgumentError("hat twist needs a Z2 grading")
    eps = md.grading
    grade = np.array(eps)
    i, j, k, _ = md._channels.T  # every N_ij^k != 0
    if (grade[k] != (grade[i] + grade[j]) % 2).any():
        raise InvalidArgumentError("grading is not fusion-compatible")
    rows = _rows(md.values + tuple(-x for x in md.values),
                 md.index + len(md.values) * np.outer(grade, grade))
    thetas = [t * RootOfUnity(eps[i], 4) for i, t in enumerate(md.thetas)]
    return ModularData(md.labels, rows, thetas, md.c_top, md.conductor, eps)


@dataclass(frozen=True)
class BranchingMatrix:
    """Certificate for a condensation: nonnegative integer B with
    B[unit][unit] = 1, S_p B = B S_c, and T_p B = B T_c."""

    matrix: tuple[tuple[int, ...], ...]


def verify_condensation(
    parent: ModularData, child: ModularData, bosons
) -> BranchingMatrix | None:
    """Search for a branching certificate for condensing the given bosons.

    The bosons, label indices or labels, form a set (repeats count once)
    and must form a group of invertible labels with trivial twist; an index
    outside the parent's labels raises ``InvalidArgumentError``.  The orbits
    of the boson action give the slots of B (orbits of full size restrict to
    one child each, shorter orbits split); ``_bijection`` places the child
    labels on slots within exact classes of row 0 of S_p B = B S_c and of
    the twist, and takes the first B with S_p B = B S_c exactly.  The parent
    and child must have equal central charge.  Returns that certificate, or
    None once every placement is tried; the search raises CapacityError past
    ``MAX_PLACEMENTS`` label placements.
    """
    ring = parent.fusion_ring()
    r = parent.rank
    bos = list(dict.fromkeys(parent.index_of(x, "boson") for x in bosons))
    if 0 not in bos:
        bos = [0] + bos
    perms = {}
    for k in bos:
        # k is invertible iff k p is simple for every p: otherwise k k* holds
        # the unit and more, and in a unitary category d_k = 1 iff invertible
        _, p, t, _ = ring.row(k).T  # t occurs in k p
        if not np.array_equal(p, np.arange(r)):  # one channel per p
            raise InvalidArgumentError(f"boson {parent.labels[k]} is not invertible")
        if not parent.thetas[k].is_one():
            raise InvalidArgumentError(
                f"boson {parent.labels[k]} does not have trivial twist"
            )
        perms[k] = t.tolist()
    for k1 in bos:
        for k2 in bos:
            if perms[k1][k2] not in bos:
                raise InvalidArgumentError("bosons are not closed under fusion")

    # the boson orbits partition the labels; ordered by least member
    orbits = sorted({tuple(sorted({perms[k][p] for k in bos})) for p in range(r)})
    nk = len(bos)

    # each local orbit (one twist), once per child label it restricts to
    slots = [
        orbit
        for orbit in orbits
        if len({parent.thetas[p] for p in orbit}) == 1
        for _ in range(nk // len(orbit))
    ]
    if len(slots) != child.rank or parent.c_top != child.c_top:
        return None

    # match child labels to slots within exact classes of row 0 of
    # S_p B = B S_c, sum_{p in slot} S_p[0][p] = S_c[0][c], and of the twist
    conductor = math.lcm(parent.conductor, child.conductor)
    zero = CycNum.zero().promoted(conductor)
    sp = _rows([x.promoted(conductor) for x in parent.values], parent.index)
    sc = _rows([x.promoted(conductor) for x in child.values], child.index)

    slot_classes = defaultdict(list)
    for s_i, orbit in enumerate(slots):
        total = sum((sp[0][p] for p in orbit), zero)
        slot_classes[(total.key_at(conductor), parent.thetas[orbit[0]])].append(s_i)
    child_classes = defaultdict(list)
    for c in range(child.rank):
        child_classes[(sc[0][c].key_at(conductor), child.thetas[c])].append(c)
    if set(slot_classes) != set(child_classes) or any(
        len(slot_classes[k]) != len(child_classes[k]) for k in slot_classes
    ):
        return None
    # child labels class by class, in the order of each class's least label,
    # each on a slot of its class; the unit (first) only on the unit orbit
    keys = sorted(slot_classes, key=lambda k: child_classes[k][0])
    pool = {c: slot_classes[k] for k in keys for c in child_classes[k]}
    pool[0] = [s_i for s_i in pool[0] if slots[s_i] == tuple(sorted(bos))]

    def branching(assign: dict) -> list[list[int]]:
        bmat = [[0] * child.rank for _ in range(r)]
        for c in range(child.rank):
            for p in slots[assign[c]]:
                bmat[p][c] = 1
        return bmat

    # T_p B = B T_c needs no test: each class shares one twist, a slot is a
    # single-twist orbit, and c_p = c_c, so T_p[p] = T_c[c] wherever B[p][c] = 1
    def commutes(assign: dict) -> bool:  # S_p B = B S_c, entry by entry
        bmat = branching(assign)
        return all(
            sum((sp[p][p2] for p2 in range(r) if bmat[p2][c]), zero)
            == sum((sc[c2][c] for c2 in range(child.rank) if bmat[p][c2]), zero)
            for p in range(r) for c in range(child.rank)
        )

    assign = _bijection(list(pool), pool, lambda *_: True, commutes, "condensation")
    return None if assign is None else BranchingMatrix(tuple(map(tuple, branching(assign))))


def classify_mp(group: FinAbGroup) -> list[ModularData]:
    """One generalized metaplectic datum per (bicharacter class, sign);
    raises ModularityError unless the list is pairwise inequivalent."""
    reps = classify_metric_groups(group)
    out = [mp_md(group, m.bichar, sign) for m in reps for sign in (1, -1)]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if md_equivalent(out[i], out[j]) is not None:
                raise ModularityError(
                    f"distinct classes {i} and {j} produced equivalent data"
                )
    return out


# -- serialization ---------------------------------------------------------------


def md_to_json(md: ModularData) -> dict:
    """The JSON document of modular data.  Each of S's distinct values is
    converted once, and its dict and float pair stand at every position
    that ``md.index`` gives it, which lets ``cli._emit`` write each from
    cached text; so editing one entry in place edits every copy of its
    value."""
    t = [zeta(md.conductor, k) for k in md.t_exps]  # T_i = zeta_N^k_i, canonical
    exact = [x.to_json() for x in md.values]
    approx = [[z.real, z.imag] for z in map(complex, md.values)]
    return {
        "conductor": md.conductor,
        "c_top": str(md.c_top),
        "labels": [label_to_json(l) for l in md.labels],
        "label_names": [str(l) for l in md.labels],
        "S": _rows(exact, md.index),
        "T": [x.to_json() for x in t],
        "grading": list(md.grading) if md.grading is not None else None,
        "float_view": {
            "S": _rows(approx, md.index),
            "T": [[z.real, z.imag] for z in map(complex, t)],
        },
    }


def _md_entry(x, conductor: int, where: str) -> CycNum:
    """One exact entry of a modular-data JSON, checked before arithmetic."""
    if not isinstance(x, dict):
        raise InvalidArgumentError(f"{where} must be an object, got {type(x).__name__}")
    n = x.get("conductor")
    if type(n) is not int or n < 1 or conductor % n:
        raise InvalidArgumentError(
            f"{where} has conductor {n!r}, which does not divide {conductor}"
        )
    try:
        return CycNum.from_json(x)
    except InvalidArgumentError as exc:
        raise InvalidArgumentError(f"{where}: {exc}") from None


def _md_shape(obj) -> None:
    """Check the shape of a modular-data JSON: keys, lengths, types."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError("modular data must be a JSON object")
    missing = [
        k for k in ("conductor", "c_top", "labels", "label_names", "S", "T")
        if k not in obj
    ]
    if missing:
        raise InvalidArgumentError(f"modular data lacks {', '.join(missing)}")
    conductor = obj["conductor"]
    if type(conductor) is not int or conductor < 1:
        raise InvalidArgumentError(f"conductor must be an integer >= 1, got {conductor!r}")
    check_conductor(conductor)
    if not isinstance(obj["labels"], list):
        raise InvalidArgumentError("labels must be a list")
    r = len(obj["labels"])
    check_cells(r, r, euler_phi(conductor))
    sized = ["label_names", "S", "T"] + (["grading"] if obj.get("grading") is not None else [])
    for key in sized:
        v = obj[key]
        if not isinstance(v, list) or len(v) != r:
            size = len(v) if isinstance(v, list) else type(v).__name__
            raise InvalidArgumentError(f"{key} has {size} entries, labels has {r}")
    for i, row in enumerate(obj["S"]):
        if not isinstance(row, list) or len(row) != r:
            size = len(row) if isinstance(row, list) else type(row).__name__
            raise InvalidArgumentError(f"S row {i} has {size} entries, expected {r}")
    grading = obj.get("grading")
    if grading is not None and any(type(g) is not int or g not in (0, 1) for g in grading):
        raise InvalidArgumentError("grading entries must be 0 or 1")


def md_from_json(obj: dict) -> ModularData:
    """Read modular data written by ``md_to_json`` and prove it.

    Entries are in the sparse ``terms`` form; the older dense ``coeffs``
    form is refused.  The document's shape, every entry's conductor and
    encoding are checked before any arithmetic; a malformed document
    raises ``InvalidArgumentError``, a conductor above
    ``cyclo.MAX_CONDUCTOR`` or more than ``modcheck.MAX_CELLS`` cells
    ``CapacityError``."""
    _md_shape(obj)
    conductor = obj["conductor"]
    labels, first = [], {}
    for i, l in enumerate(obj["labels"]):
        try:
            labels.append(label_from_json(l))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"labels[{i}] is malformed: {exc!r}") from None
        if (j := first.setdefault(labels[i], i)) != i:
            raise InvalidArgumentError(f"labels[{i}] repeats labels[{j}]")
    c_top = obj["c_top"]
    if not (type(c_top) is int or isinstance(c_top, str) and re.fullmatch(r"-?[0-9]+", c_top)):
        raise InvalidArgumentError(f"c_top must be an integer, got {c_top!r}")
    # each distinct entry is read once, and the datum shares its CycNum as a
    # built one does; repr is one-to-one on what json.load returns, types
    # included (1, 1.0 and true differ), and only successful reads are kept,
    # so a malformed entry is reported at its own position
    memo: dict[str, CycNum] = {}

    def entry(x, where: str) -> CycNum:
        if (v := memo.get(key := repr(x))) is None:
            v = memo[key] = _md_entry(x, conductor, where).promoted(conductor)
        return v

    s_rows = [
        [entry(x, f"S[{i}][{j}]") for j, x in enumerate(row)]
        for i, row in enumerate(obj["S"])
    ]
    t_entries = [entry(x, f"T[{i}]") for i, x in enumerate(obj["T"])]
    c_top = int(c_top) % 8
    pref_inv = RootOfUnity(Fraction(c_top, 24)).to_cyc(conductor)
    # as_root_of_unity proves t zeta_24^c = theta exactly, so the T that
    # ModularData rebuilds from (theta, c_top) is the given t: no T entry can
    # disagree with c_top, and a wrong c_top shows as a twisted unit
    thetas = []
    for t in t_entries:
        ru = (t * pref_inv).as_root_of_unity()
        if ru is None:
            raise InvalidArgumentError("T entry is not a root of unity")
        thetas.append(ru)
    return ModularData(labels, s_rows, thetas, c_top, conductor, obj.get("grading"))
