"""Fusion rings, hypergroups, and character tables from explicit rule tables.

Rings keep their nonzero structure constants as read-only int64 rows
(i, j, k, N_ij^k) in C order, with exact dimensions; hypergroups keep rows
(i, j, k, w) of weights w / den.  The checks compare such tensors by sorting
their entries and join rows one label at a time.  Ranks past 256
(``MAX_RULE_CELLS`` label triples) raise ``CapacityError`` before any product
or weight is made.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .cyclo import CycNum, _real_sign, sqrt_int
from .errors import (
    CapacityError,
    InvalidArgumentError,
    ModularityError,
    UnsupportedError,
)
from .groups import FinAbGroup, character_group, positive_set
from .labels import MPAlpha, MPRho, MPSigma, MPUnit, label_to_json

__all__ = [
    "FusionRing",
    "Hypergroup",
    "CharTable",
    "ty_fusion_ring",
    "gen_ty_fusion_ring",
    "gen_mp_fusion_ring",
    "check_fusion_ring",
    "ty_hypergroup",
    "ty_dual_hypergroup_and_table",
    "hypergroup_from_fusion_ring",
]


# most label triples of a rule table or hypergroup (rank 256), and most rows
# of a join in its checks
MAX_RULE_CELLS = 1 << 24


def _check_rank(r: int, what: str) -> None:
    """Refuse a rank past ``MAX_RULE_CELLS`` label triples."""
    if r**3 > MAX_RULE_CELLS:
        raise CapacityError(f"{what} of rank {r} exceeds {MAX_RULE_CELLS} cells, "
                            "the size limit for rule tables and hypergroups")


def _key(rows: np.ndarray, r: int) -> np.ndarray:
    return (rows[:, 0] * r + rows[:, 1]) * r + rows[:, 2]


def _cells(keys: np.ndarray, r: int) -> list[tuple]:
    return [tuple(c) for c in np.column_stack(np.unravel_index(keys, (r, r, r))).tolist()]


def _rows(arr, r: int, noun: str) -> np.ndarray:
    """``arr`` as read-only int64 rows (i, j, k, x), a view of an int64
    input: indices in [0, r), x > 0, strictly increasing in (i, j, k)."""
    arr = np.asarray(arr, dtype=np.int64).view()
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise InvalidArgumentError(f"{noun}s of shape {arr.shape}, not (nnz, 4)")
    if ((arr[:, :3] < 0) | (arr[:, :3] >= r)).any():
        raise InvalidArgumentError(f"{noun} indices outside [0, {r})")
    if (arr[:, 3] <= 0).any():
        raise InvalidArgumentError(f"{noun} coefficients must be positive")
    if (np.diff(_key(arr, r)) <= 0).any():
        raise InvalidArgumentError(f"{noun}s are not strictly increasing in (i, j, k)")
    arr.flags.writeable = False
    return arr


def _product_rows(r: int, prod) -> np.ndarray:
    """The rows (i, j, k, c), in C order, of a map (i, j) -> {k: c}."""
    return np.array([(i, j, k, c) for i in range(r) for j in range(r)
                     for k, c in sorted(prod(i, j).items()) if c], dtype=np.int64).reshape(-1, 4)


def _dim_classes(dims) -> tuple[list, np.ndarray]:
    """The distinct dimensions and each label's index among them."""
    at: dict = {}
    cls = np.array([at.setdefault(d.key_at(d.n), len(at)) for d in dims], dtype=np.int64)
    return [dims[j] for j in np.unique(cls, return_index=True)[1]], cls


@dataclass(frozen=True, eq=False)
class FusionRing:
    """A fusion ring on ``labels`` with the unit at label 0.

    ``channels`` has a row (i, j, k, N_ij^k) per nonzero N_ij^k, as ``_rows``
    checks them, so the rows of a label or pair are slices; ``dims`` has each
    label's exact dimension, a ``CycNum``.  The package hands out checked
    rings only: rule tables pass ``check_fusion_ring``, Verlinde rings a proof."""

    labels: tuple
    channels: np.ndarray
    dims: tuple

    def __post_init__(self):
        object.__setattr__(self, "channels", _rows(self.channels, len(self.labels), "channel"))
        if len(self.dims) != len(self.labels):
            raise InvalidArgumentError(f"{len(self.dims)} dimensions for {len(self.labels)} labels")
        object.__setattr__(self, "dims", tuple(self.dims))

    @property
    def rank(self) -> int:
        return len(self.labels)

    @cached_property
    def _offsets(self) -> np.ndarray:
        """Pair (i, j) has the rows _offsets[i r + j] to _offsets[i r + j + 1]."""
        r = self.rank
        return np.searchsorted(self.channels[:, 0] * r + self.channels[:, 1], np.arange(r * r + 1))

    def row(self, i: int) -> np.ndarray:  # the channels (i, j, k, N_ij^k) of label i
        return self.channels[self._offsets[i * self.rank] : self._offsets[(i + 1) * self.rank]]

    def product(self, i: int, j: int) -> dict[int, int]:
        lo, hi = self._offsets[i * self.rank + j : i * self.rank + j + 2]
        return {k: n for _, _, k, n in self.channels[lo:hi].tolist()}

    def dual(self, i: int) -> int:
        _, j, k, _ = self.row(i).T
        hits = j[k == 0]
        if len(hits) != 1:
            raise InvalidArgumentError(f"label {i} has no unique dual")
        return int(hits[0])

    def index_of(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InvalidArgumentError(f"{label} is not a label of this ring") from None

    @property
    def fp_dims(self) -> list:  # the float view of the exact dimensions
        return [complex(d).real for d in self.dims]

    @property
    def global_dim(self) -> int | None:  # sum d^2 when every d is rational, so an integer
        rational = all(d.is_rational() for d in self.dims)
        return int(sum(d.rational_value() ** 2 for d in self.dims)) if rational else None

    def to_json(self) -> dict:
        return {
            "labels": [label_to_json(l) for l in self.labels],
            "label_names": [str(l) for l in self.labels],
            "unit": 0,
            "nonzero": self.channels.tolist(),
        }


def _ring_from_products(labels, prod, dims) -> FusionRing:
    """The ring of a map (i, j) -> {k: coeff} and its dimensions, once
    ``_check_rank`` passes, checked by ``check_fusion_ring``."""
    _check_rank(len(labels), "fusion ring")
    ring = FusionRing(tuple(labels), _product_rows(len(labels), prod), dims)
    violations = check_fusion_ring(ring)
    if violations:
        raise ModularityError(f"rule table fails its checks: {violations[:5]}")
    return ring


def _differ(keys: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The sorted keys whose ``vals`` do not sum to 0: for one int64 tensor's
    entries and another's negated, where the two differ."""
    if not len(keys):
        return keys
    order = keys.argsort()
    keys, vals = keys[order], vals[order]
    del order  # freed before the sums: this sort is the checks' peak memory
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    return keys[first[np.add.reduceat(vals, first) != 0]]


def _join(m: np.ndarray, offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Position a of ``m`` meets each b in offsets[m[a]] : offsets[m[a] + 1]:
    how many b each a meets, and every b met."""
    lo, n = offsets[m], offsets[m + 1] - offsets[m]
    total = int(n.sum())
    if total > MAX_RULE_CELLS:
        raise CapacityError(f"join of {total} rows exceeds {MAX_RULE_CELLS} cells, "
                            "the size limit for rule tables and hypergroups")
    return n, np.arange(total) + np.repeat(lo - np.cumsum(n) + n, n)


def _nonassociative(rows: np.ndarray, r: int) -> list[tuple[int, int, int, int]]:
    """The (i, j, k, l), in C order, where sum_m N_ij^m N_mk^l differs from
    sum_m N_jk^m N_im^l: per label i, rows (i, j, m) join (m, k, l) and rows
    (j, k, m) join (i, m, l).  Sums stay below r nmax^2 < 2^63 (else
    ``CapacityError``), so int64 is exact; keys (j r + k) r + l are int32."""
    nmax = int(rows[:, 3].max(initial=0))
    if r * nmax * nmax >= 2**63:
        raise CapacityError(
            f"structure constants too large for exact associativity: {nmax} at rank {r}"
        )
    i_off = np.searchsorted(rows[:, 0], np.arange(r + 1))
    ijk, val = rows[:, :3].astype(np.int32), rows[:, 3]
    jk = (ijk[:, 0] * r + ijk[:, 1]) * r
    out = []
    for i in range(r):
        lo, hi = i_off[i], i_off[i + 1]
        n, b = _join(ijk[lo:hi, 2], i_off)
        n2, b2 = _join(ijk[:, 2], lo + np.searchsorted(ijk[lo:hi, 1], np.arange(r + 1)))
        keys = np.concatenate([np.repeat(ijk[lo:hi, 1] * r * r, n) + ijk[b, 1] * r + ijk[b, 2],
                               np.repeat(jk, n2) + ijk[b2, 2]])
        vals = np.concatenate([np.repeat(val[lo:hi], n) * val[b], -np.repeat(val, n2) * val[b2]])
        del b, b2
        out += [(i, *cell) for cell in _cells(_differ(keys, vals), r)]
    return out


def check_fusion_ring(ring: FusionRing) -> list[tuple[str, tuple]]:
    """Verify unit, duality, associativity, the Frobenius symmetries and the
    dimensions on the channel rows: the (kind, index) of every violation."""
    r, ch = ring.rank, ring.channels
    _check_rank(r, "fusion ring")
    left, right = ch[ch[:, 0] == 0], ch[ch[:, 1] == 0][:, [1, 0, 2, 3]]
    eye = np.arange(r) * (r + 1)  # the keys of N_0j^j = 1
    unit = np.concatenate([_differ(np.r_[_key(t, r), eye], np.r_[t[:, 3], -np.ones_like(eye)])
                           for t in (left, right)])
    violations = [("unit", cell) for cell in _cells(_differ(unit, np.ones_like(unit)), r)]
    try:
        dual = [ring.dual(i) for i in range(r)]
        for i in range(r):
            if dual[dual[i]] != i:
                violations.append(("dual-involution", (i,)))
    except InvalidArgumentError:
        violations.append(("dual", ()))
        dual = None

    violations += [("associativity", cell) for cell in _nonassociative(ch, r)]

    if dual is not None:
        # N_ij^k = N_{k j*}^i and N_ij^k = N_{j* i*}^{k*} hold in any fusion
        # ring; N_ij^k = N_{i k*}^{j*} additionally needs commutativity.  Row
        # (k, j*, i) is N_{k j*}^i at (i, j, k) for each j of that dual
        pre = np.argsort(dual, kind="stable")
        pre_off = np.searchsorted(np.array(dual)[pre], np.arange(r + 1))

        def differs(cols, order):
            t = ch
            for c in cols:
                n, b = _join(t[:, c], pre_off)
                t = np.repeat(t, n, axis=0)
                t[:, c] = pre[b]
            return _differ(np.r_[_key(ch, r), _key(t[:, order], r)], np.r_[ch[:, 3], -t[:, 3]])

        laws = [([1], [2, 1, 0]), ([0, 1, 2], [1, 0, 2])]
        if not len(differs([], [1, 0, 2])):
            laws.append(([1, 2], [0, 2, 1]))
        bad = np.concatenate([differs(*law) for law in laws])
        violations += [("frobenius", cell) for cell in _cells(_differ(bad, np.ones_like(bad)), r)]

    # d = ring.dims is exact iff d_0 = 1, each d_j is real and positive, and
    # (M d)_j = (sum_i d_i) d_j for M[j, k] = sum_i N_ij^k: M is entrywise
    # positive (k lies in (k j*) j), so by Perron-Frobenius such a d is its
    # Perron vector, as the Frobenius-Perron dimensions are.  Each distinct
    # row (class of d_j, class counts of M[j, :]) is summed once in CycNum
    values, cls = _dim_classes(ring.dims)
    total = sum(x * n for x, n in zip(values, np.bincount(cls).tolist()))
    counts = np.zeros((r, len(values)), dtype=np.int64)
    np.add.at(counts, (ch[:, 1], cls[ch[:, 2]]), ch[:, 3])
    rows, of_row = np.unique(np.column_stack([cls, counts]), axis=0, return_inverse=True)
    holds = [values[c] == values[c].conj() and _real_sign(values[c]) > 0
             and sum(values[k] * n for k, n in enumerate(row) if n) == total * values[c]
             for c, *row in rows.tolist()]
    violations += [("dimension", (j,)) for j, u in enumerate(of_row.ravel().tolist())
                   if not holds[u] or (j == 0 and ring.dims[0] != 1)]
    return violations


# -- rule-table builders -------------------------------------------------------


def ty_fusion_ring(group: FinAbGroup) -> FusionRing:
    """Labels G u {rho}: g h = g+h, g rho = rho g = rho, rho^2 = sum_g g."""
    els = group.elements()
    labels = list(els) + ["rho"]
    n = len(els)
    idx = {g: i for i, g in enumerate(els)}

    def prod(i, j):
        if i < n and j < n:
            return {idx[els[i] + els[j]]: 1}
        if i == n and j == n:
            return {k: 1 for k in range(n)}
        return {n: 1}

    return _ring_from_products(labels, prod, [CycNum.one()] * n + [sqrt_int(n)])


def gen_ty_fusion_ring(A: FinAbGroup) -> FusionRing:
    """Labels Dih(A) u {rho+, rho-} for |A| odd.

    Dih(A) elements are encoded as pairs (a, eps) with (a,0)(b,0) = (a+b,0),
    (a,1)(b,0) = (a-b,1), (a,0)(b,1) = (a+b,1), (a,1)(b,1) = (a-b,0);
    rho_{+-}^2 = sum_a (a,0), rho_+ rho_- = sum_a (a,1), even elements fix
    rho_{+-} and odd elements swap them.
    """
    if A.order % 2 == 0:
        raise UnsupportedError("the dihedral extension needs |A| odd")
    els = A.elements()
    n = len(els)
    dih = [(a, 0) for a in els] + [(a, 1) for a in els]
    labels = dih + ["rho+", "rho-"]
    idx = {d: i for i, d in enumerate(dih)}
    rp, rm = 2 * n, 2 * n + 1

    def dih_mul(x, y):
        (a, e1), (b, e2) = x, y
        return (a - b if e1 else a + b, e1 ^ e2)

    def prod(i, j):
        if i < 2 * n and j < 2 * n:
            return {idx[dih_mul(dih[i], dih[j])]: 1}
        if min(i, j) < 2 * n:  # a group element and rho, either way round
            swap = dih[min(i, j)][1]
            target = rp if (max(i, j) == rp) == (not swap) else rm
            return {target: 1}
        if i == j:  # rho_+- squared
            return {idx[(a, 0)]: 1 for a in els}
        return {idx[(a, 1)]: 1 for a in els}

    return _ring_from_products(labels, prod, [CycNum.one()] * (2 * n) + [sqrt_int(n)] * 2)


def gen_mp_fusion_ring(G: FinAbGroup) -> FusionRing:
    """The metaplectic-type fusion ring on {1, alpha, rho, alpha rho} u
    {sigma_g : g in G_+} for |G| odd."""
    if G.order % 2 == 0:
        raise UnsupportedError("metaplectic fusion rings need |G| odd")
    pos = positive_set(G)
    sig = list(pos.members)
    labels = [MPUnit(), MPAlpha(), MPRho(0), MPRho(1)] + [MPSigma(h) for h in sig]
    sidx = {h: 4 + i for i, h in enumerate(sig)}
    UNIT, ALPHA, RHO0, RHO1 = 0, 1, 2, 3

    def prod(i, j):
        if j < i:
            return prod(j, i)
        li, lj = labels[i], labels[j]
        if i == UNIT:
            return {j: 1}
        if i == ALPHA:
            if j == ALPHA:
                return {UNIT: 1}
            if j == RHO0:
                return {RHO1: 1}
            if j == RHO1:
                return {RHO0: 1}
            return {j: 1}  # alpha sigma = sigma
        if i in (RHO0, RHO1) and j in (RHO0, RHO1):
            base = UNIT if i == j else ALPHA
            out = {base: 1}
            for h in sig:
                out[sidx[h]] = 1
            return out
        if i in (RHO0, RHO1):  # rho sigma = rho0 + rho1
            return {RHO0: 1, RHO1: 1}
        g, h = li.h, lj.h
        if i == j:
            return {UNIT: 1, ALPHA: 1, sidx[pos.fold(g + g)]: 1}
        out: dict[int, int] = {}
        for target in (pos.fold(g + h), pos.fold(g - h)):
            out[sidx[target]] = out.get(sidx[target], 0) + 1
        return out

    one, root = CycNum.one(), sqrt_int(G.order)
    return _ring_from_products(labels, prod, [one, one, root, root] + [one + one] * len(sig))


# -- hypergroups ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Hypergroup:
    """Finite hypergroup: convex multiplication table with involution and
    the unit at element 0.  ``weights`` has a row (i, j, k, w), as ``_rows``
    checks them, per nonzero weight w / den of e_k in e_i e_j."""

    elements: tuple
    weights: np.ndarray
    den: int
    star: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _rows(self.weights, len(self.elements), "weight"))

    @property
    def rank(self) -> int:
        return len(self.elements)

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        w = self.weights
        return Fraction(int(w[(w[:, :3] == (i, j, k)).all(axis=1), 3].sum()), self.den)

    def validate(self) -> None:
        w, den, r = self.weights, self.den, self.rank
        i, j, k, x = w.T
        bad = _nonassociative(w, r)  # first: its guard bounds the sums below
        pair, unit_in = i * r + j, np.zeros(r * r, dtype=bool)
        sums = np.zeros(r * r, dtype=np.int64)
        np.add.at(sums, pair, x)
        unit_in[pair[k == 0]] = True
        for what, hits in (
            ("weights of {} * {} do not sum to 1", np.flatnonzero(sums != den)),
            ("antipode law fails at ({}, {})",
             np.flatnonzero(unit_in != (np.arange(r) == np.array(self.star)[:, None]).ravel())),
        ):
            if len(hits):
                raise InvalidArgumentError(what.format(*divmod(int(hits[0]), r)))
        if np.count_nonzero(((i == 0) | (j == 0)) & (k == i + j) & (x == den)) != 2 * r - 1:
            raise InvalidArgumentError("unit is not a two-sided identity")
        if bad:
            raise InvalidArgumentError(f"hypergroup is not associative at {bad[0]}")

    def to_json(self) -> dict:
        return {
            "elements": [str(e) for e in self.elements],
            "unit": 0,
            "star": list(self.star),
            "weights": [[i, j, k, str(Fraction(w, self.den))]
                        for i, j, k, w in self.weights.tolist()],
        }


def ty_hypergroup(group: FinAbGroup) -> Hypergroup:
    """K = G u {tau}, the normalized Tambara-Yamagami ring with rho named
    tau: tau* = tau = g tau = tau g, tau^2 = (1/|G|) sum_g g."""
    _check_rank(group.order + 1, "hypergroup")
    hg = hypergroup_from_fusion_ring(ty_fusion_ring(group))
    return Hypergroup(hg.elements[:-1] + ("tau",), hg.weights, hg.den, hg.star)


def hypergroup_from_fusion_ring(ring: FusionRing) -> Hypergroup:
    """Renormalize a fusion ring by its exact dimensions: on the basis
    [x]/d(x) the structure constants become N_ij^k d_k / (d_i d_j), computed
    once per distinct (d_i, d_j, d_k, N_ij^k)."""
    _check_rank(ring.rank, "hypergroup")
    values, cls = _dim_classes(ring.dims)
    ch = ring.channels
    combos, of_row = np.unique(np.column_stack([cls[ch[:, :3]], ch[:, 3]]), axis=0,
                               return_inverse=True)
    ratios = [values[e] * values[a].inverse() * values[b].inverse() * c
              for a, b, e, c in combos.tolist()]
    if not all(v.is_rational() for v in ratios):
        raise InvalidArgumentError("renormalized structure constants are not rational")
    ratios = [v.rational_value() for v in ratios]
    den = math.lcm(*(v.denominator for v in ratios))
    nums = np.array([v.numerator * (den // v.denominator) for v in ratios], dtype=np.int64)
    hg = Hypergroup(ring.labels, np.column_stack([ch[:, :3], nums[of_row.ravel()]]), den,
                    tuple(ring.dual(i) for i in range(ring.rank)))
    hg.validate()
    return hg


@dataclass(frozen=True)
class CharTable:
    """Rows indexed by dual elements, columns by hypergroup elements,
    with Haar weights per column making distinct rows orthogonal."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple  # CycNum matrix
    weights: tuple  # Fraction per column

    def validate(self) -> None:
        if any(e != 1 for e in self.entries[0]):
            raise InvalidArgumentError("first row of the character table is not 1")
        weighted = [[e.conj() * w for e, w in zip(row, self.weights)] for row in self.entries]
        for i, row in enumerate(self.entries):
            for j in range(i + 1, len(self.entries)):
                if not sum((x * y for x, y in zip(row, weighted[j])), CycNum.zero()).is_zero():
                    raise InvalidArgumentError(f"rows {i} and {j} are not weighted-orthogonal")

    def to_json(self) -> dict:
        return {
            "rows": [str(l) for l in self.row_labels],
            "columns": [str(l) for l in self.col_labels],
            "weights": [str(w) for w in self.weights],
            "entries": [[e.to_json() for e in row] for row in self.entries],
        }


def ty_dual_hypergroup_and_table(group: FinAbGroup):
    """The dual hypergroup {1, eps} u {c_chi : chi != 1} of the
    Tambara-Yamagami hypergroup of an odd group, and its character table
    with weights w(g) = 1, w(tau) = |G|."""
    if group.order % 2 == 0:
        raise UnsupportedError("the dual hypergroup computation needs |G| odd")
    _check_rank(group.order + 1, "hypergroup")
    dual, pairing = character_group(group)
    n = group.order
    chis = [h for h in dual.elements() if not h.is_zero()]
    labels = ("1", "eps") + tuple(("c", chi) for chi in chis)
    cidx = {chi: 2 + i for i, chi in enumerate(chis)}
    den = 2 if chis else 1

    def prod(i, j):  # over den; 1 and eps form Z2 and fix each c_chi
        if min(i, j) < 2:
            return {i ^ j if max(i, j) < 2 else max(i, j): den}
        chi = chis[i - 2] + chis[j - 2]
        return {0: 1, 1: 1} if chi.is_zero() else {cidx[chi]: den}

    hg = Hypergroup(labels, _product_rows(len(labels), prod), den,
                    (0, 1) + tuple(cidx[-chi] for chi in chis))
    hg.validate()

    # character table over columns G u {tau}
    els, one = group.elements(), CycNum.one()
    entries = [[one] * (n + 1), [one] * n + [-one]]
    entries += [[pairing(chi, g).to_cyc() for g in els] + [CycNum.zero()] for chi in chis]
    ct = CharTable(labels, tuple(els) + ("tau",), tuple(map(tuple, entries)),
                   (Fraction(1),) * n + (Fraction(n),))
    ct.validate()
    return hg, ct
