"""Fusion rings, hypergroups, and character tables from explicit rule tables.

Rings store one read-only int64 array of channel rows (i, j, k, N_{ij}^k),
the nonzero structure constants in C order, and exact dimensions: rule tables
emit both, and the proven Verlinde channels are kept without a copy.  Hypergroups hold
exact rational convex structure constants as one dense read-only int64
array over a common denominator; the Tambara-Yamagami hypergroup and its
dual come with the character table and Haar weights that make the rows
exactly orthogonal.  The associativity check reads an r x r x r cube, so
rule tables and hypergroups past ``MAX_RULE_CELLS`` cells (rank 256) raise
``CapacityError`` before any product or weight is enumerated.
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


# most label triples a rule table or hypergroup may have: the dense r x r x r
# cube that ``_nonassociative`` reads, up to rank 256
MAX_RULE_CELLS = 1 << 24


def _check_rank(r: int, what: str) -> None:
    """Refuse a rank whose cube exceeds ``MAX_RULE_CELLS``, before any
    product or weight is enumerated."""
    if r**3 > MAX_RULE_CELLS:
        raise CapacityError(f"{what} of rank {r} exceeds {MAX_RULE_CELLS} cells, "
                            "the size limit for rule tables and hypergroups")


@dataclass(frozen=True, eq=False)
class FusionRing:
    """A fusion ring on ``labels`` with the unit at label 0.

    ``channels`` has a row (i, j, k, N_ij^k) per nonzero N_ij^k, i and j
    ordered, strictly increasing in (i, j, k): one read-only int64 (nnz, 4)
    array, kept as a view of an int64 input, whose rows of a label or pair
    are slices.  ``dims`` has each label's exact dimension, a ``CycNum``.
    The package hands out checked rings only: the rule-table builders run
    ``check_fusion_ring``, dimensions included, and a Verlinde ring is proven."""

    labels: tuple
    channels: np.ndarray
    dims: tuple

    def __post_init__(self):
        arr = np.asarray(self.channels, dtype=np.int64).view()
        r = len(self.labels)
        if arr.ndim != 2 or arr.shape[1] != 4:
            raise InvalidArgumentError(f"channels of shape {arr.shape}, not (nnz, 4)")
        if ((arr[:, :3] < 0) | (arr[:, :3] >= r)).any():
            raise InvalidArgumentError(f"channel indices outside [0, {r})")
        if (arr[:, 3] <= 0).any():
            raise InvalidArgumentError("channel coefficients must be positive")
        if (np.diff((arr[:, 0] * r + arr[:, 1]) * r + arr[:, 2]) <= 0).any():
            raise InvalidArgumentError("channels are not strictly increasing in (i, j, k)")
        if len(self.dims) != r:
            raise InvalidArgumentError(f"{len(self.dims)} dimensions for {r} labels")
        arr.flags.writeable = False
        object.__setattr__(self, "channels", arr)
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
    r = len(labels)
    _check_rank(r, "fusion ring")
    rows = [(i, j, k, c) for i in range(r) for j in range(r)
            for k, c in sorted(prod(i, j).items()) if c]
    ring = FusionRing(tuple(labels), np.array(rows, dtype=np.int64).reshape(-1, 4), dims)
    violations = check_fusion_ring(ring)
    if violations:
        raise ModularityError(f"rule table fails its checks: {violations[:5]}")
    return ring


def _nonassociative(arr: np.ndarray) -> list[tuple[int, int, int, int]]:
    """The (i, j, k, l), in C order, where sum_m N_ij^m N_mk^l differs from
    sum_m N_jk^m N_im^l, for a nonnegative integer tensor.

    One row i at a time, lhs_i = N_i @ N.reshape(r, r*r) and
    rhs_i = N.reshape(r*r, r) @ N_i as float64 BLAS products: O(r^3)
    memory where the dense contraction needs r^4, and exact because every
    partial sum stays below r nmax^2 < 2^53 (else ``CapacityError``).
    """
    r = arr.shape[0]
    nmax = int(arr.max()) if arr.size else 0
    if r * nmax * nmax >= 2**53:
        raise CapacityError(
            f"structure constants too large for exact associativity: {nmax} at rank {r}"
        )
    f = arr.astype(np.float64)
    right = f.reshape(r, r * r)
    left = f.reshape(r * r, r)
    out = []
    for i in range(r):
        lhs = f[i] @ right
        rhs = (left @ f[i]).reshape(r, r * r)
        for j, kl in zip(*np.nonzero(lhs != rhs)):
            out.append((i, int(j), int(kl) // r, int(kl) % r))
    return out


def check_fusion_ring(ring: FusionRing) -> list[tuple[str, tuple]]:
    """Verify unit, duality, associativity, the Frobenius symmetries and the
    dimensions on the cube of the channels: the (kind, index) of every violation."""
    r = ring.rank
    _check_rank(r, "fusion ring")
    arr = np.zeros((r, r, r), dtype=np.int64)
    arr[tuple(ring.channels[:, :3].T)] = ring.channels[:, 3]
    violations = []

    eye = np.eye(r, dtype=np.int64)
    for j, k in np.argwhere((arr[0] != eye) | (arr[:, 0] != eye)).tolist():
        violations.append(("unit", (0, j, k)))
    try:
        dual = [ring.dual(i) for i in range(r)]
        for i in range(r):
            if dual[dual[i]] != i:
                violations.append(("dual-involution", (i,)))
    except InvalidArgumentError:
        violations.append(("dual", ()))
        dual = None

    for idx in _nonassociative(arr):
        violations.append(("associativity", idx))

    if dual is not None:
        dual_arr = np.array(dual)
        # N_ij^k = N_{k j*}^i and N_ij^k = N_{j* i*}^{k*} hold in any fusion
        # ring; N_ij^k = N_{i k*}^{j*} additionally needs commutativity
        frob_a = arr[:, dual_arr, :].transpose(2, 1, 0)
        frob_b = arr[np.ix_(dual_arr, dual_arr, dual_arr)].transpose(1, 0, 2)
        bad = (arr != frob_a) | (arr != frob_b)
        if bool(np.all(arr == arr.transpose(1, 0, 2))):
            frob_c = arr[:, dual_arr, :][:, :, dual_arr].transpose(0, 2, 1)
            bad |= arr != frob_c
        for idx in np.argwhere(bad).tolist():
            violations.append(("frobenius", tuple(idx)))

    # d = ring.dims is exact iff d_0 = 1, each d_j is real and positive, and
    # (M d)_j = (sum_i d_i) d_j for M[j, k] = sum_i N_ij^k: M is entrywise
    # positive (k lies in (k j*) j), so by Perron-Frobenius such a d is its
    # Perron vector, as the Frobenius-Perron dimensions are.  Each distinct
    # row (class of d_j, class counts of M[j, :]) is summed once in CycNum
    keys = [d.key_at(d.n) for d in ring.dims]
    at = {key: c for c, key in enumerate(dict.fromkeys(keys))}
    values, cls = [ring.dims[keys.index(key)] for key in at], np.array([at[key] for key in keys])
    total = sum(x * n for x, n in zip(values, np.bincount(cls).tolist()))
    counts = arr.sum(axis=0) @ (cls[:, None] == np.arange(len(values)))
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
        if i < 2 * n:  # group element times rho
            swap = dih[i][1]
            target = rp if (j == rp) == (not swap) else rm
            return {target: 1}
        if j < 2 * n:
            swap = dih[j][1]
            target = rp if (i == rp) == (not swap) else rm
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
    the unit at element 0.

    ``table[i, j, k] / den`` is the weight of e_k in e_i e_j: one read-only
    int64 array over a common denominator, as ``_nonassociative`` reads it."""

    elements: tuple
    table: np.ndarray
    den: int
    star: tuple[int, ...]

    def __post_init__(self):
        arr = np.asarray(self.table, dtype=np.int64).view()
        arr.flags.writeable = False
        object.__setattr__(self, "table", arr)

    @property
    def rank(self) -> int:
        return len(self.elements)

    def coeff(self, i: int, j: int, k: int) -> Fraction:
        return Fraction(int(self.table[i, j, k]), self.den)

    def validate(self) -> None:
        t, den, r = self.table, self.den, self.rank
        if r * den >= 2**63:
            raise CapacityError(f"hypergroup weights over {den} at rank {r} exceed int64")
        cols = np.arange(r)
        for what, bad in (
            ("negative weight in {} * {}", (t < 0).any(axis=2)),
            ("weights of {} * {} do not sum to 1", (t > den).any(axis=2) | (t.sum(axis=2) != den)),
            ("antipode law fails at ({}, {})", (t[:, :, 0] > 0) != (cols == np.array(self.star)[:, None])),
        ):
            hits = np.argwhere(bad)
            if len(hits):
                raise InvalidArgumentError(what.format(*hits[0].tolist()))
        if (t[0, cols, cols] != den).any() or (t[cols, 0, cols] != den).any():
            raise InvalidArgumentError("unit is not a two-sided identity")
        bad = _nonassociative(t)
        if bad:
            raise InvalidArgumentError(f"hypergroup is not associative at {bad[0]}")

    def to_json(self) -> dict:
        nz = np.argwhere(self.table)  # C order: i, then j, then k
        return {
            "elements": [str(e) for e in self.elements],
            "unit": 0,
            "star": list(self.star),
            "weights": [[i, j, k, str(Fraction(c, self.den))]
                        for (i, j, k), c in zip(nz.tolist(), self.table[tuple(nz.T)].tolist())],
        }


def _hypergroup(elements, weights: dict, star) -> Hypergroup:
    """The hypergroup with weight ``weights[i, j, k]`` (a Fraction, 0 when
    absent) of e_k in e_i e_j, over the least common denominator, checked."""
    r = len(elements)
    den = math.lcm(*(w.denominator for w in weights.values()))
    table = np.zeros((r, r, r), dtype=np.int64)
    for (i, j, k), w in weights.items():
        table[i, j, k] = w.numerator * (den // w.denominator)
    hg = Hypergroup(tuple(elements), table, den, tuple(star))
    hg.validate()
    return hg


def ty_hypergroup(group: FinAbGroup) -> Hypergroup:
    """K = G u {tau} with tau* = tau = g tau = tau g, tau^2 = (1/|G|) sum_g g."""
    _check_rank(group.order + 1, "hypergroup")
    els = group.elements()
    n = len(els)
    labels = list(els) + ["tau"]
    idx = {g: i for i, g in enumerate(els)}
    one = Fraction(1)
    weights = {}
    for i, g in enumerate(els):
        for j, h in enumerate(els):
            weights[i, j, idx[g + h]] = one
        weights[i, n, n] = weights[n, i, n] = one
    for k in range(n):
        weights[n, n, k] = Fraction(1, n)
    return _hypergroup(labels, weights, [idx[-g] for g in els] + [n])


def hypergroup_from_fusion_ring(ring: FusionRing) -> Hypergroup:
    """Renormalize a fusion ring by its exact dimensions: on the basis
    [x]/d(x) the structure constants become N_ij^k d_k / (d_i d_j)."""
    _check_rank(ring.rank, "hypergroup")
    inv = [d.inverse() for d in ring.dims]
    weights = {}
    for i, j, k, c in ring.channels.tolist():
        val = ring.dims[k] * inv[i] * inv[j] * c
        if not val.is_rational():
            raise InvalidArgumentError("renormalized structure constants are not rational")
        weights[i, j, k] = val.rational_value()
    return _hypergroup(ring.labels, weights, [ring.dual(i) for i in range(ring.rank)])


@dataclass(frozen=True)
class CharTable:
    """Rows indexed by dual elements, columns by hypergroup elements,
    with Haar weights per column making distinct rows orthogonal."""

    row_labels: tuple
    col_labels: tuple
    entries: tuple  # CycNum matrix
    weights: tuple  # Fraction per column

    def validate(self) -> None:
        rows = len(self.row_labels)
        cols = len(self.col_labels)
        for j in range(cols):
            if self.entries[0][j] != 1:
                raise InvalidArgumentError("first row of the character table is not 1")
        for i in range(rows):
            for j in range(i + 1, rows):
                total = CycNum.zero()
                for k in range(cols):
                    total = total + self.entries[i][k] * self.entries[j][k].conj() * self.weights[k]
                if not total.is_zero():
                    raise InvalidArgumentError(
                        f"rows {i} and {j} are not weighted-orthogonal"
                    )

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
    chis = [h for h in dual.elements() if not h.is_zero()]
    labels = ["1", "eps"] + [("c", chi) for chi in chis]
    r = len(labels)
    cidx = {chi: 2 + i for i, chi in enumerate(chis)}
    weights = {}

    def set_prod(i, j, prod):
        for k, w in prod.items():
            weights[i, j, k] = w

    for i in range(r):
        set_prod(0, i, {i: Fraction(1)})
        set_prod(i, 0, {i: Fraction(1)})
    set_prod(1, 1, {0: Fraction(1)})
    for chi in chis:
        i = cidx[chi]
        set_prod(1, i, {i: Fraction(1)})
        set_prod(i, 1, {i: Fraction(1)})
        for tchi in chis:
            j = cidx[tchi]
            if (chi + tchi).is_zero():
                set_prod(i, j, {0: Fraction(1, 2), 1: Fraction(1, 2)})
            else:
                set_prod(i, j, {cidx[chi + tchi]: Fraction(1)})
    hg = _hypergroup(labels, weights, [0, 1] + [cidx[-chi] for chi in chis])

    # character table over columns G u {tau}
    els = group.elements()
    cols = list(els) + ["tau"]
    one = CycNum.one()
    zero = CycNum.zero()
    entries = [[one] * (len(els) + 1)]
    entries.append([one] * len(els) + [-one])
    for chi in chis:
        row = [pairing(chi, g).to_cyc() for g in els] + [zero]
        entries.append(row)
    weights = tuple([Fraction(1)] * len(els) + [Fraction(group.order)])
    ct = CharTable(
        tuple(labels),
        tuple(cols),
        tuple(tuple(row) for row in entries),
        weights,
    )
    ct.validate()
    return hg, ct
