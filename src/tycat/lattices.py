"""Positive even lattices via integer Gram matrices.

A lattice here is its Gram matrix (symmetric, positive definite, even
diagonal).  The discriminant construction produces the metric group
(L*/L, e^{pi i <x,x>}); gluing by an isotropic subgroup of the discriminant
returns the overlattice as a new even Gram matrix in a Hermite-reduced
basis.  Inner products are integer arithmetic through the adjugate
adj(G) = det(G) G^-1, read off the Smith form.  Root counting enumerates
norm-2 vectors exactly with integer bounds, so the E8 identifications can
be checked by (rank, det, evenness, root count) without any
lattice-isomorphism machinery.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .errors import CapacityError, InvalidArgumentError, ModularityError
from .groups import FinAbGroup, GroupAut, GroupElement, automorphisms, check_table_order, span
from .intmat import (
    Matrix,
    as_matrix,
    det,
    hermite_row_basis,
    identity,
    matmul,
    smith_normal_form,
    transpose,
)
from .quadforms import MetricGroup, QuadForm, metric_equiv, metric_group

__all__ = [
    "EvenLattice",
    "DiscriminantForm",
    "named_lattice",
    "discriminant_form",
    "glue",
    "orthogonal_sum",
    "mirror_check",
    "count_roots",
]


def _bareiss(gram) -> tuple[list[list[int]], list[int]]:
    """Pivot-free (Bareiss) elimination of a symmetric integer matrix: the
    rows, row k as it was when it was the pivot, and the leading principal
    minors D_0 = 1, D_1, ..., which are the pivots.  It stops at the first
    minor that is not positive."""
    m, minors = [list(row) for row in gram], [1]
    for k, mk in enumerate(m):
        minors.append(mk[k])
        if mk[k] <= 0:
            break
        for mi in m[k + 1:]:
            tail = zip(mi[k + 1:], mk[k + 1:])
            mi[k + 1:] = [(x * mk[k] - mi[k] * y) // minors[k] for x, y in tail]
    return m, minors


@dataclass(frozen=True)
class EvenLattice:
    gram: Matrix

    def __post_init__(self):
        g = self.gram
        n = len(g)
        if any(len(row) != n for row in g):
            raise InvalidArgumentError("Gram matrix must be square")
        for i in range(n):
            if g[i][i] % 2:
                raise InvalidArgumentError("Gram diagonal must be even")
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise InvalidArgumentError("Gram matrix must be symmetric")
        # Sylvester: positive definite iff each leading principal minor is positive
        if min(_bareiss(g)[1]) <= 0:
            raise InvalidArgumentError("Gram matrix is not positive definite")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def determinant(self) -> int:
        return det(self.gram)

    def to_json(self) -> dict:
        return {"gram": [list(r) for r in self.gram]}

    @staticmethod
    def from_json(obj: dict) -> "EvenLattice":
        """The lattice of ``{"gram": [[...], ...]}``, whose entries must be
        JSON integers: a float, a string or a bool is refused, not truncated."""
        gram = obj.get("gram") if isinstance(obj, dict) else None
        if not (isinstance(gram, list) and all(
                isinstance(row, list) and all(type(x) is int for x in row) for row in gram)):
            raise InvalidArgumentError(
                'a lattice file must hold {"gram": a list of lists of integers}')
        return EvenLattice(as_matrix(gram))

    def __repr__(self):
        return f"EvenLattice(rank={self.rank}, det={self.determinant})"


def _cartan_a(n: int) -> Matrix:
    return as_matrix(
        [
            [2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)]
            for i in range(n)
        ]
    )


def _cartan_e(n: int) -> Matrix:
    # Bourbaki numbering: node 2 attaches to node 4 of the A-chain 1-3-4-5-...
    m = [[0] * n for _ in range(n)]
    chain = [0] + list(range(2, n))
    for i in range(n):
        m[i][i] = 2
    for a, b in zip(chain, chain[1:]):
        m[a][b] = m[b][a] = -1
    m[1][3] = m[3][1] = -1
    return as_matrix(m)


@lru_cache(maxsize=None)
def named_lattice(name: str) -> EvenLattice:
    """Built-in root lattices: A1..A24, E6, E7, E8."""
    name = name.strip().upper()
    if m := re.fullmatch(r"A([0-9]+)", name):  # ASCII digits: int() reads A1_0 as A10
        n = int(m[1])
        if not 1 <= n <= 24:
            raise InvalidArgumentError(f"A-series lattices ship for n <= 24, got {name}")
        return EvenLattice(_cartan_a(n))
    if name in ("E6", "E7", "E8"):
        return EvenLattice(_cartan_e(int(name[1])))
    raise InvalidArgumentError(f"unknown lattice name {name!r}")


@dataclass(frozen=True)
class DiscriminantForm:
    """The metric group L*/L with q(x) = e^{pi i <x,x>}, plus generator lifts
    in dual-basis coordinates (rows, one per canonical generator)."""

    lattice: EvenLattice
    group: FinAbGroup
    qform: QuadForm
    lifts: tuple[tuple[int, ...], ...]

    def metric(self) -> MetricGroup:
        return metric_group(self.qform)

    def lift(self, g: GroupElement) -> tuple[int, ...]:
        return _lift(g, self.lifts, self.lattice.rank)


@lru_cache(maxsize=None)
def _smith_adjugate(lattice: EvenLattice):
    """(d, columns of U^-1, adj(G), det G) from the Smith form U G V = D.

    G is positive definite, so det U det V = 1, det G = prod d_i and
    G^-1 = V D^-1 U: adj(G) = V diag(det/d_i) U is an integer matrix,
    certified by G adj(G) = det(G) I.  Column i of U^-1 = G V D^-1, the
    dual-basis lift of the i-th Smith generator, is (G V)[:, i] / d_i."""
    gram, n = lattice.gram, lattice.rank
    d, u, v = smith_normal_form(gram)
    factors = [d[i][i] for i in range(n)]
    delta = math.prod(factors)
    adj = matmul(v, [[delta // f * x for x in row] for f, row in zip(factors, u)])
    if matmul(gram, adj) != tuple(tuple(delta * x for x in row) for row in identity(n)):
        raise ModularityError("adjugate certificate fails G adj(G) = det(G) I")
    cols = []
    for i, (f, col) in enumerate(zip(factors, transpose(matmul(gram, v)))):
        if any(x % f for x in col):
            raise ModularityError(f"discriminant generator lift {i} is not integral")
        cols.append(tuple(x // f for x in col))
    return factors, tuple(cols), adj, delta


def _norms(rows, adj: Matrix) -> list[int]:
    """x adj(G) x^T = det(G) <x, x> for each dual-basis row x."""
    return [sum(map(mul, x, y)) for x, y in zip(rows, matmul(rows, adj))]


def _lift(g: GroupElement, lifts, n: int) -> tuple[int, ...]:
    """sum_i g_i lifts[i], a lift of g in dual-basis coordinates."""
    return tuple(sum(c * row[k] for c, row in zip(g.coords, lifts)) for k in range(n))


@lru_cache(maxsize=None)
def discriminant_form(lattice: EvenLattice) -> DiscriminantForm:
    """Compute L*/L via the Smith normal form of the Gram matrix.

    Dual vectors are written in the dual basis f_j (with <f_j, b_k> = d_jk),
    in which L itself is the row span of the Gram matrix.  Generators are
    then normalized so the value table is the lexicographically smallest
    among all automorphism images, making the output canonical per
    isomorphism class.
    """
    n = lattice.rank
    factors, u_inv, adj, delta = _smith_adjugate(lattice)
    check_table_order(delta)  # before factoring |G|, the bound of the form code
    keep = [i for i in range(n) if factors[i] > 1]
    group = FinAbGroup.of([factors[i] for i in keep])
    lifts = tuple(u_inv[i] for i in keep)

    # q(x) = e^{pi i <x,x>} = e^{2 pi i x adj x^T / (2 det)} is well defined
    # on cosets: L is the row span of G, and for its k-th row g_k
    # (x + g_k) adj (x + g_k)^T - x adj x^T = 2 det x_k + det G_kk, since
    # G adj = det I (certified above) and G is symmetric; G_kk is even, so
    # the shift is 0 mod 2 det and no lift needs checking
    qform = QuadForm(group, modulus=2 * delta,
                     exps=_norms([_lift(g, lifts, n) for g in group.elements()], adj))
    qform.validate()
    if not qform.is_nondegenerate():
        raise InvalidArgumentError("discriminant form is degenerate")

    # canonicalize the generator choice
    # (the least value table q o phi; every table has q's modulus, so the
    # integer exponents order the tables as their values do); the first
    # entry that differs from the least so far decides, and a tie keeps the
    # earlier automorphism
    a = qform.exps
    best = a
    best_aut: GroupAut | None = None
    for phi in automorphisms(group):
        for i, x in zip(phi.indices(), best):
            if a[i] != x:
                break
        else:
            continue
        if a[i] < x:
            best, best_aut = tuple(a[i] for i in phi.indices()), phi
    if best_aut is not None:
        lifts = tuple(_lift(best_aut(gen), lifts, n) for gen in group.generators())
        qform = QuadForm(group, modulus=qform.modulus, exps=best)

    disc = DiscriminantForm(lattice, group, qform, lifts)
    if lattice.determinant != group.order:
        raise ModularityError(
            f"discriminant group of order {group.order}, determinant {lattice.determinant}"
        )
    return disc


def orthogonal_sum(l1: EvenLattice, l2: EvenLattice) -> EvenLattice:
    n1, n2 = l1.rank, l2.rank
    rows = []
    for i in range(n1):
        rows.append(list(l1.gram[i]) + [0] * n2)
    for i in range(n2):
        rows.append([0] * n1 + list(l2.gram[i]))
    return EvenLattice(as_matrix(rows))


def glue(lattice: EvenLattice, isotropic) -> EvenLattice:
    """The overlattice generated by L and lifts of an isotropic subgroup of
    its discriminant group.

    ``isotropic`` is an iterable of GroupElements of the discriminant group
    (generators suffice).  Raises InvalidArgumentError naming the first
    element where the form is not 1.
    """
    disc = discriminant_form(lattice)
    group = disc.group
    members = sorted(span(group, frozenset(isotropic)), key=group.index_of)
    for h in members:
        if not disc.qform(h).is_one():
            raise InvalidArgumentError(f"subgroup is not isotropic: q({h}) != 1")
    if len(members) == 1:
        return lattice

    n = lattice.rank
    # L in dual-basis coordinates, then the lifts of the glue vectors
    rows = [list(r) for r in lattice.gram] + [disc.lift(h) for h in members[1:]]
    basis = hermite_row_basis(rows)
    if len(basis) != n:
        raise ModularityError(f"glued lattice has rank {len(basis)}, expected {n}")
    _, _, adj, delta = _smith_adjugate(lattice)
    # <x, y> = x adj y^T / det for dual-basis rows x, y
    gram_new = matmul(matmul(basis, adj), transpose(basis))
    if any(x % delta for row in gram_new for x in row):
        raise InvalidArgumentError("glued basis is not integral")
    out = EvenLattice(as_matrix([[x // delta for x in row] for row in gram_new]))
    if out.determinant * len(members) ** 2 != lattice.determinant:
        raise ModularityError("glued lattice determinant is not det(L) / |H|^2")
    return out


def mirror_check(lattice: EvenLattice, candidate: EvenLattice) -> GroupAut | None:
    """An isomorphism (G_L, q_L) = (G_M, conj q_M) if the lattices mirror
    each other, else None.  On success the diagonal subgroup it induces is
    verified isotropic inside the orthogonal sum."""
    d1 = discriminant_form(lattice)
    d2 = discriminant_form(candidate)
    phi = metric_equiv(d1.metric(), MetricGroup(d2.group, d2.qform.conj()))
    if phi is None:
        return None
    for g in d1.group.elements():
        if not (d1.qform(g) * d2.qform(phi(g))).is_one():
            raise ModularityError(f"mirror diagonal is not isotropic at {g}")
    return phi


def count_roots(lattice: EvenLattice, norm: int = 2) -> int:
    """The exact number of lattice vectors of the given norm, by exhaustive
    search with integer bounds.  Rank is capped at 8.

    With D_k the leading principal minors and b_i the integer pivot rows of
    the Bareiss elimination of the Gram matrix,
    Q(x) = sum_i u_i^2 / (D_i D_{i+1}) for u_i = D_{i+1} x_i + sum_{j>i} b_ij x_j.
    Scaling by M = lcm_i(D_i D_{i+1}) makes every weight w_i an integer, so
    each x_i runs over exactly the integers with w_i u_i^2 <= the scaled
    norm left."""
    n = lattice.rank
    if n > 8:
        raise CapacityError("root counting is capped at rank 8")
    if n == 0 or norm < 0:
        return 0
    b, minors = _bareiss(lattice.gram)
    scale = math.lcm(*(minors[i] * minors[i + 1] for i in range(n)))
    weight = [scale // (minors[i] * minors[i + 1]) for i in range(n)]
    count = 0

    def search(i: int, rem: int, shifts: list[int]):
        # shifts[j] = sum_{k>i} b_jk x_k for j <= i; rem = M (norm - fixed part)
        nonlocal count
        if i < 0:
            count += rem == 0
            return
        d, t, s = minors[i + 1], shifts[i], math.isqrt(rem // weight[i])
        row = [bj[i] for bj in b[:i]]
        for xi in range(-((s + t) // d), (s - t) // d + 1):
            u = d * xi + t
            search(i - 1, rem - weight[i] * u * u,
                   [sj + bji * xi for sj, bji in zip(shifts, row)])

    search(n - 1, norm * scale, [0] * n)
    if norm == 0:
        count -= 1  # exclude the zero vector
    return count
