"""The S matrix and twists of the Tambara-Yamagami double from their own
formulas, as an oracle for ``moddata.ty_center_md``, which builds the double
as the product of the metaplectic and a pointed datum.

S is written out in four blocks over the labels (g, i), rho(g, i) and
sigma{h, k}, in the order ``ty_center_md`` lists them; the twists are
theta(g, i) = b(g, g), theta(rho(g, i)) = (-1)^i omega_g and
theta(sigma{h, k}) = b(h, k).  Only ``_ty_prep`` (the form, the square roots
omega and the conductor) is shared with the package; nothing here is proven.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache

from tycat.cyclo import CycNum, RootOfUnity, sqrt_int, zeta, zeta_sum
from tycat.groups import add_table
from tycat.labels import TYPt, TYRho, TYSigma
from tycat.moddata import _ty_prep


def ty_center_oracle(group, b, sign):
    """(labels, S rows, twists, grading, conductor) of the TY double."""
    n = group.order
    rank = 4 * n + n * (n - 1) // 2
    q, omega, conductor = _ty_prep(group, b, sign, rank)
    els = group.elements()
    root_n = sqrt_int(n).promoted(conductor)

    pt = [TYPt(g, i) for g in els for i in (0, 1)]
    rho = [TYRho(g, i) for g in els for i in (0, 1)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sigma = [TYSigma.of(els[i], els[j]) for i, j in pairs]
    labels = pt + rho + sigma

    # b(g, h) as exponents over the conductor, the index of g + h and of -g
    c = conductor
    bt = [[e * (c // b.modulus) for e in row] for row in b.table()]
    add = add_table(group)
    neg = [row.index(0) for row in add]
    w = [v.k * (c // v.n) for v in omega]
    scale = Fraction(1, 2 * n)
    zero = CycNum.zero().promoted(c)
    # Gauss-type sums sum_k b(k - s, k), one per value of s = g + h
    gsum = [
        zeta_sum(c, Counter(bt[add[k][neg[s]]][k] for k in range(n)).items()) * scale
        for s in range(n)
    ]
    # one exact value per block and integer key; sign s is 0 or 1
    pt_pt = cache(lambda e: zeta(c, e) * scale)
    pt_rho = cache(lambda e, s: zeta(c, e) * root_n * scale * (-1) ** s)
    pt_sigma = cache(lambda e: zeta(c, e) * (2 * scale))
    rho_rho = cache(lambda e, t, s: zeta(c, e) * gsum[t] * (-1) ** s)
    sigma_sigma = cache(lambda e1, e2: zeta_sum(c, ((e1, 1), (e2, 1))) * (2 * scale))

    def entry(x: int, y: int) -> CycNum:
        # S is symmetric and the blocks come in the order pt, rho, sigma
        x, y = min(x, y), max(x, y)
        if y < 2 * n:
            return pt_pt(-2 * bt[x // 2][y // 2] % c)
        if x < 2 * n:
            if y < 4 * n:
                return pt_rho(-bt[x // 2][y // 2 - n] % c, x % 2)
            h, k = pairs[y - 4 * n]
            return pt_sigma(-bt[x // 2][add[h][k]] % c)
        if x < 4 * n:
            if y >= 4 * n:
                return zero
            g, h = x // 2 - n, y // 2 - n
            return rho_rho((w[g] + w[h]) % c, add[g][h], (x + y) % 2)
        # the sigma-sigma block carries the opposite phase convention from
        # the invertible blocks: only the conjugate passes S-unitarity and
        # TSTST = S (checked for every nondegenerate bicharacter); for the
        # pairs (h, -h) both readings coincide
        h1, k1 = pairs[x - 4 * n]
        h, k = pairs[y - 4 * n]
        e1 = -(bt[k][h1] + bt[h][k1]) % c
        e2 = -(bt[k][k1] + bt[h][h1]) % c
        return sigma_sigma(min(e1, e2), max(e1, e2))

    rows = [[entry(x, y) for y in range(len(labels))] for x in range(len(labels))]

    def theta(x) -> RootOfUnity:
        if isinstance(x, TYPt):
            return b(x.g, x.g)
        if isinstance(x, TYRho):
            return omega[group.index_of(x.g)] * RootOfUnity(x.i, 2)
        h, k = x.pair
        return b(h, k)

    thetas = [theta(x) for x in labels]
    grading = [1 if isinstance(x, TYRho) else 0 for x in labels]
    return labels, rows, thetas, grading, conductor
