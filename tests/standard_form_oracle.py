"""The standard forms as they were built before the piece list: every
element pulled back through ``product_group`` onto the sorted primary
pieces, with the nonresidue on the first piece of each chosen type (or,
for a negative control, on the last)."""

from tycat.cyclo import factorize
from tycat.groups import product_group
from tycat.quadforms import QuadForm


def least_nonresidue(p: int) -> int:
    return next(a for a in range(2, p) if pow(a, (p - 1) // 2, p) == p - 1)


def crt_standard_qform(G, minus=(), on_last=False) -> QuadForm:
    pieces = sorted(p**e for d in G.invariant_factors for p, e in factorize(d).items())
    group, _, back = product_group(pieces)
    assert group == G
    coeffs = []
    for i, t in enumerate(pieces):
        others = pieces[i + 1:] if on_last else pieces[:i]
        coeffs.append(least_nonresidue(min(factorize(t))) if t in minus and t not in others else 1)
    m = G.exponent
    exps = [
        sum(a * x * x * (m // t) for x, a, t in zip(back(g), coeffs, pieces))
        for g in G.elements()
    ]
    return QuadForm(G, modulus=m, exps=exps)
