"""A Fraction-valued reference for the integer quadratic-form core.

Phases are rationals mod 1 and every value is computed pair by pair, the
way ``tycat.quadforms`` worked before it stored integer exponent tables:
the boundary dq, nondegeneracy of a form and of a bicharacter, the
bicharacter b = dq^{(Exp+1)/2} extracted from a form, and the checks of
``QuadForm.validate`` with their messages.  Used as an oracle by the tests
only.
"""

from fractions import Fraction


def exponents(q) -> list[Fraction]:
    """The exponents of a QuadForm, as rationals in [0, 1)."""
    return [Fraction(e, q.modulus) for e in q.exps]


def boundary(group, vals, g, h) -> Fraction:
    """dq(g, h) = q(g) q(h) q(g+h)^{-1}, as an exponent mod 1."""
    i = group.index_of
    return (vals[i(g)] + vals[i(h)] - vals[i(g + h)]) % 1


def is_nondegenerate(group, vals) -> bool:
    els = group.elements()
    return not any(
        all(boundary(group, vals, g, h) == 0 for h in els)
        for g in els
        if not g.is_zero()
    )


def bichar(rows):
    """The bimultiplicative extension of generator exponents ``rows``."""

    def b(g, h) -> Fraction:
        return sum(
            rows[i][j] * gi * hj
            for i, gi in enumerate(g.coords)
            for j, hj in enumerate(h.coords)
        ) % 1

    return b


def bichar_from_form(group, vals):
    """b(e_i, e_j) = dq(e_i, e_j)^{(Exp(G)+1)/2}, extended."""
    m = (group.exponent + 1) // 2
    gens = group.generators()
    return bichar([[boundary(group, vals, x, y) * m % 1 for y in gens] for x in gens])


def bichar_is_nondegenerate(group, b) -> bool:
    gens = group.generators()
    return not any(
        all(b(g, h) == 0 for h in gens) for g in group.elements() if not g.is_zero()
    )


def validate_message(group, vals) -> str | None:
    """The message ``QuadForm.validate`` raises, or None."""
    i = group.index_of
    if vals[0] != 0:
        return "q(0) != 1"
    for g in group.elements():
        for n in range(group.exponent):
            if vals[i(g * n)] != vals[i(g)] * n * n % 1:
                return f"q({n}*{g}) != q({g})^{n * n}"
    gens = group.generators()
    for g in group.elements():
        for h in gens:
            for k in gens:
                lhs = boundary(group, vals, g + h, k)
                rhs = (boundary(group, vals, g, k) + boundary(group, vals, h, k)) % 1
                if lhs != rhs:
                    return "dq is not bimultiplicative"
    return None
