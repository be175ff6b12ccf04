"""The reduction table as ``cyclo`` built it before it scaled each field
from its squarefree radical, kept as an oracle: Phi_n is x^n - 1 divided by
Phi_d for every proper divisor d of n, and x^m mod Phi_n comes from a shift
register run over all n rows."""

from functools import lru_cache

from tycat.cyclo import _poly_divexact, factorize


def divisors(n: int) -> list[int]:
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (low to high) of the n-th cyclotomic polynomial."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in divisors(n):
        if d < n:
            poly = _poly_divexact(poly, list(cyclotomic_poly(d)))
    return tuple(poly)


def reduction_table(n: int) -> tuple[dict[int, int], ...]:
    """x^m mod Phi_n as sparse integer dicts, for m in [0, n)."""
    phi_poly = cyclotomic_poly(n)
    deg = len(phi_poly) - 1
    head = [-c for c in phi_poly[:deg]]  # x^deg = head (mod Phi_n)
    rows: list[dict[int, int]] = [{m: 1} for m in range(deg)]
    cur = list(head)
    for _ in range(deg, n):
        rows.append({e: c for e, c in enumerate(cur) if c})
        top = cur[deg - 1]
        cur = [0] + cur[: deg - 1]
        if top:
            for e, hc in enumerate(head):
                cur[e] += top * hc
    return tuple(rows)
