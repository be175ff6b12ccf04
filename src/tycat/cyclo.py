"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Every scalar appearing in an S- or T-matrix in this package lives in some
cyclotomic field.  ``CycNum`` stores the canonical representative of such a
value: the remainder modulo the N-th cyclotomic polynomial, kept as a sparse
integer coefficient dictionary over a single positive denominator.  Two
values are equal iff their canonical forms agree after promotion to the
least common conductor, so equality never involves floating point.

``CycNum.galois(a)`` is the Galois map sigma_a: zeta_n -> zeta_n^a for a
prime to n; complex conjugation is sigma_{-1}.  An inverse is the product of
a value's other distinct conjugates over its norm, which every sigma_a fixes
and so is rational.  ``sqrt_int(n)`` is sqrt(n) as a product of Gauss sums at
its natural conductor (``sqrt_int_conductor``); callers promote it.

``RootOfUnity`` is the lighter exact representation e^{2 pi i k/n} as a
reduced integer pair; it is the natural container for single quadratic-form
and bicharacter values and converts losslessly to ``CycNum``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import CapacityError, InvalidArgumentError, ModularityError

# largest conductor read from outside input: bounds factorize and the
# N-row reduction table before either runs (TY(Z_n) needs 48n)
MAX_CONDUCTOR = 2520

__all__ = [
    "CycNum",
    "RootOfUnity",
    "zeta",
    "zeta_sum",
    "sqrt_int",
    "euler_phi",
    "factorize",
    "galois_generators",
    "MAX_CONDUCTOR",
]


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are desk-scale)."""
    if n < 1:
        raise InvalidArgumentError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def galois_generators(n: int) -> list[int]:
    """Generators of (Z/n)^x, -1 first: a primitive root of each odd prime
    power q || n and 5 mod q = 2^k for k >= 3, each lifted to 1 modulo
    n / q by the CRT.  -1 mod 2^k (1 elsewhere) needs no lift of its own:
    it is -1 times the lifts of -1 mod each odd q, powers of their roots."""
    gens = [n - 1]
    for p, k in factorize(n).items():
        q = p**k
        if p > 2:
            orders = [q // p * (p - 1) // f for f in {*factorize(p - 1), p} if f != p or k > 1]
            local = [next(x for x in range(2, q)
                          if x % p and all(pow(x, e, q) != 1 for e in orders))]
        else:
            local = [5] if k >= 3 else []
        m = n // q
        gens += [(1 + (x - 1) * m * pow(m, -1, q)) % n for x in local]
    return list(dict.fromkeys(gens))


def _poly_divexact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, divisor monic.
    num = list(num)
    dn = len(den) - 1
    out = [0] * (len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        out[i - dn] = c
        for j, dj in enumerate(den):
            num[i - dn + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return out


@lru_cache(maxsize=None)
def _reduction_table(n: int) -> tuple[dict[int, int], ...]:
    """x^m mod Phi_n as sparse integer dicts, for m in [0, n).

    With r the radical of n and s = n / r > 1, Phi_n(x) = Phi_r(x^s), so
    x^(qs+t) = x^t (y^q mod Phi_r(y)) at y = x^s: row m is row m // s of
    r's table with its exponents spread by s.  For squarefree n, Phi_n is
    built one prime at a time, Phi_mp(x) = Phi_m(x^p) / Phi_m(x) for p
    prime to m, and the rows come from a shift register."""
    primes = list(factorize(n))
    s = n // math.prod(primes)
    if s > 1:
        base = _reduction_table(n // s)
        return tuple({e * s + m % s: c for e, c in base[m // s].items()} for m in range(n))
    phi_poly = [-1, 1]  # Phi_1
    for p in primes:
        spread = [0] * ((len(phi_poly) - 1) * p + 1)
        spread[::p] = phi_poly
        phi_poly = _poly_divexact(spread, phi_poly)
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


def _reduce_terms(n: int, terms) -> dict[int, int]:
    """sum c x^e mod Phi_n as a sparse dict, for pairs (e, c) with 0 <= e < n."""
    deg = euler_phi(n)
    table = _reduction_table(n)
    num: dict[int, int] = {}
    for e, c in terms:
        if e < deg:
            num[e] = num.get(e, 0) + c
        elif c:
            for e2, c2 in table[e].items():
                num[e2] = num.get(e2, 0) + c * c2
    return num


def _normalize(num: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    num = {e: c for e, c in num.items() if c}
    if not num:
        return {}, 1
    if den < 0:
        den = -den
        num = {e: -c for e, c in num.items()}
    g = den
    for c in num.values():
        g = math.gcd(g, c)
        if g == 1:
            return num, den
    if g > 1:
        num = {e: c // g for e, c in num.items()}
        den //= g
    return num, den


class CycNum:
    """Element of Q(zeta_n), reduced mod the n-th cyclotomic polynomial.

    ``num`` maps exponents in [0, phi(n)) to integer coefficients; the actual
    coefficient of zeta^e is num[e]/den.  The pair is normalized (den > 0,
    gcd of all entries and den is 1), so representation is canonical.
    """

    __slots__ = ("n", "num", "den")
    __hash__ = None  # equality crosses conductors; use key_at() for hashing

    def __init__(self, n: int, num: dict[int, int], den: int = 1):
        self.n = n
        self.num, self.den = _normalize(num, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_fraction(x) -> "CycNum":
        f = Fraction(x)
        return CycNum(1, {0: f.numerator}, f.denominator)

    @staticmethod
    def zero() -> "CycNum":
        return CycNum(1, {})

    @staticmethod
    def one() -> "CycNum":
        return CycNum(1, {0: 1})

    # -- conversions -------------------------------------------------------

    def promoted(self, m: int) -> "CycNum":
        """The same value viewed in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n:
            raise InvalidArgumentError(f"cannot promote conductor {self.n} to {m}")
        k = m // self.n
        return CycNum(m, _reduce_terms(m, ((e * k, c) for e, c in self.num.items())), self.den)

    def key_at(self, m: int) -> tuple:
        """Hashable canonical key for this value inside Q(zeta_m)."""
        v = self.promoted(m)
        return (m, tuple(sorted(v.num.items())), v.den)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return all(e == 0 for e in self.num)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise InvalidArgumentError("value is irrational")
        return Fraction(self.num.get(0, 0), self.den)

    def __complex__(self) -> complex:
        w = 2j * cmath.pi / self.n
        total = 0j
        for e in sorted(self.num):  # fixed order keeps the float view deterministic
            total += self.num[e] * cmath.exp(w * e)
        return total / self.den

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, CycNum):
            return x
        if isinstance(x, (int, Fraction)):
            return CycNum.from_fraction(x)
        return None

    def _common(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        if self.n == other.n:
            return self, other
        m = self.n * other.n // math.gcd(self.n, other.n)
        return self.promoted(m), other.promoted(m)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        num = {e: c * b.den for e, c in a.num.items()}
        for e, c in b.num.items():
            num[e] = num.get(e, 0) + c * a.den
        return CycNum(a.n, num, a.den * b.den)

    __radd__ = __add__

    def __neg__(self):
        out = CycNum.__new__(CycNum)
        out.n, out.num, out.den = self.n, {e: -c for e, c in self.num.items()}, self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._common(other)
        n = a.n
        acc: dict[int, int] = {}
        bn = b.num
        for e1, c1 in a.num.items():
            for e2, c2 in bn.items():
                e = e1 + e2
                if e >= n:
                    e -= n
                acc[e] = acc.get(e, 0) + c1 * c2
        return CycNum(n, _reduce_terms(n, acc.items()), a.den * b.den)

    __rmul__ = __mul__

    def galois(self, a: int) -> "CycNum":
        """The Galois map sigma_a: zeta_n -> zeta_n^a, for a prime to n."""
        n = self.n
        if math.gcd(a, n) != 1:
            raise InvalidArgumentError(f"sigma_{a} needs gcd({a}, {n}) = 1")
        return CycNum(n, _reduce_terms(n, ((a * e % n, c) for e, c in self.num.items())), self.den)

    def conj(self) -> "CycNum":
        """Complex conjugate (zeta -> zeta^{-1})."""
        return self.galois(-1)

    def inverse(self) -> "CycNum":
        """1/x as the product of x's other distinct conjugates over the
        norm: x times that product is fixed by every sigma_a, so rational.
        The conjugates are found by walking x's orbit under the generators
        of (Z/n)^x, so each generator is applied once per distinct one."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic value")
        n = self.n
        gens = galois_generators(n)
        seen = {self.key_at(n)}
        orbit = [self]
        rest = CycNum.one().promoted(n)
        for x in orbit:  # grows while it is walked
            for a in gens:
                y = x.galois(a)
                if (key := y.key_at(n)) not in seen:
                    seen.add(key)
                    orbit.append(y)
                    rest = rest * y
        norm = self * rest
        if not norm.is_rational():
            raise ModularityError(f"the conjugates of {self!r} multiply to {norm!r}")
        out = CycNum(n, {e: c * norm.den for e, c in rest.num.items()}, rest.den * norm.num[0])
        if out * self != 1:
            raise ModularityError(f"inverse of {self!r} fails x * x^-1 = 1")
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        if k <= 1:  # x itself, not 1 * x: x^2 is one product
            return self if k else CycNum.one().promoted(self.n)
        half = self ** (k // 2)
        return half * half * self if k % 2 else half * half

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.n == other.n:
            return self.num == other.num and self.den == other.den
        a, b = self._common(other)
        return a.num == b.num and a.den == b.den

    def __repr__(self):
        if self.is_zero():
            return "CycNum(0)"
        terms = " + ".join(
            f"{c}*z{self.n}^{e}" if e else str(c) for e, c in sorted(self.num.items())
        )
        tail = f")/{self.den}" if self.den != 1 else ")"
        return f"CycNum(({terms}{tail}"

    # -- roots of unity ----------------------------------------------------

    def as_root_of_unity(self) -> "RootOfUnity | None":
        """Identify this value as e^{2 pi i k/n} if it is one, else None:
        zeta_n^k has small canonical coefficients, so its float phase is off
        by about 1e-12, far below 2 pi/n, and the rounded k is the only one."""
        if (self * self.conj()) != 1:
            return None
        k = round(cmath.phase(complex(self)) * self.n / (2 * math.pi)) % self.n
        return RootOfUnity(k, self.n) if self == zeta(self.n, k) else None

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """``{"conductor": n, "den": d, "terms": [[e, c], ...]}``: the
        nonzero numerator coefficients by ascending exponent over the
        canonical denominator, so the value is sum(c * zeta_n^e) / d."""
        num = self.num
        return {
            "conductor": self.n,
            "den": self.den,
            "terms": [[e, num[e]] for e in sorted(num)],
        }

    @staticmethod
    def from_json(obj) -> "CycNum":
        """Read the sparse form ``to_json`` writes.  Malformed input, the
        older dense ``coeffs`` form included, raises ``InvalidArgumentError``
        and a conductor above ``MAX_CONDUCTOR`` ``CapacityError``, both
        before any arithmetic."""
        if not isinstance(obj, dict):
            raise InvalidArgumentError(
                f"cyclotomic entry must be an object, got {type(obj).__name__}"
            )
        n = _json_int(obj.get("conductor"), "conductor")
        if n < 1:
            raise InvalidArgumentError(f"conductor must be >= 1, got {n}")
        check_conductor(n)
        if "terms" not in obj:
            raise InvalidArgumentError(
                "cyclotomic entry needs 'terms' (the dense 'coeffs' form is no longer read)"
            )
        deg = euler_phi(n)
        den = _json_int(obj.get("den"), "den")
        if den < 1:
            raise InvalidArgumentError(f"den must be >= 1, got {den}")
        terms = obj["terms"]
        if not isinstance(terms, list):
            raise InvalidArgumentError("terms must be a list of [exponent, coefficient]")
        num: dict[int, int] = {}
        for term in terms:
            if not (isinstance(term, list) and len(term) == 2):
                raise InvalidArgumentError(
                    f"term must be [exponent, coefficient], got {term!r}"
                )
            e = _json_int(term[0], "term exponent")
            if not 0 <= e < deg:
                raise InvalidArgumentError(
                    f"term exponent {e} outside [0, {deg}) at conductor {n}"
                )
            if e in num:
                raise InvalidArgumentError(f"term exponent {e} repeated")
            num[e] = _json_int(term[1], "term coefficient")
        return CycNum(n, num, den)


def _real_sign(x: CycNum) -> int:
    """The sign of the real part of x, proven from its float view: complex(x)
    sums k terms c zeta^e / den, each off by under 2^-47 |c| / den, each sum
    by under 2^-52 sum|c| / den, so it lies within (k + 1) 2^-47 sum|c| / den
    of x.  A view within 2^7 times that raises ``ModularityError``."""
    if x.is_zero():
        return 0
    view = complex(x).real
    bound = math.ldexp((len(x.num) + 1) * sum(map(abs, x.num.values())) / x.den, -40)
    if abs(view) <= bound:
        raise ModularityError(
            f"the sign of a value within {bound:.3g} of 0 is beyond its float view"
        )
    return 1 if view > 0 else -1


def check_conductor(n: int) -> None:
    """Refuse a conductor read from outside input above ``MAX_CONDUCTOR``."""
    if n > MAX_CONDUCTOR:
        raise CapacityError(
            f"conductor {n} exceeds {MAX_CONDUCTOR}, the limit for input data"
        )


def _json_int(x, what: str) -> int:
    # bool is an int subclass, but true/false is no JSON integer
    if type(x) is not int:
        raise InvalidArgumentError(f"{what} must be an integer, got {x!r}")
    return x


def zeta(n: int, k: int = 1) -> CycNum:
    """The root of unity zeta_n^k = e^{2 pi i k/n}, in canonical form."""
    if n < 1:
        raise InvalidArgumentError(f"conductor must be >= 1, got {n}")
    return zeta_sum(n, ((k, 1),))


def zeta_sum(n: int, weights) -> CycNum:
    """sum_e w_e zeta_n^e for integer pairs (e, w_e), exponents taken mod n."""
    return CycNum(n, _reduce_terms(n, ((e % n, w) for e, w in weights)))


@lru_cache(maxsize=None)
def _sqrt_prime(p: int) -> CycNum:
    """sqrt(p) for a prime p via the quadratic Gauss sum, at its natural
    conductor: p for p = 1 mod 4, else 4p (8 for p = 2)."""
    if p == 2:
        return zeta(8, 1) + zeta(8, 7)
    g = zeta_sum(p, ((x * x, 1) for x in range(p)))
    if p % 4 == 1:
        return g
    return g.promoted(4 * p) * zeta(4, 3)  # the sum equals i*sqrt(p)


def sqrt_int_conductor(n: int) -> int:
    """The conductor this package uses for sqrt(n): the lcm over the odd
    primes p dividing the squarefree part of p (p = 1 mod 4) or 4p, and 8
    when the squarefree part is even."""
    out = 1
    for p, e in factorize(n).items():
        if e % 2 == 0:
            continue
        piece = 8 if p == 2 else (p if p % 4 == 1 else 4 * p)
        out = out * piece // math.gcd(out, piece)
    return out


@lru_cache(maxsize=None)
def sqrt_int(n: int) -> CycNum:
    """The positive square root of n >= 1 at its natural conductor
    (``sqrt_int_conductor``), as a product of Gauss sums."""
    if n < 1:
        raise InvalidArgumentError(f"sqrt_int needs n >= 1, got {n}")
    square_part = 1
    root = CycNum.one()
    for p, e in factorize(n).items():
        square_part *= p ** (e // 2)
        if e % 2:
            root = root * _sqrt_prime(p)
    root = (root * square_part).promoted(sqrt_int_conductor(n))
    if root * root != n:
        raise ModularityError(f"Gauss-sum square root of {n} does not square to {n}")
    return root


@total_ordering
@dataclass(frozen=True)
class RootOfUnity:
    """The unit complex number e^{2 pi i k/n}, stored as the reduced integer
    pair 0 <= k < n, gcd(k, n) = 1, so equality, hashing and order are those
    of the exponent k/n in [0, 1) (``exponent``, a ``Fraction``).
    ``RootOfUnity(r)`` with a rational r is e^{2 pi i r}."""

    k: int
    n: int = 1

    def __post_init__(self):
        k, n = self.k, self.n
        if type(k) is not int or type(n) is not int or n < 1:
            f = Fraction(k) / n
            k, n = f.numerator, f.denominator
        k %= n
        g = math.gcd(k, n)
        object.__setattr__(self, "k", k // g)
        object.__setattr__(self, "n", n // g)

    @property
    def exponent(self) -> Fraction:
        return Fraction(self.k, self.n)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(0)

    def __lt__(self, other: "RootOfUnity") -> bool:
        if not isinstance(other, RootOfUnity):
            return NotImplemented
        return self.k * other.n < other.k * self.n

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.n, other.n)
        return RootOfUnity(self.k * (n // self.n) + other.k * (n // other.n), n)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.k * k, self.n)

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(-self.k, self.n)

    conj = inverse  # unit modulus

    def sqrt(self) -> "RootOfUnity":
        """Principal square root: e^{2 pi i r} -> e^{pi i r} for r in [0, 1)."""
        return RootOfUnity(self.k, 2 * self.n)

    def is_one(self) -> bool:
        return self.k == 0

    def to_cyc(self, conductor: int | None = None) -> CycNum:
        z = zeta(self.n, self.k)
        return z.promoted(conductor) if conductor else z

    def to_complex(self) -> complex:
        return cmath.exp(2j * cmath.pi * (self.k / self.n))

    def __repr__(self):
        return f"RootOfUnity({self.exponent})"
