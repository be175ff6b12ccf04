import cmath
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclo_oracle import reduction_table
from tycat import cyclo
from tycat.cyclo import CycNum, RootOfUnity, euler_phi, sqrt_int, zeta
from tycat.errors import CapacityError, InvalidArgumentError
from tycat.groups import FinAbGroup
from tycat.modcheck import MatProver
from tycat.moddata import _md_conductor, _pointed_conductor


def test_zeta_basics():
    assert zeta(4, 2) == -1
    assert zeta(3, 1) + zeta(3, 2) == -1
    assert zeta(12, 3) == zeta(4, 1)
    assert zeta(1, 0) == 1
    with pytest.raises(InvalidArgumentError):
        zeta(0, 1)


def test_conj_and_products():
    assert zeta(3).conj() == zeta(3, 2)
    assert zeta(5) * zeta(5, 4) == 1
    x = 1 + zeta(8) + zeta(8, -1)
    assert x.conj() == x


def test_sqrt_root_of_unity():
    assert RootOfUnity(1, 3).sqrt() == RootOfUnity(1, 6)
    assert RootOfUnity.one().sqrt() == RootOfUnity.one()
    assert RootOfUnity(1, 4).sqrt() == RootOfUnity(1, 8)


def test_sqrt_int_examples():
    assert sqrt_int(1) == 1
    assert sqrt_int(9) == 3
    x = sqrt_int(3)
    assert x * x == 3
    assert abs(complex(x) - 1.7320508) < 1e-6
    assert x.n == 12


def test_sqrt_int_squares_exactly():
    for n in range(1, 201):
        r = sqrt_int(n)
        assert r * r == n
        assert complex(r).real > 0
        assert abs(complex(r).imag) < 1e-9


def test_to_complex():
    assert complex(CycNum.zero()) == 0
    assert abs(complex(zeta(4)) - 1j) < 1e-12
    assert abs(complex(sqrt_int(5)) - 2.2360679) < 1e-6


def test_field_axioms_random():
    rng = random.Random(7)

    def rand_val(n):
        deg = max(1, len(zeta(n).num))
        return CycNum(
            n,
            {e: rng.randint(-4, 4) for e in rng.sample(range(deg), min(3, deg))},
            rng.randint(1, 5),
        )

    for n in [1, 2, 3, 8, 12, 45, 120]:
        for _ in range(8):
            a, b, c = rand_val(n), rand_val(n), rand_val(n)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a * b).conj() == a.conj() * b.conj()
            assert a.conj().conj() == a
            if not a.is_zero():
                assert a * a.inverse() == 1


def _rand_val(rng, n, terms=3):
    deg = euler_phi(n)
    num = {e: rng.randint(-9, 9) for e in rng.sample(range(deg), min(terms, deg))}
    num[rng.randrange(deg)] = rng.randint(1, 9)  # never zero
    return CycNum(n, num, rng.randint(1, 6))


def _units(n):
    return [a for a in range(n) if math.gcd(a, n) == 1]


@pytest.mark.parametrize("n", [8, 12, 45, 120])
def test_galois_maps_compose_and_minus_one_is_conj(n):
    rng = random.Random(n)
    units = _units(n)
    for _ in range(6):
        x = _rand_val(rng, n)
        a, b = rng.choice(units), rng.choice(units)
        assert x.galois(a).galois(b) == x.galois(a * b % n)
        assert x.galois(-1) == x.galois(n - 1) == x.conj()
        assert x.galois(1) == x
        assert x.galois(a).n == n
    assert zeta(n).galois(units[-1]) == zeta(n, units[-1])


@pytest.mark.parametrize("n", [1, 8, 12, 45, 120])
def test_galois_maps_preserve_sums_and_products(n):
    rng = random.Random(n)
    units = _units(n)
    for _ in range(8):
        x, y = _rand_val(rng, n), _rand_val(rng, n)
        a = rng.choice(units)
        assert (x + y).galois(a) == x.galois(a) + y.galois(a)
        assert (x * y).galois(a) == x.galois(a) * y.galois(a)


@pytest.mark.parametrize("n, a", [(12, 2), (12, 3), (12, 0), (45, 15), (8, -2), (2, 4)])
def test_galois_refuses_an_exponent_sharing_a_factor_with_n(n, a):
    with pytest.raises(InvalidArgumentError, match=f"needs gcd\\({a}, {n}\\) = 1"):
        zeta(n).galois(a)


def _check_inverse(x):
    y = x.inverse()
    assert y.n == x.n and x * y == 1
    assert abs(complex(y) * complex(x) - 1) < 1e-9


def test_inverse_of_rationals_and_roots_of_unity():
    for q in (Fraction(-3, 7), Fraction(5), Fraction(1, 12)):
        for n in (1, 12, 2520):
            x = CycNum.from_fraction(q).promoted(n)
            _check_inverse(x)
            assert x.inverse() == 1 / q
    for n in (5, 12, 240):
        for k in range(n):
            assert zeta(n, k).inverse() == zeta(n, -k)


def test_inverse_of_square_roots():
    for n in (2, 3, 5, 12, 15, 45):
        r = sqrt_int(n)
        _check_inverse(r)
        assert r.inverse() == r / n
    x = (2 * sqrt_int(15)).promoted(2520)
    _check_inverse(x)
    assert x.inverse() == sqrt_int(15) / 30


@pytest.mark.parametrize("n", [120, 240])
def test_inverse_of_generic_elements(n):
    rng = random.Random(n)
    for terms in (2, 8):
        x = _rand_val(rng, n, terms)
        _check_inverse(x)
        assert x.inverse().inverse() == x


def test_inverse_of_zero_raises():
    for n in (1, 12, 240):
        with pytest.raises(ZeroDivisionError):
            CycNum.zero().promoted(n).inverse()


def test_division():
    a = 1 + zeta(5)
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        a / CycNum.zero()
    assert (zeta(7) ** -2) * zeta(7, 2) == 1


def test_power_takes_its_first_factor_as_it_is(monkeypatch):
    x = 1 + zeta(7) + 2 * zeta(7, 3)
    x2, x3, x5 = x * x, x * x * x, x * x * x * x * x
    calls = []
    mul = CycNum.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(CycNum, "__mul__", counted)
    assert x ** 2 == x2 and len(calls) == 1
    calls.clear()
    assert x ** 5 == x5 and len(calls) == 3  # x^2, x^4, x^4 x
    calls.clear()
    zero_power = x ** 0
    assert zero_power == 1 and zero_power.n == 7 and calls == []
    assert x ** 1 == x and calls == []
    assert mul(x ** -3, x3) == 1


def test_promotion_roundtrip():
    a = zeta(6) + 2
    b = a.promoted(36)
    assert a == b
    assert b.promoted(72) == a
    with pytest.raises(InvalidArgumentError):
        a.promoted(8)


def test_rational_detection():
    assert (zeta(3) + zeta(3, 2)).is_rational()
    assert (zeta(3) + zeta(3, 2)).rational_value() == -1
    assert not zeta(3).is_rational()


def test_as_root_of_unity():
    assert zeta(7, 3).as_root_of_unity() == RootOfUnity(3, 7)
    assert (zeta(7, 3) * 2).as_root_of_unity() is None
    assert (zeta(8) * zeta(8, 7)).as_root_of_unity() == RootOfUnity.one()


def test_unit_modulus_non_root_is_not_a_root_of_unity():
    x = CycNum(4, {0: 3, 1: 4}, 5)  # (3 + 4i)/5
    assert x * x.conj() == 1
    assert x.as_root_of_unity() is None


@pytest.mark.parametrize("n", [240, 528])
def test_every_root_of_unity_round_trips(n):
    for k in range(n):
        assert zeta(n, k).as_root_of_unity() == RootOfUnity(k, n), k


def test_root_of_unity_algebra():
    r = RootOfUnity(2, 3)
    assert r * r == RootOfUnity(1, 3)
    assert r**3 == RootOfUnity.one()
    assert r.inverse() == RootOfUnity(1, 3)
    assert r.to_cyc() == zeta(3, 2)
    assert r.n == 3
    assert abs(r.to_complex() - cmath.exp(4j * cmath.pi / 3)) < 1e-12


def test_json_roundtrip():
    vals = [CycNum.zero(), CycNum.from_fraction(Fraction(-3, 7)), zeta(12, 5) / 3 + 1,
            sqrt_int(45)]
    for v in vals:
        blob = v.to_json()
        w = CycNum.from_json(blob)
        assert w.n == v.n and w.num == v.num and w.den == v.den
        assert w.to_json() == blob


def test_json_is_sparse_over_the_canonical_denominator():
    v = (4 * zeta(12, 3) + 2 * zeta(12, 1)) / 6
    assert v.to_json() == {"conductor": 12, "den": 3, "terms": [[1, 1], [3, 2]]}
    assert CycNum.zero().to_json() == {"conductor": 1, "den": 1, "terms": []}


@st.composite
def cycnums(draw):
    n = draw(st.integers(1, 240))
    exps = st.integers(0, euler_phi(n) - 1)
    num = draw(st.dictionaries(exps, st.integers(-(10**30), 10**30), max_size=12))
    den = draw(st.integers(1, 10**12))
    return CycNum(n, num, den)


@settings(max_examples=200, deadline=None)
@given(cycnums())
def test_json_roundtrip_property(v):
    blob = v.to_json()
    w = CycNum.from_json(blob)
    assert (w.n, w.num, w.den) == (v.n, v.num, v.den)
    assert w.to_json() == blob
    assert [e for e, _ in blob["terms"]] == sorted(v.num)


@settings(max_examples=100, deadline=None)
@given(cycnums())
def test_dense_json_is_refused(v):
    # the dense form earlier versions wrote: the coefficient p/q of zeta^e
    # for every e < phi(n)
    coeffs = [[v.num.get(e, 0), v.den] for e in range(euler_phi(v.n))]
    with pytest.raises(InvalidArgumentError, match=r"^cyclotomic entry needs 'terms' \(the dense"):
        CycNum.from_json({"conductor": v.n, "coeffs": coeffs})


def _malformed(blob: dict, draw) -> dict:
    deg = euler_phi(blob["conductor"])
    terms = [list(t) for t in blob["terms"]]
    kind = draw(st.sampled_from(
        ["low", "high", "repeat", "den0", "den_neg", "float", "str", "bool",
         "short", "not_list", "no_den", "no_conductor"]
    ))
    bad = dict(blob, terms=terms)
    if kind == "low":
        terms.append([draw(st.integers(max_value=-1)), 1])
    elif kind == "high":
        terms.append([draw(st.integers(deg, deg + 10**6)), 1])
    elif kind == "repeat":
        e = draw(st.integers(0, deg - 1))
        terms.extend([[e, 1], [e, 2]])
    elif kind == "den0":
        bad["den"] = 0
    elif kind == "den_neg":
        bad["den"] = draw(st.integers(max_value=-1))
    elif kind == "float":
        terms.append([draw(st.integers(0, deg - 1)), 0.5])
    elif kind == "str":
        terms.append(["0", 1])
    elif kind == "bool":
        terms.append([0, True])
    elif kind == "short":
        terms.append([0])
    elif kind == "not_list":
        bad["terms"] = {"0": 1}
    elif kind == "no_den":
        del bad["den"]
    else:
        del bad["conductor"]
    return bad


@settings(max_examples=200, deadline=None)
@given(cycnums(), st.data())
def test_malformed_sparse_json_is_invalid_argument(v, data):
    bad = _malformed(v.to_json(), data.draw)
    try:
        CycNum.from_json(bad)
    except InvalidArgumentError:
        return
    pytest.fail(f"accepted malformed entry {bad!r}")


@pytest.mark.parametrize("bad", [
    None, [], "1/2", {"conductor": 0, "den": 1, "terms": []},
    {"conductor": 3, "coeffs": [[1, 0], [0, 1]]},
    {"conductor": 3, "coeffs": [[1, 1]]},
    {"conductor": 3, "coeffs": [[1, 1], "x"]},
    {"conductor": 3},
])
def test_malformed_json_is_invalid_argument(bad):
    with pytest.raises(InvalidArgumentError):
        CycNum.from_json(bad)


def test_conductor_limit_is_checked_before_factoring():
    # factoring this prime by trial division takes more than 10 s
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=f"exceeds {cyclo.MAX_CONDUCTOR},"):
        CycNum.from_json({"conductor": 10**16 + 61, "den": 1, "terms": []})
    assert time.perf_counter() - start < 1
    top = {"conductor": cyclo.MAX_CONDUCTOR, "den": 1, "terms": [[0, 1]]}
    assert CycNum.from_json(top) == CycNum.one()


def test_inverse_walks_the_orbit_of_its_argument(monkeypatch):
    # 2 sqrt(15) at conductor 2520 has 2 distinct conjugates among the 576
    # sigma_a: each generator is applied once to each of them
    x = (2 * sqrt_int(15)).promoted(2520)
    calls = []
    galois = CycNum.galois
    monkeypatch.setattr(CycNum, "galois", lambda self, a: calls.append(a) or galois(self, a))
    assert x.inverse() * x == 1
    assert 0 < len(calls) <= 4 * len(cyclo.galois_generators(2520))


def _md_conductors_to_45() -> set[int]:
    """The conductors of the modular data built on groups of order n <= 45:
    each depends on n and the exponent e, any rad(n) | e | n, which
    Z_e x prod Z_p over the primes of n / e realises."""
    out = set()
    for n in range(1, 46):
        primes = cyclo.factorize(n)
        for e in range(1, n + 1):
            if n % e or any(e % p for p in primes):
                continue
            rest = [p for p, k in cyclo.factorize(n // e).items() for _ in range(k)]
            group = FinAbGroup.of(e, *rest)
            out.add(_pointed_conductor(group))
            if n % 2:
                out.add(_md_conductor(group))
    return out


def test_reduction_table_matches_the_divisor_product_oracle():
    # the tables scaled from each radical equal the full shift register on
    # Phi_n from every divisor, so the bounds read off them are unchanged
    conductors = _md_conductors_to_45()
    assert {144, 300, 528, 720, 2064} <= conductors
    for n in sorted({*range(1, 257), *conductors, 2520}):
        want = reduction_table(n)
        assert cyclo._reduction_table(n) == want, n
        growth = max(sum(abs(c) for c in row.values()) for row in want)
        assert MatProver(n).red_growth == growth, n
