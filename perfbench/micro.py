"""Microbenchmarks of ``tycat.cyclo`` arithmetic on seeded inputs.

    python3 perfbench/micro.py SEED

Times CycNum multiply at conductors 48 and 240, and add, conj, inverse and
RootOfUnity.to_cyc at 240, plus RootOfUnity multiply; prints microseconds
per operation (median of several repeats) as one JSON object.  Every timed
result is cross-checked exactly (for example ``x * x.inverse() == 1``) and
against complex arithmetic; a failed cross-check exits 1.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction

from tycat.cyclo import CycNum, RootOfUnity, euler_phi

REPEATS = 5
BATCH = 200
INVERSE_BATCH = 8  # a generic inverse at conductor 240 takes about a second


def rand_cyc(rng: random.Random, n: int, terms: int = 8) -> CycNum:
    deg = euler_phi(n)
    num = {e: rng.randint(-9, 9) for e in rng.sample(range(deg), terms)}
    num[rng.randrange(deg)] = rng.randint(1, 9)  # never zero
    return CycNum(n, {e: c for e, c in num.items() if c}, rng.randint(1, 6))


def _poly_mod(a: list[int], m: list[int]) -> list[int]:
    """a mod m over Z for monic m (coefficient lists, lowest degree first)."""
    a = list(a)
    for i in range(len(a) - 1, len(m) - 2, -1):
        c = a[i]
        if c:
            for j, mj in enumerate(m):
                a[i - len(m) + 1 + j] -= c * mj
    return a[: len(m) - 1]


def cyclotomic(n: int) -> list[int]:
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q, rem, m = [0] * (len(poly) - len(cyclotomic(d)) + 1), list(poly), cyclotomic(d)
            for i in range(len(q) - 1, -1, -1):
                q[i] = rem[i + len(m) - 1]
                for j, mj in enumerate(m):
                    rem[i + j] -= q[i] * mj
            poly = q
    return poly


def reference_product(x: CycNum, y: CycNum, phi: list[int]) -> CycNum:
    """x * y by schoolbook multiplication and reduction mod Phi_n, written
    independently of tycat.cyclo."""
    acc = [0] * (2 * len(phi))
    for e1, c1 in x.num.items():
        for e2, c2 in y.num.items():
            acc[e1 + e2] += c1 * c2
    red = _poly_mod(acc, phi)
    return CycNum(x.n, {e: c for e, c in enumerate(red) if c}, x.den * y.den)


def timed(fn, args) -> tuple[float, list]:
    """Median over REPEATS of the per-call time of ``fn`` over ``args``, in us."""
    per_call = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = [fn(*a) for a in args]
        per_call.append((time.perf_counter() - t0) / len(args) * 1e6)
    return statistics.median(per_call), out


def close(a: complex, b: complex) -> bool:
    return abs(a - b) <= 1e-6 * max(1.0, abs(b))


def main() -> int:
    rng = random.Random(int(sys.argv[1]))
    results, bad = {}, []
    one = CycNum.one()

    for n in (48, 240):
        pairs = [(rand_cyc(rng, n), rand_cyc(rng, n)) for _ in range(BATCH)]
        us, out = timed(lambda x, y: x * y, pairs)
        results[f"cyclo.mul_us.{n}"] = us
        phi = cyclotomic(n)
        bad += [f"mul at {n}"] * sum(
            z != reference_product(x, y, phi) or not close(complex(z), complex(x) * complex(y))
            for (x, y), z in zip(pairs, out))

    xs = [rand_cyc(rng, 240) for _ in range(BATCH)]
    pairs = list(zip(xs, xs[1:] + xs[:1]))
    us, out = timed(lambda x, y: x + y, pairs)
    results["cyclo.add_us.240"] = us
    bad += ["add"] * sum(z - y != x for (x, y), z in zip(pairs, out))

    us, out = timed(lambda x: x.conj(), [(x,) for x in xs])
    results["cyclo.conj_us.240"] = us
    bad += ["conj"] * sum(z.conj() != x or not close(complex(z), complex(x).conjugate())
                          for x, z in zip(xs, out))

    units = [rand_cyc(rng, 240, terms=1) for _ in range(INVERSE_BATCH)]
    us, out = timed(lambda x: x.inverse(), [(x,) for x in units])
    results["cyclo.inverse_us.240"] = us
    bad += ["inverse"] * sum(x * z != one for x, z in zip(units, out))

    roots = [RootOfUnity(Fraction(rng.randrange(240), 240)) for _ in range(BATCH)]
    us, out = timed(lambda r: r.to_cyc(240), [(r,) for r in roots])
    results["cyclo.to_cyc_us.240"] = us
    bad += ["to_cyc"] * sum(z * r.inverse().to_cyc(240) != one
                            or not close(complex(z), r.to_complex())
                            for r, z in zip(roots, out))

    rpairs = list(zip(roots, roots[1:] + roots[:1]))
    us, out = timed(lambda a, b: a * b, rpairs)
    results["cyclo.rou_mul_us"] = us
    bad += ["rou_mul"] * sum((z.exponent - a.exponent - b.exponent) % 1 != 0
                             for (a, b), z in zip(rpairs, out))

    if bad:
        print(f"cross-check failed: {sorted(set(bad))}", file=sys.stderr)
        return 1
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
