"""The dense JSON encoding of exact entries that earlier versions wrote and
readers still accept: ``{"conductor": n, "coeffs": [[p, q], ...],
"approx": [re, im]}`` with the reduced coefficient p/q of zeta_n^e at
position e, for every e < phi(n)."""

from fractions import Fraction

from tycat.cyclo import CycNum, euler_phi


def dense_entry(v: CycNum) -> dict:
    coeffs = []
    for e in range(euler_phi(v.n)):
        f = Fraction(v.num.get(e, 0), v.den)
        coeffs.append([f.numerator, f.denominator])
    z = complex(v)
    return {"conductor": v.n, "coeffs": coeffs, "approx": [z.real, z.imag]}


def dense_md(blob: dict) -> dict:
    """A copy of a modular-data JSON with every S and T entry dense."""
    def conv(x):
        return dense_entry(CycNum.from_json(x))

    return dict(blob, S=[[conv(x) for x in row] for row in blob["S"]],
                T=[conv(x) for x in blob["T"]])
