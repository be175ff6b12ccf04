"""The reference child: fixed work that does not import tycat.

``run.py`` times it every few seconds of a run to follow the shared host's
speed.  Its mix resembles a small tycat op: interpreter start-up and the
numpy import, an int64 ``einsum``, a JSON round trip of fraction strings,
and ``Fraction`` arithmetic.  It prints a checksum of its results.
"""

import json
from fractions import Fraction

import numpy as np

a = np.arange(24 ** 4, dtype=np.int64).reshape(24, 24, 24, 24) % 97
b = np.einsum("ijkl,lm->ijkm", a, a[0, 0]) % 97
rows = [[str(Fraction(i, j + 1)) for i in range(40)] for j in range(300)]
back = json.loads(json.dumps(rows))
f = Fraction(0)
for i in range(1, 6000):
    f += Fraction(i % 7, i % 97 + 1)
print(int(b.sum()) % 1000, len(back), f.denominator % 1000)
