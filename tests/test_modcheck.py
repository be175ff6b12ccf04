"""Cross-checks of the modular-evaluation prover against direct exact
arithmetic, plus negative controls."""

import importlib
import inspect
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import tycat
from tycat import modcheck
from tycat.cyclo import CycNum, RootOfUnity, euler_phi, zeta, zeta_sum
from tycat.errors import CapacityError, ModularityError
from tycat.groups import FinAbGroup
from tycat.modcheck import MatProver, distinct_values, galois_generators
from tycat.moddata import (
    ModularData,
    md_from_json,
    md_to_json,
    mp_md,
    pointed_md,
    ty_center_md,
)
from tycat.quadforms import (
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    metric_group,
)
from fusion_oracle import channels_of, dense
from galois_oracle import all_points_galois, all_points_product
from verlinde_oracle import _proven, all_points_verlinde, float_guess

Z3 = FinAbGroup.of(3)
Q_A2 = QuadForm.from_callable(
    Z3, lambda g: RootOfUnity(Fraction(g.coords[0] ** 2, 3))
)


def mat_mult_direct(a, b):
    r = len(a)
    out = []
    for i in range(r):
        row = []
        for j in range(r):
            tot = CycNum.zero()
            for k in range(r):
                tot = tot + a[i][k] * b[k][j]
            row.append(tot)
        out.append(row)
    return out


def test_prover_agrees_with_direct_products():
    md = mp_md(Z3, bichar_from_qform(Q_A2), 1)
    s = [list(row) for row in md.S]
    # direct exact S.S must be the charge-conjugation permutation
    ss = mat_mult_direct(s, s)
    cperm = md.charge_conjugation()
    for i in range(md.rank):
        for j in range(md.rank):
            assert ss[i][j] == (1 if cperm[i] == j else 0)
    # direct S conj(S) = identity
    sc = mat_mult_direct(s, [[x.conj() for x in row] for row in s])
    for i in range(md.rank):
        for j in range(md.rank):
            assert sc[i][j] == (1 if i == j else 0)
    # direct T S T S T = S, and hence (S T)^3 = S^2
    t = [zeta(md.conductor, k) for k in md.t_exps]
    tstst = [
        [
            sum(
                (t[i] * s[i][k] * t[k] * s[k][j] * t[j] for k in range(md.rank)),
                CycNum.zero(),
            )
            for j in range(md.rank)
        ]
        for i in range(md.rank)
    ]
    for i in range(md.rank):
        for j in range(md.rank):
            assert tstst[i][j] == s[i][j]


def test_prover_explicit_st_cubed_small():
    # exact oracle for the identity validate() derives: (S T)^3 = C
    for md in (pointed_md(metric_group(Q_A2)), mp_md(Z3, bichar_from_qform(Q_A2), 1)):
        t = [zeta(md.conductor, k) for k in md.t_exps]
        w = [[x * t[j] for j, x in enumerate(row)] for row in md.S]
        w3 = mat_mult_direct(mat_mult_direct(w, w), w)
        cperm = md.charge_conjugation()
        for i in range(md.rank):
            for j in range(md.rank):
                assert w3[i][j] == (1 if cperm[i] == j else 0)


def test_prover_rejects_corruption():
    # the all-points oracle refuses S^2 = C; the one-point proof refuses an
    # S without a Galois proof, which refuses an S that is not symmetric
    md = mp_md(Z3, bichar_from_qform(Q_A2), 1)
    prover = MatProver(md.conductor)
    rows = [list(row) for row in md.S]
    rows[2][3] = rows[2][3] + 1
    s = prover.pack(*distinct_values(rows))
    with pytest.raises(ModularityError, match=r"S\^2 = C identity fails"):
        all_points_product(prover, s, md.charge_conjugation())
    with pytest.raises(ModularityError, match=r"not proven Galois-symmetric under zeta -> "
                                              r"zeta\^\d+, which the S\^2 = C proof needs"):
        prover.verify_product(s, md.charge_conjugation())
    with pytest.raises(ModularityError, match=r"not symmetric at \(3, 2\)"):
        prover.verify_galois(s, galois_generators(md.conductor))


@pytest.mark.parametrize("build", [
    lambda: pointed_md(metric_group(Q_A2)),
    lambda: mp_md(Z3, bichar_from_qform(Q_A2), 1),
    lambda: _ty5(),
], ids=["pointed-Z3", "mp-Z3", "ty-Z5"])
def test_prover_product_random_negative_control(build):
    # the all-points oracle refuses each change as S^2 = C; the prover
    # refuses it too, in the Galois step or at one point
    md = build()
    cperm = md.charge_conjugation()
    prover = MatProver(md.conductor)
    prover.verify_product(_proven(prover, md.S), cperm)
    all_points_product(prover, prover.pack(md.values, md.index), cperm)
    rng = random.Random(23)
    for _ in range(3):
        i, j = rng.sample(range(md.rank), 2)
        delta = zeta(md.conductor, rng.randrange(md.conductor)) * Fraction(
            rng.choice([-1, 1]), rng.randrange(2, 1000)
        )
        rows = [list(row) for row in md.S]
        rows[i][j] = rows[i][j] + delta
        rows[j][i] = rows[j][i] + delta
        with pytest.raises(ModularityError, match=r"S\^2 = C identity fails"):
            all_points_product(prover, prover.pack(*distinct_values(rows)), cperm)
        with pytest.raises(ModularityError):
            prover.verify_product(_proven(prover, rows), cperm)


def test_verlinde_rejects_wrong_tensor():
    md = mp_md(Z3, bichar_from_qform(Q_A2), 1)
    ring = md.fusion_ring()
    tensor = dense(ring)
    tensor[2, 2, 1] += 1
    tensor[2, 2, 0] -= 1
    tensor = np.maximum(tensor, 0)
    tensor[1, 2, 2] = tensor[2, 1, 2]  # keep it symmetric
    prover = MatProver(md.conductor)
    with pytest.raises(ModularityError):
        prover.verify_verlinde(_proven(prover, md.S), channels_of(tensor))


def test_verlinde_refuses_an_asymmetric_tensor():
    # N_12^2 raised alone: (1, 2, 2) and (2, 1, 2) differ before any prime is tried
    md = mp_md(Z3, bichar_from_qform(Q_A2), 1)
    tensor = dense(md.fusion_ring())
    tensor[1, 2, 2] += 1
    prover = MatProver(md.conductor)
    with pytest.raises(ModularityError, match="^fusion coefficients are not symmetric$"):
        prover.verify_verlinde(_proven(prover, md.S), channels_of(tensor))


def test_verlinde_guess_rejects_negative_coefficients():
    # the proof fixes N_ij^k but not its sign; negating row 0 of S negates
    # the guess N_ij^k for i, j, k != 0, and 1 + 1 = 2 in Z3; the guess is
    # refused before the proof runs
    md = pointed_md(metric_group(Q_A2))
    prover = MatProver(md.conductor)
    rows = [[-x for x in md.S[0]]] + [list(row) for row in md.S[1:]]
    with pytest.raises(ModularityError, match=r"at \(1, 1, 2\) is not a nonnegative"):
        md._verlinde_tensor(prover, prover.pack(*distinct_values(rows)))


def _corrupted(md, i, j, delta):
    rows = [list(row) for row in md.S]
    rows[i][j] = rows[i][j] + delta
    return rows


def test_validate_rejects_each_permutation_identity():
    md = pointed_md(metric_group(Q_A2))

    def rebuilt(rows=md.S, thetas=md.thetas):
        return ModularData(md.labels, rows, thetas, md.c_top, md.conductor)

    with pytest.raises(ModularityError, match=r"not symmetric at \(2, 1\)"):
        rebuilt(_corrupted(md, 1, 2, Fraction(1, 3))).validate()
    # a diagonal change at 1 only breaks CSC = S (C swaps 1 and 2), which
    # follows from conj(S) = CS and C^2 = I: the Galois step refuses it
    with pytest.raises(ModularityError, match=r"not unitary \(conj\(S\) != CS\)"):
        rebuilt(_corrupted(md, 1, 1, Fraction(1, 10**7))).validate()
    thetas = list(md.thetas)
    thetas[2] = thetas[2] * RootOfUnity(Fraction(1, 3))
    with pytest.raises(ModularityError, match="CTC = T fails"):
        rebuilt(thetas=thetas).validate()
    # the same tiny real change at 1 and 2 keeps S symmetric and C-invariant
    # (and S^2 a permutation in floating point) but breaks unitarity
    rows = _corrupted(md, 1, 1, Fraction(1, 10**7))
    rows[2][2] = rows[2][2] + Fraction(1, 10**7)
    with pytest.raises(ModularityError, match=r"not unitary \(conj\(S\) != CS\)"):
        rebuilt(rows).validate()


def test_validate_rejects_each_product_identity(monkeypatch):
    md = pointed_md(metric_group(Q_A2))
    scaled = [[x * Fraction(10**8 + 1, 10**8) for x in row] for row in md.S]
    packs = []
    pack = MatProver.pack

    def counted(self, values, index):
        packs.append(len(index))
        return pack(self, values, index)

    monkeypatch.setattr(MatProver, "pack", counted)
    # a real scale keeps S symmetric, C-invariant and conj(S) = CS
    with pytest.raises(ModularityError, match=r"S\^2 = C identity fails"):
        ModularData(md.labels, scaled, md.thetas, md.c_top, md.conductor).validate()
    # a shifted central charge scales T by a constant, so CTC = T still holds
    with pytest.raises(ModularityError, match="TSTST = S identity fails"):
        ModularData(md.labels, md.S, md.thetas, md.c_top + 2, md.conductor).validate()
    packs.clear()
    ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor).validate()
    assert packs == [md.rank]  # only S: T enters as exponents, C is never packed


def test_pack_rejects_oversized_coefficient():
    prover = MatProver(3)
    big = CycNum(3, {0: 2**40})
    with pytest.raises(CapacityError, match="coefficients too large"):
        prover.pack(*distinct_values([[big]]))


def test_packed_coefficients_are_exact_at_the_cap():
    # pack keeps the integer coefficients as float64, which the evaluation
    # reads without a copy: at the cap each dot product stays below 2^53
    n = 48
    prover = MatProver(n)
    cap = (2**53 - 1) // (modcheck._PRIME_CAP * prover.phi)
    rng = random.Random(7)
    num = {e: rng.choice([-1, 1]) * (cap - rng.randrange(8)) for e in range(prover.phi)}
    x = CycNum(n, num)
    s = prover.pack(*distinct_values([[x]]))
    assert s["coeffs"].dtype == np.float64 and x.den == 1
    p = prover._primes(2)[0]
    w = modcheck._root_powers(p, n).astype(np.int64).tolist()
    want = [sum(c * w[j * e % n] for e, c in x.num.items()) % p for j in prover.points]
    assert prover._values(s, p)[:, 0].tolist() == want
    assert prover._values(s, p, [0]).tolist() == [want[:1]]


# -- S as a table of distinct values -----------------------------------------------


def test_equal_values_pack_to_one_index_whatever_their_objects():
    # equal values given as distinct objects, their terms in different
    # orders, are one value; symmetry reads the index alone
    x, y = CycNum(12, {0: 1, 1: 2}), CycNum(12, {1: 2, 0: 1})
    assert x is not y and list(x.num) != list(y.num) and x == y
    z = CycNum(12, {1: 2})
    prover = MatProver(12)
    s = prover.pack(*distinct_values([[x, z, z], [z, y, x], [z, x, y]]))
    assert s["index"].tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    assert s["coeffs"].shape == (2, prover.phi) and not s["index"].flags.writeable
    s["coeffs"] = None
    prover.verify_symmetric(s)
    s = prover.pack(*distinct_values([[x, z, z], [y, y, x], [z, x, y]]))
    s["coeffs"] = None
    with pytest.raises(ModularityError, match=r"not symmetric at \(1, 0\)"):
        prover.verify_symmetric(s)


def test_an_entry_at_a_divisor_conductor_is_refused_after_an_equal_value():
    # zeta_3 at conductor 12 and at 3 are equal, but the prover works at 12
    w = CycNum(3, {1: 1})
    with pytest.raises(ModularityError, match="matrix entry at a foreign conductor"):
        MatProver(12).pack(*distinct_values([[w.promoted(12), w], [w, w.promoted(12)]]))


def _distinct_values_per_entry(rows):
    """distinct_values keyed on every entry: the reference it must equal."""
    pos: dict[tuple, int] = {}
    index = np.array([[pos.setdefault(x.key_at(x.n), len(pos)) for x in row] for row in rows],
                     dtype=np.intp)
    flat = [x for row in rows for x in row]
    return [flat[k] for k in np.unique(index, return_index=True)[1]], index


def _ty9():
    z9 = FinAbGroup.of(9)
    return ty_center_md(z9, bichar_from_qform(classify_metric_groups(z9)[0].quad), 1)


def _equal_values_in_distinct_objects():
    # a 3 x 3 matrix with one object per entry, where equal values recur
    # with their terms in different orders, and one value at a divisor conductor
    x, z = (0, 1), (1, 2)
    return [
        [CycNum(12, dict([x, z])), CycNum(12, {1: 2}), CycNum(12, dict([z, x]))],
        [CycNum(12, {1: 2}), CycNum(3, {1: 1}), CycNum(12, {4: 1})],
        [CycNum(12, dict([z, x])), CycNum(12, {4: 1}), CycNum(12, {1: 2})],
    ]


@pytest.mark.parametrize("build", [
    lambda: _ty9().S,
    lambda: md_from_json(json.loads(json.dumps(md_to_json(_ty9())))).S,
    _equal_values_in_distinct_objects,
], ids=["ty9-built", "ty9-json", "equal-values-distinct-objects"])
def test_distinct_values_keys_each_object_once(monkeypatch, build):
    rows = build()
    want_values, want_index = _distinct_values_per_entry(rows)
    keyed = []
    key_at = CycNum.key_at
    monkeypatch.setattr(CycNum, "key_at", lambda self, m: keyed.append(id(self)) or key_at(self, m))
    values, index = modcheck.distinct_values(rows)
    assert [id(v) for v in values] == [id(v) for v in want_values]
    assert index.tolist() == want_index.tolist() and not index.flags.writeable
    assert sorted(keyed) == sorted({id(x) for row in rows for x in row})


def _ty11():
    z11 = FinAbGroup.of(11)
    return ty_center_md(z11, bichar_from_qform(classify_metric_groups(z11)[0].quad), 1)


def test_ty11_packs_its_distinct_values_and_evaluates_each_entry():
    md = _ty11()
    prover = MatProver(md.conductor)
    s = prover.pack(md.values, md.index)
    assert s["coeffs"].shape == (100, prover.phi) and s["index"].shape == (md.rank,) * 2
    p = prover._primes(2)[0]
    values = prover._values(s, p)
    assert values.shape == (prover.phi, 100)
    ev = values[:, s["index"]]
    # the oracle: each sampled entry evaluated on its own, mod p
    w = modcheck._root_powers(p, md.conductor).astype(np.int64).tolist()
    rng = random.Random(11)
    for t in (0, 1, prover.phi - 1):
        j = prover.points[t]
        for i, k in [(0, 0), (md.rank - 1, md.rank - 1)] + [
            (rng.randrange(md.rank), rng.randrange(md.rank)) for _ in range(200)
        ]:
            x = md.S[i][k]
            scale = s["den"] // x.den
            want = sum(c * scale * w[j * e % md.conductor] for e, c in x.num.items()) % p
            assert ev[t, i, k] == want, (t, i, k)
    assert (prover._values(s, p, [0]) == values[:1]).all()


def test_validate_memory_on_ty11_is_bounded():
    # S^2 = C and TSTST = S are proven one r x r point at a time
    md = _ty11()
    tracemalloc.start()
    try:  # construction is the proof
        ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20, f"validate() peaked at {peak / 2**20:.0f} MB"


def test_capacity_guard_survives_python_O():
    # asserts are stripped under -O; the guards must not be ones: the
    # prover's coefficient bound, the Smith normal form certificate
    # (checked here against a determinant that lies), a principal graph's
    # shape certificate, the CRT step of product_group, the rank bound
    # of rule tables and hypergroups and a builder's size check
    code = (
        "from tycat import intmat\n"
        "from tycat.cyclo import CycNum\n"
        "from tycat.errors import CapacityError, ModularityError\n"
        "from tycat.modcheck import MatProver, distinct_values\n"
        "try:\n"
        "    MatProver(3).pack(*distinct_values([[CycNum(3, {0: 2**40})]]))\n"
        "except CapacityError:\n"
        "    print('raised')\n"
        "intmat.det = lambda a: 2\n"
        "try:\n"
        "    intmat.smith_normal_form(((2, 1), (1, 2)))\n"
        "except ModularityError as exc:\n"
        "    print('raised', exc)\n"
        "from tycat.graphs import BipartiteGraph\n"
        "try:\n"
        "    BipartiteGraph('g', ('a',), ('b',), (('a', 'b'), ('a', 'b')), 'a')\n"
        "except ModularityError as exc:\n"
        "    print('raised', exc)\n"
        "from tycat.groups import _crt_pair\n"
        "try:\n"
        "    _crt_pair(0, 3, 1, 3)\n"
        "except ModularityError as exc:\n"
        "    print('raised', exc)\n"
        "from tycat.fusionrings import ty_hypergroup\n"
        "from tycat.groups import FinAbGroup\n"
        "try:\n"
        "    ty_hypergroup(FinAbGroup.of(256))\n"
        "except CapacityError as exc:\n"
        "    print('raised', exc)\n"
        "from tycat.moddata import ty_center_md\n"
        "from tycat.quadforms import bichar_from_qform, standard_qform\n"
        "group = FinAbGroup.of(201)\n"
        "try:\n"
        "    ty_center_md(group, bichar_from_qform(standard_qform(group)), 1)\n"
        "except CapacityError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised", "raised Smith normal form transform is not unimodular",
        "raised g has an unexpected multi-edge",
        "raised CRT moduli 3 and 3 are not coprime",
        "raised hypergroup of rank 257 exceeds 16777216 cells, "
        "the size limit for rule tables and hypergroups",
        "raised 20904 x 20904 entries of 1056 coefficients exceed 16777216 cells, "
        "the size limit for modular data",
    ]


def test_package_has_no_assert_statements():
    # guards must raise errors that survive python -O, which strips assert
    import ast
    from pathlib import Path

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(tycat.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


# -- the streamed Verlinde proof and the blocked products ----------------------

Z5 = FinAbGroup.of(5)


def _ty5():
    return ty_center_md(Z5, bichar_from_qform(classify_metric_groups(Z5)[0].quad), 1)


def _verlinde(md, tensor):
    prover = MatProver(md.conductor)
    prover.verify_verlinde(_proven(prover, md.S), channels_of(tensor))


def _bad_tensors(md):
    """(tensor, named pair) for a symmetric change of one coefficient and
    for pairs with no fusion channel at all, including the last pair."""
    base = dense(md.fusion_ring())
    r = md.rank
    for i, j, k in [(3, 7, 2), (1, 1, 0)]:
        t = base.copy()
        t[i, j, k] += 1
        t[j, i, k] = t[i, j, k]
        yield t, (i, j)
    for i, j in [(4, 8), (0, 0), (r - 1, r - 1)]:
        t = base.copy()
        t[i, j, :] = 0
        t[j, i, :] = 0
        yield t, (i, j)


def _check_streamed_verdicts(md):
    _verlinde(md, dense(md.fusion_ring()))
    for tensor, (i, j) in _bad_tensors(md):
        with pytest.raises(ModularityError, match=rf"near \(i={i}, j={j}\)$"):
            _verlinde(md, tensor)


def test_streamed_verlinde_names_the_broken_pair():
    _check_streamed_verdicts(_ty5())


def _verdict(check, *args):
    try:
        check(*args)
    except ModularityError as exc:
        return str(exc)
    return None


def _perturbed(tensor, rng, count):
    """``count`` tensors, each with one to three coefficients N_ij^k = N_ji^k
    moved by one, staying nonnegative."""
    r = len(tensor)
    for _ in range(count):
        t = tensor.copy()
        for _ in range(rng.integers(1, 4)):
            i, j, k = (int(x) for x in rng.integers(0, r, size=3))
            t[i, j, k] += 1 if t[i, j, k] == 0 or rng.random() < 0.5 else -1
            t[j, i, k] = t[i, j, k]
        yield t


Z9, Z15 = FinAbGroup.of(9), FinAbGroup.of(15)


@pytest.mark.parametrize("build", [
    _ty5,
    lambda: ty_center_md(Z9, bichar_from_qform(classify_metric_groups(Z9)[0].quad), 1),
    lambda: pointed_md(classify_metric_groups(Z15)[0]),
    lambda: mp_md(Z15, classify_metric_groups(Z15)[0].bichar, 1),
], ids=["ty-Z5", "ty-Z9", "pointed-Z15", "mp-Z15"])
def test_one_point_verlinde_agrees_with_the_all_points_oracle(build):
    # the one-point proof and the old streamed check over every point give
    # the same verdict and name the same pair; the oracle runs with one
    # pair a chunk and with its old 2 MB chunks
    md = build()
    base = dense(md.fusion_ring())
    ours, theirs = MatProver(md.conductor), MatProver(md.conductor)
    s, s_all = _proven(ours, md.S), theirs.pack(md.values, md.index)
    tensors = [base] + [t for t, _ in _bad_tensors(md)]
    tensors += list(_perturbed(base, np.random.default_rng(md.rank), 20))
    failed = 0
    for k, tensor in enumerate(tensors):
        want = _verdict(all_points_verlinde, theirs, s_all, tensor, 1 if k % 2 else 2 << 20)
        assert _verdict(ours.verify_verlinde, s, channels_of(tensor)) == want
        failed += want is not None
    assert failed == len(tensors) - 1  # only the proven tensor passes


# -- the Galois symmetry of S ------------------------------------------------------


def test_c_order_sorts_as_the_three_key_lexsort():
    # one stable sort of (i r + j) r + k orders the rows as a lexsort on
    # (k, j, i) does, repeated keys included (their rows keep their order)
    ring = ty_center_md(FinAbGroup.of(5), classify_metric_groups(FinAbGroup.of(5))[0].bichar,
                        1).fusion_ring()
    rows = np.array(ring.channels)
    np.random.default_rng(5).shuffle(rows)
    rows = np.concatenate([rows, rows[:50] * [1, 1, 1, 7]])
    assert np.array_equal(modcheck._c_order(rows), rows[np.lexsort(rows[:, 2::-1].T)])
    assert np.array_equal(modcheck._c_order(rows[:0]), rows[:0])


def test_galois_generators_generate_the_units():
    for n in [*range(1, 601), 720, 816, 912, 1104, 1200, 2310, 2520]:
        gens = galois_generators(n)
        assert gens[0] == n - 1 and len(gens) <= 5
        group = {1 % n}
        frontier = list(group)
        while frontier:
            x = frontier.pop()
            for a in gens:
                y = x * a % n
                if y not in group:
                    group.add(y)
                    frontier.append(y)
        assert len(group) == euler_phi(n), n
        assert all(math.gcd(x, n) == 1 for x in group), n
    assert len(galois_generators(2520)) == 5


def test_wrong_galois_permutation_or_sign_is_refused():
    # the prover derives (pi_a, eps_a); the all-points oracle accepts the
    # derived pair and refuses it with one sign flipped or two rows swapped
    md = _ty5()
    prover = MatProver(md.conductor)
    a = galois_generators(md.conductor)[1]
    perm, eps = _proven(prover, md.S)["galois"][a]
    s = prover.pack(md.values, md.index)
    flipped = eps.copy()
    flipped[3] *= -1
    swapped = perm.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    for pair in ((perm, flipped), (swapped, eps)):
        with pytest.raises(ModularityError, match=rf"not Galois-symmetric under zeta -> zeta\^{a}$"):
            all_points_galois(prover, s, {a: pair})
    all_points_galois(prover, s, {a: (perm, eps)})
    prover.verify_galois(s, [a])
    assert list(s["galois"]) == [a]
    assert s["galois"][a][0].tolist() == perm.tolist()
    assert s["galois"][a][1].tolist() == eps.tolist()


def test_galois_proof_compares_every_point(monkeypatch):
    # x = zeta + c zeta^2 with x(w) = x(w^a) mod p: sigma_a(x) = x holds at
    # the first point but not at the others, so one prime must refuse it
    n = 48
    prover = MatProver(n)
    p = prover._primes(2)[0]
    monkeypatch.setattr(prover, "_primes", lambda need: [p])
    a = galois_generators(n)[1]
    w = modcheck._root_powers(p, n).astype(np.int64).tolist()  # w[k] = w^k mod p
    c = -(w[1] - w[a]) * pow(w[2] - w[2 * a % n], -1, p) % p
    s = prover.pack(*distinct_values([[CycNum(n, {1: 1, 2: c})]]))
    with pytest.raises(ModularityError, match=rf"not Galois-symmetric under zeta -> zeta\^{a}$"):
        prover.verify_galois(s, [a])
    with pytest.raises(ModularityError, match=rf"not Galois-symmetric under zeta -> zeta\^{a}$"):
        all_points_galois(prover, s, {a: (np.array([0]), np.ones(1))})


def _sigma(x: CycNum, b: int) -> CycNum:
    """sigma_b: zeta_n -> zeta_n^b on one entry."""
    return zeta_sum(x.n, ((e * b, c) for e, c in x.num.items())) * Fraction(1, x.den)


def _sigma7_at(md, i, l):
    """S with the entry pair S_il = S_li replaced by its sigma_7 conjugate."""
    rows = [list(row) for row in md.S]
    rows[i][l] = rows[l][i] = _sigma(md.S[i][l], 7)
    assert rows[i][l] != md.S[i][l]
    return rows


def test_verlinde_refuses_a_galois_asymmetric_s():
    # the one-point proof must not accept an S that is not Galois-symmetric:
    # the prover refuses it, with the message of the all-points oracle
    # handed the valid S's pairs (at self-dual labels, 0, 10, 26 and 27
    # here, the change keeps conj(S) = CS)
    md = _ty5()
    n = md.conductor
    valid = _proven(MatProver(n), md.S)["galois"]
    for (i, l), want in [((2, 4), r"^S is not unitary \(conj\(S\) != CS\)$"),
                         ((10, 12), r"^S is not unitary \(conj\(S\) != CS\)$"),
                         ((21, 25), r"^S is not unitary \(conj\(S\) != CS\)$"),
                         ((3, 11), r"^S is not unitary \(conj\(S\) != CS\)$"),
                         ((0, 10), r"^S is not Galois-symmetric under zeta -> zeta\^97$"),
                         ((26, 27), r"^S is not Galois-symmetric under zeta -> zeta\^97$")]:
        prover = MatProver(n)
        rows = _sigma7_at(md, i, l)
        with pytest.raises(ModularityError, match=want):
            _proven(prover, rows)
        with pytest.raises(ModularityError, match=want):
            all_points_galois(prover, prover.pack(*distinct_values(rows)), valid)
    # sigma_7 on the rho_0 rho_0 entry stays inside its Galois orbit: the
    # symmetry is proven and the Verlinde relation fails, at every point too
    prover, oracle = MatProver(n), MatProver(n)
    rows = _sigma7_at(md, 10, 10)
    want = _verdict(all_points_verlinde, oracle, oracle.pack(*distinct_values(rows)),
                    dense(md.fusion_ring()))
    assert want == "Verlinde eigen-relation fails near (i=1, j=10)"
    channels = md.fusion_ring().channels
    assert _verdict(prover.verify_verlinde, _proven(prover, rows), channels) == want


def test_verlinde_refuses_an_s_without_a_galois_proof():
    # the one-point arguments need every generator proven: an S packed
    # alone, or with -1 proven only, is refused before any evaluation
    md = _ty5()
    n = md.conductor
    tensor = md.fusion_ring().channels
    prover = MatProver(n)
    s = prover.pack(md.values, md.index)
    a = galois_generators(n)[1]
    with pytest.raises(ModularityError, match=rf"not proven Galois-symmetric under zeta -> zeta\^{n - 1},"):
        prover.verify_verlinde(s, tensor)
    prover.verify_galois(s, [n - 1])
    with pytest.raises(ModularityError, match=rf"not proven Galois-symmetric under zeta -> zeta\^{a},"):
        prover.verify_verlinde(s, tensor)
    with pytest.raises(ModularityError, match=rf"zeta\^{a}, which the S\^2 = C proof needs"):
        prover.verify_product(s, md.charge_conjugation())
    prover.verify_galois(s, galois_generators(n))
    prover.verify_product(s, md.charge_conjugation())
    prover.verify_verlinde(s, tensor)


def _recorded_reads(monkeypatch) -> list:
    """Record (proof, prime, number of points) for every evaluation, the
    proof being the MatProver.verify_* method that asked for it, or
    "guess" for guess_verlinde."""
    reads, stage = [], []
    values = MatProver._values

    def recorded(self, s, p, at=slice(None)):
        out = values(self, s, p, at)
        reads.append((stage[-1] if stage else None, p, len(out)))
        return out

    def staged(name, method):
        def run(self, *args):
            stage.append(name)
            try:
                return method(self, *args)
            finally:
                stage.pop()
        return run

    monkeypatch.setattr(MatProver, "_values", recorded)
    for name, attr in [("guess", "guess_verlinde")] + [
            (name, f"verify_{name}") for name in ("galois", "product", "tstst", "verlinde")]:
        monkeypatch.setattr(MatProver, attr, staged(name, getattr(MatProver, attr)))
    return reads


def test_validate_proves_galois_once_and_reads_the_points_each_proof_needs(monkeypatch):
    # one exact step covers C and every generator, -1 first, and C = pi_-1
    # with eps = 1; the Galois proof and TSTST = S read every point, S^2 = C
    # and the Verlinde relation the first point alone, and the Verlinde
    # guess reads the first and the last point once; the cached build runs
    # before the recording starts, so the test holds in any order
    md = _ty5()
    proven = []
    prove = MatProver.verify_galois
    monkeypatch.setattr(MatProver, "verify_galois",
                        lambda self, s, gens: proven.append(list(gens)) or prove(self, s, gens))
    reads = _recorded_reads(monkeypatch)
    galois = {}
    verlinde = MatProver.verify_verlinde
    monkeypatch.setattr(MatProver, "verify_verlinde",
                        lambda self, s, t: galois.update(s["galois"]) or verlinde(self, s, t))
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    n = md.conductor
    gens = galois_generators(n)
    assert gens[0] == n - 1 and len(gens) > 1
    assert proven == [gens] and list(galois) == gens
    perm, eps = galois[n - 1]
    assert perm.tolist() == list(md.charge_conjugation()) and (eps == 1).all()
    assert fresh.charge_conjugation() == md.charge_conjugation()
    phi = euler_phi(n)
    points = {(stage, k) for stage, _, k in reads}
    assert points == {("galois", phi), ("product", 1), ("tstst", phi), ("guess", 2),
                      ("verlinde", 1)}
    assert [k for stage, _, k in reads if stage == "guess"] == [2]


def test_verlinde_evaluates_its_own_primes_at_one_point(monkeypatch):
    # mp(Z21) needs a second prime for Verlinde alone (on TY(Z13) S^2 = C
    # and TSTST = S need it too): validate never evaluates it at every point
    reads = _recorded_reads(monkeypatch)
    z21 = FinAbGroup.of(21)
    mp_md.__wrapped__(z21, classify_metric_groups(z21)[0].bichar, 1)
    full = {p for stage, p, k in reads if k > 1}
    single = [p for stage, p, k in reads if stage == "verlinde"]
    assert len(full) == 1 and len(single) == 2
    assert single[0] in full and single[1] not in full
    assert [p for stage, p, _ in reads if stage == "product"] == single[:1]


def _tamper_one_sign(md, s):
    """A generator a and its proven pair with eps_a flipped at one label i
    that C moves, so that eps_a C != eps_a: Q_a no longer commutes with C."""
    cperm = md.charge_conjugation()
    i = next(i for i in range(md.rank) if cperm[i] != i)
    a = galois_generators(md.conductor)[1]
    perm, eps = s["galois"][a]
    eps = eps.copy()
    eps[i] *= -1
    return a, (perm, eps)


def test_a_q_a_that_does_not_commute_with_c_is_refused_before_any_evaluation(monkeypatch):
    md = _ty5()
    prover = MatProver(md.conductor)
    s = _proven(prover, md.S)
    a, pair = _tamper_one_sign(md, s)
    s["galois"][a] = pair
    reads = _recorded_reads(monkeypatch)
    with pytest.raises(ModularityError,
                       match=rf"S\^2 = C identity fails: S is singular, as Q_{a} does not commute"):
        prover.verify_product(s, md.charge_conjugation())
    assert reads == []
    # the tampered pair is not the Galois symmetry of S at all
    with pytest.raises(ModularityError, match=rf"under zeta -> zeta\^{a}$"):
        all_points_galois(prover, s, {a: pair})


def test_a_singular_s_whose_pi_a_is_not_a_bijection_is_refused():
    # two equal rows: sigma_a(S) = S, and both rows are matched to the first
    one = CycNum(5, {0: 1})
    prover = MatProver(5)
    s = prover.pack(*distinct_values([[one, one], [one, one]]))
    a = galois_generators(5)[1]
    with pytest.raises(ModularityError, match=rf"^S is singular: two rows of its conjugate under "
                                              rf"zeta -> zeta\^{a} are equal up to sign$"):
        prover.verify_galois(s, [a])
    assert "galois" not in s


def test_conj_s_equal_to_minus_cs_is_refused():
    # conj(i S) = -C (i S), and i S is Galois-symmetric under every other
    # generator: only eps_-1 = 1 tells it from a unitary S
    md = _ty5()
    n = md.conductor
    gens = galois_generators(n)
    rows = [[x * zeta(n, n // 4) for x in row] for row in md.S]
    prover = MatProver(n)
    s = prover.pack(*distinct_values(rows))
    with pytest.raises(ModularityError, match=r"^S is not unitary \(conj\(S\) != CS\)$"):
        prover.verify_galois(s, gens)
    prover.verify_galois(s, gens[1:])
    assert list(s["galois"]) == gens[1:]


def _scaled(md):
    return [[x * Fraction(101, 100) for x in row] for row in md.S]


@pytest.mark.parametrize("build", [
    _ty5,
    _ty9,
    lambda: mp_md(Z15, classify_metric_groups(Z15)[0].bichar, 1),
    lambda: mp_md(Z15, classify_metric_groups(Z15)[0].bichar, -1),
    lambda: pointed_md(classify_metric_groups(FinAbGroup.of(45))[0]),
], ids=["ty-Z5", "ty-Z9", "mp-Z15+", "mp-Z15-", "pointed-Z45"])
def test_galois_and_product_agree_with_the_all_points_oracles(build):
    # the derived (pi_a, eps_a) pass the all-points Galois check, and S^2 = C
    # at one point agrees with every point; on a scaled S both accept the
    # same pairs and refuse S^2 = C, and a shifted c leaves S as it is
    md = build()
    n = md.conductor
    cperm = md.charge_conjugation()
    for rows, product_ok in ((md.S, True), (_scaled(md), False)):
        prover = MatProver(n)
        s = _proven(prover, rows)
        assert list(s["galois"]) == galois_generators(n)
        all_points_galois(prover, s, s["galois"])
        assert _verdict(prover.verify_product, s, cperm) == _verdict(
            all_points_product, prover, s, cperm)
        assert (_verdict(prover.verify_product, s, cperm) is None) == product_ok
    # the shifted datum's S is md.S, which passed both above
    with pytest.raises(ModularityError, match="TSTST = S identity fails"):
        ModularData(md.labels, md.S, md.thetas, md.c_top + 2, n)


Z3xZ3 = FinAbGroup.of(3, 3)


@pytest.mark.parametrize("build", [
    _ty5,
    _ty9,
    lambda: ty_center_md(Z3xZ3, bichar_from_qform(classify_metric_groups(Z3xZ3)[0].quad), 1),
    lambda: mp_md(Z15, classify_metric_groups(Z15)[0].bichar, 1),
    lambda: mp_md(Z15, classify_metric_groups(Z15)[0].bichar, -1),
    lambda: pointed_md(classify_metric_groups(FinAbGroup.of(45))[0]),
], ids=["ty-Z5", "ty-Z9", "ty-Z3xZ3", "mp-Z15+", "mp-Z15-", "pointed-Z45"])
def test_residue_guess_agrees_with_the_float_guess_and_the_proven_ring(build):
    md = build()
    prover = MatProver(md.conductor)
    s = prover.pack(md.values, md.index)
    guess = prover.guess_verlinde(s)
    assert np.array_equal(guess, channels_of(float_guess(prover, s)))
    assert np.array_equal(guess, md.fusion_ring().channels)


def test_residue_guess_moves_past_a_prime_where_a_row_0_residue_vanishes(monkeypatch):
    # S_03 read as 0 at the first prime: 1 / S_03 is not defined there, so
    # the guess is made at the second prime, and it is the same tensor
    md = _ty5()
    want = md.fusion_ring().channels
    prover = MatProver(md.conductor)
    s = prover.pack(md.values, md.index)
    first, second = itertools.islice(prover._prime_pool(), 2)
    k = s["index"][0, 3]
    values, reads = MatProver._values, []

    def zero_at_first(self, s, p, at=slice(None)):
        out = values(self, s, p, at)
        reads.append(p)
        if p == first:
            out[:, k] = 0
        return out

    monkeypatch.setattr(MatProver, "_values", zero_at_first)
    assert np.array_equal(prover.guess_verlinde(s), want)
    assert reads == [first, second]
    monkeypatch.setattr(MatProver, "_values", values)
    assert np.array_equal(prover.guess_verlinde(s), want)


def test_galois_and_product_agree_on_a_sigma7_conjugated_entry():
    # sigma_7 on the rho_0 rho_0 entry of TY(Z5) keeps the Galois symmetry,
    # with the valid pairs, and breaks S^2 = C at one point and at every one
    md = _ty5()
    prover = MatProver(md.conductor)
    valid = _proven(MatProver(md.conductor), md.S)["galois"]
    s = _proven(prover, _sigma7_at(md, 10, 10))
    for a, (perm, eps) in valid.items():
        assert s["galois"][a][0].tolist() == perm.tolist()
        assert s["galois"][a][1].tolist() == eps.tolist()
    all_points_galois(prover, s, valid)
    want = _verdict(all_points_product, prover, s, md.charge_conjugation())
    assert want == "S^2 = C identity fails"
    assert _verdict(prover.verify_product, s, md.charge_conjugation()) == want


def test_the_names_the_benchmark_wraps_stay():
    # perfbench/tracechild.py wraps pack, verify_product, verify_tstst,
    # verify_verlinde, validate and _verlinde_tensor, and reads the prover's
    # points and the "coeffs" and "rank" of the packed S; it counts calls of
    # RootOfUnity.__post_init__ and of these CycNum methods, silently
    # skipping a name that CycNum.__dict__ lacks
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__neg__", "__truediv__", "__rtruediv__", "__pow__", "__eq__", "conj",
                 "inverse", "promoted"):
        assert inspect.isfunction(CycNum.__dict__.get(name)), name
    assert inspect.isfunction(RootOfUnity.__dict__.get("__post_init__"))
    params = list(inspect.signature(MatProver.verify_verlinde).parameters)
    assert params == ["self", "s", "tensor"]
    for method in (MatProver.pack, MatProver.verify_product, MatProver.verify_tstst,
                   ModularData.validate, ModularData._verlinde_tensor):
        assert inspect.isfunction(method)
    # every (module, attribute) its spans and peaks wrap is a function, or
    # a cache around one
    for module, attr in (
        ("tycat.moddata", "pointed_md"), ("tycat.moddata", "ty_center_md"),
        ("tycat.moddata", "mp_md"), ("tycat.moddata", "ModularData.validate"),
        ("tycat.moddata", "md_to_json"), ("tycat.moddata", "md_from_json"),
        ("tycat.moddata", "ModularData.fusion_ring"), ("tycat.moddata", "md_equivalent"),
        ("tycat.moddata", "bantay_fs"), ("tycat.moddata", "verify_condensation"),
        ("tycat.modcheck", "MatProver.pack"), ("tycat.modcheck", "MatProver.verify_product"),
        ("tycat.modcheck", "MatProver.verify_tstst"),
        ("tycat.modcheck", "MatProver.verify_verlinde"),
        ("tycat.quadforms", "classify_metric_groups"), ("tycat.quadforms", "metric_equiv"),
        ("tycat.quadforms", "gauss_central_charge"), ("tycat.groups", "automorphisms"),
        ("tycat.fusionrings", "check_fusion_ring"), ("tycat.fusionrings", "ty_fusion_ring"),
        ("tycat.fusionrings", "gen_ty_fusion_ring"), ("tycat.fusionrings", "gen_mp_fusion_ring"),
        ("tycat.lattices", "discriminant_form"), ("tycat.lattices", "glue"),
        ("tycat.lattices", "count_roots"), ("tycat.intmat", "smith_normal_form"),
        ("tycat.graphs", "principal_graph"), ("tycat.graphs", "dual_principal_graph"),
    ):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert inspect.isfunction(inspect.unwrap(owner)), (module, attr)
    assert MatProver(12).points == [1, 5, 7, 11]
    md = _ty5()
    s = MatProver(md.conductor).pack(md.values, md.index)
    assert s["rank"] == md.rank and s["coeffs"].shape[1] == euler_phi(md.conductor)


def test_validate_memory_is_bounded():
    z9 = FinAbGroup.of(9)
    md = ty_center_md(z9, bichar_from_qform(classify_metric_groups(z9)[0].quad), 1)
    tracemalloc.start()
    try:  # construction is the proof
        ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, f"validate() peaked at {peak / 2**20:.0f} MB"


def test_construction_makes_no_dense_fusion_tensor():
    # the Verlinde guess, its proof and the ring hold only the channels:
    # proving TY(Z11), rank 99 and 18,271 channels, peaks below half of
    # the 7.4 MiB that one int64 r x r x r array would take
    z11 = FinAbGroup.of(11)
    md = ty_center_md(z11, bichar_from_qform(classify_metric_groups(z11)[0].quad), 1)
    cube = md.rank**3 * 8
    tracemalloc.start()
    try:
        ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(md.fusion_ring().channels) == 18271
    assert peak < cube / 2, f"construction peaked at {peak / 2**20:.2f} MB"


def test_blocked_matmul_mod_is_exact_past_the_block_size():
    p = 4194301  # the largest prime below 2^22: blocks of 512 inner terms
    assert modcheck._is_prime(p)
    step = 2**53 // (p - 1) ** 2
    k = 2 * step + 37
    rng = np.random.default_rng(5)
    a = rng.integers(p - 1000, p, size=(2, 3, k))
    b = rng.integers(p - 1000, p, size=(2, k, 4))
    got = modcheck._matmul_mod(a.astype(np.float64), b.astype(np.float64), p)
    want = np.matmul(a.astype(object), b.astype(object)) % p
    assert k * (p - 1) ** 2 > 2**53  # a single float64 matmul would round
    assert (got.astype(np.int64) == want.astype(np.int64)).all()
