"""Cross-checks of the modular-evaluation prover against direct exact
arithmetic, plus negative controls."""

import inspect
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
from tycat.modcheck import MatProver, galois_generators
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
from verlinde_oracle import _proven, all_points_verlinde

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
    md = mp_md(Z3, bichar_from_qform(Q_A2), 1)
    prover = MatProver(md.conductor)
    rows = [list(row) for row in md.S]
    rows[2][3] = rows[2][3] + 1
    with pytest.raises(ModularityError, match=r"S\^2 = C identity fails"):
        prover.verify_product(prover.pack(rows), md.charge_conjugation())


@pytest.mark.parametrize("build", [
    lambda: pointed_md(metric_group(Q_A2)),
    lambda: mp_md(Z3, bichar_from_qform(Q_A2), 1),
    lambda: _ty5(),
], ids=["pointed-Z3", "mp-Z3", "ty-Z5"])
def test_prover_product_random_negative_control(build):
    md = build()
    cperm = md.charge_conjugation()
    prover = MatProver(md.conductor)
    prover.verify_product(prover.pack(md.S), cperm)
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
            prover.verify_product(prover.pack(rows), cperm)


def test_verlinde_rejects_wrong_tensor():
    md = mp_md(Z3, bichar_from_qform(Q_A2), 1)
    ring = md.fusion_ring()
    tensor = np.array(ring.tensor, dtype=np.int64)
    tensor[2, 2, 1] += 1
    tensor[2, 2, 0] -= 1
    tensor = np.maximum(tensor, 0)
    tensor[1, 2, 2] = tensor[2, 1, 2]  # keep it symmetric
    prover = MatProver(md.conductor)
    s, _ = _proven(prover, md.S)
    with pytest.raises(ModularityError):
        prover.verify_verlinde(s, tensor)


def test_verlinde_guess_rejects_negative_coefficients():
    # the proof fixes N_ij^k but not its sign; negating row 0 of the float S
    # negates N_ij^k for i, j, k != 0, and 1 + 1 = 2 in Z3
    md = pointed_md(metric_group(Q_A2))
    prover = MatProver(md.conductor)
    s, sf = _proven(prover, md.S)
    sf[0] *= -1
    with pytest.raises(ModularityError, match=r"at \(1, 1, 2\) is not a nonnegative"):
        md._verlinde_tensor(prover, s, sf)


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
    # a diagonal change at 1 only breaks CSC = S (C swaps 1 and 2)
    with pytest.raises(ModularityError, match="CSC = S fails"):
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

    def counted(self, rows):
        packs.append(len(rows))
        return pack(self, rows)

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
        prover.pack([[big]])


def test_packed_coefficients_are_exact_at_the_cap():
    # pack keeps the integer coefficients as float64, which every evaluation
    # reads without a copy: at the cap each dot product stays below 2^53
    n = 48
    prover = MatProver(n)
    cap = (2**53 - 1) // (modcheck._PRIME_CAP * prover.phi)
    rng = random.Random(7)
    num = {e: rng.choice([-1, 1]) * (cap - rng.randrange(8)) for e in range(prover.phi)}
    x = CycNum(n, num)
    s = prover.pack([[x]])
    assert s["coeffs"].dtype == np.float64 and x.den == 1
    p = prover._primes(2)[0]
    w = modcheck._root_powers(p, n).astype(np.int64).tolist()
    want = [sum(c * w[j * e % n] for e, c in x.num.items()) % p for j in prover.points]
    assert prover._eval(s, p)[:, 0, 0].tolist() == want
    assert prover._eval_point(s, p)[0, 0] == want[0]


# -- S as a table of distinct values -----------------------------------------------


def test_equal_values_pack_to_one_index_whatever_their_objects():
    # equal values given as distinct objects, their terms in different
    # orders, are one value; symmetry and CSC = S read the index alone
    x, y = CycNum(12, {0: 1, 1: 2}), CycNum(12, {1: 2, 0: 1})
    assert x is not y and list(x.num) != list(y.num) and x == y
    z = CycNum(12, {1: 2})
    prover = MatProver(12)
    s = prover.pack([[x, z, z], [z, y, x], [z, x, y]])
    assert s["index"].tolist() == [[0, 1, 1], [1, 0, 0], [1, 0, 0]]
    assert s["coeffs"].shape == (2, prover.phi) and not s["index"].flags.writeable
    s["coeffs"] = None
    prover.verify_symmetric(s)
    prover.verify_permuted(s, [0, 2, 1], [0, 2, 1], "CSC = S")
    with pytest.raises(ModularityError, match="swap fails"):
        prover.verify_permuted(s, [1, 0, 2], [1, 0, 2], "swap")


def test_an_entry_at_a_divisor_conductor_is_refused_after_an_equal_value():
    # zeta_3 at conductor 12 and at 3 are equal, but the prover works at 12
    w = CycNum(3, {1: 1})
    with pytest.raises(ModularityError, match="matrix entry at a foreign conductor"):
        MatProver(12).pack([[w.promoted(12), w], [w, w.promoted(12)]])


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
    s = prover.pack(md.S)
    assert s["coeffs"].shape == (100, prover.phi) and s["index"].shape == (md.rank,) * 2
    p = prover._primes(2)[0]
    ev = prover._eval(s, p)
    assert ev.shape == (prover.phi, md.rank, md.rank) and ev.flags.c_contiguous
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
    assert (prover._eval_point(s, p) == ev[0]).all()


def test_validate_memory_on_ty11_is_bounded():
    # S^2 = C and TSTST = S are proven one r x r point at a time
    md = _ty11()
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    tracemalloc.start()
    try:
        fresh.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 << 20, f"validate() peaked at {peak / 2**20:.0f} MB"


def test_capacity_guard_survives_python_O():
    # asserts are stripped under -O; the guards must not be ones: the
    # prover's coefficient bound, the Smith normal form certificate
    # (checked here against a determinant that lies), a principal graph's
    # shape certificate and the CRT step of product_group
    code = (
        "from tycat import intmat\n"
        "from tycat.cyclo import CycNum\n"
        "from tycat.errors import CapacityError, ModularityError\n"
        "from tycat.modcheck import MatProver\n"
        "try:\n"
        "    MatProver(3).pack([[CycNum(3, {0: 2**40})]])\n"
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
    prover.verify_verlinde(_proven(prover, md.S)[0], tensor)


def _bad_tensors(md):
    """(tensor, named pair) for a symmetric change of one coefficient and
    for pairs with no fusion channel at all, including the last pair."""
    base = np.array(md.fusion_ring().tensor, dtype=np.int64)
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
    _verlinde(md, np.array(md.fusion_ring().tensor, dtype=np.int64))
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
    base = np.array(md.fusion_ring().tensor, dtype=np.int64)
    ours, theirs = MatProver(md.conductor), MatProver(md.conductor)
    s, s_all = _proven(ours, md.S)[0], theirs.pack(md.S)
    tensors = [base] + [t for t, _ in _bad_tensors(md)]
    tensors += list(_perturbed(base, np.random.default_rng(md.rank), 20))
    failed = 0
    for k, tensor in enumerate(tensors):
        want = _verdict(all_points_verlinde, theirs, s_all, tensor, 1 if k % 2 else 2 << 20)
        assert _verdict(ours.verify_verlinde, s, tensor) == want
        failed += want is not None
    assert failed == len(tensors) - 1  # only the proven tensor passes


# -- the Galois symmetry of S ------------------------------------------------------


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
    md = _ty5()
    prover = MatProver(md.conductor)
    a = galois_generators(md.conductor)[1]
    perm, eps = _proven(prover, md.S)[0]["galois"][a]
    s = prover.pack(md.S)
    flipped = eps.copy()
    flipped[3] *= -1
    swapped = perm.copy()
    swapped[[1, 4]] = swapped[[4, 1]]
    for guess in ((perm, flipped), (swapped, eps)):
        with pytest.raises(ModularityError, match=rf"not Galois-symmetric under zeta -> zeta\^{a}$"):
            prover.verify_galois(s, {a: guess})
    prover.verify_galois(s, {a: (perm, eps)})
    assert s["galois"] == {a: (perm, eps)}


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
    s = prover.pack([[CycNum(n, {1: 1, 2: c})]])
    with pytest.raises(ModularityError, match=rf"not Galois-symmetric under zeta -> zeta\^{a}$"):
        prover.verify_galois(s, {a: (np.array([0]), np.ones(1))})


def _sigma(x: CycNum, b: int) -> CycNum:
    """sigma_b: zeta_n -> zeta_n^b on one entry."""
    return zeta_sum(x.n, ((e * b, c) for e, c in x.num.items())) * Fraction(1, x.den)


def _sigma7_at(md, i, l):
    """S with the entry pair S_il = S_li replaced by its sigma_7 conjugate."""
    rows = [list(row) for row in md.S]
    rows[i][l] = rows[l][i] = _sigma(md.S[i][l], 7)
    assert rows[i][l] != md.S[i][l]
    return rows


def test_verlinde_refuses_a_galois_asymmetric_s(monkeypatch):
    # the one-point proof must not accept an S that is not Galois-symmetric:
    # the float guess refuses it, and so does the exact proof when it is
    # handed the guess of the valid S (at self-dual labels, 0, 10, 26 and
    # 27 here, the change keeps conj(S) = CS)
    md = _ty5()
    tensor = np.array(md.fusion_ring().tensor, dtype=np.int64)
    prover = MatProver(md.conductor)
    sf, valid = prover._galois_guess(prover.pack(md.S), galois_generators(md.conductor))
    for i, l in [(2, 4), (10, 12), (21, 25), (3, 11), (0, 10), (26, 27)]:
        prover = MatProver(md.conductor)
        with pytest.raises(ModularityError, match=r"not Galois-symmetric under zeta -> zeta\^\d+: "):
            _proven(prover, _sigma7_at(md, i, l))
    monkeypatch.setattr(MatProver, "_galois_guess",
                        lambda self, s, gens: (sf, {a: valid[a] for a in gens}))
    for i, l in [(0, 10), (26, 27)]:
        prover = MatProver(md.conductor)
        with pytest.raises(ModularityError, match=r"^S is not Galois-symmetric under zeta -> zeta\^97$"):
            _proven(prover, _sigma7_at(md, i, l))
    # sigma_7 on the rho_0 rho_0 entry stays inside its Galois orbit: the
    # symmetry is proven and the Verlinde relation fails, at every point too
    prover, oracle = MatProver(md.conductor), MatProver(md.conductor)
    rows = _sigma7_at(md, 10, 10)
    want = _verdict(all_points_verlinde, oracle, oracle.pack(rows), tensor)
    assert want == "Verlinde eigen-relation fails near (i=1, j=10)"
    assert _verdict(prover.verify_verlinde, _proven(prover, rows)[0], tensor) == want


def test_verlinde_refuses_an_s_without_a_galois_proof():
    # the one-point argument needs every generator proven: an S packed
    # alone, or with -1 proven only, is refused before any evaluation
    md = _ty5()
    n = md.conductor
    tensor = np.array(md.fusion_ring().tensor, dtype=np.int64)
    prover = MatProver(n)
    s = prover.pack(md.S)
    a = galois_generators(n)[1]
    with pytest.raises(ModularityError, match=rf"not proven Galois-symmetric under zeta -> zeta\^{n - 1},"):
        prover.verify_verlinde(s, tensor)
    prover.verify_galois(s, {n - 1: (np.array(md.charge_conjugation()), np.ones(md.rank))})
    with pytest.raises(ModularityError, match=rf"not proven Galois-symmetric under zeta -> zeta\^{a},"):
        prover.verify_verlinde(s, tensor)
    prover.verify_galois(s, _proven(MatProver(n), md.S)[0]["galois"])
    prover.verify_verlinde(s, tensor)


def test_validate_guesses_and_proves_galois_once(monkeypatch):
    # one float guess and one proof cover C and every generator, -1 first;
    # -1 is proven as conj(S) = CS even when the guess flips a sign, and the
    # Verlinde proof finds no evaluation left over from the other proofs
    guessed, proven, left = [], [], []
    guess, prove, verlinde = MatProver._galois_guess, MatProver.verify_galois, MatProver.verify_verlinde

    def flipped(self, s, gens):
        guessed.append(list(gens))
        sf, out = guess(self, s, gens)
        out[gens[0]][1][1] = -1
        return sf, out

    monkeypatch.setattr(MatProver, "_galois_guess", flipped)
    monkeypatch.setattr(MatProver, "verify_galois",
                        lambda self, s, g: proven.append(dict(g)) or prove(self, s, g))
    monkeypatch.setattr(MatProver, "verify_verlinde",
                        lambda self, s, t: left.append(len(s["evals"])) or verlinde(self, s, t))
    md = _ty5()
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    fresh.validate()
    n = md.conductor
    gens = galois_generators(n)
    assert gens[0] == n - 1 and len(gens) > 1
    assert guessed == [gens] and [list(g) for g in proven] == [gens]
    perm, eps = proven[0][n - 1]
    assert perm.tolist() == list(md.charge_conjugation()) and (eps == 1).all()
    assert fresh.charge_conjugation() == md.charge_conjugation()
    assert left == [0]


def test_verlinde_evaluates_its_own_primes_at_one_point(monkeypatch):
    # mp(Z21) needs a second prime for Verlinde alone (on TY(Z13) S^2 = C
    # and TSTST = S need it too): validate never evaluates it at every point
    full, single = [], []
    evaluate, at_point = MatProver._eval, MatProver._eval_point
    monkeypatch.setattr(MatProver, "_eval", lambda self, m, p: full.append(p) or evaluate(self, m, p))
    monkeypatch.setattr(
        MatProver, "_eval_point", lambda self, m, p: single.append(p) or at_point(self, m, p)
    )
    z21 = FinAbGroup.of(21)
    mp_md.__wrapped__(z21, classify_metric_groups(z21)[0].bichar, 1)
    assert len(set(full)) == 1 and len(single) == 2
    assert single[0] == full[0] and single[1] not in full


def test_the_names_the_benchmark_wraps_stay():
    # perfbench/tracechild.py wraps verify_verlinde and _verlinde_tensor and
    # reads the prover's points
    params = list(inspect.signature(MatProver.verify_verlinde).parameters)
    assert params == ["self", "s", "tensor"]
    assert callable(ModularData._verlinde_tensor)
    assert MatProver(12).points == [1, 5, 7, 11]


def test_validate_memory_is_bounded():
    z9 = FinAbGroup.of(9)
    md = ty_center_md(z9, bichar_from_qform(classify_metric_groups(z9)[0].quad), 1)
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    tracemalloc.start()
    try:
        fresh.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, f"validate() peaked at {peak / 2**20:.0f} MB"


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
