"""Cross-checks of the modular-evaluation prover against direct exact
arithmetic, plus negative controls."""

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
from tycat.cyclo import CycNum, RootOfUnity, zeta
from tycat.errors import CapacityError, ModularityError
from tycat.groups import FinAbGroup
from tycat.modcheck import MatProver
from tycat.moddata import ModularData, mp_md, pointed_md, ty_center_md
from tycat.quadforms import (
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    metric_group,
)

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
    s = prover.pack(md.S)
    with pytest.raises(ModularityError):
        prover.verify_verlinde(s, tensor)


def test_verlinde_guess_rejects_negative_coefficients(monkeypatch):
    # the proof fixes N_ij^k but not its sign; negating row 0 of the float S
    # negates N_ij^k for i, j, k != 0, and 1 + 1 = 2 in Z3
    md = pointed_md(metric_group(Q_A2))
    prover = MatProver(md.conductor)
    sf = md.s_float().copy()
    sf[0] *= -1
    monkeypatch.setattr(md, "s_float", lambda: sf)
    with pytest.raises(ModularityError, match=r"at \(1, 1, 2\) is not a nonnegative"):
        md._verlinde_tensor(prover, prover.pack(md.S))


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
    prover.verify_verlinde(prover.pack(md.S), tensor)


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


def test_streamed_verlinde_is_chunk_independent(monkeypatch):
    md = _ty5()
    monkeypatch.setattr(modcheck, "_CHUNK_ROWS_BYTES", 1)  # one pair a chunk
    _check_streamed_verdicts(md)
    ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor).validate()


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
