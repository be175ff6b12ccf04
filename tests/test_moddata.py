import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from tycat import cyclo, modcheck, moddata
from tycat.cyclo import MAX_CONDUCTOR, CycNum, RootOfUnity, euler_phi, sqrt_int, zeta, zeta_sum
from tycat.errors import (
    CapacityError,
    InvalidArgumentError,
    ModularityError,
)
from tycat.fusionrings import check_fusion_ring, gen_mp_fusion_ring
from tycat.groups import FinAbGroup
from tycat.labels import (
    MPAlpha,
    MPRho,
    MPSigma,
    Pointed,
    ProductLabel,
    TYPt,
    TYRho,
    TYSigma,
    label_from_json,
    label_to_json,
)
from tycat.moddata import (
    ModularData,
    bantay_fs,
    classify_mp,
    hat_twist,
    md_equivalent,
    md_from_json,
    md_to_json,
    mp_md,
    pointed_md,
    reverse_md,
    tensor_md,
    ty_center_md,
    verify_condensation,
)
from tycat.quadforms import (
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    direct_sum,
    metric_group,
    standard_qform,
)
from fusion_oracle import eigen_dims
from ty_center_oracle import ty_center_oracle

Z3 = FinAbGroup.of(3)
Z5 = FinAbGroup.of(5)
TRIV = FinAbGroup.of(1)


def q_cyclic(group, a, n):
    return QuadForm.from_callable(
        group, lambda g: RootOfUnity(Fraction(a * g.coords[0] ** 2, n))
    )


Q_A2 = q_cyclic(Z3, 1, 3)
B3 = bichar_from_qform(Q_A2)


def semion_md():
    z2 = FinAbGroup.of(2)
    q = QuadForm.from_callable(z2, lambda g: RootOfUnity(Fraction(g.coords[0], 4)))
    return pointed_md(metric_group(q))


def test_pointed_trivial():
    md = pointed_md(classify_metric_groups(TRIV)[0])
    assert md.rank == 1 and md.c_top == 0
    assert md.S[0][0] == 1 and md.t_exps == (0,)


def test_pointed_semion():
    md = semion_md()
    assert md.c_top == 1
    root2 = sqrt_int(2)
    assert md.S[0][0] * root2 == 1
    assert md.S[1][1] * root2 == -1
    assert md.thetas[1] == RootOfUnity(1, 4)


def test_pointed_z3():
    md = pointed_md(metric_group(Q_A2))
    assert md.c_top == 2
    # S_{1,1} = dq(1,1)/sqrt(3) with dq(1,1) = e^{2 pi i/3}
    assert md.S[1][1] * sqrt_int(3) == zeta(3, 1)


def test_pointed_fusion_is_group_ring():
    md = pointed_md(metric_group(Q_A2))
    ring = md.fusion_ring()
    for i, g in enumerate(Z3.elements()):
        for j, h in enumerate(Z3.elements()):
            expected = Z3.index_of(g + h)
            assert ring.product(i, j) == {expected: 1}


def test_ty_center_rank_and_dims():
    md = ty_center_md(Z3, B3, 1)
    assert md.rank == 15
    dims = md.dims()
    root3 = sqrt_int(3)
    flat = [complex(d).real for d in dims]
    assert sorted(round(x, 6) for x in flat) == sorted(
        [1.0] * 6 + [round(math.sqrt(3), 6)] * 6 + [2.0] * 3
    )
    for lbl, d in zip(md.labels, dims):
        if isinstance(lbl, TYRho):
            assert d == root3
        elif isinstance(lbl, TYSigma):
            assert d == 2


def test_ty_center_trivial_group():
    for sign in (1, -1):
        md = ty_center_md(TRIV, bichar_from_qform(classify_metric_groups(TRIV)[0].quad), sign)
        assert md.rank == 4
        assert all(d == 1 for d in md.dims())


def test_ty_center_explicit_entry():
    md = ty_center_md(Z3, B3, 1)
    g = Z3.element([1])
    h, k = Z3.element([1]), Z3.element([2])
    i = md.index_of(TYRho(g, 0))
    j = md.index_of(TYSigma.of(h, k))
    assert md.S[i][j].is_zero()
    ipt = md.index_of(TYPt(g, 0))
    expected = B3(g, h + k).inverse().to_cyc(md.conductor) * Fraction(2, 2 * 3)
    assert md.S[ipt][j] == expected


def test_mp_ranks():
    assert mp_md(Z3, B3, 1).rank == 5
    g15 = FinAbGroup.of(15)
    m15 = classify_metric_groups(g15)[0]
    assert mp_md(g15, m15.bichar, 1).rank == 11


def test_mp_central_charges_match_spin_series():
    # groups Z_{2p+1} with the A_{2p} discriminant form: c = 2p mod 8
    for p in range(1, 5):
        n = 2 * p + 1
        g = FinAbGroup.of(n)
        q = QuadForm.from_callable(
            g, lambda x: RootOfUnity(Fraction(x.coords[0] ** 2 * 2 * p, 2 * n))
        )
        b = bichar_from_qform(q)
        md = mp_md(g, b, 1)
        assert md.c_top == (2 * p) % 8, p


def test_mp_fusion_matches_rule_table():
    from tycat.fusionrings import gen_mp_fusion_ring

    for facs in [(3,), (5,)]:
        g = FinAbGroup.of(facs)
        for m in classify_metric_groups(g):
            for sign in (1, -1):
                ring = mp_md(g, m.bichar, sign).fusion_ring()
                expected = gen_mp_fusion_ring(g)
                assert ring.labels == expected.labels
                assert np.array_equal(ring.channels, expected.channels)


def test_ty_center_fusion_contains_mp_rules():
    md = ty_center_md(Z3, B3, 1)
    ring = md.fusion_ring()
    zero = Z3.zero()
    rho0 = md.index_of(TYRho(zero, 0))
    unit = md.index_of(TYPt(zero, 0))
    alpha = md.index_of(TYPt(zero, 1))
    h = Z3.element([1])
    sig = md.index_of(TYSigma.of(h, -h))
    # rho0^2 = unit + sigma_{h,-h}
    assert ring.product(rho0, rho0) == {unit: 1, sig: 1}
    assert ring.product(sig, sig) == {unit: 1, alpha: 1, sig: 1}
    assert ring.product(alpha, rho0) == {md.index_of(TYRho(zero, 1)): 1}


def test_bantay():
    mdp = mp_md(Z3, B3, 1)
    mdm = mp_md(Z3, B3, -1)
    assert bantay_fs(mdp, MPRho(0)) == 1
    assert bantay_fs(mdm, MPRho(0)) == -1
    ptd = pointed_md(metric_group(Q_A2))
    assert bantay_fs(ptd, Pointed(Z3.element([1]))) == 0


def test_bantay_zero_iff_not_self_dual():
    for md in [mp_md(Z3, B3, 1), ty_center_md(Z3, B3, -1), semion_md()]:
        cc = md.charge_conjugation()
        for i in range(md.rank):
            nu = bantay_fs(md, i)
            assert (nu == 0) == (cc[i] != i)


def test_tensor_and_reverse():
    sem = semion_md()
    rev = reverse_md(sem)
    assert rev.c_top == 7
    both = tensor_md(sem, rev)
    assert both.c_top == 0
    again = reverse_md(rev)
    assert again.S == sem.S and again.thetas == sem.thetas

    triv = pointed_md(classify_metric_groups(TRIV)[0])
    wrapped = tensor_md(sem, triv)
    assert wrapped.rank == sem.rank
    assert wrapped.S == sem.S


def test_md_equivalent_basics():
    md = mp_md(Z3, B3, 1)
    eq = md_equivalent(md, md)
    assert eq is not None and eq.mapping == tuple(range(md.rank))
    assert md_equivalent(md, mp_md(Z3, B3, -1)) is None

    sem = semion_md()
    assert md_equivalent(sem, reverse_md(sem)) is None


def test_md_equivalent_symmetry():
    a = mp_md(Z3, B3, 1)
    qbar = QuadForm.from_callable(Z3, lambda g: B3(g, g))
    b = tensor_md(a, pointed_md(metric_group(qbar)))
    z = ty_center_md(Z3, B3, 1)
    w1 = md_equivalent(z, b)
    w2 = md_equivalent(b, z)
    assert w1 is not None and w2 is not None


def test_factorization_z3_both_signs():
    qbar = QuadForm.from_callable(Z3, lambda g: B3(g, g))
    pt = pointed_md(metric_group(qbar))
    for sign in (1, -1):
        z = ty_center_md(Z3, B3, sign)
        prod = tensor_md(mp_md(Z3, B3, sign), pt)
        assert md_equivalent(z, prod) is not None


def _oracle_mismatch(md, group, b, sign) -> set[str]:
    """What of a TY double differs from the four-block formulas."""
    labels, rows, thetas, grading, conductor = ty_center_oracle(group, b, sign)
    out = set()
    if list(md.labels) != labels or md.conductor != conductor or md.c_top != 0:
        out.add("labels")
    if any(x != y for r1, r2 in zip(md.S, rows) for x, y in zip(r1, r2)):
        out.add("S")
    if list(md.thetas) != thetas:
        out.add("T")
    if list(md.grading) != grading:
        out.add("grading")
    return out


@pytest.mark.parametrize("facs", [(1,), (3,), (5,), (7,), (9,), (3, 3)], ids=str)
def test_ty_center_matches_the_four_block_formulas(facs):
    # the label map onto mp x pointed makes every S entry, twist and grade
    # of the formulas at the same position; 22 data over the six groups
    group = FinAbGroup.of(*facs)
    for m in classify_metric_groups(group):
        for sign in (1, -1):
            md = ty_center_md(group, m.bichar, sign)
            assert _oracle_mismatch(md, group, m.bichar, sign) == set(), (m, sign)


def _no_rho_flip(a, x, pair):
    return (a.labels.index(MPRho(x.i)), pair[1]) if isinstance(x, TYRho) else pair


def _sigma_at_sum(a, x, pair):
    return (pair[0], Z3.index_of(x.pair[0] + x.pair[1])) if isinstance(x, TYSigma) else pair


@pytest.mark.parametrize("edit, signs, differs", [
    (_no_rho_flip, (-1,), {"S", "T"}),
    (_sigma_at_sum, (1, -1), {"S"}),
], ids=["no-rho-flip", "sigma-at-sum"])
def test_the_oracle_pins_the_label_map(monkeypatch, edit, signs, differs):
    # a wrong label map is a relabeled product, which the proof accepts;
    # only the formulas tell it from the double
    product = moddata._product
    monkeypatch.setattr(moddata, "_product", lambda a, b, labels, pairs: product(
        a, b, labels, [edit(a, x, pair) for x, pair in zip(labels, pairs)]))
    for sign in signs:
        md = ty_center_md.__wrapped__(Z3, B3, sign)  # proven: no error
        assert _oracle_mismatch(md, Z3, B3, sign) == differs


def test_tensor_md_multiplies_each_pair_of_entry_objects_once(monkeypatch):
    # each datum holds one object per distinct value of S, so the product
    # multiplies each pair of the factors' values once
    a, b = mp_md(Z3, B3, 1), mp_md(Z5, classify_metric_groups(Z5)[0].bichar, 1)
    objects = [len({id(x) for row in md.S for x in row}) for md in (a, b)]
    assert objects == [len(a.values), len(b.values)] == [6, 7]
    calls = []
    mul = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
    prod = tensor_md(a, b)
    monkeypatch.undo()
    assert len(calls) <= 6 * 7 < (a.rank * b.rank) ** 2
    # the Kronecker comprehension tensor_md used to run, one product per entry
    n = math.lcm(a.conductor, b.conductor)
    sa = [[x.promoted(n) for x in row] for row in a.S]
    sb = [[x.promoted(n) for x in row] for row in b.S]
    rows = [
        [x * y for x in sa[i1] for y in sb[j1]] for i1 in range(a.rank) for j1 in range(b.rank)
    ]
    assert prod.conductor == n
    assert all(x == y for r1, r2 in zip(prod.S, rows) for x, y in zip(r1, r2))
    assert prod.thetas == tuple(ta * tb for ta in a.thetas for tb in b.thetas)
    assert prod.grading == tuple((x + y) % 2 for x in a.grading for y in b.grading)
    assert prod.c_top == (a.c_top + b.c_top) % 8


# -- S stored as its distinct values and one index table --------------------------


def _ty3():
    return ty_center_md(Z3, B3, 1)


@pytest.mark.parametrize("build", [
    lambda: pointed_md(metric_group(Q_A2)),
    lambda: mp_md(Z5, classify_metric_groups(Z5)[0].bichar, -1),
    _ty3,
    lambda: tensor_md(mp_md(Z3, B3, 1), pointed_md(metric_group(Q_A2))),
    lambda: reverse_md(_ty3()),
    lambda: hat_twist(mp_md(Z3, B3, 1)),
    lambda: md_from_json(json.loads(json.dumps(md_to_json(_ty3())))),
], ids=["pointed", "mp", "ty-center", "tensor", "reverse", "hat-twist", "from-json"])
def test_s_is_held_as_distinct_values_and_a_read_only_index(build):
    md = build()
    values, _ = modcheck.distinct_values([md.values])
    assert len(values) == len(md.values)  # pairwise distinct
    assert md.index.shape == (md.rank, md.rank) and not md.index.flags.writeable
    with pytest.raises(ValueError):
        md.index[0, 0] = 1
    assert np.array_equal(np.unique(md.index), np.arange(len(md.values)))  # each value is used
    assert all(md.S[i][j] is md.values[k]
               for i, row in enumerate(md.index.tolist()) for j, k in enumerate(row))
    assert md.S is md.S  # the view is built once


def test_md_to_json_converts_each_value_once(monkeypatch):
    md = _ty3()
    calls = []
    to_json = CycNum.to_json
    monkeypatch.setattr(CycNum, "to_json", lambda x: calls.append(id(x)) or to_json(x))
    blob = md_to_json(md)
    assert len(calls) == len(md.values) + md.rank  # each S value once, each T entry once
    assert sorted(calls[: len(md.values)]) == sorted(map(id, md.values))
    assert blob["S"] == [[x.to_json() for x in row] for row in md.S]


def test_md_equivalent_promotes_each_value_once(monkeypatch):
    a = _ty3()
    b = tensor_md(mp_md(Z3, B3, 1), pointed_md(metric_group(Q_A2.conj())))  # a, relabeled
    calls = []
    promoted, key_at = CycNum.promoted, CycNum.key_at
    monkeypatch.setattr(CycNum, "promoted", lambda x, m: calls.append(1) or promoted(x, m))
    # a key at the value's own conductor is its canonical form, no promotion
    monkeypatch.setattr(CycNum, "key_at", lambda x, m: (m, tuple(sorted(x.num.items())), x.den)
                        if m == x.n else key_at(x, m))
    assert md_equivalent(a, b) is not None
    assert len(calls) <= len(a.values) + len(b.values) < a.rank**2


def test_pointed_md_builds_one_dq_table(monkeypatch):
    calls = []
    dq = QuadForm.dq
    monkeypatch.setattr(QuadForm, "dq", lambda q: calls.append(1) or dq(q))
    for m in (metric_group(Q_A2), classify_metric_groups(FinAbGroup.of(45))[0]):
        calls.clear()
        pointed_md.__wrapped__(m)
        assert len(calls) == 1


def test_placement_bound(monkeypatch):
    md = ty_center_md(Z3, B3, 1)
    assert md_equivalent(md, md) is not None  # one placement per label
    monkeypatch.setattr(moddata, "MAX_PLACEMENTS", md.rank - 1)
    with pytest.raises(CapacityError, match=f"^equivalence search exceeds {md.rank - 1} label"):
        md_equivalent(md, md)


def _relabeled(md, perm):
    """md with label perm[i] at index i, proven again by the constructor."""
    s = md.S
    return ModularData([md.labels[p] for p in perm], [[s[p][q] for q in perm] for p in perm],
                       [md.thetas[p] for p in perm], md.c_top, md.conductor)


def test_bijection_undoes_a_placement_that_leaves_no_fit():
    # item 1 fits only on candidate 0, which item 0 takes first
    fits = lambda item, cand, placed: item == 0 or cand == 0
    assert moddata._bijection([0, 1], {0: [0, 1], 1: [0, 1]}, fits, lambda _: True, "test") == {
        0: 1, 1: 0}


def test_bijection_undoes_a_placement_that_accept_refuses():
    order, candidates = [0, 1, 2], [[0, 1, 2]] * 3
    found = moddata._bijection(order, candidates, lambda *_: True, lambda p: p[0] == 2, "test")
    assert found == {0: 2, 1: 0, 2: 1}


def test_bijection_tries_every_placement_in_order_before_it_returns_none():
    tried = []
    found = moddata._bijection([0, 1, 2], [[0, 1, 2]] * 3, lambda *_: True,
                               lambda p: tried.append(tuple(p.values())), "test")
    assert found is None
    assert tried == list(permutations(range(3)))
    # two items, one candidate: the second level fails, then the first
    assert moddata._bijection([0, 1], [[0], [0]], lambda *_: True, lambda _: True, "test") is None


def test_bijection_counts_placements(monkeypatch):
    # trying every placement of 3 items takes 3 + 6 + 6 placements
    args = ([0, 1, 2], [[0, 1, 2]] * 3, lambda *_: True, lambda _: False, "test")
    monkeypatch.setattr(moddata, "MAX_PLACEMENTS", 15)
    assert moddata._bijection(*args) is None
    monkeypatch.setattr(moddata, "MAX_PLACEMENTS", 14)
    with pytest.raises(CapacityError, match="^test search exceeds 14 label placements$"):
        moddata._bijection(*args)


def test_md_equivalent_of_a_rank_past_the_recursion_limit():
    # five toric codes, rank 1024: a search one Python frame per label
    # raised RecursionError here
    z22 = FinAbGroup.of(2, 2)
    toric = pointed_md(metric_group(QuadForm.from_callable(
        z22, lambda g: RootOfUnity(Fraction(g.coords[0] * g.coords[1], 2)))))
    md = toric
    for _ in range(4):
        md = tensor_md(md, toric)
    assert md.rank == 1024 > sys.getrecursionlimit()
    assert md_equivalent(md, md).mapping == tuple(range(md.rank))


Z33 = FinAbGroup.of(3, 3)


def _hyperbolic_z33():
    """Pointed data of Z3 x Z3 with q(x, y) = zeta_3^{xy}."""
    return pointed_md(metric_group(QuadForm.from_callable(
        Z33, lambda g: RootOfUnity(Fraction(g.coords[0] * g.coords[1], 3)))))


def test_md_equivalent_returns_none_once_every_placement_is_tried(monkeypatch):
    # with every complete placement refused, the search lists them all: the
    # self-equivalences of hyperbolic Z3 x Z3, which are the four isometries
    # (x, y) -> (ax, y/a) and (y/a, ax) of q
    md = _hyperbolic_z33()
    tried = []
    search = moddata._bijection

    def refusing(order, candidates, fits, accept, what):
        return search(order, candidates, fits, lambda p: tried.append(dict(p)), what)

    monkeypatch.setattr(moddata, "_bijection", refusing)
    assert md_equivalent(md, md) is None

    def label(x, y):
        return md.index_of(Pointed(Z33.element([x % 3, y % 3])))

    isometries = [lambda x, y: (x, y), lambda x, y: (-x, -y),
                  lambda x, y: (y, x), lambda x, y: (-y, -x)]
    want = [{label(*g.coords): label(*f(*g.coords)) for g in Z33.elements()} for f in isometries]
    assert len(tried) == 4 and all(p in want for p in tried)


def test_md_equivalent_backtracks_to_a_witness(monkeypatch):
    mp3 = mp_md(Z3, B3, 1)
    a = tensor_md(mp3, mp3)
    b = _relabeled(a, [0, *range(a.rank - 1, 0, -1)])
    witness = md_equivalent(a, b)  # verified on S and T before it is returned
    assert witness is not None and sorted(witness.mapping) == list(range(a.rank))
    # the witness is found after more than one placement per label
    monkeypatch.setattr(moddata, "MAX_PLACEMENTS", a.rank)
    with pytest.raises(CapacityError, match=f"^equivalence search exceeds {a.rank} label"):
        md_equivalent(a, b)


def test_classify_mp_counts():
    assert len(classify_mp(TRIV)) == 2
    assert len(classify_mp(Z3)) == 4
    data9 = classify_mp(FinAbGroup.of(9))
    assert len(data9) == 4


def test_classify_mp_trivial_group_t_spectra():
    two = classify_mp(TRIV)
    spectra = [sorted(t.exponent for t in md.thetas) for md in two]
    assert spectra[0] != spectra[1]


def test_hat_twist():
    mdp = mp_md(Z3, B3, 1)
    mdm = mp_md(Z3, B3, -1)
    hat = hat_twist(mdp)
    assert md_equivalent(hat, mdm) is not None
    hathat = hat_twist(hat)
    assert md_equivalent(hathat, mdp) is not None
    assert bantay_fs(hat, MPRho(0)) == -1

    ptd = pointed_md(metric_group(Q_A2))
    with pytest.raises(InvalidArgumentError):
        hat_twist(ptd)


def test_hat_twist_rejects_a_grading_fusion_does_not_respect():
    # alpha graded odd: alpha rho_0 = rho_1 joins three odd labels
    md = mp_md(Z3, B3, 1)
    grading = [1 if isinstance(x, (MPAlpha, MPRho)) else 0 for x in md.labels]
    bad = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, grading)
    with pytest.raises(InvalidArgumentError, match="grading is not fusion-compatible"):
        hat_twist(bad)


def test_fusion_ring_is_the_proven_tensor(monkeypatch):
    proven = []
    verify = modcheck.MatProver.verify_verlinde

    def spy(self, s, tensor):
        proven.append(tensor)
        return verify(self, s, tensor)

    monkeypatch.setattr(modcheck.MatProver, "verify_verlinde", spy)
    src = mp_md(Z5, bichar_from_qform(q_cyclic(Z5, 1, 5)), 1)
    md = ModularData(src.labels, src.S, src.thetas, src.c_top, src.conductor)
    ring = md.fusion_ring()
    assert ring is md.fusion_ring()
    assert len(proven) == 1 and np.shares_memory(ring.channels, proven[0])
    assert np.array_equal(ring.channels, src.fusion_ring().channels)


def test_condensation_search_is_bounded(monkeypatch):
    md = mp_md(Z3, B3, 1)
    child = pointed_md(metric_group(QuadForm.from_callable(Z3, lambda g: B3(g, g).inverse())))
    bosons = [0, md.index_of(MPAlpha())]
    # the first assignment is the certificate: one placement per child label
    monkeypatch.setattr(moddata, "MAX_PLACEMENTS", child.rank)
    assert verify_condensation(md, child, bosons) is not None
    monkeypatch.setattr(moddata, "MAX_PLACEMENTS", child.rank - 1)
    with pytest.raises(CapacityError,
                       match=f"^condensation search exceeds {child.rank - 1} label placements$"):
        verify_condensation(md, child, bosons)


def test_condensation_tries_every_assignment_before_it_returns_none(monkeypatch):
    # TY(Z3)'s double condensed along the Z2 boson onto hyperbolic Z3 x Z3,
    # with every complete assignment refused
    parent = _ty3()
    child = next(md for md in map(pointed_md, classify_metric_groups(FinAbGroup.of(3, 3)))
                 if md.c_top == parent.c_top)
    bosons = [parent.index_of(TYPt(Z3.element([0]), 1))]
    cert = verify_condensation(parent, child, bosons)
    assert cert is not None
    tried = []
    search = moddata._bijection

    def refusing(order, candidates, fits, accept, what):
        return search(order, candidates, fits, lambda p: tried.append(dict(p)), what)

    monkeypatch.setattr(moddata, "_bijection", refusing)
    assert verify_condensation(parent, child, bosons) is None
    # classes of 5 (the unit fixed), 2 and 2 slots: 4! 2! 2! assignments,
    # each class's slots permuted in order, the first class slowest
    slots = [tuple(p.values()) for p in tried]
    assert len(slots) == len(set(slots)) == 96 and slots == sorted(slots)
    assert all(list(p) == list(tried[0]) and p[0] == tried[0][0] for p in tried)
    assert next(iter(tried[0])) == 0  # the unit is placed first


def test_condensation_with_unmatched_classes_searches_nothing(monkeypatch):
    # mp(Z3) and its hat twist have equal rank and c, but twists i apart on rho
    md, other = mp_md(Z3, B3, 1), mp_md(Z3, B3, -1)
    assert md.c_top == other.c_top
    monkeypatch.setattr(moddata, "_bijection", lambda *_: pytest.fail("searched"))
    assert verify_condensation(md, other, [0]) is None


def test_condensation_identity():
    md = mp_md(Z3, B3, 1)
    cert = verify_condensation(md, md, [0])
    assert cert is not None
    r = md.rank
    assert cert.matrix == tuple(
        tuple(1 if i == j else 0 for j in range(r)) for i in range(r)
    )


def test_condensation_lagrangian_to_trivial():
    from tycat.quadforms import lagrangian_subgroups

    hyper = direct_sum(metric_group(Q_A2), metric_group(Q_A2.conj()))
    parent = pointed_md(hyper)
    lagr = lagrangian_subgroups(hyper)[0]
    bosons = [parent.index_of(Pointed(g)) for g in lagr]
    assert len(bosons) == 3
    child = pointed_md(classify_metric_groups(TRIV)[0])
    cert = verify_condensation(parent, child, bosons)
    assert cert is not None
    col = [row[0] for row in cert.matrix]
    assert sum(col) == 3


def test_condensation_mp_to_pointed():
    md = mp_md(Z3, B3, 1)
    qbar = QuadForm.from_callable(Z3, lambda g: B3(g, g).inverse())
    child = pointed_md(metric_group(qbar))
    alpha = md.index_of(MPAlpha())
    cert = verify_condensation(md, child, [0, alpha])
    assert cert is not None
    sig_row = cert.matrix[md.index_of(MPSigma(Z3.element([1])))]
    assert sum(sig_row) == 2  # sigma restricts to two invertibles


def test_condensation_rejects_twisted_boson():
    md = mp_md(Z3, B3, 1)
    with pytest.raises(InvalidArgumentError):
        verify_condensation(md, md, [md.index_of(MPRho(0))])


def test_condensation_refuses_boson_indices_outside_the_labels():
    md = mp_md(Z3, B3, 1)
    for bad in (99, -1, md.rank):
        with pytest.raises(InvalidArgumentError, match=f"^boson index {bad} is outside \\[0, 5\\)$"):
            verify_condensation(md, md, [0, bad])


def test_label_indices_are_range_checked_and_foreign_labels_named():
    md = mp_md(Z3, B3, 1)
    foreign = MPSigma(Z5.element([1]))
    assert md.index_of(np.int64(2)) == 2 and type(md.index_of(np.int64(2))) is int
    assert bantay_fs(md, np.int64(2)) == bantay_fs(md, 2) == bantay_fs(md, md.labels[2])
    for bad in (-1, 99, np.int64(-1), np.int64(5)):
        with pytest.raises(InvalidArgumentError, match=f"^label index {bad} is outside \\[0, 5\\)$"):
            bantay_fs(md, bad)
    for call in (lambda: md.index_of(foreign), lambda: bantay_fs(md, foreign),
                 lambda: verify_condensation(md, md, [foreign])):
        with pytest.raises(InvalidArgumentError, match=rf"^{foreign} is not a label of this datum$"):
            call()
    with pytest.raises(InvalidArgumentError, match=r"^boson index 7 is outside \[0, 5\)$"):
        verify_condensation(md, md, [np.int64(7)])
    alpha = np.int64(md.index_of(MPAlpha()))
    assert verify_condensation(md, md, [alpha]) == verify_condensation(md, md, [int(alpha)])


def test_a_proven_ring_passes_the_full_check():
    # the Verlinde ring is not rechecked when it is proven: the full check,
    # which proves the dimensions exact, finds nothing, and the dimensions
    # are the proven S_i0 / S_00; an mp ring equals its rule table, exact
    # dimensions included, so `fusion --from-md` prints what `--rules` would
    for md in (mp_md(Z3, B3, 1), mp_md(Z5, bichar_from_qform(q_cyclic(Z5, 1, 5)), -1),
               ty_center_md(Z3, B3, 1), pointed_md(metric_group(Q_A2))):
        ring = md.fusion_ring()
        assert check_fusion_ring(ring) == []
        assert ring.dims == md.dims()
    for group, sign in ((Z3, 1), (Z5, -1)):
        ring = mp_md(group, classify_metric_groups(group)[0].bichar, sign).fusion_ring()
        rules = gen_mp_fusion_ring(group)
        assert rules.labels == ring.labels and np.array_equal(rules.channels, ring.channels)
        assert ring.dims == rules.dims and ring.global_dim == rules.global_dim


@pytest.mark.parametrize("build", [
    lambda: pointed_md(classify_metric_groups(FinAbGroup.of(45))[0]),
    lambda: mp_md(FinAbGroup.of(15), classify_metric_groups(FinAbGroup.of(15))[0].bichar, -1),
    lambda: ty_center_md(Z5, bichar_from_qform(q_cyclic(Z5, 1, 5)), 1),
    lambda: tensor_md(mp_md(Z3, B3, 1), semion_md()),
    lambda: reverse_md(ty_center_md(Z3, B3, -1)),
    lambda: hat_twist(mp_md(Z5, bichar_from_qform(q_cyclic(Z5, 1, 5)), 1)),
    lambda: md_from_json(json.loads(json.dumps(md_to_json(ty_center_md(Z3, B3, 1))))),
], ids=["pointed-Z45", "mp-Z15-", "ty-Z5", "tensor", "reverse", "hat-twist", "from-json"])
def test_verlinde_dims_agree_with_the_eigenvalue_oracle(build):
    md = build()
    ring = md.fusion_ring()
    assert ring.dims == md.dims()
    assert np.allclose(ring.fp_dims, eigen_dims(ring), rtol=0, atol=1e-12)


def test_condensation_counts_each_boson_once():
    md = mp_md(Z3, B3, 1)
    child = pointed_md(metric_group(QuadForm.from_callable(Z3, lambda g: B3(g, g).inverse())))
    alpha = md.index_of(MPAlpha())
    certs = [
        verify_condensation(md, child, bosons)
        for bosons in ([0, alpha], [alpha, alpha], [MPAlpha(), md.labels[0], MPAlpha()])
    ]
    assert certs[0] is not None and certs[1] == certs[0] and certs[2] == certs[0]


def test_condensation_needs_equal_central_charge():
    # q-bar (not its inverse): the same dimensions, conjugate twists, opposite charge
    md = mp_md(Z3, B3, 1)
    bosons = [0, md.index_of(MPAlpha())]
    child = pointed_md(metric_group(QuadForm.from_callable(Z3, lambda g: B3(g, g))))
    assert child.c_top != md.c_top
    assert verify_condensation(md, child, bosons) is None
    good = pointed_md(metric_group(QuadForm.from_callable(Z3, lambda g: B3(g, g).inverse())))
    assert verify_condensation(md, good, bosons) is not None
    # the child that works with only its charge changed is no datum
    with pytest.raises(ModularityError, match="TSTST = S identity fails"):
        ModularData(good.labels, good.S, good.thetas, good.c_top + 4, good.conductor)


def test_twist_order_must_divide_the_conductor():
    thetas = [RootOfUnity.one(), RootOfUnity(1, 7)]
    with pytest.raises(InvalidArgumentError, match="^cannot promote conductor 7 to 12$"):
        ModularData(["a", "b"], [[1, 0], [0, 1]], thetas, 0, 12)


def test_even_code_condensation_z3_z5():
    q5 = q_cyclic(Z5, 1, 5)
    b5 = bichar_from_qform(q5)
    parent = tensor_md(mp_md(Z3, B3, 1), mp_md(Z5, b5, 1))
    summed = direct_sum(metric_group(Q_A2), metric_group(q5))
    child = mp_md(summed.group, summed.bichar, 1)
    from tycat.labels import ProductLabel

    boson = parent.index_of(ProductLabel(MPAlpha(), MPAlpha()))
    cert = verify_condensation(parent, child, [0, boson])
    assert cert is not None
    assert cert.matrix[0][0] == 1


def test_one_md_build_evaluates_the_float_s_once(monkeypatch):
    calls = []
    to_complex = CycNum.__complex__
    monkeypatch.setattr(CycNum, "__complex__", lambda x: calls.append(x) or to_complex(x))
    md = pointed_md.__wrapped__(metric_group(standard_qform(FinAbGroup.of(15))))
    blob = md_to_json(md)
    # S takes one float evaluation per distinct entry object, for the float
    # view: validate evaluates S only as residues mod p, the Verlinde guess
    # included; dims, the Gauss check and T take O(r)
    k = len({id(x) for row in md.S for x in row})
    assert k < md.rank**2
    assert k <= len(calls) < k + 3 * md.rank
    z = complex(md.S[1][2])
    assert blob["float_view"]["S"][1][2] == [z.real, z.imag]
    sf = np.array([[complex(x) for x in row] for row in md.S])
    assert np.allclose(np.array(blob["float_view"]["S"]) @ [1, 1j], sf, rtol=0, atol=1e-12)


def test_md_json_roundtrip():
    for md in [semion_md(), mp_md(Z3, B3, 1)]:
        blob = md_to_json(md)
        back = md_from_json(blob)
        assert back.labels == md.labels
        assert back.S == md.S
        assert back.t_exps == md.t_exps
        assert back.c_top == md.c_top
        assert md_to_json(back) == blob


Z9 = FinAbGroup.of(9)


def test_to_json_converts_each_distinct_entry_once():
    md = ty_center_md(Z9, bichar_from_qform(standard_qform(Z9)), 1)
    blob = md_to_json(md)
    k = len({id(x) for row in md.S for x in row})
    assert k < md.rank**2 // 10
    assert len({id(e) for row in blob["S"] for e in row}) <= k
    assert len({id(p) for row in blob["float_view"]["S"] for p in row}) <= k
    # the per-entry conversion md_to_json made before it shared entries
    t = [zeta(md.conductor, e) for e in md.t_exps]
    assert blob == {
        "conductor": md.conductor,
        "c_top": str(md.c_top),
        "labels": [label_to_json(l) for l in md.labels],
        "label_names": [str(l) for l in md.labels],
        "S": [[x.to_json() for x in row] for row in md.S],
        "T": [x.to_json() for x in t],
        "grading": list(md.grading) if md.grading is not None else None,
        "float_view": {
            "S": [[[z.real, z.imag] for z in map(complex, row)] for row in md.S],
            "T": [[complex(x).real, complex(x).imag] for x in t],
        },
    }


def test_from_json_reads_each_distinct_entry_once(monkeypatch):
    md = ty_center_md(Z9, bichar_from_qform(standard_qform(Z9)), 1)
    blob = json.loads(json.dumps(md_to_json(md)))
    reads = []
    real = moddata._md_entry
    monkeypatch.setattr(moddata, "_md_entry", lambda x, *a: reads.append(x) or real(x, *a))
    back = md_from_json(blob)
    texts = {json.dumps(x) for x in [*(x for row in blob["S"] for x in row), *blob["T"]]}
    assert len(reads) == len(texts) < md.rank**2 // 10
    assert back.S == md.S
    # one CycNum per distinct value, shared like the builders' entries
    values, _ = modcheck.distinct_values(back.S)
    assert len({id(x) for row in back.S for x in row}) == len(values)


def _repeated_entry(blob):
    """The position of the last copy of a value S holds more than once whose
    first coefficient is 1, which 1.0 and true equal in Python."""
    first = {}
    for i, row in enumerate(blob["S"]):
        for j, x in enumerate(row):
            if x["terms"][:1] and x["terms"][0][1] == 1:
                first.setdefault(json.dumps(x), []).append((i, j))
    return max(pos[-1] for pos in first.values() if len(pos) > 1)


@pytest.mark.parametrize("retype", [float, bool, str], ids=["float", "bool", "str"])
def test_from_json_reports_a_corrupted_copy_at_its_own_position(retype):
    blob = json.loads(json.dumps(md_to_json(mp_md(Z3, B3, 1))))
    i, j = _repeated_entry(blob)
    entry = blob["S"][i][j]
    e, c = entry["terms"][0]
    entry["terms"][0] = [e, retype(c)]  # 1.0 and true equal 1, but are no JSON integer
    with pytest.raises(InvalidArgumentError) as exc:
        md_from_json(blob)
    assert str(exc.value).startswith(f"S[{i}][{j}]: term coefficient must be an integer")


def test_from_json_rejects_corrupt():
    blob = md_to_json(mp_md(Z3, B3, 1))
    blob["S"][2][3] = CycNum.one().promoted(int(blob["conductor"])).to_json()
    with pytest.raises((ModularityError, InvalidArgumentError)):
        md_from_json(blob)


def test_from_json_refuses_a_charge_conjugation_that_moves_the_unit():
    # pointed Z3 x Z3 with q(x, y) = zeta_3^{xy}, pt(0,1) written first:
    # its twist is 1, so the unit check passes, but its dual is pt(0,2)
    md = _hyperbolic_z33()
    first = md.index_of(Pointed(Z33.element([0, 1])))
    perm = [first] + [i for i in range(md.rank) if i != first]
    blob = md_to_json(md)
    for key in ("labels", "label_names", "T"):
        blob[key] = [blob[key][i] for i in perm]
    blob["S"] = [[blob["S"][i][j] for j in perm] for i in perm]
    with pytest.raises(ModularityError,
                       match="^charge conjugation is not a unit-fixing permutation$"):
        md_from_json(blob)


def test_from_json_refuses_an_edited_c_top():
    # T stays as written, so the edited prefactor lands on the unit's twist
    blob = md_to_json(mp_md(Z3, B3, 1))
    blob["c_top"] = str((int(blob["c_top"]) + 1) % 8)
    with pytest.raises(ModularityError, match="unit label must have trivial twist"):
        md_from_json(blob)


def test_from_json_refuses_a_t_entry_off_the_roots_of_unity():
    blob = md_to_json(mp_md(Z3, B3, 1))
    blob["T"][1] = (zeta(48, 1) * 2).to_json()
    with pytest.raises(InvalidArgumentError, match="T entry is not a root of unity"):
        md_from_json(blob)
    blob["T"][1] = (zeta(48, 1) + zeta(48, 2)).to_json()
    with pytest.raises(InvalidArgumentError, match="T entry is not a root of unity"):
        md_from_json(blob)


def test_from_json_limits_the_conductor():
    # the trivial datum's entries live at conductor 12, which divides both
    blob = md_to_json(pointed_md(classify_metric_groups(TRIV)[0]))
    blob["conductor"] = MAX_CONDUCTOR
    assert md_from_json(blob).conductor == MAX_CONDUCTOR
    blob["conductor"] = MAX_CONDUCTOR + 12
    with pytest.raises(CapacityError, match=f"conductor {MAX_CONDUCTOR + 12} exceeds"):
        md_from_json(blob)


def test_from_json_limits_the_size_before_reading_entries():
    # 1,600 labels at conductor 2496 (phi = 768) is 1.97e9 cells; S and T
    # are empty, so any later check would name their lengths instead
    blob = {
        "conductor": 2496, "c_top": "0", "labels": [None] * 1600,
        "label_names": [], "S": [], "T": [],
    }
    with pytest.raises(CapacityError, match=f"exceed {modcheck.MAX_CELLS} cells"):
        md_from_json(blob)


def test_prover_limits_the_size_before_packing(monkeypatch):
    md = mp_md(Z3, B3, 1)  # rank 5 at conductor 48: 25 * 16 = 400 cells
    monkeypatch.setattr(modcheck, "MAX_CELLS", 399)
    monkeypatch.setattr(modcheck.np, "zeros", None)  # nothing may be allocated
    with pytest.raises(CapacityError, match="exceed 399 cells"):
        modcheck.MatProver(md.conductor).pack(md.values, md.index)


def _galois(x: CycNum, a: int) -> CycNum:
    """sigma_a: zeta_n -> zeta_n^a on one entry."""
    return zeta_sum(x.n, ((e * a, c) for e, c in x.num.items())) * Fraction(1, x.den)


def test_galois_conjugate_fails_only_on_dimensions():
    # sigma_97 on mp(Z5) at conductor 240: 97 = 1 (mod 24) fixes the T
    # prefactor, and 97 is a non-residue mod 5, so sqrt(5) -> -sqrt(5);
    # S and T stay a modular representation, but a dimension turns negative
    md = mp_md(Z5, classify_metric_groups(Z5)[0].bichar, 1)
    assert md.conductor == 240
    assert 97 % 24 == 1
    s = [[_galois(x, 97) for x in row] for row in md.S]
    with pytest.raises(ModularityError, match="dimension of label 2 is not positive"):
        ModularData(md.labels, s, [t**97 for t in md.thetas], md.c_top, 240, md.grading)


def test_total_dimension_check():
    md = mp_md(Z3, B3, 1)
    moddata._check_total_dim(md, 12)
    with pytest.raises(ModularityError, match="total dimension is .*, expected 13"):
        moddata._check_total_dim(md, 13)


def _corruptions():
    """(name, edit of an mp Z3 blob, message fragment) for malformed shapes."""
    def drop_s_row(b):
        del b["S"][1]

    def drop_label(b):
        del b["labels"][2]

    def drop_name(b):
        del b["label_names"][0]

    def drop_t(b):
        del b["T"][4]

    def short_s_col(b):
        del b["S"][3][0]

    def entry_not_object(b):
        b["S"][0][1] = "1/2"

    def foreign_conductor(b):
        b["T"][0]["conductor"] = 7

    def repeated_exponent(b):
        b["S"][1][1]["terms"] += b["S"][1][1]["terms"][:1]

    def exponent_out_of_range(b):
        b["S"][1][1]["terms"].append([b["conductor"], 1])

    def zero_den(b):
        b["T"][2]["den"] = 0

    def dense_wrong_length(b):
        b["T"][2] = {"conductor": b["conductor"], "coeffs": [[1, 1]]}

    def missing_key(b):
        del b["c_top"]

    def bad_c_top(b):
        b["c_top"] = "1/2"

    def c_top_double_minus(b):
        b["c_top"] = "--1"

    def c_top_non_ascii_digit(b):
        b["c_top"] = "\u0663"  # ARABIC-INDIC DIGIT THREE, which int() reads as 3

    def bad_grading(b):
        b["grading"] = [0]

    # hat_twist would refuse these as "not fusion-compatible"
    def grading_three(b):
        b["grading"] = [3 * g for g in b["grading"]]

    def grading_negative(b):
        b["grading"][2] = -1

    def grading_float(b):
        b["grading"][0] = 0.0

    def bad_label(b):
        b["labels"][0] = {"kind": "mp_sigma"}

    def repeated_label(b):
        b["labels"][1] = b["labels"][0]
        b["S"][0][1] = "1/2"  # refused before any entry is read

    # int() would read each of these as the label's own value
    def float_label_index(b):
        b["labels"][2]["i"] = 0.9

    def float_coordinate(b):
        b["labels"][4]["h"]["coords"] = [1.7]

    def non_ascii_coordinate(b):
        b["labels"][4]["h"]["coords"] = ["\u0661"]  # ARABIC-INDIC DIGIT ONE

    # str() and an unchecked index would load labels no writer produces
    def mp_rho_index_out_of_range(b):
        b["labels"][2]["i"] = -4

    def name_not_a_string(b):
        b["labels"][1] = {"kind": "name", "name": 5}

    return [
        (drop_s_row, "S has 4 entries, labels has 5"),
        (drop_label, "label_names has 5 entries, labels has 4"),
        (drop_name, "label_names has 4 entries, labels has 5"),
        (drop_t, "T has 4 entries, labels has 5"),
        (short_s_col, "S row 3 has 4 entries, expected 5"),
        (entry_not_object, "S[0][1] must be an object"),
        (foreign_conductor, "T[0] has conductor 7, which does not divide 48"),
        (repeated_exponent, "S[1][1]: term exponent"),
        (exponent_out_of_range, "S[1][1]: term exponent 48 outside [0, 16)"),
        (zero_den, "T[2]: den must be >= 1"),
        (dense_wrong_length, "T[2]: cyclotomic entry needs 'terms'"),
        (missing_key, "modular data lacks c_top"),
        (bad_c_top, "c_top must be an integer"),
        (c_top_double_minus, "c_top must be an integer"),
        (c_top_non_ascii_digit, "c_top must be an integer"),
        (bad_grading, "grading has 1 entries, labels has 5"),
        (grading_three, "grading entries must be 0 or 1"),
        (grading_negative, "grading entries must be 0 or 1"),
        (grading_float, "grading entries must be 0 or 1"),
        (bad_label, "labels[0] is malformed"),
        (repeated_label, "labels[1] repeats labels[0]"),
        (float_label_index, "labels[2] is malformed"),
        (float_coordinate, "labels[4] is malformed"),
        (non_ascii_coordinate, "labels[4] is malformed"),
        (mp_rho_index_out_of_range, "labels[2] is malformed"),
        (name_not_a_string, "labels[1] is malformed"),
    ]


@pytest.mark.parametrize(
    "edit, message", _corruptions(), ids=[e.__name__ for e, _ in _corruptions()]
)
def test_from_json_rejects_malformed_shape(edit, message):
    # a document as a reader gets it: md_to_json shares repeated entries
    blob = json.loads(json.dumps(md_to_json(mp_md(Z3, B3, 1))))
    edit(blob)
    with pytest.raises(InvalidArgumentError) as exc:
        md_from_json(blob)
    assert message in str(exc.value)


def test_from_json_bounds_a_label_group_before_factoring_it():
    # factoring this prime by trial division takes more than 10 s
    blob = json.loads(json.dumps(md_to_json(mp_md(Z3, B3, 1))))
    blob["labels"][4]["h"]["group"] = [10**18 + 3]
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="exceeds 2048, the limit for"):
        md_from_json(blob)
    assert time.perf_counter() - start < 1


def test_from_json_refuses_the_dense_format():
    # one [p, q] per power of zeta, as earlier versions wrote, is refused
    blob = json.loads(json.dumps(md_to_json(mp_md(Z3, B3, 1))))
    n = blob["conductor"]
    blob["S"][2][3] = {"conductor": n, "coeffs": [[1, 3]] + [[0, 1]] * (euler_phi(n) - 1)}
    with pytest.raises(InvalidArgumentError, match=r"^S\[2\]\[3\]: cyclotomic entry needs 'terms'"):
        md_from_json(blob)


def test_classification_rejects_cross_class_equivalences():
    # |G| in {5, 7}: the four data (two bicharacter classes x two signs)
    # are pairwise inequivalent; Z3/Z9/Z15 are covered by the acceptance run
    from itertools import combinations

    for order in (5, 7):
        data = classify_mp(FinAbGroup.of(order))
        assert len(data) == 4
        for a, b in combinations(data, 2):
            assert md_equivalent(a, b) is None


def test_tensor_md_json_roundtrip():
    sem = semion_md()
    prod = tensor_md(sem, reverse_md(sem))
    blob = md_to_json(prod)
    back = md_from_json(blob)
    assert back.labels == prod.labels
    assert back.S == prod.S and back.t_exps == prod.t_exps


def test_pointed_even_groups():
    # toric-code-like form on Z2 x Z2 and an order-8 twist on Z4
    z22 = FinAbGroup.of(2, 2)
    toric = QuadForm.from_callable(
        z22, lambda g: RootOfUnity(Fraction(g.coords[0] * g.coords[1], 2))
    )
    md = pointed_md(metric_group(toric))
    assert md.c_top == 0
    assert sorted(t.exponent for t in md.thetas) == [
        Fraction(0),
        Fraction(0),
        Fraction(0),
        Fraction(1, 2),
    ]

    z4 = FinAbGroup.of(4)
    q8 = QuadForm.from_callable(
        z4, lambda g: RootOfUnity(Fraction(g.coords[0] ** 2, 8))
    )
    md4 = pointed_md(metric_group(q8))
    assert md4.rank == 4
    assert md4.c_top == 1


def test_condensation_rejects_non_closed_bosons():
    hyper = direct_sum(metric_group(Q_A2), metric_group(Q_A2.conj()))
    parent = pointed_md(hyper)
    g = hyper.group
    candidates = [
        x
        for x in g.elements()
        if not x.is_zero() and hyper.quad(x).is_one()
    ]
    bad = None
    for a in candidates:
        for b in candidates:
            if (a + b) not in candidates and not (a + b).is_zero():
                bad = [parent.index_of(Pointed(a)), parent.index_of(Pointed(b))]
                break
        if bad:
            break
    assert bad is not None
    with pytest.raises(InvalidArgumentError):
        verify_condensation(parent, parent, [0] + bad)


def test_bantay_self_duality_more_data():
    z5 = FinAbGroup.of(5)
    q5 = q_cyclic(z5, 1, 5)
    b5 = bichar_from_qform(q5)
    md = ty_center_md(z5, b5, 1)
    cc = md.charge_conjugation()
    for i in range(md.rank):
        assert (bantay_fs(md, i) == 0) == (cc[i] != i)


def test_mp_z3_matches_affine_su2_level4():
    """Independent oracle: the rank-5 datum over Z3 with the A2-form
    bicharacter and sign -1 is the affine SU(2) level-4 modular data
    S_ab = sin(pi (a+1)(b+1)/6)/sqrt(3), theta_a = e^{2 pi i a(a+2)/24}."""
    md = mp_md(Z3, B3, -1)
    # spins 2j = (0, 4, 1, 3, 2) correspond to (unit, alpha, rho0, rho1, sigma)
    spins = [0, 4, 1, 3, 2]
    root3 = sqrt_int(3)
    half = Fraction(1, 2)
    sin_table = {
        0: CycNum.zero(),
        1: CycNum.from_fraction(half),
        2: root3 * half,
        3: CycNum.one(),
        4: root3 * half,
        5: CycNum.from_fraction(half),
    }
    for i, a in enumerate(spins):
        assert md.thetas[i] == RootOfUnity(Fraction(a * (a + 2), 24)), a
        for j, b in enumerate(spins):
            m = (a + 1) * (b + 1)
            val = sin_table[m % 6] if (m // 6) % 2 == 0 else -sin_table[m % 6]
            assert md.S[i][j] * root3 == val, (a, b)


@pytest.mark.parametrize("blob, message", [
    ({"kind": "name", "name": 5}, "name must be a string, got 5"),
    ({"kind": "name", "name": [1]}, r"name must be a string, got \[1\]"),
    ({"kind": "ty_pt", "g": {"group": [3], "coords": [1]}, "i": 7}, "i must be 0 or 1, got 7"),
    ({"kind": "mp_rho", "i": -4}, "i must be 0 or 1, got -4"),
    ({"kind": "dihedral", "g": {"group": [3], "coords": [1]}, "eps": 9},
     "eps must be 0 or 1, got 9"),
], ids=["name-int", "name-list", "ty-pt-index", "mp-rho-index", "dihedral-eps"])
def test_label_json_is_read_strictly(blob, message):
    with pytest.raises(InvalidArgumentError, match=message):
        label_from_json(blob)


# -- a datum is proven when it is built ----------------------------------------

Z15 = FinAbGroup.of(15)
CYCNUM_ARITHMETIC = ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__", "__sub__",
                     "__rsub__", "__truediv__", "__rtruediv__", "__pow__", "conj", "galois",
                     "inverse")


def _refused(*args, **kwargs):
    raise AssertionError("CycNum arithmetic during the proof")


@pytest.mark.parametrize("build", [
    lambda: ty_center_md(Z5, bichar_from_qform(q_cyclic(Z5, 1, 5)), 1),
    lambda: mp_md(Z15, classify_metric_groups(Z15)[0].bichar, -1),
    lambda: pointed_md(classify_metric_groups(FinAbGroup.of(45))[0]),
], ids=["ty-Z5", "mp-Z15-", "pointed-Z45"])
def test_the_proof_does_no_cyclotomic_arithmetic(monkeypatch, build):
    # after pack, the prover works on residues and the dimensions and c are
    # read off the index of column 0 and float signs
    md = build()
    for name in CYCNUM_ARITHMETIC:
        monkeypatch.setattr(CycNum, name, _refused)
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    assert fresh.charge_conjugation() == md.charge_conjugation()
    assert np.array_equal(fresh._channels, md._channels)


@pytest.mark.parametrize("build", [
    lambda: mp_md(Z5, classify_metric_groups(Z5)[0].bichar, 1),
    lambda: mp_md(Z3, B3, -1),
    lambda: ty_center_md(Z3, B3, 1),
], ids=["mp-Z5", "mp-Z3-", "ty-Z3"])
def test_the_negated_datum_fails_only_the_gauss_sum(build):
    # (-S, c + 4) passes every identity: T gains e^{-pi i/3}, a cube root of
    # -1, and the dimensions S_i0 / S_00 are unchanged; only S_00 < 0 shows
    md = build()
    rows = [[-x for x in row] for row in md.S]
    with pytest.raises(ModularityError, match="^Gauss sum does not match the stated central charge$"):
        ModularData(md.labels, rows, md.thetas, md.c_top + 4, md.conductor, md.grading)


def test_a_sign_below_the_float_error_bound_is_refused():
    # y = (sqrt 5 - 1)/2 - fl((sqrt 5 - 1)/2) is about -1e-17: its float
    # view has real part 0.0, so no sign may be read off it
    golden, fl = (sqrt_int(5) - 1) / 2, Fraction(0.6180339887498949)
    y = golden - fl
    assert complex(y).real == 0.0 and (2 * fl + 1) ** 2 > 5  # y < 0 exactly
    with pytest.raises(ModularityError, match="^the sign of a value within .* of 0 is beyond"):
        cyclo._real_sign(y)
    assert cyclo._real_sign(golden) == 1
    assert cyclo._real_sign(-golden) == -1
    assert cyclo._real_sign(golden - golden) == 0


def test_a_datum_is_proven_before_any_method_is_called():
    md = mp_md(Z3, B3, 1)
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    assert fresh._charge_conj == md.charge_conjugation()
    assert fresh._channels is not None and fresh._fusion is None  # the ring is built when asked
    assert np.array_equal(fresh._channels, md.fusion_ring().channels)


def test_each_builder_proves_each_new_datum_once(monkeypatch):
    # a datum of its own S is proven once, by validate; a product or a
    # reverse of proven data is proven by them and runs no prover at all
    a = mp_md(Z3, B3, 1)
    pt = pointed_md(metric_group(Q_A2))
    pointed_md(metric_group(Q_A2.conj()))  # with a, the factors of TY(Z3, B3, +)
    blob = md_to_json(a)
    calls, provers = [], []
    validate, pack = ModularData.validate, modcheck.MatProver.pack
    prover_init = modcheck.MatProver.__init__
    monkeypatch.setattr(ModularData, "validate",
                        lambda self: calls.append("validate") or validate(self))
    monkeypatch.setattr(modcheck.MatProver, "pack",
                        lambda self, *s: calls.append("pack") or pack(self, *s))
    monkeypatch.setattr(modcheck.MatProver, "__init__",
                        lambda self, n: provers.append(n) or prover_init(self, n))
    for build, proven in (
        (lambda: pointed_md.__wrapped__(metric_group(Q_A2)), ["validate", "pack"]),  # past the cache
        (lambda: ty_center_md.__wrapped__(Z3, B3, 1), []),  # factors from the caches
        (lambda: mp_md.__wrapped__(Z3, B3, 1), ["validate", "pack"]),
        (lambda: tensor_md(a, pt), []),
        (lambda: reverse_md(a), []),
        (lambda: hat_twist(a), ["validate", "pack"]),
        (lambda: md_from_json(blob), ["validate", "pack"]),
    ):
        calls.clear()
        provers.clear()
        md = build()
        assert calls == proven
        assert len(provers) == len(proven) // 2
        md.validate()  # a second run returns at once
        md.fusion_ring()
        md.charge_conjugation()
        assert calls == proven + ["validate"]


# -- the product route against the full validate -------------------------------


def _same_as_validate(md: ModularData) -> None:
    """The oracle: a fresh datum on the same S and T, proven by validate,
    has the channels, C, dimensions and T exponents of md."""
    fresh = ModularData(md.labels, md.S, md.thetas, md.c_top, md.conductor, md.grading)
    assert np.array_equal(md.fusion_ring().channels, fresh.fusion_ring().channels)
    assert not md.fusion_ring().channels.flags.writeable
    assert md.charge_conjugation() == fresh.charge_conjugation()
    assert md.dims() == fresh.dims()
    assert md.t_exps == fresh.t_exps


def _ty_data():
    # every class of the small groups; the first class of the larger ones
    for orders in ((1,), (3,), (5,), (7,), (9,), (3, 3), (11,), (13,), (15,)):
        group = FinAbGroup.of(*orders)
        classes = classify_metric_groups(group)
        for m in classes if group.order < 13 else classes[:1]:
            for sign in (1, -1):
                name = "x".join(map(str, orders))
                yield pytest.param(group, m.bichar, sign, id=f"{name}-{classes.index(m)}-{sign:+d}")


@pytest.mark.parametrize("group, b, sign", list(_ty_data()))
def test_ty_products_match_the_full_validate(group, b, sign):
    _same_as_validate(ty_center_md(group, b, sign))


@pytest.mark.parametrize("build", [
    lambda: tensor_md(mp_md(Z3, B3, 1), pointed_md(metric_group(Q_A2))),
    lambda: tensor_md(pointed_md(classify_metric_groups(Z5)[1]), mp_md(Z3, B3, -1)),
    lambda: tensor_md(mp_md(Z3, B3, -1), mp_md(Z5, classify_metric_groups(Z5)[1].bichar, 1)),
    lambda: tensor_md(semion_md(), pointed_md(metric_group(Q_A2.conj()))),
    lambda: reverse_md(mp_md(Z5, classify_metric_groups(Z5)[0].bichar, -1)),
    lambda: reverse_md(ty_center_md(Z3, B3, -1)),
    lambda: reverse_md(tensor_md(semion_md(), mp_md(Z3, B3, 1))),
], ids=["mp3-pt3", "pt5-mp3-", "mp3--mp5", "semion-pt3", "rev-mp5-", "rev-ty3-",
        "rev-semion-mp3"])
def test_tensor_and_reverse_match_the_full_validate(build):
    _same_as_validate(build())


@pytest.mark.parametrize("edit, cut, message", [
    (lambda p: p[:-1] + [p[-2]], 0, r"^labels 13 and 14 are both the pair \(4, 1\)$"),
    (lambda p: p[:-1] + [(5, 2)], 0, r"^label 14 is the pair \(5, 2\), outside 5 x 3$"),
    (lambda p: p[:-1] + [(4, -1)], 0, r"^label 14 is the pair \(4, -1\), outside 5 x 3$"),
    (lambda p: [p[1], p[0]] + p[2:], 0, "^the unit label is not the pair of the factors' units$"),
    (lambda p: p[:-1], 0, "^14 label pairs for 15 labels$"),
    # one pair per label, in range and none repeated, but not onto
    (lambda p: p[:-1], 1, r"^14 label pairs do not cover the 5 x 3 pairs of factor labels$"),
], ids=["repeated", "out-of-range", "negative", "unit-moved", "short", "not-onto"])
def test_a_bad_pair_map_is_refused_before_the_product_is_built(monkeypatch, edit, cut, message):
    a, b = mp_md(Z3, B3, 1), pointed_md(metric_group(Q_A2))
    pairs = [(i, j) for i in range(a.rank) for j in range(b.rank)]
    labels = [ProductLabel(a.labels[i], b.labels[j]) for i, j in pairs[: len(pairs) - cut]]
    for name in CYCNUM_ARITHMETIC + ("promoted",):
        monkeypatch.setattr(CycNum, name, _refused)
    with pytest.raises(ModularityError, match=message):
        moddata._product(a, b, labels, edit(pairs))


def test_a_bad_pair_map_is_refused_under_python_O():
    # the pair map is checked by raising, not by assert, which -O strips
    code = (
        "from tycat import moddata\n"
        "from tycat.errors import ModularityError\n"
        "from tycat.groups import FinAbGroup\n"
        "from tycat.quadforms import classify_metric_groups\n"
        "z3 = FinAbGroup.of(3)\n"
        "m = classify_metric_groups(z3)[0]\n"
        "a, b = moddata.mp_md(z3, m.bichar, 1), moddata.pointed_md(m)\n"
        "pairs = [(i, j) for i in range(a.rank) for j in range(b.rank)]\n"
        "for bad in (pairs[:-1] + [pairs[-2]], pairs[:-1] + [(5, 0)], pairs[1::-1] + pairs[2:]):\n"
        "    try:\n"
        "        moddata._product(a, b, list(range(len(bad))), bad)\n"
        "    except ModularityError as exc:\n"
        "        print('raised', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(moddata.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == [
        "raised labels 13 and 14 are both the pair (4, 1)",
        "raised label 14 is the pair (5, 0), outside 5 x 3",
        "raised the unit label is not the pair of the factors' units",
    ]
