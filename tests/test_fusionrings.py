import json
import math
from fractions import Fraction

import numpy as np
import pytest

from tycat import fusionrings
from tycat.cyclo import CycNum, sqrt_int, zeta
from tycat.errors import CapacityError, InvalidArgumentError, ModularityError, UnsupportedError
from tycat.fusionrings import (
    MAX_RULE_CELLS,
    FusionRing,
    Hypergroup,
    check_fusion_ring,
    gen_mp_fusion_ring,
    gen_ty_fusion_ring,
    hypergroup_from_fusion_ring,
    ty_dual_hypergroup_and_table,
    ty_fusion_ring,
    ty_hypergroup,
)
from tycat.groups import FinAbGroup, positive_set
from tycat.labels import MPAlpha, MPRho, MPSigma, label_from_json, label_to_json

from fusion_oracle import channels_of, dense, eigen_dims

Z3 = FinAbGroup.of(3)
Z5 = FinAbGroup.of(5)


def test_ty_ring_trivial_group():
    ring = ty_fusion_ring(FinAbGroup.of(1))
    assert ring.rank == 2
    assert ring.product(1, 1) == {0: 1}  # rho^2 = 1


def test_ty_ring_z3():
    ring = ty_fusion_ring(Z3)
    assert ring.rank == 4
    assert check_fusion_ring(ring) == []
    # d(rho) is the Perron root sqrt(3)
    assert ring.fp_dims[3] == pytest.approx(math.sqrt(3), abs=1e-9)
    assert ring.global_dim is None  # irrational dims


def test_ty_ring_z5_dims():
    ring = ty_fusion_ring(Z5)
    assert ring.fp_dims[-1] == pytest.approx(math.sqrt(5), abs=1e-9)
    assert sum(d * d for d in ring.fp_dims) == pytest.approx(10, abs=1e-6)


def test_gen_ty_ring():
    ring = gen_ty_fusion_ring(FinAbGroup.of(1))
    assert ring.rank == 4
    rp = ring.labels.index("rho+")
    rm = ring.labels.index("rho-")
    tau = ring.labels.index((FinAbGroup.of(1).zero(), 1))
    assert ring.product(rp, rp) == {0: 1}
    assert ring.product(rp, rm) == {tau: 1}

    ring3 = gen_ty_fusion_ring(Z3)
    assert ring3.rank == 8
    assert check_fusion_ring(ring3) == []
    assert ring3.fp_dims[ring3.labels.index("rho+")] == pytest.approx(
        math.sqrt(3), abs=1e-9
    )
    with pytest.raises(UnsupportedError):
        gen_ty_fusion_ring(FinAbGroup.of(2))


def test_gen_mp_ring_z3():
    ring = gen_mp_fusion_ring(Z3)
    assert ring.rank == 5
    s1 = ring.index_of(MPSigma(Z3.element([1])))
    assert ring.product(s1, s1) == {0: 1, 1: 1, s1: 1}
    rho = ring.index_of(MPRho(0))
    assert ring.product(rho, rho) == {0: 1, s1: 1}
    assert ring.product(ring.index_of(MPAlpha()), rho) == {ring.index_of(MPRho(1)): 1}


def test_gen_mp_ring_z5():
    ring = gen_mp_fusion_ring(Z5)
    pos = positive_set(Z5)
    s1 = ring.index_of(MPSigma(Z5.element([1])))
    s2 = ring.index_of(MPSigma(Z5.element([2])))
    assert ring.product(s1, s2) == {s1: 1, s2: 1}  # |3| = 2, |-1| = 1
    assert check_fusion_ring(ring) == []


def test_gen_mp_rank_z15():
    ring = gen_mp_fusion_ring(FinAbGroup.of(15))
    assert ring.rank == 11
    assert check_fusion_ring(ring) == []


def test_rule_table_labels_roundtrip_through_json():
    g = FinAbGroup.of(3, 5)
    for ring, kinds in (
        (ty_fusion_ring(g), {"element", "name"}),
        (gen_ty_fusion_ring(g), {"dihedral", "name"}),
    ):
        blobs = json.loads(json.dumps([label_to_json(l) for l in ring.labels]))
        assert {b["kind"] for b in blobs} == kinds
        assert [label_from_json(b) for b in blobs] == list(ring.labels)


def test_builders_pass_checks():
    for facs in [(1,), (3,), (5,), (7,), (9,), (3, 3), (15,)]:
        g = FinAbGroup.of(facs)
        assert check_fusion_ring(ty_fusion_ring(g)) == []
        assert check_fusion_ring(gen_ty_fusion_ring(g)) == []
        assert check_fusion_ring(gen_mp_fusion_ring(g)) == []


def test_corrupted_tensor_reports_triple():
    ring = ty_fusion_ring(Z3)
    bad = dense(ring)
    bad[2, 1, 3] += 1
    violations = check_fusion_ring(FusionRing(ring.labels, channels_of(bad), ring.dims))
    assert violations
    kinds = {v[0] for v in violations}
    assert "associativity" in kinds or "frobenius" in kinds or "unit" in kinds


def test_unit_and_dual_involution_violations_are_reported():
    # the group ring of Z3 (duals 0, 2, 1), edited one entry at a time
    ring = ty_fusion_ring(Z3)
    cube = dense(ring)[:3, :3, :3]

    def violations(edit):
        bad = cube.copy()
        edit(bad)
        return check_fusion_ring(FusionRing(ring.labels[:3], channels_of(bad), ring.dims[:3]))

    def extra_channel(bad):  # 0 x 1 = 1 + 1
        bad[0, 1, 1] += 1

    def self_dual_2(bad):  # 2 x 2 holds the unit, 2 x 1 does not: dual 1 -> 2 -> 2
        bad[2, 1, 0], bad[2, 2, 0] = 0, 1

    assert ("unit", (0, 1, 1)) in violations(extra_channel)
    assert ("dual-involution", (1,)) in violations(self_dual_2)


def test_channels_are_one_read_only_int64_array():
    ring = gen_mp_fusion_ring(Z5)
    ch = ring.channels
    assert ch.dtype == np.int64 and ch.shape == (len(ch), 4)
    with pytest.raises(ValueError):
        ch[0, 3] = 5
    # nested tuples are converted once, to the same array
    from_tuples = FusionRing(ring.labels, tuple(tuple(row) for row in ch.tolist()), ring.dims)
    assert np.array_equal(from_tuples.channels, ch)
    assert from_tuples.to_json() == ring.to_json()
    t, r = dense(ring), ring.rank
    assert ring.to_json()["nonzero"] == [
        [i, j, k, t[i][j][k]] for i in range(r) for j in range(r) for k in range(r) if t[i][j][k]
    ]
    # an int64 array is kept as a read-only view, not copied
    arr = np.array(ch)
    assert np.shares_memory(FusionRing(ring.labels, arr, ring.dims).channels, arr)
    assert arr.flags.writeable


def test_channels_must_match_the_labels():
    ring = ty_fusion_ring(Z3)
    with pytest.raises(InvalidArgumentError, match=r"^channels of shape \(\d+, 3\), not"):
        FusionRing(ring.labels, ring.channels[:, :3], ring.dims)
    with pytest.raises(InvalidArgumentError, match=r"^channel indices outside \[0, 3\)$"):
        FusionRing(ring.labels[:3], ring.channels, ring.dims[:3])
    with pytest.raises(InvalidArgumentError, match=r"^3 dimensions for 4 labels$"):
        FusionRing(ring.labels, ring.channels, ring.dims[:3])


def _edited(rows, at, row):
    rows = rows.copy()
    rows[at] = row
    return rows


@pytest.mark.parametrize("edit, message", [
    (lambda ch: ch[::-1], "not strictly increasing"),  # unsorted
    (lambda ch: _edited(ch, 1, ch[0]), "not strictly increasing"),  # repeated
    (lambda ch: _edited(ch, -1, [3, 3, 4, 1]), r"outside \[0, 4\)"),  # out of range
    (lambda ch: _edited(ch, 0, [0, 0, 0, 0]), "coefficients must be positive"),  # zero N
], ids=["unsorted", "repeated", "out-of-range", "zero"])
def test_constructor_refuses_malformed_channels(edit, message):
    ring = ty_fusion_ring(Z3)
    with pytest.raises(InvalidArgumentError, match=message):
        FusionRing(ring.labels, edit(np.array(ring.channels)), ring.dims)


def _verlinde_rings():
    from tycat.moddata import mp_md, pointed_md, ty_center_md
    from tycat.quadforms import bichar_from_qform, classify_metric_groups

    Z15, Z45 = FinAbGroup.of(15), FinAbGroup.of(45)
    yield "ty-Z5", ty_center_md(Z5, bichar_from_qform(classify_metric_groups(Z5)[0].quad), 1)
    yield "mp-Z15-", mp_md(Z15, classify_metric_groups(Z15)[0].bichar, -1)
    yield "pointed-Z45", pointed_md(classify_metric_groups(Z45)[0])


def test_every_ring_holds_its_channels_once():
    # rule tables of every builder and proven Verlinde rings: the channels
    # are strictly sorted, read-only, printed as they are, and are the
    # nonzero entries of the dense cube their products span; for a
    # Verlinde ring that cube is also the float guess from S
    from tycat.modcheck import MatProver
    from verlinde_oracle import float_guess

    rings = [(builder.__name__, builder(FinAbGroup.of(facs)))
             for facs in [(1,), (3,), (5,), (3, 3)]
             for builder in (ty_fusion_ring, gen_ty_fusion_ring, gen_mp_fusion_ring)]
    for name, md in _verlinde_rings():
        ring = md.fusion_ring()
        prover = MatProver(md.conductor)
        s = prover.pack(md.values, md.index)
        assert np.array_equal(dense(ring), float_guess(prover, s)), name
        rings.append((name, ring))
    for name, ring in rings:
        ch, r = ring.channels, ring.rank
        key = (ch[:, 0] * r + ch[:, 1]) * r + ch[:, 2]
        assert (np.diff(key) > 0).all() and not ch.flags.writeable, name
        assert ring.to_json()["nonzero"] == ch.tolist(), name
        assert np.array_equal(channels_of(dense(ring)), ch), name


def test_genty_ring_is_not_commutative():
    ring = gen_ty_fusion_ring(Z3)
    pairs = [(i, j) for i in range(ring.rank) for j in range(ring.rank)]
    assert any(ring.product(i, j) != ring.product(j, i) for i, j in pairs)
    assert check_fusion_ring(ring) == []


def test_streamed_associativity_matches_dense_oracle():
    ring = gen_mp_fusion_ring(FinAbGroup.of(7))
    arr = dense(ring)
    arr[4, 5, 6] += 1
    arr[5, 4, 6] += 1
    arr[2, 3, 0] += 2
    lhs = np.einsum("ijm,mkl->ijkl", arr, arr)
    rhs = np.einsum("jkm,iml->ijkl", arr, arr)
    expected = [tuple(int(x) for x in idx) for idx in zip(*np.nonzero(lhs != rhs))]
    violations = check_fusion_ring(FusionRing(ring.labels, channels_of(arr), ring.dims))
    streamed = [idx for kind, idx in violations if kind == "associativity"]
    assert expected and streamed == expected


def test_group_ring_check():
    ring = ty_fusion_ring(Z3)
    group_ring = FusionRing(ring.labels[:3], channels_of(dense(ring)[:3, :3, :3]), ring.dims[:3])
    assert check_fusion_ring(group_ring) == []
    assert group_ring.fp_dims == [1.0, 1.0, 1.0]
    assert group_ring.global_dim == 3


@pytest.mark.parametrize("facs", [(1,), (3,), (5,), (7,), (9,), (3, 3), (15,), (25,)])
def test_rule_table_dims_agree_with_the_eigenvalue_oracle(facs):
    g = FinAbGroup.of(facs)
    one, root, two = CycNum.one(), sqrt_int(g.order), CycNum.from_fraction(2)
    for builder, dims in (
        (ty_fusion_ring, [one] * g.order + [root]),
        (gen_ty_fusion_ring, [one] * (2 * g.order) + [root] * 2),
        (gen_mp_fusion_ring, [one, one, root, root] + [two] * ((g.order - 1) // 2)),
    ):
        ring = builder(g)
        assert ring.dims == tuple(dims), builder.__name__
        assert np.allclose(ring.fp_dims, eigen_dims(ring), rtol=0, atol=1e-12), builder.__name__


def _ty5_character(k):
    """The character g -> zeta_5^(k g), rho -> 0 of the TY(Z5) ring (k != 0):
    it solves M d = (sum_i d_i) d, as every character does."""
    return [zeta(5, k * g.coords[0]) for g in Z5.elements()] + [CycNum.zero()]


# dimensions of TY(Z5)'s labels 0-4 (the group) and 5 (rho), and the labels
# the check reports: only the d_0 check sees label 0 of the sum of two
# characters, only the sign check sees -sqrt 5, only the reality check sees
# labels 1 and 4 of a character (their real parts are positive), and only
# M d = (sum_i d_i) d sees rho = 2 or sqrt 3
WRONG_DIMS = {
    "rho-2": ([CycNum.one()] * 5 + [CycNum.from_fraction(2)], [5]),
    "rho-sqrt3": ([CycNum.one()] * 5 + [sqrt_int(3)], [5]),
    "unit-2": ([x + y for x, y in zip(_ty5_character(1), _ty5_character(4))], [0, 2, 3, 5]),
    "negative": ([CycNum.one()] * 5 + [-sqrt_int(5)], [5]),
    "non-real": (_ty5_character(1), [1, 2, 3, 4, 5]),
}


@pytest.mark.parametrize("case", list(WRONG_DIMS))
def test_wrong_dimensions_are_reported(case):
    dims, labels = WRONG_DIMS[case]
    ring = ty_fusion_ring(Z5)
    assert check_fusion_ring(FusionRing(ring.labels, ring.channels, dims)) == [
        ("dimension", (j,)) for j in labels]
    with pytest.raises(ModularityError, match=r"^rule table fails its checks: \[\('dimension'"):
        fusionrings._ring_from_products(ring.labels, ring.product, dims)


@pytest.mark.parametrize("root", [CycNum.from_fraction(2), sqrt_int(3)], ids=["2", "sqrt3"])
def test_a_builder_with_a_wrong_dimension_raises(monkeypatch, root):
    monkeypatch.setattr(fusionrings, "sqrt_int", lambda n: root)
    with pytest.raises(ModularityError, match=r"checks: \[\('dimension', \(5,\)\)\]$"):
        ty_fusion_ring(Z5)


def test_rank_past_the_cube_bound_is_refused_before_enumerating():
    # 256^3 = MAX_RULE_CELLS is the largest cube allowed; each builder
    # refuses a larger rank before it makes a product or a weight
    assert 256**3 == MAX_RULE_CELLS
    r = 257
    group_ring = FusionRing(tuple(range(r)),
                            [(i, j, (i + j) % r, 1) for i in range(r) for j in range(r)],
                            [CycNum.one()] * r)
    for call, what in [
        (lambda: ty_fusion_ring(FinAbGroup.of(256)), "fusion ring of rank 257"),
        (lambda: gen_ty_fusion_ring(FinAbGroup.of(129)), "fusion ring of rank 260"),
        (lambda: gen_mp_fusion_ring(FinAbGroup.of(507)), "fusion ring of rank 257"),
        (lambda: check_fusion_ring(group_ring), "fusion ring of rank 257"),
        (lambda: ty_hypergroup(FinAbGroup.of(256)), "hypergroup of rank 257"),
        (lambda: ty_dual_hypergroup_and_table(FinAbGroup.of(257)), "hypergroup of rank 258"),
        (lambda: hypergroup_from_fusion_ring(group_ring),
         "hypergroup of rank 257"),
    ]:
        with pytest.raises(CapacityError, match=f"^{what} exceeds {MAX_RULE_CELLS} cells"):
            call()


def test_ty_hypergroup():
    hg = ty_hypergroup(FinAbGroup.of(1))
    assert hg.rank == 2

    hg3 = ty_hypergroup(Z3)
    tau = hg3.rank - 1
    assert [hg3.coeff(tau, tau, k) for k in range(3)] == [Fraction(1, 3)] * 3
    assert hg3.coeff(0, tau, tau) == 1


def test_normalized_ring_reproduces_hypergroup():
    for facs in [(1,), (3,), (5,), (3, 3)]:
        g = FinAbGroup.of(facs)
        ring = ty_fusion_ring(g)
        assert ring.dims == (CycNum.one(),) * g.order + (sqrt_int(g.order),)
        hg = hypergroup_from_fusion_ring(ring)
        ref = ty_hypergroup(g)
        assert np.array_equal(hg.table, ref.table) and hg.den == ref.den
        assert hg.star == ref.star


def test_hypergroup_table_is_one_read_only_int64_array():
    hg = ty_hypergroup(Z3)
    assert hg.table.dtype == np.int64 and hg.den == 3
    assert not hg.table.flags.writeable
    assert hg.coeff(3, 3, 1) == Fraction(1, 3) and hg.coeff(1, 3, 1) == 0
    assert hg.to_json()["weights"][-1] == [3, 3, 2, "1/3"]


def test_hypergroup_validate_refuses_each_broken_law():
    base = ty_hypergroup(Z3)  # elements 0, 1, 2 and tau = 3, den 3

    def broken(edit, star=base.star):
        table = base.table.copy()
        edit(table)
        return Hypergroup(base.elements, table, base.den, star)

    def moved(i, j, k_from, k_to, amount=1):
        def edit(t):
            t[i, j, k_from] -= amount
            t[i, j, k_to] += amount
        return edit

    cases = [
        (broken(moved(1, 1, 2, 0, 4)), r"negative weight in 1 \* 1"),
        (broken(lambda t: t.__setitem__((2, 3, 3), 4)), r"weights of 2 \* 3 do not sum to 1"),
        (broken(moved(1, 2, 0, 1, 3)), r"antipode law fails at \(1, 2\)"),
        (broken(lambda t: None, star=(0, 2, 1, 0)), r"antipode law fails at \(3, 0\)"),
        (broken(moved(0, 3, 3, 2, 1)), r"unit is not a two-sided identity"),
        (broken(moved(3, 3, 1, 2, 1)), r"not associative"),
    ]
    for hg, message in cases:
        with pytest.raises(InvalidArgumentError, match=message):
            hg.validate()
    base.validate()


def test_ring_index_of_names_a_foreign_label():
    ring = gen_mp_fusion_ring(Z3)
    assert ring.index_of(ring.labels[2]) == 2
    with pytest.raises(InvalidArgumentError, match="^nope is not a label of this ring$"):
        ring.index_of("nope")


def test_dual_hypergroup_and_table():
    hg, table = ty_dual_hypergroup_and_table(Z3)
    assert hg.rank == 4  # 1, eps, c_chi, c_chi^2
    c1, c2 = 2, 3
    assert hg.star[c1] == c2
    # c_chi c_{chi^-1} = (1 + eps)/2
    assert hg.coeff(c1, c2, 0) == Fraction(1, 2)
    assert hg.coeff(c1, c2, 1) == Fraction(1, 2)
    # c_chi^2 = c_{chi^2}
    assert hg.coeff(c1, c1, c2) == 1

    # displayed table shape: rows (1..), (1..,-1), (1, chi(g), 0)
    assert table.entries[0] == tuple([CycNum.one()] * 4)
    assert table.entries[1][-1] == -1
    assert table.entries[2][-1].is_zero()
    assert table.weights == (Fraction(1),) * 3 + (Fraction(3),)
    table.validate()

    with pytest.raises(UnsupportedError):
        ty_dual_hypergroup_and_table(FinAbGroup.of(2))


def test_dual_table_sizes():
    for facs in [(3,), (5,), (7,), (3, 3), (15,)]:
        g = FinAbGroup.of(facs)
        hg, table = ty_dual_hypergroup_and_table(g)
        assert hg.rank == g.order + 1
        assert len(table.row_labels) == g.order + 1
        table.validate()
