import math
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aut_oracle import is_identity
from standard_form_oracle import crt_standard_qform
from test_integer_core import ODD_GROUPS, _odd_chains
from tycat import cyclo, quadforms
from tycat.cyclo import RootOfUnity, factorize, sqrt_int, zeta
from tycat.errors import DegeneracyError, UnsupportedError
from tycat.groups import FinAbGroup
from tycat.quadforms import (
    Bichar,
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    direct_sum,
    gauss_central_charge,
    gauss_invariants,
    lagrangian_subgroups,
    metric_double,
    metric_equiv,
    metric_group,
    qform_from_bichar,
    standard_qform,
)

Z3 = FinAbGroup.of(3)
Z5 = FinAbGroup.of(5)


def qform_x2_over(group, a, n):
    """q(x) = e^{2 pi i a x^2 / n} on a cyclic group of order n."""
    return QuadForm.from_callable(
        group, lambda g: RootOfUnity(Fraction(a * g.coords[0] ** 2, n))
    )


Q_A2 = qform_x2_over(Z3, 1, 3)  # e^{2 pi i x^2/3}
Q_E6 = qform_x2_over(Z3, 2, 3)  # e^{2 pi i 2 x^2/3}


def test_bichar_from_qform_z3():
    b = bichar_from_qform(Q_A2)
    for x in Z3.elements():
        for y in Z3.elements():
            expected = RootOfUnity(Fraction(-x.coords[0] * y.coords[0], 3))
            assert b(x, y) == expected
            assert b(x, y) == b(y, x)
    for x in Z3.elements():
        assert b(x, x).inverse() == Q_A2(x)


def test_bichar_from_qform_z5():
    q = qform_x2_over(Z5, 1, 5)
    b = bichar_from_qform(q)
    for x in Z5.elements():
        for y in Z5.elements():
            assert b(x, y) == RootOfUnity(Fraction(-x.coords[0] * y.coords[0], 5))


def test_bichar_trivial_group():
    t = FinAbGroup.of(1)
    q = QuadForm(t, (RootOfUnity.one(),))
    b = bichar_from_qform(q)
    assert b(t.zero(), t.zero()).is_one()


def test_round_trip():
    for q in [Q_A2, Q_E6, qform_x2_over(Z5, 1, 5), qform_x2_over(Z5, 2, 5)]:
        b = bichar_from_qform(q)
        assert qform_from_bichar(b).values == q.values
    b = bichar_from_qform(Q_A2)
    assert bichar_from_qform(qform_from_bichar(b)).gen_values == b.gen_values


def test_round_trip_on_classified_groups():
    for facs in [(3,), (5,), (9,), (3, 3), (15,), (45,), (3, 9)]:
        for m in classify_metric_groups(FinAbGroup.of(facs)):
            assert qform_from_bichar(m.bichar).values == m.quad.values


def test_even_group_rejected():
    z2 = FinAbGroup.of(2)
    q = QuadForm.from_callable(z2, lambda g: RootOfUnity(Fraction(g.coords[0], 4)))
    with pytest.raises(UnsupportedError):
        bichar_from_qform(q)


def test_gauss_central_charge():
    t = FinAbGroup.of(1)
    assert gauss_central_charge(QuadForm(t, (RootOfUnity.one(),))) == 0
    assert gauss_central_charge(Q_A2) == 2
    assert gauss_central_charge(Q_E6) == 6
    semion = QuadForm.from_callable(
        FinAbGroup.of(2), lambda g: RootOfUnity(Fraction(g.coords[0], 4))
    )
    assert gauss_central_charge(semion) == 1


def test_gauss_degenerate_detection():
    z9 = FinAbGroup.of(9)
    degenerate = QuadForm.from_callable(
        z9, lambda g: RootOfUnity(Fraction(g.coords[0] ** 2, 3))
    )
    with pytest.raises(DegeneracyError):
        gauss_central_charge(degenerate)


def test_metric_equiv():
    m = metric_group(Q_A2)
    phi = metric_equiv(m, m)
    assert phi is not None and is_identity(phi)

    m1 = metric_group(qform_x2_over(Z5, 1, 5))
    m2 = metric_group(qform_x2_over(Z5, 4, 5))
    phi = metric_equiv(m1, m2)
    assert phi is not None
    assert phi(Z5.element([1])).coords[0] in (2, 3)  # 4 x^2 = (2x)^2

    assert metric_equiv(metric_group(Q_A2), metric_group(Q_E6)) is None


def test_classify_counts():
    assert len(classify_metric_groups(FinAbGroup.of(15))) == 4
    assert len(classify_metric_groups(FinAbGroup.of(9))) == 2
    assert len(classify_metric_groups(FinAbGroup.of(1))) == 1
    assert len(classify_metric_groups(FinAbGroup.of(3, 3))) == 2
    assert len(classify_metric_groups(FinAbGroup.of(5, 5))) == 2
    with pytest.raises(UnsupportedError):
        classify_metric_groups(FinAbGroup.of(4))


def test_direct_sum():
    m = metric_group(Q_A2)
    triv = classify_metric_groups(FinAbGroup.of(1))[0]
    s = direct_sum(m, triv)
    assert s.group == Z3
    assert s.quad.values == Q_A2.values

    s2 = direct_sum(metric_group(Q_A2), metric_group(Q_E6))
    assert gauss_central_charge(s2.quad) == 0  # 2 + 6 mod 8

    c1 = gauss_central_charge(Q_A2)
    c2 = gauss_central_charge(qform_x2_over(Z5, 1, 5))
    s3 = direct_sum(metric_group(Q_A2), metric_group(qform_x2_over(Z5, 1, 5)))
    assert gauss_central_charge(s3.quad) == (c1 + c2) % 8


def test_lagrangian_subgroups():
    assert lagrangian_subgroups(metric_group(Q_A2)) == []

    hyper = direct_sum(metric_group(Q_A2), metric_group(Q_A2.conj()))
    ls = lagrangian_subgroups(hyper)
    assert len(ls) == 2  # the diagonal and the antidiagonal

    z9 = FinAbGroup.of(9)
    q_plus = qform_x2_over(z9, 1, 9)
    ls9 = lagrangian_subgroups(metric_group(q_plus))
    assert len(ls9) == 1
    assert sorted(x.coords[0] for x in ls9[0]) == [0, 3, 6]


def test_metric_double():
    t = FinAbGroup.of(1)
    canonical, summed, witness = metric_double(t, QuadForm(t, (RootOfUnity.one(),)))
    assert canonical.group.is_trivial() and summed.group.is_trivial()

    for q in [Q_A2, qform_x2_over(Z5, 1, 5)]:
        canonical, summed, witness = metric_double(q.group, q)
        for g in canonical.group.elements():
            assert canonical.quad(g) == summed.quad(witness(g))


def test_qform_properties_enumerated():
    for facs in [(3,), (9,), (3, 3), (5,), (15,), (3, 9), (3, 3, 3)]:
        group = FinAbGroup.of(facs)
        for m in classify_metric_groups(group):
            q = m.quad
            for g in group.elements():
                for n in range(group.exponent):
                    assert q(g * n) == q(g) ** (n * n)
            assert q.is_nondegenerate()


def test_qform_validation_at_order_81():
    # constructed forms are validated up to |G| = 81
    z81 = FinAbGroup.of(81)
    q81 = qform_x2_over(z81, 1, 81)
    assert q81.is_nondegenerate()
    g99 = FinAbGroup.of(9, 9)
    q99 = direct_sum(
        metric_group(qform_x2_over(FinAbGroup.of(9), 1, 9)),
        metric_group(qform_x2_over(FinAbGroup.of(9), 2, 9)),
    )
    assert q99.group == g99
    assert gauss_central_charge(q99.quad) == (
        gauss_central_charge(qform_x2_over(FinAbGroup.of(9), 1, 9))
        + gauss_central_charge(qform_x2_over(FinAbGroup.of(9), 2, 9))
    ) % 8


def test_direct_sum_bichar_is_componentwise():
    m1 = metric_group(Q_A2)
    m2 = metric_group(qform_x2_over(Z5, 1, 5))
    s = direct_sum(m1, m2)
    from tycat.groups import product_group

    _, fwd, _ = product_group(
        m1.group.invariant_factors + m2.group.invariant_factors
    )
    for g1 in m1.group.elements():
        for g2 in m2.group.elements():
            for h1 in m1.group.elements():
                for h2 in m2.group.elements():
                    lhs = s.bichar(
                        fwd(g1.coords + g2.coords), fwd(h1.coords + h2.coords)
                    )
                    assert lhs == m1.bichar(g1, h1) * m2.bichar(g2, h2)


GROUPS_TO_45 = [FinAbGroup(c) for c in ODD_GROUPS if math.prod(c) <= 45]


def brute_force_equiv(m1, m2):
    """``metric_equiv`` with the invariant test switched off: the full
    automorphism search."""
    with mock.patch.object(quadforms, "gauss_invariants", lambda q: ()):
        return metric_equiv(m1, m2)


def test_standard_forms_match_the_crt_oracle():
    # every odd group of order <= 243, every set of prime-power types given
    # the nonresidue: the piece coordinates g_j mod q give the forms the
    # pull-back through product_group gave
    groups = sorted({FinAbGroup.of(c).invariant_factors for c in _odd_chains(243)})
    assert len(groups) == 158
    count = 0
    for facs in groups:
        group = FinAbGroup(facs)
        types = sorted({p**e for d in facs for p, e in factorize(d).items()})
        for k in range(len(types) + 1):
            for minus in combinations(types, k):
                assert standard_qform(group, set(minus)) == crt_standard_qform(group, minus), (
                    facs, minus)
                count += 1
    assert count == 511


def test_the_crt_oracle_sees_the_nonresidue_move():
    # negative control: the nonresidue on the last piece of a repeated type
    # is an isometric form with another table
    z33 = FinAbGroup.of(3, 3)
    assert standard_qform(z33, {3}) == crt_standard_qform(z33, {3})
    assert standard_qform(z33, {3}) != crt_standard_qform(z33, {3}, on_last=True)


def test_standard_forms_have_distinct_invariants():
    assert len(GROUPS_TO_45) == 28
    for group in GROUPS_TO_45:
        types = sorted({p**e for d in group.invariant_factors for p, e in factorize(d).items()})
        reps = [
            metric_group(standard_qform(group, set(minus)))
            for k in range(len(types) + 1)
            for minus in combinations(types, k)
        ]
        invariants = [gauss_invariants(m.quad) for m in reps]
        assert len(set(invariants)) == len(reps) == 2 ** len(types), group
        for m1, m2 in combinations(reps, 2):
            assert brute_force_equiv(m1, m2) is None, group


def eight_way_charge(q):
    """The exact search gauss_central_charge replaced: c with
    sum_g q(g) = sqrt(|G|) zeta_8^c, or None."""
    total = quadforms._gauss_sum(q)
    root = sqrt_int(q.group.order)
    return next((c for c in range(8) if total == root * zeta(8, c)), None)


def test_charge_guess_matches_the_eight_way_search():
    from tycat.lattices import discriminant_form, named_lattice

    forms = [m.quad for g in GROUPS_TO_45 for m in classify_metric_groups(g)]
    forms += [
        discriminant_form(named_lattice(name)).qform
        for name in [f"A{n}" for n in range(1, 25)] + ["E6", "E7", "E8"]
    ]
    assert len(forms) == 71 + 27
    for q in forms:
        assert gauss_central_charge(q) == eight_way_charge(q), q


def test_even_charge_stays_in_the_forms_field(monkeypatch):
    # c = 2 for Z75: zeta_8^2 = i, so neither Q(zeta_8) nor Q(zeta_600) is built
    seen = set()
    table = cyclo._reduction_table
    monkeypatch.setattr(cyclo, "_reduction_table", lambda n: seen.add(n) or table(n))
    assert gauss_central_charge(standard_qform(FinAbGroup.of(75))) == 2
    assert seen and seen.isdisjoint({8, 600}), seen


@st.composite
def form_pairs(draw):
    """Two random nondegenerate forms q = b(g,g)^-1 on one odd group of
    order <= 45, from random symmetric bicharacters over Exp(G)."""
    group = draw(st.sampled_from(GROUPS_TO_45))
    facs, m, r = group.invariant_factors, group.exponent, group.rank

    def form():
        mat = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                d = math.gcd(facs[i], facs[j])
                mat[i][j] = mat[j][i] = draw(st.integers(0, d - 1)) * (m // d)
        b = Bichar(group, modulus=m, mat=mat)
        assume(b.is_nondegenerate())
        return metric_group(qform_from_bichar(b))

    return form(), form()


@settings(max_examples=100, deadline=None)
@given(form_pairs())
def test_invariants_decide_isometry(pair):
    m1, m2 = pair
    same = gauss_invariants(m1.quad) == gauss_invariants(m2.quad)
    found = brute_force_equiv(m1, m2)
    assert (found is not None) == same
    phi = metric_equiv(m1, m2)
    assert (phi is not None) == same
    if phi is not None:
        assert all(m1.quad(g) == m2.quad(phi(g)) for g in m1.group.elements())


@pytest.mark.parametrize("orders", [(45,), (3, 9), (2,)], ids=["45", "3x9", "2"])
def test_metric_group_builds_no_square_table(monkeypatch, orders):
    # a validated form is proven on its |G| x rank generator columns: the
    # nondegeneracy check and the bicharacter read the same dq columns, and
    # no |G| x |G| table of dq, b or g + h is built
    group = FinAbGroup.of(*orders)
    if group.order % 2:
        q = standard_qform(group)
    else:  # the semion form i^(g^2)
        q = QuadForm.from_callable(group, lambda g: RootOfUnity(Fraction(g.coords[0] ** 2, 4)))

    def square(*args):
        raise AssertionError("a |G| x |G| table was built")

    monkeypatch.setattr(quadforms, "add_table", square)
    monkeypatch.setattr(QuadForm, "dq", square)
    monkeypatch.setattr(Bichar, "table", square)
    m = metric_group(q)
    assert [len(row) for row in q._dq_columns] == [group.rank] * group.order
    if group.order % 2:
        assert bichar_from_qform(q) == m.bichar
