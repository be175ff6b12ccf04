"""The integer exponent core against a Fraction reference, and a negative
control for every check of the form code."""

import cmath
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_forms as ref
from tycat import moddata, quadforms
from tycat.cyclo import RootOfUnity
from tycat.errors import DegeneracyError, InvalidArgumentError, ModularityError
from tycat.groups import FinAbGroup, character_group, positive_set
from tycat.moddata import pointed_md, ty_center_md
from tycat.quadforms import (
    Bichar,
    MetricGroup,
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    metric_group,
    qform_from_bichar,
    standard_qform,
)


def _odd_chains(limit: int, last: int = 1, order: int = 1):
    """Invariant-factor chains of every odd abelian group of order <= limit."""
    yield ()
    d = last if last > 1 else 3
    while order * d <= limit:
        if d % 2:
            for rest in _odd_chains(limit, d, order * d):
                yield (d,) + rest
        d += last


ODD_GROUPS = sorted({FinAbGroup.of(c).invariant_factors for c in _odd_chains(75)})


def test_odd_groups_are_all_there():
    assert len(ODD_GROUPS) == len(set(ODD_GROUPS))
    assert (3, 3, 3) in ODD_GROUPS and (5, 15) in ODD_GROUPS and (75,) in ODD_GROUPS
    assert max(math.prod(c) for c in ODD_GROUPS) == 75


@st.composite
def symmetric_bichars(draw):
    """A random symmetric bicharacter (maybe degenerate) on an odd group of
    order <= 75, over the modulus Exp(G)."""
    group = FinAbGroup(draw(st.sampled_from(ODD_GROUPS)))
    facs, m, r = group.invariant_factors, group.exponent, group.rank
    mat = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            d = math.gcd(facs[i], facs[j])
            mat[i][j] = mat[j][i] = draw(st.integers(0, d - 1)) * (m // d)
    return Bichar(group, modulus=m, mat=mat)


def _as_fraction_table(group, table, modulus):
    return [[Fraction(int(e), modulus) for e in row] for row in table]


@settings(max_examples=40, deadline=None)
@given(symmetric_bichars())
def test_forms_agree_with_the_fraction_reference(b):
    group = b.group
    els = group.elements()
    b_ref = ref.bichar([[Fraction(e, b.modulus) for e in row] for row in b.mat])
    assert _as_fraction_table(group, b.table(), b.modulus) == [
        [b_ref(g, h) for h in els] for g in els
    ]
    assert b.is_nondegenerate() == ref.bichar_is_nondegenerate(group, b_ref)

    q = QuadForm(group, modulus=b.modulus, exps=[-e for e in b.diag()])
    vals = ref.exponents(q)
    assert vals == [-b_ref(g, g) % 1 for g in els]
    assert ref.validate_message(group, vals) is None
    q.validate()
    assert _as_fraction_table(group, q.dq(), q.modulus) == [
        [ref.boundary(group, vals, g, h) for h in els] for g in els
    ]
    nondeg = ref.is_nondegenerate(group, vals)
    assert q.is_nondegenerate() == nondeg == b.is_nondegenerate()
    if not nondeg:
        with pytest.raises(InvalidArgumentError, match="quadratic form is degenerate"):
            bichar_from_qform(q)
        return
    extracted = bichar_from_qform(q)
    b_from_q = ref.bichar_from_form(group, vals)
    assert _as_fraction_table(group, extracted.table(), extracted.modulus) == [
        [b_from_q(g, h) for h in els] for g in els
    ]
    assert extracted == b  # q(g) = b(g,g)^-1 fixes b when |G| is odd
    assert qform_from_bichar(extracted) == q


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ODD_GROUPS).flatmap(
    lambda facs: st.tuples(
        st.just(FinAbGroup(facs)),
        st.integers(1, 2 * (facs[-1] if facs else 1)),
        st.lists(st.integers(0, 10**6), min_size=math.prod(facs), max_size=math.prod(facs)),
    )
))
def test_arbitrary_tables_agree_with_the_fraction_reference(case):
    # value tables that need not be forms: q(0) may be off, dq need not be
    # bimultiplicative; boundary, nondegeneracy and the validate messages
    group, modulus, exps = case
    q = QuadForm(group, modulus=modulus, exps=exps)
    vals = ref.exponents(q)
    assert vals == [Fraction(e, modulus) % 1 for e in exps]
    els = group.elements()
    assert _as_fraction_table(group, q.dq(), q.modulus) == [
        [ref.boundary(group, vals, g, h) for h in els] for g in els
    ]
    assert q.is_nondegenerate() == ref.is_nondegenerate(group, vals)
    expected = ref.validate_message(group, vals)
    if expected is None:
        q.validate()
    else:
        with pytest.raises(InvalidArgumentError) as exc:
            q.validate()
        assert str(exc.value) == expected


def test_forms_from_values_and_from_exponents_compare_equal():
    z9 = FinAbGroup.of(9)
    values = [RootOfUnity(Fraction(3 * x * x, 9)) for x in range(9)]
    q = QuadForm(z9, values)
    assert q.modulus == 3 and q == QuadForm(z9, modulus=9, exps=[3 * x * x for x in range(9)])
    assert hash(q) == hash(QuadForm(z9, modulus=27, exps=[9 * x * x for x in range(9)]))
    assert q.values == tuple(values)


rationals = st.fractions(max_denominator=720)


@given(rationals, rationals, st.integers(-50, 50))
def test_root_of_unity_matches_fraction_arithmetic_mod_1(a, b, k):
    r, s = RootOfUnity(a), RootOfUnity(b)
    assert r.exponent == a % 1 and s.exponent == b % 1
    assert RootOfUnity(a.numerator, a.denominator) == r
    assert (r == s) == ((a - b) % 1 == 0)
    if r == s:
        assert hash(r) == hash(s)
    assert (r < s) == (a % 1 < b % 1)
    assert (r <= s) == (a % 1 <= b % 1)
    assert (r > s) == (a % 1 > b % 1)
    assert (r >= s) == (a % 1 >= b % 1)
    assert sorted([r, s]) == sorted([r, s], key=lambda x: x.exponent)
    assert (r * s).exponent == (a + b) % 1
    assert (r**k).exponent == a * k % 1
    assert r.inverse().exponent == -a % 1
    assert r.sqrt().exponent == (a % 1) / 2
    assert r.n == (a % 1).denominator
    assert r.is_one() == (a % 1 == 0)
    assert r.to_complex() == cmath.exp(2j * cmath.pi * float(a % 1))
    assert repr(r) == f"RootOfUnity({a % 1})"


# -- negative controls: one per check and message -------------------------------

Z3 = FinAbGroup.of(3)
Z5 = FinAbGroup.of(5)
Z33 = FinAbGroup.of(3, 3)


def test_validate_rejects_q_of_zero():
    with pytest.raises(InvalidArgumentError, match=r"^q\(0\) != 1$"):
        QuadForm(Z3, modulus=3, exps=[1, 1, 1]).validate()


def test_validate_rejects_a_non_quadratic_multiple():
    with pytest.raises(InvalidArgumentError, match=r"^q\(2\*\(1\)\) != q\(\(1\)\)\^4$"):
        QuadForm(Z3, modulus=9, exps=[0, 1, 1]).validate()


def test_validate_rejects_a_non_bimultiplicative_boundary():
    # q(2g) = q(g) on every line of Z3 x Z3, but q is not quadratic
    q = QuadForm(Z33, modulus=3, exps=[0, 0, 0, 0, 1, 0, 0, 0, 1])
    with pytest.raises(InvalidArgumentError, match="^dq is not bimultiplicative$"):
        q.validate()


@pytest.mark.parametrize("facs", [(3,), (9,), (3, 3), (5, 15), (3, 3, 3)],
                         ids=lambda facs: "x".join(map(str, facs)))
def test_validate_rejects_a_form_times_a_character(facs):
    # q chi has the boundary of q, so it passes the bimultiplicative check,
    # and it fails q(2g) = q(g)^4 wherever chi(g)^2 != 1: only the n = 2
    # check refuses it, with the message of the scan over every n
    group = FinAbGroup(facs)
    q = standard_qform(group)
    _, pairing = character_group(group)
    h = group.generators()[-1]
    q_chi = QuadForm(group, [v * pairing(h, g) for v, g in zip(q.values, group.elements())])
    assert _as_fraction_table(group, q_chi.dq(), q_chi.modulus) == _as_fraction_table(
        group, q.dq(), q.modulus)
    expected = ref.validate_message(group, ref.exponents(q_chi))
    assert expected.startswith("q(2*")
    with pytest.raises(InvalidArgumentError) as exc:
        q_chi.validate()
    assert str(exc.value) == expected


def test_validate_scans_every_multiple_when_dq_is_not_bimultiplicative():
    # this table fails both checks; its first failing multiple is n = 4, so
    # checking n = 2 alone would name g = 2 instead
    q = QuadForm(Z5, modulus=5, exps=[0, 0, 0, 0, 1])
    expected = ref.validate_message(Z5, ref.exponents(q))
    assert expected == "q(4*(1)) != q((1))^16"
    with pytest.raises(InvalidArgumentError) as exc:
        q.validate()
    assert str(exc.value) == expected


def _all_forms(group):
    """Every quadratic form on an odd group, q(g) = b(g,g)^-1 for every
    symmetric bicharacter b over Exp(G)."""
    facs, m, r = group.invariant_factors, group.exponent, group.rank
    slots = [(i, j) for i in range(r) for j in range(i, r)]
    for entries in product(*(range(math.gcd(facs[i], facs[j])) for i, j in slots)):
        mat = [[0] * r for _ in range(r)]
        for (i, j), x in zip(slots, entries):
            mat[i][j] = mat[j][i] = x * (m // math.gcd(facs[i], facs[j]))
        b = Bichar(group, modulus=m, mat=mat)
        yield QuadForm(group, modulus=b.modulus, exps=[-e for e in b.diag()])


def test_nondegeneracy_on_generators_matches_the_full_table():
    count = degenerate = 0
    for facs in ODD_GROUPS:
        group = FinAbGroup(facs)
        for q in _all_forms(group):
            q.validate()
            full = all(any(row) for row in q.dq()[1:])  # dq(g, h) over every h
            assert len(q._dq_columns[0]) == group.rank  # read on the generators
            assert q.is_nondegenerate() == full, (facs, q.exps)
            count += 1
            degenerate += not full
    # one form per symmetric bicharacter: prod over i <= j of gcd(d_i, d_j)
    assert (count, degenerate) == (3448, 987)


def test_extraction_rejects_b_squared_at_a_generator_pair(monkeypatch):
    # a valid form gives b = dq^((Exp+1)/2), so b^2 = dq on the generators;
    # bend b at the pair (e_0, e_1), symmetrically and within the generator
    # order constraint, and the check on the generator columns refuses it
    Z55 = FinAbGroup.of(5, 5)
    q = standard_qform(Z55)
    bichar = quadforms.Bichar

    def bent(group, *, modulus, mat):
        mat = [list(row) for row in mat]
        mat[0][1] += modulus // 5
        mat[1][0] += modulus // 5
        return bichar(group, modulus=modulus, mat=mat)

    monkeypatch.setattr(quadforms, "Bichar", bent)
    with pytest.raises(InvalidArgumentError, match=r"^b\^2 != dq; form is inconsistent$"):
        bichar_from_qform(q)
    assert len(q._dq_columns[0]) == Z55.rank


def test_extraction_rejects_b_g_g_against_q():
    q = QuadForm(Z3, modulus=9, exps=[0, 0, 3])  # nondegenerate, not a form
    assert q.is_nondegenerate()
    with pytest.raises(InvalidArgumentError, match=r"^b\(g,g\)\^-1 != q\(g\); form"):
        bichar_from_qform(q)


def test_extraction_rejects_b_squared_against_dq():
    q = QuadForm(Z5, modulus=5, exps=[0, 0, 0, 0, 1])
    assert q.is_nondegenerate()
    with pytest.raises(InvalidArgumentError, match=r"^b\^2 != dq; form is inconsistent$"):
        bichar_from_qform(q)


def test_extraction_rejects_a_bad_generator_order():
    q = QuadForm(Z3, modulus=9, exps=[0, 0, 1])
    with pytest.raises(InvalidArgumentError, match="generator order constraint"):
        bichar_from_qform(q)


def test_degenerate_forms_are_refused_everywhere():
    q = QuadForm(Z33, modulus=3, exps=[0, 1, 1, 0, 1, 1, 0, 1, 1])  # y^2/3
    q.validate()
    assert not q.is_nondegenerate()
    with pytest.raises(InvalidArgumentError, match="^quadratic form is degenerate$"):
        bichar_from_qform(q)
    with pytest.raises(DegeneracyError, match="^quadratic form is degenerate$"):
        metric_group(q)
    with pytest.raises(InvalidArgumentError, match="must be nondegenerate"):
        pointed_md(MetricGroup(Z33, q))
    b = Bichar(Z33, modulus=3, mat=[[0, 0], [0, 1]])
    b.validate()
    with pytest.raises(InvalidArgumentError, match="^bicharacter is degenerate$"):
        qform_from_bichar(b)
    with pytest.raises(InvalidArgumentError, match="^bicharacter is degenerate$"):
        ty_center_md(Z33, b, 1)


def test_malformed_tables_are_domain_errors():
    # a --qform of the wrong length was an IndexError traceback, and extra
    # --bichar entries were ignored
    with pytest.raises(InvalidArgumentError, match="^value table has wrong length$"):
        QuadForm.from_exponents(Z5, ["0", "1/5"])
    with pytest.raises(InvalidArgumentError, match="^bicharacter needs a 1 x 1 generator matrix$"):
        Bichar(Z3, modulus=3, mat=[[1, 1]]).validate()


def test_bichar_checks():
    with pytest.raises(InvalidArgumentError, match="^bicharacter is not symmetric$"):
        Bichar(Z33, modulus=3, mat=[[1, 1], [2, 1]]).validate()
    with pytest.raises(InvalidArgumentError, match="generator order constraint"):
        Bichar(Z3, modulus=9, mat=[[1]]).validate()
    q = standard_qform(Z5)
    with pytest.raises(InvalidArgumentError, match=r"^q\(g\) \* b\(g,g\) != 1$"):
        MetricGroup(Z5, q, bichar_from_qform(q).conj())


def test_ty_invariants_are_checked(monkeypatch):
    b = metric_group(standard_qform(Z5)).bichar
    power = QuadForm.__pow__

    def bent(at):
        def pow_(self, k):
            a = power(self, k)
            exps = list(a.exps)
            for i in at:
                exps[i] = (exps[i] + 1) % a.modulus
            return QuadForm(a.group, modulus=a.modulus, exps=exps)
        return pow_

    monkeypatch.setattr(QuadForm, "__pow__", bent([1]))
    with pytest.raises(ModularityError, match=r"^a\(g\) != a\(-g\)$"):
        ty_center_md.__wrapped__(Z5, b, 1)
    monkeypatch.setattr(QuadForm, "__pow__", bent([1, 4]))  # g = 1 and -1
    with pytest.raises(ModularityError, match=r"^a\(g\) a\(h\) != b\(g,h\) a\(g\+h\)$"):
        ty_center_md.__wrapped__(Z5, b, 1)
    monkeypatch.setattr(QuadForm, "__pow__", power)
    charge = moddata.gauss_central_charge
    monkeypatch.setattr(moddata, "gauss_central_charge", lambda q: charge(q) + 1)
    with pytest.raises(ModularityError, match="^Fourier transform of a is off unit modulus$"):
        ty_center_md.__wrapped__(Z5, b, 1)


def test_classification_counts_its_classes(monkeypatch):
    monkeypatch.setattr(quadforms, "gauss_invariants", lambda q: ())
    with pytest.raises(ModularityError, match="^1 metric classes on .*, expected 4$"):
        classify_metric_groups(FinAbGroup.of(15))


def test_gauss_sum_must_be_an_eighth_root_times_sqrt_n():
    # |1 + 1 + w|^2 = 3 for w = e^{2 pi i/3}, but 2 + w is no 8th root times sqrt(3)
    with pytest.raises(DegeneracyError, match="not an 8th root of unity"):
        quadforms.gauss_central_charge(QuadForm(Z3, modulus=3, exps=[0, 0, 1]))


def test_pointed_entries_need_the_form_modulus_to_divide_the_conductor(monkeypatch):
    monkeypatch.setattr(moddata, "_pointed_conductor", lambda group: 4)
    with pytest.raises(InvalidArgumentError, match="^cannot promote conductor 3 to 4$"):
        pointed_md.__wrapped__(metric_group(standard_qform(Z3)))


def test_positive_set_counts_its_members(monkeypatch):
    from tycat.groups import PositiveSet

    monkeypatch.setattr(PositiveSet, "_is_positive", staticmethod(lambda g: True))
    with pytest.raises(ModularityError, match="positive set of .* has 5 members"):
        positive_set(Z5)


def test_standard_form_is_the_first_class():
    for facs in [(1,), (3,), (45,), (3, 15), (3, 3, 3), (5, 5)]:
        group = FinAbGroup.of(facs)
        assert standard_qform(group) == classify_metric_groups(group)[0].quad


def test_square_tables_refuse_large_groups_up_front(capsys):
    from tycat.cli import main
    from tycat.errors import CapacityError
    from tycat.groups import MAX_TABLE_ORDER, add_table

    big = FinAbGroup.of(MAX_TABLE_ORDER + 1)
    with pytest.raises(CapacityError, match=f"exceeds {MAX_TABLE_ORDER}"):
        add_table(big)
    q = standard_qform(big)  # linear in |G|: no square table yet
    with pytest.raises(CapacityError):
        q.is_nondegenerate()
    with pytest.raises(CapacityError):
        Bichar(big, modulus=big.exponent, mat=[[2]]).table()
    assert main(["md", "pointed", "--group", str(MAX_TABLE_ORDER + 1)]) == 1
    assert "exceeds" in capsys.readouterr().out
