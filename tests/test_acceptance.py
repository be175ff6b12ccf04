"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
with ``pytest -s`` or in the captured output) and enforces its stated
runtime budget.  Everything numeric here is exact: the only floating point
sits inside float-guess-then-prove-exactly steps.
"""

import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import numpy as np

from tycat.cyclo import CycNum, RootOfUnity
from tycat.fusionrings import (
    gen_mp_fusion_ring,
    ty_dual_hypergroup_and_table,
)
from tycat.graphs import dual_principal_graph, principal_graph
from tycat.groups import FinAbGroup, character_group, positive_set
from tycat.labels import MPAlpha, MPRho, MPSigma, Pointed, ProductLabel, TYPt, TYRho, TYSigma
from tycat.lattices import (
    count_roots,
    discriminant_form,
    glue,
    named_lattice,
    orthogonal_sum,
)
from tycat.moddata import (
    bantay_fs,
    classify_mp,
    hat_twist,
    md_equivalent,
    mp_md,
    pointed_md,
    tensor_md,
    ty_center_md,
    verify_condensation,
)
from tycat.quadforms import (
    QuadForm,
    bichar_from_qform,
    classify_metric_groups,
    direct_sum,
    gauss_central_charge,
    lagrangian_subgroups,
    metric_equiv,
    metric_group,
)


class Criterion:
    def __init__(self, number, description, budget_seconds=None):
        self.number = number
        self.description = description
        self.budget = budget_seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.number:2d} {status} ({elapsed:6.1f}s)  {self.description}")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget"
            )
        return False


def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or first >= rest[0]:
                yield (first,) + rest


@lru_cache(maxsize=None)
def odd_groups_up_to(bound):
    """All finite abelian groups of odd order <= bound, one per iso class."""
    out = []
    for n in range(1, bound + 1, 2):
        from tycat.cyclo import factorize

        per_prime = []
        for p, e in factorize(n).items():
            per_prime.append([tuple(p**k for k in part) for part in _partitions(e)])
        if not per_prime:
            out.append(FinAbGroup.of([]))
            continue
        for combo in product(*per_prime):
            factors = [f for group_factors in combo for f in group_factors]
            out.append(FinAbGroup.of(factors))
    return tuple(out)


def groups_of_order(n):
    return [g for g in odd_groups_up_to(n) if g.order == n]


@lru_cache(maxsize=None)
def spin_series_form(p):
    """(group, bicharacter) for Z_{2p+1} with the A_{2p} discriminant form."""
    n = 2 * p + 1
    g = FinAbGroup.of(n)
    q = QuadForm.from_callable(
        g, lambda x: RootOfUnity(Fraction(x.coords[0] ** 2 * 2 * p, 2 * n))
    )
    return g, bichar_from_qform(q)


def test_criterion_01_modular_axiom_suite():
    with Criterion(1, "modular-axiom suite, exact, zero tolerance", 60):
        n_data = 0
        for group in odd_groups_up_to(45):
            for m in classify_metric_groups(group):
                md = pointed_md(m)
                md.validate()
                n_data += 1
        for order in (1, 3, 5, 7, 9):
            for group in groups_of_order(order):
                for m in classify_metric_groups(group):
                    for sign in (1, -1):
                        for builder in (ty_center_md, mp_md):
                            md = builder(group, m.bichar, sign)
                            md.validate()
                            n_data += 1
        assert n_data >= 60 + 44


def test_criterion_02_factorization():
    with Criterion(2, "double factors as metaplectic x pointed", 120):
        for order in (3, 5, 7):
            group = groups_of_order(order)[0]
            for m in classify_metric_groups(group):
                b = m.bichar
                qbar = QuadForm.from_callable(group, lambda g: b(g, g))
                pt = pointed_md(metric_group(qbar))
                for sign in (1, -1):
                    z = ty_center_md(group, b, sign)
                    prod = tensor_md(mp_md(group, b, sign), pt)
                    witness = md_equivalent(z, prod)
                    assert witness is not None, (order, sign)


def test_criterion_03_fusion_rule_reproduction():
    with Criterion(3, "Verlinde fusion matches the metaplectic rule table"):
        for order in (3, 5, 7, 9, 15):
            for group in groups_of_order(order):
                expected = gen_mp_fusion_ring(group)
                for m in classify_metric_groups(group):
                    for sign in (1, -1):
                        ring = mp_md(group, m.bichar, sign).fusion_ring()
                        assert ring.labels == expected.labels
                        assert np.array_equal(ring.channels, expected.channels)

        # the double over Z3 reproduces the same rules on its metaplectic part
        group = FinAbGroup.of(3)
        m = classify_metric_groups(group)[0]
        md = ty_center_md(group, m.bichar, 1)
        ring = md.fusion_ring()
        zero = group.zero()
        pos = positive_set(group)
        label_map = {
            md.index_of(TYPt(zero, 0)): 0,
            md.index_of(TYPt(zero, 1)): 1,
            md.index_of(TYRho(zero, 0)): 2,
            md.index_of(TYRho(zero, 1)): 3,
        }
        mp_ring = gen_mp_fusion_ring(group)
        for h in pos.members:
            label_map[md.index_of(TYSigma.of(h, -h))] = mp_ring.index_of(MPSigma(h))
        sub = list(label_map)
        for a in sub:
            for b_ in sub:
                got = ring.product(a, b_)
                assert set(got) <= set(sub)  # the sector is closed
                mapped = {label_map[k]: v for k, v in got.items()}
                assert mapped == mp_ring.product(label_map[a], label_map[b_])


def test_criterion_04_frobenius_schur():
    with Criterion(4, "indicators equal construction signs; spin-series signs"):
        for order in (3, 5, 7, 9):
            for group in groups_of_order(order):
                for m in classify_metric_groups(group):
                    for sign in (1, -1):
                        md = mp_md(group, m.bichar, sign)
                        assert bantay_fs(md, MPRho(0)) == sign
        for p in range(1, 5):
            group, b = spin_series_form(p)
            nu = (-1) ** ((p + 1) // 2)
            md = mp_md(group, b, nu)
            assert bantay_fs(md, MPRho(0)) == nu, p


def test_criterion_05_central_charges():
    with Criterion(5, "central charge 2p for the spin series; 0 for doubles"):
        for p in range(1, 5):
            group, b = spin_series_form(p)
            nu = (-1) ** ((p + 1) // 2)
            assert mp_md(group, b, nu).c_top == (2 * p) % 8, p
        for order in (1, 3, 5, 7, 9):
            for group in groups_of_order(order):
                for m in classify_metric_groups(group):
                    for sign in (1, -1):
                        assert ty_center_md(group, m.bichar, sign).c_top == 0


def test_criterion_06_classification_counts():
    with Criterion(6, "classification: 8 on Z15 (rank 11), 4 on Z3, 4 on Z9", 600):
        data15 = classify_mp(FinAbGroup.of(15))
        assert len(data15) == 8
        assert all(md.rank == 11 for md in data15)
        data3 = classify_mp(FinAbGroup.of(3))
        assert len(data3) == 4
        data9 = classify_mp(FinAbGroup.of(9))
        assert len(data9) == 4
        for group_data in (data15, data3, data9):
            for a, b in combinations(group_data, 2):
                assert md_equivalent(a, b) is None


def test_criterion_07_hat_twist():
    with Criterion(7, "grading twist: involutive, flips the sign and indicators"):
        for order in (3, 5):
            group = groups_of_order(order)[0]
            for m in classify_metric_groups(group):
                plus = mp_md(group, m.bichar, 1)
                minus = mp_md(group, m.bichar, -1)
                hat = hat_twist(plus)
                assert md_equivalent(hat, minus) is not None
                assert md_equivalent(hat_twist(hat), plus) is not None
                cc = plus.charge_conjugation()
                for i in range(plus.rank):
                    if plus.grading[i] and cc[i] == i:
                        assert bantay_fs(hat, i) == -bantay_fs(plus, i)


def test_criterion_08_condensations():
    with Criterion(8, "condensation certificates (even codes, Z2, Lagrangian)", 300):
        z3 = FinAbGroup.of(3)
        z5 = FinAbGroup.of(5)
        m3 = classify_metric_groups(z3)[0]
        m5 = classify_metric_groups(z5)[0]

        # product of two metaplectic data condensed along the even codes
        parent = tensor_md(mp_md(z3, m3.bichar, 1), mp_md(z5, m5.bichar, 1))
        summed = direct_sum(m3, m5)
        child = mp_md(summed.group, summed.bichar, 1)
        boson = parent.index_of(ProductLabel(MPAlpha(), MPAlpha()))
        cert = verify_condensation(parent, child, [0, boson])
        assert cert is not None and cert.matrix[0][0] == 1

        # metaplectic data condensed along {1, alpha} lands on pointed data
        md3 = mp_md(z3, m3.bichar, 1)
        qtheta = QuadForm.from_callable(z3, lambda g: m3.bichar(g, g).inverse())
        ptchild = pointed_md(metric_group(qtheta))
        cert2 = verify_condensation(
            md3, ptchild, [0, md3.index_of(MPAlpha())]
        )
        assert cert2 is not None
        sig_row = cert2.matrix[md3.index_of(MPSigma(z3.element([1])))]
        assert sum(sig_row) == 2

        # hyperbolic pointed data condensed along a Lagrangian is trivial
        hyper = direct_sum(m3, metric_group(m3.quad.conj()))
        hyper_md = pointed_md(hyper)
        lagr = lagrangian_subgroups(hyper)[0]
        bosons = [hyper_md.index_of(Pointed(g)) for g in lagr]
        trivial = pointed_md(classify_metric_groups(FinAbGroup.of(1))[0])
        cert3 = verify_condensation(hyper_md, trivial, bosons)
        assert cert3 is not None
        assert sum(row[0] for row in cert3.matrix) == 3


def _reference_disc_form(name):
    """Independent reference for the named discriminant forms: for A_n the
    values e^{pi i n x^2/(n+1)} on Z_{n+1}; E6, E7 explicit; E8 trivial."""
    if name.startswith("A"):
        n = int(name[1:])
        g = FinAbGroup.of(n + 1)
        return QuadForm.from_callable(
            g, lambda x: RootOfUnity(Fraction(n * x.coords[0] ** 2, 2 * (n + 1)))
        )
    if name == "E6":
        g = FinAbGroup.of(3)
        return QuadForm.from_callable(
            g, lambda x: RootOfUnity(Fraction(4 * x.coords[0] ** 2, 6))
        )
    if name == "E7":
        g = FinAbGroup.of(2)
        return QuadForm.from_callable(
            g, lambda x: RootOfUnity(Fraction(3 * x.coords[0] ** 2, 4))
        )
    g = FinAbGroup.of(1)
    return QuadForm(g, (RootOfUnity.one(),))


def test_criterion_09_lattices():
    with Criterion(9, "discriminant table, E8 gluings, charge = rank mod 8", 60):
        named = [f"A{n}" for n in range(1, 9)] + ["E6", "E7", "E8"]
        for name in named:
            disc = discriminant_form(named_lattice(name))
            ref = _reference_disc_form(name)
            assert disc.group == ref.group, name
            if disc.group.is_trivial():
                continue
            assert metric_equiv(disc.metric(), metric_group(ref)) is not None, name

        for pair, order in [(("A2", "E6"), 3), (("A1", "E7"), 2)]:
            lat = orthogonal_sum(named_lattice(pair[0]), named_lattice(pair[1]))
            disc = discriminant_form(lat)
            gen = next(
                g
                for g in disc.group.elements()
                if not g.is_zero() and disc.qform(g).is_one()
            )
            assert gen.order() == order
            glued = glue(lat, [gen])
            assert glued.rank == 8
            assert glued.determinant == 1
            assert count_roots(glued) == 240

        for name in [f"A{n}" for n in range(1, 25)] + ["E6", "E7", "E8"]:
            lat = named_lattice(name)
            disc = discriminant_form(lat)
            if disc.group.is_trivial():
                assert lat.rank % 8 == 0
            else:
                assert gauss_central_charge(disc.qform) == lat.rank % 8, name


def test_criterion_10_graphs():
    with Criterion(10, "principal graphs: explicit counts and degree formulas"):
        g3 = principal_graph(FinAbGroup.of(3))
        assert (len(g3.even), len(g3.odd), len(g3.edges)) == (10, 3, 12)
        assert g3.degree("(rho,rho)") == 3
        d3 = dual_principal_graph(FinAbGroup.of(3))
        assert (len(d3.even), len(d3.odd), len(d3.edges)) == (9, 3, 12)
        assert all(d3.degree(v) == 4 for v in d3.odd)
        for n in range(1, 16, 2):
            group = FinAbGroup.of(n)
            k = (n - 1) // 2
            gp = principal_graph(group)
            dp = dual_principal_graph(group)
            assert (len(gp.even), len(gp.odd), len(gp.edges)) == (
                n * n + 1,
                n,
                n * (n + 1),
            )
            assert (len(dp.even), len(dp.odd), len(dp.edges)) == (
                n * (2 + k),
                n,
                n * (n + 1),
            )
            assert all(gp.degree(v) == n + 1 for v in gp.odd)
            assert all(dp.degree(v) == n + 1 for v in dp.odd)


def test_criterion_11_hypergroup_tables():
    with Criterion(11, "character tables: displayed form and exact orthogonality"):
        for order in (1, 3, 5, 7, 9, 11, 13, 15):
            for group in groups_of_order(order):
                hg, table = ty_dual_hypergroup_and_table(group)
                n = group.order
                table.validate()  # exact weighted row orthogonality
                assert table.weights == (Fraction(1),) * n + (Fraction(n),)
                one = CycNum.one()
                assert table.entries[0] == tuple([one] * (n + 1))
                assert table.entries[1] == tuple([one] * n + [-one])
                _, pairing = character_group(group)
                els = group.elements()
                chis = [h for h in els if not h.is_zero()]
                for row, chi in zip(table.entries[2:], chis):
                    assert row[-1].is_zero()
                    for entry, g in zip(row, els):
                        assert entry == pairing(chi, g).to_cyc()
                # c_chi c_{chi^{-1}} = (1 + eps)/2
                for i, chi in enumerate(chis):
                    j = chis.index(-chi)
                    assert hg.coeff(2 + i, 2 + j, 0) == Fraction(1, 2)
                    assert hg.coeff(2 + i, 2 + j, 1) == Fraction(1, 2)
