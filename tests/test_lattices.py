import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import tycat
from tycat import lattices

from tycat.cyclo import RootOfUnity
from tycat.errors import CapacityError, InvalidArgumentError, ModularityError
from tycat.groups import FinAbGroup
from tycat.intmat import as_matrix, det, identity, matmul, smith_normal_form, transpose
from tycat.lattices import (
    EvenLattice,
    count_roots,
    discriminant_form,
    glue,
    mirror_check,
    named_lattice,
    orthogonal_sum,
)
from tycat.quadforms import gauss_central_charge, metric_equiv, metric_group


def table_form(n_group: int, exponents):
    """Quadratic form on Z_n by x -> e^{2 pi i exponents[x]}."""
    from tycat.quadforms import QuadForm

    g = FinAbGroup.of(n_group)
    return QuadForm.from_callable(
        g, lambda x: RootOfUnity(Fraction(exponents[x.coords[0]]))
    )


def reference_disc(name):
    """Discriminant data of the named root lattices: q(x) = e^{pi i x^2 n/(n+1)}
    for A_n; the E-series values."""
    if name.startswith("A"):
        n = int(name[1:])
        g = FinAbGroup.of(n + 1)
        from tycat.quadforms import QuadForm

        return QuadForm.from_callable(
            g, lambda x: RootOfUnity(Fraction(x.coords[0] ** 2 * n, 2 * (n + 1)))
        )
    if name == "E6":
        return table_form(3, {0: 0, 1: Fraction(2, 3), 2: Fraction(2, 3)})
    if name == "E7":
        return table_form(2, {0: 0, 1: Fraction(3, 4)})
    raise ValueError(name)


def test_named_dets():
    assert named_lattice("A2").determinant == 3
    assert named_lattice("E6").determinant == 3
    assert named_lattice("E7").determinant == 2
    assert named_lattice("E8").determinant == 1
    assert named_lattice("A8").determinant == 9
    with pytest.raises(InvalidArgumentError):
        named_lattice("B2")


@pytest.mark.parametrize("name", ["A1_0", "A\u0661", "A", "A-1", "A 2"])
def test_a_series_names_take_ascii_digits_only(name):
    with pytest.raises(InvalidArgumentError, match="^unknown lattice name"):
        named_lattice(name)


def test_a_series_names_keep_case_and_surrounding_space():
    assert named_lattice(" a24 ").determinant == named_lattice("A24").determinant == 25
    with pytest.raises(InvalidArgumentError, match="ship for n <= 24, got A25"):
        named_lattice("A25")


def test_discriminant_matches_reference_tables():
    for name in ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "E6", "E7"]:
        disc = discriminant_form(named_lattice(name))
        ref = reference_disc(name)
        assert disc.group == ref.group
        phi = metric_equiv(disc.metric(), metric_group(ref))
        assert phi is not None, name

    e8 = discriminant_form(named_lattice("E8"))
    assert e8.group.is_trivial()


def test_discriminant_e6_values():
    disc = discriminant_form(named_lattice("E6"))
    assert disc.group == FinAbGroup.of(3)
    vals = {g.coords[0]: disc.qform(g).exponent for g in disc.group.elements()}
    assert vals == {0: 0, 1: Fraction(2, 3), 2: Fraction(2, 3)}


def test_discriminant_a2_values():
    disc = discriminant_form(named_lattice("A2"))
    vals = {g.coords[0]: disc.qform(g).exponent for g in disc.group.elements()}
    assert vals == {0: 0, 1: Fraction(1, 3), 2: Fraction(1, 3)}


def test_orthogonal_sum():
    a2, e6 = named_lattice("A2"), named_lattice("E6")
    s = orthogonal_sum(a2, e6)
    assert s.rank == 8 and s.determinant == 9
    d = discriminant_form(s)
    assert d.group == FinAbGroup.of(3, 3)
    assert orthogonal_sum(a2, a2).determinant == 9

    from tycat.quadforms import direct_sum

    expect = direct_sum(
        discriminant_form(a2).metric(), discriminant_form(e6).metric()
    )
    assert metric_equiv(d.metric(), expect) is not None


def test_glue_trivial():
    a2 = named_lattice("A2")
    assert glue(a2, []) == a2


def test_glue_to_e8():
    s = orthogonal_sum(named_lattice("A2"), named_lattice("E6"))
    disc = discriminant_form(s)
    gen = next(
        g
        for g in disc.group.elements()
        if not g.is_zero() and disc.qform(g).is_one()
    )
    glued = glue(s, [gen])
    assert glued.rank == 8
    assert glued.determinant == 1
    assert count_roots(glued) == 240

    s2 = orthogonal_sum(named_lattice("A1"), named_lattice("E7"))
    disc2 = discriminant_form(s2)
    gen2 = next(
        g
        for g in disc2.group.elements()
        if not g.is_zero() and disc2.qform(g).is_one()
    )
    glued2 = glue(s2, [gen2])
    assert glued2.rank == 8 and glued2.determinant == 1
    assert count_roots(glued2) == 240


def test_glue_rejects_anisotropic():
    a2 = named_lattice("A2")
    disc = discriminant_form(a2)
    g = next(g for g in disc.group.elements() if not g.is_zero())
    with pytest.raises(InvalidArgumentError):
        glue(a2, [g])


def test_glue_determinant_law():
    from tycat.quadforms import isotropic_subgroups

    for name in ["A3", "A8"]:
        lat = named_lattice(name)
        disc = discriminant_form(lat)
        for h in isotropic_subgroups(disc.metric()):
            glued = glue(lat, list(h))
            assert glued.determinant * len(h) ** 2 == lat.determinant


def test_mirrors():
    assert mirror_check(named_lattice("A1"), named_lattice("E7")) is not None
    assert mirror_check(named_lattice("A2"), named_lattice("E6")) is not None
    assert mirror_check(named_lattice("A2"), named_lattice("A2")) is None


D4 = EvenLattice(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))


def test_count_roots():
    for n in range(1, 9):
        assert count_roots(named_lattice(f"A{n}")) == n * (n + 1)
    assert count_roots(D4) == 24
    assert count_roots(named_lattice("E6")) == 72
    assert count_roots(named_lattice("E7")) == 126
    assert count_roots(named_lattice("E8")) == 240
    # the theta series of E8 is 1 + 240 q + 2160 q^2 + ...
    assert count_roots(named_lattice("E8"), 4) == 2160
    assert count_roots(named_lattice("E8"), 0) == 0
    with pytest.raises(CapacityError):
        count_roots(orthogonal_sum(named_lattice("E8"), named_lattice("A1")))


def _brute_force_count(gram, norm: int) -> int:
    """Vectors of the given norm in the box |x_i| <= sqrt(norm (G^-1)_ii),
    which holds every such vector; (G^-1)_ii is the i-th principal minor
    over det(G)."""
    n = len(gram)
    d = det(gram)
    bounds = [
        math.isqrt(norm * det([[gram[a][b] for b in range(n) if b != i]
                               for a in range(n) if a != i]) // d) + 1
        for i in range(n)
    ]
    return sum(
        1
        for x in itertools.product(*(range(-b, b + 1) for b in bounds))
        if any(x) and sum(x[i] * gram[i][j] * x[j] for i in range(n) for j in range(n)) == norm
    )


def test_count_roots_matches_brute_force_on_small_grams():
    rng = random.Random(7)
    grams = []
    while len(grams) < 60:
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(1, 4)
            for j in range(i):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        try:
            grams.append(EvenLattice(as_matrix(g)))
        except InvalidArgumentError:  # not positive definite
            continue
    for lat in grams:
        for norm in (2, 4, 6):
            assert count_roots(lat, norm) == _brute_force_count(lat.gram, norm), (lat.gram, norm)


def test_central_charge_matches_rank_mod_8():
    for name in ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8", "E6", "E7", "E8"]:
        lat = named_lattice(name)
        disc = discriminant_form(lat)
        assert gauss_central_charge(disc.qform) == lat.rank % 8, name


def test_lattice_json_roundtrip():
    a2 = named_lattice("A2")
    assert EvenLattice.from_json(a2.to_json()) == a2


@pytest.mark.parametrize("obj", [
    {"gram": [[2.9, -1], [-1, 2]]},
    {"gram": [[2.0, -1], [-1, 2]]},
    {"gram": [["2", -1], [-1, 2]]},
    {"gram": [["\u0662", -1], [-1, 2]]},
    {"gram": [[True, -1], [-1, 2]]},
    {"gram": [[2, None], [-1, 2]]},
    {"gram": [2, -1]},
    {"gram": "A2"},
    {"lattice": [[2, -1], [-1, 2]]},
    [[2, -1], [-1, 2]],
], ids=["float", "integral_float", "string", "non_ascii_string", "bool", "null", "flat",
        "name", "no_gram", "bare_list"])
def test_lattice_json_takes_integer_entries_only(obj):
    # int() would truncate 2.9 to A2's 2 and read "2" and the Arabic-Indic
    # two as 2
    with pytest.raises(InvalidArgumentError, match="list of lists of integers"):
        EvenLattice.from_json(obj)


def test_glue_determinant_law_all_small_builtins():
    from tycat.quadforms import isotropic_subgroups

    names = [f"A{n}" for n in range(1, 25)] + ["E6", "E7", "E8"]
    for name in names:
        lat = named_lattice(name)
        disc = discriminant_form(lat)
        if disc.group.order > 25:
            continue
        for h in isotropic_subgroups(disc.metric()):
            glued = glue(lat, list(h))
            assert glued.determinant * len(h) ** 2 == lat.determinant, name


def test_count_roots_brute_force_oracle():
    import random
    from itertools import product as iproduct

    from tycat.intmat import as_matrix

    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(1, 3)
        # diagonally dominant even Gram: short vectors stay inside the box
        off = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                off[i][j] = off[j][i] = rng.randint(-1, 1)
        gram = [
            [4 + 2 * rng.randint(0, 2) if i == j else off[i][j] for j in range(n)]
            for i in range(n)
        ]
        lat = EvenLattice(as_matrix(gram))
        for norm in (2, 4, 6):
            brute = 0
            for x in iproduct(range(-5, 6), repeat=n):
                val = sum(
                    gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n)
                )
                if val == norm:
                    brute += 1
            assert count_roots(lat, norm) == brute, (gram, norm)


NAMED = [f"A{n}" for n in range(1, 25)] + ["E6", "E7", "E8"]


def test_smith_lifts_invert_u():
    # the lifts (G V)[:, i] / d_i are the columns of U^-1: U lift_i = e_i
    for name in NAMED:
        lat = named_lattice(name)
        _, u, _ = smith_normal_form(lat.gram)
        _, u_inv, adj, delta = lattices._smith_adjugate(lat)
        assert matmul(u, transpose(u_inv)) == identity(lat.rank), name
        assert delta == lat.determinant, name
        assert matmul(lat.gram, adj) == tuple(
            tuple(delta * x for x in row) for row in identity(lat.rank)
        ), name


def test_lattice_shifts_keep_q():
    # the coset argument behind discriminant_form: shifting a lift x by the
    # k-th Gram row changes x adj x^T by 2 det x_k + det G_kk = 0 mod 2 det
    for name in NAMED + ["A2+E6", "A4+A4"]:
        parts = name.split("+")
        lat = named_lattice(parts[0])
        for part in parts[1:]:
            lat = orthogonal_sum(lat, named_lattice(part))
        _, _, adj, delta = lattices._smith_adjugate(lat)
        for lift in discriminant_form(lat).lifts:
            base = lattices._norms([lift], adj)[0]
            shifted = [[a + b for a, b in zip(lift, row)] for row in lat.gram]
            assert all((x - base) % (2 * delta) == 0 for x in lattices._norms(shifted, adj)), name


def _wrong_v(gram):
    # a true Smith form with the last column of V negated: U G V' != D
    d, u, v = smith_normal_form(gram)
    return d, u, tuple(row[:-1] + (-row[-1],) for row in v)


def test_adjugate_certificate_rejects_a_wrong_v(monkeypatch):
    lat = EvenLattice(((4, 1, 0), (1, 6, 2), (0, 2, 8)))
    monkeypatch.setattr(lattices, "smith_normal_form", _wrong_v)
    lattices._smith_adjugate.cache_clear()
    discriminant_form.cache_clear()
    with pytest.raises(ModularityError, match="adjugate certificate fails"):
        discriminant_form(lat)


def test_adjugate_certificate_survives_python_O():
    code = (
        "from tycat import lattices\n"
        "from tycat.errors import ModularityError\n"
        "from tycat.intmat import smith_normal_form\n"
        "def wrong_v(gram):\n"
        "    d, u, v = smith_normal_form(gram)\n"
        "    return d, u, tuple(row[:-1] + (-row[-1],) for row in v)\n"
        "lattices.smith_normal_form = wrong_v\n"
        "try:\n"
        "    lattices.discriminant_form(lattices.named_lattice('A3'))\n"
        "except ModularityError as exc:\n"
        "    print('raised', exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(tycat.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["raised adjugate certificate fails G adj(G) = det(G) I"]


def test_large_discriminant_is_refused_before_factoring():
    # |G| = det = 2 * 10^22 + 3: factoring or enumerating it would not end
    lat = EvenLattice(((10**22 + 2, 1), (1, 2)))
    with pytest.raises(CapacityError, match=r"\|G\| = 20000000000000000000003 exceeds 2048"):
        discriminant_form(lat)


def test_positive_definiteness_matches_the_leading_minors():
    import random

    from tycat.intmat import det

    for gram in (((2, 3), (3, 2)), ((2, 2), (2, 2)), ((2, 1, 2), (1, 2, 2), (2, 2, 2))):
        with pytest.raises(InvalidArgumentError, match="not positive definite"):
            EvenLattice(gram)
    # reference: every leading principal minor, each by its own determinant
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 5)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = 2 * rng.randint(-1, 3)
            for j in range(i + 1, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        gram = tuple(map(tuple, gram))
        expect = all(det(tuple(r[:k] for r in gram[:k])) > 0 for k in range(1, n + 1))
        try:
            EvenLattice(gram)
            accepted = True
        except InvalidArgumentError:
            accepted = False
        assert accepted == expect, gram
