import random
from itertools import product

import pytest

from aut_oracle import brute_force_automorphisms, compose, inverse, is_identity
from tycat import groups
from tycat.cyclo import RootOfUnity
from tycat.errors import CapacityError, InvalidArgumentError
from tycat.groups import (
    FinAbGroup,
    automorphisms,
    character_group,
    positive_set,
    product_group,
    subgroups,
)
from tycat.intmat import (
    as_matrix,
    det,
    hermite_row_basis,
    identity,
    matmul,
    smith_normal_form,
)


def test_canonical_form():
    assert FinAbGroup.of(6, 4).invariant_factors == (2, 12)
    assert FinAbGroup.of(3, 5).invariant_factors == (15,)
    assert FinAbGroup.of(1, 1).invariant_factors == ()
    assert FinAbGroup.of([3, 3]).invariant_factors == (3, 3)
    assert FinAbGroup.of(45).order == 45
    assert FinAbGroup.of(3, 15).exponent == 15
    with pytest.raises(InvalidArgumentError):
        FinAbGroup((4, 6))  # not a divisibility chain


def test_canonical_chain_is_the_smith_form_of_the_orders():
    # the chain from the piece list against the Smith normal form of
    # diag(orders), its entries above 1; orders of 1 and even orders included
    rng = random.Random(7)
    seen = set()
    for _ in range(300):
        orders = [rng.randint(1, 36) for _ in range(rng.randint(1, 5))]
        seen.update(orders)
        n = len(orders)
        d, _, _ = smith_normal_form([[orders[i] * (i == j) for j in range(n)] for i in range(n)])
        chain = tuple(abs(d[i][i]) for i in range(n) if abs(d[i][i]) > 1)
        assert FinAbGroup.of(orders).invariant_factors == chain, orders
    assert 1 in seen and 2 in seen


def test_elements_and_arithmetic():
    g = FinAbGroup.of(3, 9)
    els = g.elements()
    assert len(els) == 27 and len(set(els)) == 27
    a = g.element([1, 2])
    b = g.element([2, 8])
    assert (a + b).coords == (0, 1)
    assert (-a).coords == (2, 7)
    assert (a * 9).coords == (0, 0)
    assert a.order() == 9
    assert g.element([2, 0]).order() == 3


def test_smith_normal_form_examples():
    d, _, _ = smith_normal_form(identity(2))
    assert d == identity(2)
    d, _, _ = smith_normal_form([[2]])
    assert d == ((2,),)
    a2 = as_matrix([[2, -1], [-1, 2]])
    d, u, v = smith_normal_form(a2)
    assert matmul(matmul(u, a2), v) == d
    assert (d[0][0], d[1][1]) == (1, 3)
    assert det(a2) == 3


def test_smith_normal_form_random():
    rng = random.Random(11)
    for _ in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = as_matrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        d, u, v = smith_normal_form(m)  # UMV = D asserted internally
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            assert (y % x == 0) if x else (y == 0)


def test_hermite_row_basis():
    b = hermite_row_basis([[2, 0], [0, 2], [1, 1]])
    assert det(b) in (-2, 2)
    assert b == ((1, 1), (0, 2))
    assert hermite_row_basis([[0, 0], [3, 6]]) == ((3, 6),)


def test_positive_set_small():
    g3 = FinAbGroup.of(3)
    p = positive_set(g3)
    assert [e.coords for e in p.members] == [(1,)]
    g5 = FinAbGroup.of(5)
    assert [e.coords for e in positive_set(g5).members] == [(1,), (2,)]
    g33 = FinAbGroup.of(3, 3)
    p33 = positive_set(g33)
    assert len(p33.members) == 4
    with pytest.raises(InvalidArgumentError):
        positive_set(FinAbGroup.of(2))


def test_positive_set_partition():
    for facs in [(3,), (5,), (7,), (9,), (3, 3), (3, 9), (15,), (3, 3, 3)]:
        g = FinAbGroup.of(facs)
        p = positive_set(g)
        pos = set(p.members)
        neg = {-x for x in pos}
        assert pos.isdisjoint(neg)
        assert pos | neg | {g.zero()} == set(g.elements())
        for x in g.elements():
            assert p.fold(x) == p.fold(-x)
            assert p.fold(x) in pos | {g.zero()}


def test_automorphism_counts():
    assert len(automorphisms(FinAbGroup.of(3))) == 2
    assert len(automorphisms(FinAbGroup.of(5))) == 4
    assert len(automorphisms(FinAbGroup.of(3, 3))) == 48
    assert len(automorphisms(FinAbGroup.of(3, 3, 3))) == 11_232  # |GL(3, 3)|


def test_automorphism_bound_is_checked_before_enumerating(monkeypatch):
    def enumerate_images(*args):
        raise AssertionError("candidates were enumerated")

    # 125^3 = 1,953,125 candidate images; the search is _backtrack
    monkeypatch.setattr(groups, "_backtrack", enumerate_images)
    bound = "^1953125 candidate generator images exceed the bound 200000$"
    with pytest.raises(CapacityError, match=bound):
        automorphisms(FinAbGroup.of(5, 5, 5))


def test_automorphism_group_structure():
    for facs in [(3,), (9,), (3, 3), (25,), (5, 5)]:
        g = FinAbGroup.of(facs)
        auts = automorphisms(g)
        assert any(is_identity(a) for a in auts)
        keyed = {a.images for a in auts}
        rng = random.Random(3)
        for _ in range(10):
            a, b = rng.choice(auts), rng.choice(auts)
            assert compose(a, b).images in keyed
            assert is_identity(compose(inverse(a), a))


@pytest.mark.parametrize("facs", [
    (3,), (9,), (3, 3), (5, 5), (3, 3, 3), (3, 9), (13, 13), (2, 2, 2, 2),
], ids=lambda facs: "x".join(map(str, facs)))
def test_automorphisms_match_the_product_order_brute_force(facs):
    # the same automorphisms in the same order: the disc canonical table
    # keeps the first least image, so the order is part of the output
    group = FinAbGroup.of(facs)
    auts = automorphisms(group)
    assert auts == brute_force_automorphisms(group)
    els = group.elements()
    for a in auts[:20] + auts[-20:]:
        assert list(a.indices()) == [group.index_of(a(g)) for g in els]


def test_the_backtracking_refuses_what_the_pools_allow():
    # a pool member of the wrong order, or in the span of the earlier
    # images, is skipped: on Z3 x 9 the pools hold 9 and 27 candidates
    group = FinAbGroup.of(3, 9)
    found = groups._backtrack(group, [[group.element([1, 0])], [group.element([1, 3])]])
    assert found == []  # 3 (1, 3) = (0, 0): order 3, not 9
    found = groups._backtrack(group, [[group.element([1, 0])], [group.element([1, 1])]])
    assert [a.images for a in found] == [(group.element([1, 0]), group.element([1, 1]))]
    found = groups._backtrack(group, [[group.element([0, 3])], [group.element([1, 1])]])
    assert found == []  # 3 (1, 1) = (0, 3) is in the span of the first image


def test_character_pairing():
    g = FinAbGroup.of(3)
    dual, pairing = character_group(g)
    assert dual == g
    chi1 = pairing(g.element([1]), g.element([1]))
    assert chi1 == RootOfUnity(1, 3)

    g15 = FinAbGroup.of(3, 5)
    _, pair15 = character_group(g15)
    for gel in g15.elements():
        if gel.is_zero():
            continue
        assert any(not pair15(h, gel).is_one() for h in g15.elements())


def test_subgroups():
    g = FinAbGroup.of(3, 3)
    subs = subgroups(g)
    assert sorted(len(s) for s in subs) == [1, 3, 3, 3, 3, 9]
    g15 = FinAbGroup.of(15)
    assert sorted(len(s) for s in subgroups(g15)) == [1, 3, 5, 15]


def test_product_group_iso():
    # repeated prime powers across slots: (3, 9, 3, 5, 25) and (4, 2, 6)
    for orders in [(3, 5), (6, 4), (9, 3), (2, 2, 2), (1, 7), (3, 9, 3, 5, 25), (4, 2, 6)]:
        g, fwd, back = product_group(orders)
        seen = set()
        for coords in product(*(range(d) for d in orders)):
            img = fwd(coords)
            assert back(img) == tuple(c % d for c, d in zip(coords, orders))
            seen.add(img)
        assert len(seen) == g.order
        # homomorphism property on a sample
        rng = random.Random(5)
        for _ in range(20):
            x = tuple(rng.randrange(d) for d in orders)
            y = tuple(rng.randrange(d) for d in orders)
            s = tuple((a + b) % d for a, b, d in zip(x, y, orders))
            assert fwd(s) == fwd(x) + fwd(y)
