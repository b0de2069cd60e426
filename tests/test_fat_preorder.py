import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynca import (DYNAMIC_PARAMS, STATIC_PARAMS, ConfigError, FatParams,
                   Forest, Rational, StaticCa, assign_numbers, oracle_ca)
from dynca.fat_preorder import EPS

from _checks import (build_random_tree, check_compression_exact,
                     check_fat_order, naive_table_entry, tree_nodes_of)


def test_static_params_exact():
    out = STATIC_PARAMS.validate()
    assert out["eq_pack_lo"] == Fraction(2)
    assert out["c_minus_2"] == Fraction(2)
    assert out["eq_pack_hi"] == Fraction(4)
    assert out["eq_growth_lhs"] is None


def test_dynamic_params_exact_and_coarsened():
    out = DYNAMIC_PARAMS.validate()
    lo = out["eq_pack_lo"]
    hi = out["eq_pack_hi"]
    lhs = out["eq_growth_lhs"]
    assert lo == Fraction(686, 657)
    assert out["c_minus_2"] == Fraction(3)
    assert hi == Fraction(10000, 2401)
    assert lhs == Fraction(245106, 83875)
    # the one-decimal outward roundings give the familiar display forms
    ceil1 = Fraction(-(-lo.numerator * 10 // lo.denominator), 10)
    floor1 = Fraction(hi.numerator * 10 // hi.denominator, 10)
    assert ceil1 == Fraction(11, 10) and floor1 == Fraction(41, 10)
    assert ceil1 <= 3 <= floor1
    ceil2 = Fraction(-(-lhs.numerator * 100 // lhs.denominator), 100)
    assert ceil2 == Fraction(293, 100)
    assert ceil2 <= 3


def test_bad_params_rejected():
    with pytest.raises(ConfigError):
        # c-2 = 2 below the packing floor 2/(10/7 - 1) = 14/3
        FatParams(alpha=None, beta=Rational(10, 7), c=4, e=2).validate()
    with pytest.raises(ConfigError):
        FatParams(alpha=None, beta=Rational(2, 1), c=40, e=3).validate()  # c-2 > beta^e
    with pytest.raises(ConfigError):
        FatParams(alpha=None, beta=Rational(1, 1), c=4, e=2).validate()
    with pytest.raises(ConfigError):
        FatParams(alpha=Rational(7, 5), beta=Rational(10, 7), c=5, e=4).validate()


def test_assign_numbers_single_node():
    pbar, p, q, qbar, Qbar = [0], [0], [0], [0], [0]
    assign_numbers(0, 0, [1], lambda u: [], 4, 2, pbar, p, q, qbar, Qbar)
    assert (pbar[0], p[0], q[0], qbar[0]) == (0, 1, 3, 4)


def test_assign_numbers_two_nodes():
    pbar, p, q, qbar, Qbar = [0, 0], [0, 0], [0, 0], [0, 0], [0, 0]
    dch = {0: [1], 1: []}
    assign_numbers(0, 0, [2, 1], dch.__getitem__, 4, 2, pbar, p, q, qbar, Qbar)
    assert (pbar[0], p[0], q[0], qbar[0]) == (0, 4, 12, 16)
    assert (pbar[1], p[1], q[1], qbar[1]) == (5, 6, 8, 9)
    assert Qbar[0] == 9


def test_sibling_intervals_disjoint(rng):
    f, r = build_random_tree(rng, 120)
    sca = StaticCa(f)
    check_fat_order(sca, tree_nodes_of(sca, 0), r, STATIC_PARAMS)


def path_forest(n):
    f = Forest()
    f.make_node()
    for v in range(1, n):
        y = f.make_node()
        f.add_leaf(v - 1, y)
    return f


def complete_binary(depth):
    f = Forest()
    f.make_node()
    frontier = [0]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for _ in range(2):
                y = f.make_node()
                f.add_leaf(u, y)
                nxt.append(y)
        frontier = nxt
    return f


def test_compression_path():
    """A path compresses to height 1: everything hangs off the top apex.

    The very last node is a second apex: its weight is exactly half its
    parent's, and heavy needs a strict majority.
    """
    f = path_forest(30)
    sca = StaticCa(f)
    assert sca.apex == [True] + [False] * 28 + [True]
    assert all(sca.piD[v] == 0 for v in range(1, 30))
    check_compression_exact(sca, f, range(30), 0)


def test_compression_complete_binary():
    """Both children tie at half weight, so every node is an apex."""
    f = complete_binary(4)
    sca = StaticCa(f)
    assert all(sca.apex)
    assert all(sca.piD[v] == f.parent[v] for v in range(1, len(f.parent)))


def test_compression_star():
    f = Forest()
    f.make_node()
    for _ in range(3):
        f.add_leaf(0, f.make_node())
    sca = StaticCa(f)
    assert all(sca.apex)


def test_compression_exact_random(rng):
    for n in (2, 3, 17, 80, 300):
        f, r = build_random_tree(rng, n)
        sca = StaticCa(f)
        check_compression_exact(sca, f, range(n), r)
        check_fat_order(sca, range(n), r, STATIC_PARAMS)


def test_table_frozen_examples():
    f = path_forest(2)
    sca = StaticCa(f)
    # root's stored row is all empty
    assert all(v == EPS for v in sca.tab[0])
    # child: (c-2)*sigma^e = 2 >= beta^0 = 1, so entry 0 is empty
    assert sca.tab[1][0] == EPS
    # above the stored width the accessor hands back the root
    assert sca.table_entry(1, len(sca.tab[1])) == 0
    assert sca.table_entry(1, 10 ** 6) == 0


@pytest.mark.parametrize("n", [2, 7, 40, 160])
def test_table_matches_naive_scan(n, rng):
    f, r = build_random_tree(rng, n)
    sca = StaticCa(f)
    c = STATIC_PARAMS.c
    e = STATIC_PARAMS.e
    width = len(sca.tab[r])
    for x in range(n):
        for i in range(width + 3):
            want = naive_table_entry(sca, x, i, STATIC_PARAMS.beta, c - 2, e)
            if i >= width:
                # accessor tail: every node on the path qualifies by then
                assert want == r
            assert sca.table_entry(x, i) == want, (x, i)


def test_static_ca_differential(rng):
    for n in (2, 3, 10, 60, 200):
        f, r = build_random_tree(rng, n)
        sca = StaticCa(f)
        for _ in range(min(n * n, 2500)):
            x = rng.randrange(n)
            y = rng.randrange(n)
            assert sca.ca(x, y) == oracle_ca(f, x, y), (n, x, y)


def test_static_ca_dynamic_params_differential(rng):
    for n in (2, 17, 90):
        f, r = build_random_tree(rng, n)
        sca = StaticCa(f, params=DYNAMIC_PARAMS)
        check_fat_order(sca, range(n), r, DYNAMIC_PARAMS)
        for _ in range(1500):
            x = rng.randrange(n)
            y = rng.randrange(n)
            assert sca.ca(x, y) == oracle_ca(f, x, y), (n, x, y)


def test_static_multi_tree_forest(rng):
    f = Forest()
    for _ in range(3):
        f.make_node()
    for _ in range(57):
        x = rng.randrange(len(f.parent))
        f.add_leaf(x, f.make_node())
    sca = StaticCa(f)
    for _ in range(800):
        x = rng.randrange(60)
        y = rng.randrange(60)
        assert sca.ca(x, y) == oracle_ca(f, x, y)


def test_query_step_budget(rng):
    f, _ = build_random_tree(rng, 512)
    sca = StaticCa(f)
    for _ in range(4000):
        sca.ca(rng.randrange(512), rng.randrange(512))
    assert sca.stats.max_query_steps <= 12


def test_empty_forest_rejected():
    with pytest.raises(ConfigError):
        StaticCa(Forest())


def test_identity_and_errors(rng):
    f, _ = build_random_tree(rng, 5)
    sca = StaticCa(f)
    assert sca.ca(3, 3) == (3, 3, 3)
    with pytest.raises(ValueError):
        sca.ca(0, 99)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.integers(min_value=2, max_value=64))
def test_static_property_random_trees(seed, n):
    r = random.Random(seed)
    f, root = build_random_tree(r, n)
    sca = StaticCa(f)
    check_fat_order(sca, range(n), root, STATIC_PARAMS)
    for _ in range(40):
        x = r.randrange(n)
        y = r.randrange(n)
        assert sca.ca(x, y) == oracle_ca(f, x, y)
