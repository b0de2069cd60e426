import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dynca import (DYNAMIC_PARAMS, STATIC_PARAMS, ConfigError, FatParams,
                   Forest, IncrementalTree, Rational, StaticCa, oracle_ca)
from dynca.fat_preorder import EPS

from _checks import (build_random_tree, check_compression_exact,
                     check_fat_order, guards, naive_table_entry,
                     shared_rows_ok, table_entry, tree_nodes_of)


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
    # each packs, but compressed parents weigh only 2 and 10/7 times their
    # children, below beta
    with pytest.raises(ConfigError, match="weight ratio"):
        FatParams(alpha=None, beta=Rational(3, 1), c=5, e=2).validate()
    with pytest.raises(ConfigError, match="weight ratio"):
        FatParams(alpha=Rational(6, 5), beta=Rational(3, 2), c=5, e=4).validate()
    # beta * (c-2) = 8 > 1 + beta^e = 5: a meet could sit two compressed
    # levels above the deepest wide ancestor
    with pytest.raises(ConfigError, match="meet reach"):
        FatParams(alpha=None, beta=Rational(2, 1), c=6, e=2).validate()
    for c, e in ((4, 1), (2, 2)):
        with pytest.raises(ConfigError, match="need e >= 2 and c >= 3"):
            FatParams(alpha=None, beta=Rational(2, 1), c=c, e=e).validate()
    # the dynamic preset with no growth slack
    with pytest.raises(ConfigError, match="alpha must exceed 1"):
        FatParams(alpha=Rational(1, 1), beta=Rational(10, 7), c=5, e=4).validate()


def path_forest(n):
    f = Forest()
    f.make_node()
    for v in range(1, n):
        y = f.make_node()
        f.add_leaf(v - 1, y)
    return f


def test_assign_numbers_single_node():
    sca = StaticCa(path_forest(1))
    assert guards(sca, 0) == (0, 1, 3, 4)


def test_assign_numbers_two_nodes():
    # the child weighs exactly half, so it is an apex of its own
    sca = StaticCa(path_forest(2))
    assert guards(sca, 0) == (0, 4, 12, 16)
    assert guards(sca, 1) == (5, 6, 8, 9)
    assert sca.Qbar[0] == 9


def test_sibling_intervals_disjoint(rng):
    f, r = build_random_tree(rng, 120)
    sca = StaticCa(f)
    check_fat_order(sca, tree_nodes_of(sca, r), r, STATIC_PARAMS)


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
    assert [v for v in range(30) if sca.pos[v] == 0] == [0, 29]
    assert all(sca.piD[v] == 0 for v in range(1, 30))
    check_compression_exact(sca, f, range(30), 0)


def test_compression_complete_binary():
    """Both children tie at half weight, so every node is an apex."""
    f = complete_binary(4)
    sca = StaticCa(f)
    assert all(v == 0 for v in sca.pos)
    assert all(sca.piD[v] == f.parent[v] for v in range(1, len(f.parent)))


def test_compression_star():
    f = Forest()
    f.make_node()
    for _ in range(3):
        f.add_leaf(0, f.make_node())
    sca = StaticCa(f)
    assert all(v == 0 for v in sca.pos)


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
    assert table_entry(sca, 1, len(sca.tab[1]), 0) == 0
    assert table_entry(sca, 1, 10 ** 6, 0) == 0


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
            assert table_entry(sca, x, i, r) == want, (x, i)


@pytest.mark.parametrize("params", [STATIC_PARAMS, DYNAMIC_PARAMS])
def test_rows_shared_where_no_child_reads_them(params, rng):
    """Each tree's root and apexes with children own rows; the rest share."""
    f = Forest()
    for _ in range(3):
        f.make_node()
    for _ in range(400):
        f.add_leaf(rng.randrange(len(f.parent)), f.make_node())
    sca = StaticCa(f, params)
    owned = {}
    for r in range(3):
        nodes = tree_nodes_of(sca, r)
        shared_rows_ok(sca, nodes, r)
        for u in nodes:
            if u == r or sca.tab[u] is not sca.tab[sca.piD[u]]:
                owned[u] = len(sca.tab[u])
    # the build counts the entries it wrote: the owned rows, no more
    assert sca.stats.table_entries == sum(owned.values())
    assert len(owned) < len(f.parent) // 2


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


def test_every_small_tree_every_pair():
    """Every parent array with par[v] < v on up to 8 nodes, all pairs.

    StaticCa under both parameter sets and IncrementalTree grown in the
    array's order all match the oracle, so no query on these trees needs
    a meet past the deepest wide ancestor's compressed parent.
    """
    for n in range(2, 9):
        for par in itertools.product(*map(range, range(1, n))):
            f = Forest()
            f.make_node()
            t = IncrementalTree(n)
            for v, u in enumerate(par, 1):
                f.make_node()
                f.add_leaf(u, v)
                t.add_leaf(u)
            engines = (StaticCa(f), StaticCa(f, params=DYNAMIC_PARAMS), t)
            for x in range(n):
                for y in range(n):
                    want = oracle_ca(f, x, y)
                    for eng in engines:
                        assert eng.ca(x, y) == want, (par, x, y, eng)


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


@pytest.mark.parametrize("trees, n", [(1, 60), (3, 60), (5, 400)])
def test_sibling_order_leaves_the_compression_alone(trees, n, rng):
    """A twin forest whose children came in reverse order compresses alike.

    The heavy child is the one past half its parent's size, whichever
    sibling it is, so the order of siblings moves only where their
    intervals are packed: successors, heavy-path depths, weights,
    compressed parents, trees and the build's counters all match, and
    on up to 60 nodes every pair's meet does too.
    """
    f = Forest()
    for _ in range(trees):
        f.make_node()
    for _ in range(n - trees):
        f.add_leaf(rng.randrange(len(f.parent)), f.make_node())
    twin = Forest()
    for _ in range(n):
        twin.make_node()
    for u in range(n):  # a parent's id is below its children's
        for c in sorted((c for c in range(n) if f.parent[c] == u), reverse=True):
            twin.add_leaf(u, c)
    assert twin.parent == f.parent and twin.fc != f.fc
    a, b = StaticCa(f), StaticCa(twin)
    for col in ("succ", "pos", "sigma", "piD", "tree"):
        assert list(getattr(a, col)) == list(getattr(b, col)), col
    assert a.stats == b.stats
    assert list(a.p) != list(b.p)
    if n <= 60:
        for x in range(n):
            for y in range(n):
                assert a.ca(x, y) == b.ca(x, y), (x, y)


def test_static_build_work_counts_every_node(rng):
    """A build's work is n: each tree adds its own node count, and nothing else does."""
    for trees, n in ((1, 1), (1, 2), (4, 4), (3, 60), (5, 400)):
        f = Forest()
        for _ in range(trees):
            f.make_node()
        for _ in range(n - trees):
            f.add_leaf(rng.randrange(len(f.parent)), f.make_node())
        st = StaticCa(f).stats
        assert st.work == n and st.queries == 0, (trees, n)


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
