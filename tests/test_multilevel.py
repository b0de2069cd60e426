import random

import pytest
from hypothesis import given, settings, strategies as st

from dynca import (CapacityError, Forest, IncrementalTree, MultilevelInc,
                   edmonds_tree, linear_tree, oracle_ca)

from _checks import microset_members, rerooted_ca, shared_rows_ok


def check_levels(t):
    """Structural sweep: partition, frontier, and contraction wiring."""
    for l in range(t.L, 1, -1):
        n_l = len(t.pi[l])
        seen = set()
        subs = []
        for v in range(n_l):
            P = t.sub[l][v]
            assert P is not None
            if not any(P is Q for Q in subs):
                subs.append(P)
        for P in subs:
            mem = microset_members(P)
            assert 0 < len(mem) <= t.mu
            assert P.root == mem[0]
            for v in mem:
                assert t.sub[l][v] is P
                assert v not in seen
                seen.add(v)
                if v != P.root:
                    # parents inside a packed set stay inside it
                    assert t.sub[l][t.pi[l][v]] is P
            # contraction node exists exactly when the set is full
            assert (P.up is not None) == (P.n == P.mu)
            if P.up is not None:
                assert t.down[l - 1][P.up] is P
            w = t.pi[l][P.root]
            if w is not None:
                W = t.sub[l][w]
                assert W is not P
                # frontier: only full sets carry child sets
                assert W.n == W.mu and W.up is not None
                if P.up is not None:
                    par = (t.inc.piT[P.up] if l - 1 == 1
                           else t.pi[l - 1][P.up])
                    assert par == W.up
        assert seen == set(range(n_l))
        # each full mu-set contracted to exactly one node one level down
        full = sum(1 for P in subs if P.n == P.mu)
        below = len(t.pi[l - 1]) if l - 1 >= 2 else (t.inc.n if t.inc else 0)
        assert below == full
        assert below <= n_l // t.mu


def grow(t, rng, n, root_rate=0.0, forest=None):
    root = 0
    for _ in range(n - 1):
        if rng.random() < root_rate:
            if forest is not None:
                y = forest.make_node()
                forest.add_root(y, root)
                root = y
                assert t.add_root() == y
            else:
                t.add_root()
        else:
            x = rng.randrange(t.n)
            if forest is not None:
                y = forest.make_node()
                forest.add_leaf(x, y)
                assert t.add_leaf(x) == y
            else:
                t.add_leaf(x)
    return root


def test_constructor_validation():
    with pytest.raises(ValueError):
        MultilevelInc(100, levels=1)
    with pytest.raises(ValueError):
        MultilevelInc(100, mu=1)
    with pytest.raises(ValueError):
        MultilevelInc(100, mu=64)
    t = MultilevelInc(100)
    assert t.n == 1 and t.root == 0


def test_default_mu_clamps():
    """One rule for both presets: 3 ceil(log2 cap) nodes, capped at 63."""
    for cap, mu in ((4, 6), (1 << 14, 42), (1 << 20, 60), ((1 << 21) + 1, 63)):
        assert MultilevelInc(cap).mu == mu, cap
        assert MultilevelInc(cap, levels=2).mu == mu, cap
        assert edmonds_tree(cap).mu == mu, cap
        assert linear_tree(cap).mu == mu, cap
    # a microset of at least log2 cap nodes, for every cap below 2^63
    caps = [2, 3, 5, 1000, (1 << 21) - 1, (1 << 21) + 1, (1 << 40) + 7,
            (1 << 62) + 1, (1 << 63) - 1]
    caps += [1 << k for k in range(1, 63)]
    for cap in caps:
        assert MultilevelInc(cap).mu >= (cap - 1).bit_length(), cap
    with pytest.raises(ValueError):
        MultilevelInc(100, mu=1)
    with pytest.raises(ValueError):
        MultilevelInc(100, mu=64)


def test_capacity_error():
    t = MultilevelInc(4, levels=2, mu=2)
    for _ in range(3):
        t.add_leaf(0)
    with pytest.raises(CapacityError):
        t.add_leaf(0)


def test_identity_and_errors():
    t = linear_tree(64)
    t.add_leaf(0)
    assert t.ca(1, 1) == (1, 1, 1)
    with pytest.raises(ValueError):
        t.ca(0, 9)
    with pytest.raises(ValueError):
        t.add_leaf("0")


def test_structure_sweep_small(rng):
    t = MultilevelInc(600, levels=3, mu=3)
    for _ in range(499):
        t.add_leaf(rng.randrange(t.n))
        check_levels(t)


def test_structure_sweep_with_roots(rng):
    t = MultilevelInc(520, levels=3, mu=4)
    for _ in range(499):
        if rng.random() < 0.25:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(t.n))
        check_levels(t)


@pytest.mark.parametrize("make", [edmonds_tree, linear_tree])
def test_differential_leaf_growth(make, rng):
    f = Forest()
    f.make_node()
    t = make(2048)
    grow(t, rng, 2000, forest=f)
    for _ in range(10 ** 4):
        x = rng.randrange(2000)
        y = rng.randrange(2000)
        assert t.ca(x, y) == oracle_ca(f, x, y), (x, y)


@pytest.mark.parametrize("make", [edmonds_tree, linear_tree])
def test_differential_mixed_roots(make, rng):
    f = Forest()
    f.make_node()
    t = make(512)
    grow(t, rng, 500, root_rate=0.3, forest=f)
    for _ in range(4000):
        x = rng.randrange(500)
        y = rng.randrange(500)
        assert t.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_alternating_root_leaf(rng):
    f = Forest()
    f.make_node()
    t = linear_tree(512)
    root = 0
    for i in range(499):
        if i % 2:
            x = rng.randrange(t.n)
            y = f.make_node()
            f.add_leaf(x, y)
            assert t.add_leaf(x) == y
        else:
            y = f.make_node()
            f.add_root(y, root)
            root = y
            assert t.add_root() == y
    assert t.root == root
    for _ in range(3000):
        x = rng.randrange(500)
        y = rng.randrange(500)
        assert t.ca(x, y) == oracle_ca(f, x, y)


def test_contracted_levels_shrink_geometrically(rng):
    n = 1 << 12
    t = linear_tree(n)
    for _ in range(n - 1):
        t.add_leaf(rng.randrange(t.n))
    assert len(t.pi[3]) == n
    assert len(t.pi[2]) <= n // t.mu
    assert t.inc is not None and t.inc.n <= n // t.mu ** 2


def test_level1_rows_shared_where_no_child_reads_them(rng):
    """The contracted level-1 tree shares rows by the same rule.

    mu = 15, ceil(log2 20000), gives the level-1 tree enough nodes; at
    the default mu of 45 it would hold two.
    """
    t = MultilevelInc(20000, mu=15)
    for _ in range(19999):
        if rng.random() < 0.25:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(t.n))
        if t.inc is not None:
            shared_rows_ok(t.inc, range(t.inc.n), 0)
    assert t.inc.n >= 20


@pytest.mark.parametrize("make", [edmonds_tree, linear_tree])
def test_presets_reach_level_one_at_default_mu(make, rng):
    """Both presets at their default mu, n = 2^13, one add_root in ten.

    Leaf parents come from the 8 newest vertices: under uniform parents
    linear_tree's level-1 tree keeps a single node at this n.  g keeps
    the stored rooting (a new root is a leaf under the old one), so each
    pair is checked twice against the oracle: the stored meet, which
    recurses down the levels, and the meet under the current root.
    """
    n = 1 << 13
    g = Forest()
    g.make_node()
    t = make(n)
    for _ in range(n - 1):
        y = g.make_node()
        if rng.random() < 0.1:
            g.add_leaf(t.root, y)
            assert t.add_root() == y
        else:
            x = rng.randrange(max(0, t.n - 8), t.n)
            g.add_leaf(x, y)
            assert t.add_leaf(x) == y
    assert t.inc is not None and t.inc.n > 1
    flat = 0
    level1 = t._flat

    def counted(x, y, k):
        nonlocal flat
        flat += 1
        return level1(x, y, k)

    t._flat = counted
    z = t.root
    for _ in range(3000):
        x = rng.randrange(n)
        y = rng.randrange(n)
        want = rerooted_ca(g, x, y, z, lambda a, b: oracle_ca(g, a, b))
        assert t.ca(x, y) == want, (x, y)
        if x != y:
            assert t._stored(x, y) == oracle_ca(g, x, y), (x, y)
    assert flat > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=160),
       st.integers(min_value=2, max_value=5),
       st.floats(min_value=0.0, max_value=0.4))
def test_multilevel_property(seed, n, mu, root_rate):
    r = random.Random(seed)
    f = Forest()
    f.make_node()
    t = MultilevelInc(n + 1, levels=3, mu=mu)
    grow(t, r, n, root_rate=root_rate, forest=f)
    check_levels(t)
    for _ in range(60):
        x = r.randrange(n)
        y = r.randrange(n)
        assert t.ca(x, y) == oracle_ca(f, x, y)


ENGINES = {
    "inc": IncrementalTree,
    "edmonds": edmonds_tree,
    "linear": linear_tree,
    "mu2": lambda cap: MultilevelInc(cap, levels=3, mu=2),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=1, max_value=40),
       st.floats(min_value=0.0, max_value=0.5))
def test_rerooted_meets_match_three_query_combine(name, seed, steps, root_rate):
    """Mixed add_leaf/add_root against the stored tree rerooted at z.

    f keeps the stored rooting (a new root is a leaf under the old one),
    and rerooted_ca answers from three oracle queries in it.  After every
    op, each pair involving the current root or a spine node is checked,
    so both spine cases, meets at the root and queries before the first
    add_root all come up; the last tree is checked on every pair.
    """
    r = random.Random(seed)
    f = Forest()
    f.make_node()
    t = ENGINES[name](steps + 1)
    z = 0
    spine = [0]

    def check(x, y):
        want = rerooted_ca(f, x, y, z, lambda a, b: oracle_ca(f, a, b))
        assert t.ca(x, y) == want, (x, y, z)

    for _ in range(steps):
        n = len(f)
        check(r.randrange(n), r.randrange(n))
        y = f.make_node()
        if r.random() < root_rate:
            f.add_leaf(z, y)
            assert t.add_root() == y
            z = y
            spine.append(y)
        else:
            x = r.randrange(n)
            f.add_leaf(x, y)
            assert t.add_leaf(x) == y
        assert t.root == z
        for s in spine:
            for v in range(len(f)):
                check(s, v)
                check(v, s)
    for x in range(len(f)):
        for y in range(len(f)):
            check(x, y)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_eta_counts_vertex_additions_only(name, rng):
    """Inner levels and the level-1 seed stay out of eta.

    The linear shape runs at mu = 12, ceil(log2 4096): at its default
    mu of 36 this tree would never seed a level-1 tree.
    """
    n = 4096
    t = MultilevelInc(n, mu=12) if name == "linear" else ENGINES[name](n)
    for _ in range(n - 1):
        if rng.random() < 0.1:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(t.n))
    assert t.n == n
    assert t.stats.eta == n
    if name != "inc":
        assert t.inc is not None and t.inc.n > 1
