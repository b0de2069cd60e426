import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from dynca import Arena, CapacityError, Forest, Microset, Stats, oracle_ca
from dynca.microset import PackedTree

from _checks import microset_members


def fresh(mu=63, cap=256):
    arena = Arena()
    stats = Stats()
    anc = [0] * cap
    m = Microset(7, mu, anc, arena, stats)
    return m, anc


def test_frozen_root_encoding():
    m, anc = fresh()
    assert anc[7].bit_length() - 1 == 1
    assert anc[7] == 0b10
    assert microset_members(m) == [7]
    assert m.n != m.mu


def test_frozen_add_encoding():
    m, anc = fresh()
    assert m.add(7, 20)          # id 2, child of the root
    assert anc[20].bit_length() - 1 == 2
    assert anc[20] == 0b110
    assert m.add(7, 31)          # id 3, second child of the root
    assert anc[31] == 0b1010
    assert microset_members(m) == [7, 20, 31]


def test_frozen_meet_of_siblings():
    m, anc = fresh()
    m.add(7, 20)
    m.add(7, 31)
    # anc(20) & anc(31) = 0b10, highest bit 1 -> the root
    assert m.ca(20, 31) == (7, 20, 31)
    assert m.ca(20, 7) == (7, 20, 7)
    assert m.ca(7, 7) == (7, 7, 7)


def test_capacity_bounds():
    arena = Arena()
    for bad in (0, 1, 64, 100):
        with pytest.raises(ValueError):
            Microset(0, bad, [0] * 4, arena, Stats())


def test_add_refuses_when_full():
    m, anc = fresh(mu=3)
    assert m.add(7, 1)
    assert m.add(7, 2)
    assert m.n == m.mu
    assert not m.add(7, 3)
    assert m.n == 3


def test_anc_is_parent_anc_plus_own_bit(rng):
    m, anc = fresh()
    members = [7]
    parent = {7: None}
    for v in range(100, 162):
        x = rng.choice(members)
        assert m.add(x, v)
        members.append(v)
        parent[v] = x
        assert anc[v] == anc[x] | (1 << (anc[v].bit_length() - 1))
    # popcount of anc equals depth+1
    for v in members:
        d = 0
        u = v
        while parent[u] is not None:
            u = parent[u]
            d += 1
        assert bin(anc[v]).count("1") == d + 1


def test_step_budget(rng):
    m, anc = fresh()
    members = [7]
    for v in range(100, 162):
        m.add(rng.choice(members), v)
        members.append(v)
    for _ in range(2000):
        m.ca(rng.choice(members), rng.choice(members))
    assert m.stats.max_query_steps <= 11


def test_differential_against_oracle(rng):
    for trial in range(30):
        mu = rng.randrange(2, 21)
        arena = Arena()
        anc = [0] * 64
        f = Forest()
        root = f.make_node()
        m = Microset(root, mu, anc, arena, Stats())
        members = [root]
        while m.n != m.mu:
            x = rng.choice(members)
            y = f.make_node()
            f.add_leaf(x, y)
            assert m.add(x, y)
            members.append(y)
        for x in members:
            for y in members:
                assert m.ca(x, y) == oracle_ca(f, x, y), (trial, x, y)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=63))
def test_microset_property(seed, mu):
    r = random.Random(seed)
    arena = Arena()
    anc = [0] * 80
    f = Forest()
    root = f.make_node()
    m = Microset(root, mu, anc, arena, Stats())
    members = [root]
    for _ in range(mu - 1):
        x = r.choice(members)
        y = f.make_node()
        f.add_leaf(x, y)
        m.add(x, y)
        members.append(y)
    assert m.n == m.mu and not m.add(members[0], 79)
    for _ in range(40):
        x = r.choice(members)
        y = r.choice(members)
        assert m.ca(x, y) == oracle_ca(f, x, y)


def test_packed_tree_every_small_tree_every_pair():
    """Every grow sequence on up to 8 nodes, all pairs, against the oracle.

    Node v is added under any earlier node or as a new root, so every
    parent array with par[v] < v comes up once with no add_root among
    its ops, and the spine meets are checked on every way of mixing the
    two.  Each unordered pair asks the oracle once; its swapped triple
    is the answer for the swapped pair.
    """
    for n in range(2, 9):
        for ops in itertools.product(*(range(-1, v) for v in range(1, n))):
            f = Forest()
            f.make_node()
            t = PackedTree()
            top = 0
            for v, u in enumerate(ops, 1):
                f.make_node()
                if u < 0:
                    f.add_root(v, top)
                    top = v
                    assert t.add_root() == v
                else:
                    f.add_leaf(u, v)
                    assert t.add_leaf(u) == v
            assert t.root == top and t.n == n
            for x in range(n):
                assert t.ca(x, x) == (x, x, x)
                for y in range(x + 1, n):
                    a, ax, ay = want = oracle_ca(f, x, y)
                    assert t.ca(x, y) == want, (ops, x, y)
                    assert t.ca(y, x) == (a, ay, ax), (ops, y, x)


def test_packed_tree_full_at_cap_changes_nothing(rng):
    """The node past CAP is refused, and the tree and its Stats stay as they were."""
    cap = PackedTree.CAP
    stats = Stats()
    t = PackedTree(stats)
    for v in range(1, cap):
        if rng.random() < 0.2:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(v))
    assert t.n == cap and stats.eta == cap and stats.work == cap - 1

    def state():
        return (list(t.piT), list(t.sm), list(t.anc), t.varrho,
                dataclasses.asdict(stats))

    before = state()
    for call, args in ((t.add_leaf, (0,)), (t.add_leaf, (cap - 1,)),
                       (t.add_root, ())):
        with pytest.raises(CapacityError):
            call(*args)
        assert state() == before
    for bad in (-1, cap, True, None):
        with pytest.raises(ValueError):
            t.add_leaf(bad)
        assert state() == before


def test_microset_work_counts_each_accepted_add(rng):
    """work is the number of accepted adds; a refused add leaves Stats as it was."""
    for mu in (2, 3, 17, 63):
        m, anc = fresh(mu=mu)
        members = [7]
        for k in range(1, mu):
            assert m.add(rng.choice(members), 100 + k)
            members.append(100 + k)
            assert m.stats.work == k and m.stats.queries == 0
        before = dataclasses.asdict(m.stats)
        assert not m.add(7, 99)
        assert dataclasses.asdict(m.stats) == before


def packed_steps(f, x, y):
    """Steps of one ancestor-word meet of distinct x, y, from the oracle.

    Five to read both words and the meet, and three more on each side
    whose end is not the meet itself, to find the child below it.
    """
    a = oracle_ca(f, x, y).a
    return 5 + 3 * (a != x) + 3 * (a != y)


def assert_meet_steps(t, f, nodes, counted):
    """Each ca on t notes packed_steps, 0 for x == y, and counts one
    query when t's ca is the checked entry (counted is 1), else none."""
    st = t.stats
    for x in nodes:
        for y in nodes:
            work, queries = st.work, st.queries
            t.ca(x, y)
            want = 0 if x == y else packed_steps(f, x, y)
            assert (st.work - work, st.queries - queries) == (want, counted), (x, y)


def test_microset_meet_steps_recounted(rng):
    for mu in (2, 5, 20):
        arena = Arena()
        anc = [0] * 64
        f = Forest()
        root = f.make_node()
        m = Microset(root, mu, anc, arena, Stats())
        members = [root]
        while m.n != m.mu:
            x = rng.choice(members)
            y = f.make_node()
            f.add_leaf(x, y)
            m.add(x, y)
            members.append(y)
        assert_meet_steps(m, f, members, 0)


def test_packed_tree_meet_steps_recounted(rng):
    """With add_leaf only, every spine meet is the root, so each ca is one _stored."""
    for n in (2, 9, 60):
        f = Forest()
        f.make_node()
        t = PackedTree()
        for v in range(1, n):
            x = rng.randrange(v)
            f.make_node()
            f.add_leaf(x, v)
            assert t.add_leaf(x) == v
        assert_meet_steps(t, f, range(n), 1)
