import random

import pytest
from hypothesis import given, settings, strategies as st

from dynca import Arena, Forest, Microset, Stats, oracle_ca


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
    assert m.members() == [7]
    assert not m.full


def test_frozen_add_encoding():
    m, anc = fresh()
    assert m.add(7, 20)          # id 2, child of the root
    assert anc[20].bit_length() - 1 == 2
    assert anc[20] == 0b110
    assert m.add(7, 31)          # id 3, second child of the root
    assert anc[31] == 0b1010
    assert m.members() == [7, 20, 31]


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
    assert m.full
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
        while not m.full:
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
    assert m.full and not m.add(members[0], 79)
    for _ in range(40):
        x = r.choice(members)
        y = r.choice(members)
        assert m.ca(x, y) == oracle_ca(f, x, y)
