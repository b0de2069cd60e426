import random

import pytest
from hypothesis import given, settings, strategies as st

from dynca import CaTriple, Forest, oracle_ca

from _checks import build_random_tree, reroot_physical, rerooted_ca


def chain(*edges):
    """Forest from (parent, child) pairs over ids 0..k in creation order."""
    f = Forest()
    f.make_node()
    for p, c in edges:
        y = f.make_node()
        assert y == c
        f.add_leaf(p, y)
    return f


def test_oracle_frozen_examples():
    # r=0 -> {a=1, b=2}, a -> {c=3}
    f = chain((0, 1), (0, 2), (1, 3))
    assert oracle_ca(f, 3, 2) == (0, 1, 2)
    assert oracle_ca(f, 3, 3) == (3, 3, 3)
    g = Forest()
    u = g.make_node()
    v = g.make_node()
    assert oracle_ca(g, u, v) is None


def test_oracle_symmetry(rng):
    f, _ = build_random_tree(rng, 60)
    for _ in range(300):
        x = rng.randrange(60)
        y = rng.randrange(60)
        a = oracle_ca(f, x, y)
        b = oracle_ca(f, y, x)
        assert a.a == b.a and a.ax == b.ay and a.ay == b.ax


def test_oracle_rejects_unallocated():
    f = Forest()
    f.make_node()
    with pytest.raises(ValueError):
        oracle_ca(f, 0, 5)


def test_rerooted_frozen_examples():
    # r=0 -> {u=1, w=2}
    f = chain((0, 1), (0, 2))
    assert rerooted_ca(f, 2, 1, 1, lambda a, b: oracle_ca(f, a, b)) == (1, 0, 1)
    # rerooting at the stored root changes nothing
    f2, _ = build_random_tree(random.Random(5), 40)
    ca = lambda a, b: oracle_ca(f2, a, b)
    for x in range(0, 40, 7):
        for y in range(0, 40, 5):
            assert rerooted_ca(f2, x, y, 0, ca) == oracle_ca(f2, x, y)
    # path r=0 -> a=1 -> b=2, rerooted at b
    f3 = chain((0, 1), (1, 2))
    assert rerooted_ca(f3, 0, 1, 2, lambda a, b: oracle_ca(f3, a, b)) == (1, 0, 1)


def test_reroot_physical_frozen():
    f = Forest()
    f.make_node()
    g = reroot_physical(f, 0)
    assert g.parent[0] is None
    f = chain((0, 1))
    g = reroot_physical(f, 1)
    assert g.parent[1] is None and g.parent[0] == 1
    f = chain((0, 1), (1, 2))
    g = reroot_physical(f, 2)
    assert g.parent[2] is None and g.parent[1] == 2 and g.parent[0] == 1


def test_rerooting_lemma_part_i(rng):
    """Among the three pairwise meets of any triple, at most two distinct."""
    for n in (5, 17, 50):
        f, _ = build_random_tree(rng, n)
        nodes = range(n)
        for _ in range(400):
            x, y, z = (rng.randrange(n) for _ in range(3))
            vals = {oracle_ca(f, x, y).a, oracle_ca(f, x, z).a,
                    oracle_ca(f, y, z).a}
            assert len(vals) <= 2, (x, y, z)


def test_rerooted_equals_physical_exhaustive(rng):
    for n in (2, 3, 9, 24, 50):
        f, _ = build_random_tree(rng, n)
        ca = lambda a, b: oracle_ca(f, a, b)
        for z in range(n):
            g = reroot_physical(f, z)
            for x in range(n):
                for y in range(n):
                    want = oracle_ca(g, x, y)
                    got = rerooted_ca(f, x, y, z, ca)
                    assert got == want, (n, x, y, z)


def test_link_and_cross_tree():
    f = Forest()
    for _ in range(4):
        f.make_node()
    f.add_leaf(0, f.make_node())  # node 4 under 0
    assert oracle_ca(f, 1, 4) is None
    f.link(4, 1)  # tree of 1 under node 4
    assert oracle_ca(f, 1, 4).a == 4
    assert oracle_ca(f, 2, 3) is None
    with pytest.raises(ValueError):
        f.link(0, 4)  # 4 is not a root
    with pytest.raises(ValueError):
        f.link(1, f.root_of(1))  # same tree


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rerooted_ca_property(data):
    n = data.draw(st.integers(min_value=2, max_value=28))
    seed = data.draw(st.integers(min_value=0, max_value=10 ** 6))
    r = random.Random(seed)
    f, _ = build_random_tree(r, n)
    ca = lambda a, b: oracle_ca(f, a, b)
    x = data.draw(st.integers(min_value=0, max_value=n - 1))
    y = data.draw(st.integers(min_value=0, max_value=n - 1))
    z = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert rerooted_ca(f, x, y, z, ca) == oracle_ca(reroot_physical(f, z), x, y)


def test_catriple_shape():
    t = CaTriple(1, 2, 3)
    assert (t.a, t.ax, t.ay) == (1, 2, 3)
    assert tuple(t) == (1, 2, 3)
