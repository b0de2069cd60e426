import random

import pytest
from hypothesis import given, settings, strategies as st

from dynca import CaTriple, Forest, IncrementalTree, LinkForest, oracle_ca
from dynca.forest import subtree

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


def test_refused_growth_changes_nothing():
    """add_leaf and add_root refuse a target that is not a fresh node, and
    add_root an old root that is not a root, before anything changes."""
    f = Forest()
    for _ in range(4):
        f.make_node()
    f.add_leaf(0, 1)
    f.add_root(2, 0)  # 2 -> 0 -> 1; 3 is still fresh
    before = (list(f.parent), list(f.fc), list(f.ns), list(f._raw),
              list(f._uf), list(f._size))
    for call, args, msg in [
            (f.add_leaf, (0, 1), "not a fresh node"),   # 1 has a parent
            (f.add_leaf, (3, 2), "not a fresh node"),   # 2 has a child
            (f.add_leaf, (3, 3), "not a fresh node"),   # x == y
            (f.add_root, (1, 2), "not a fresh node"),   # 1 has a parent
            (f.add_root, (3, 3), "not a fresh node"),   # y == old_root
            (f.add_root, (3, 0), "0 is not a root")]:
        with pytest.raises(ValueError, match=msg):
            call(*args)
        assert (f.parent, f.fc, f.ns, f._raw, f._uf, f._size) == before, args
    check_depth_labels(f)


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


def walk_depth(f, v):
    d = 0
    while f.parent[v] is not None:
        v = f.parent[v]
        d += 1
    return d


def check_depth_labels(f):
    """Raw depth labels, quick-find classes and representative sizes
    against walks: every node names its representative directly."""
    rep_of_root = {}
    members = {}
    for v in range(len(f)):
        r = f.root_of(v)
        assert f._raw[v] - f._raw[r] == walk_depth(f, v), v
        rep = f._uf[v]
        assert f._uf[rep] == rep, v
        assert rep_of_root.setdefault(r, rep) == rep, v
        members[rep] = members.get(rep, 0) + 1
    assert len(set(rep_of_root.values())) == len(rep_of_root)
    for rep, count in members.items():
        assert f._size[rep] == count, rep


def random_forest_op(rng, f):
    """One random add_leaf, add_root or link on f; a fresh node when
    no root lies outside x's tree."""
    n = len(f)
    kind = rng.choice(("leaf", "root", "link", "link"))
    if kind == "leaf":
        f.add_leaf(rng.randrange(n), f.make_node())
    elif kind == "root":
        f.add_root(f.make_node(), f.root_of(rng.randrange(n)))
    else:
        x = rng.randrange(n)
        roots = [v for v in range(n) if f.parent[v] is None
                 and f.root_of(x) != v]
        if roots:
            f.link(x, rng.choice(roots))
        else:
            f.make_node()


def test_link_by_size_keeps_depth_labels(rng):
    """Random growth and links, with either side of a link the larger."""
    seen = {"x": 0, "y": 0}
    for _ in range(30):
        f = Forest()
        for _ in range(rng.randrange(1, 8)):
            f.make_node()
        for _ in range(rng.randrange(10, 60)):
            if rng.random() < 0.2:
                f.make_node()
            x = rng.randrange(len(f))
            y = f.root_of(rng.randrange(len(f)))
            if f.root_of(x) != y and rng.random() < 0.5:
                sx, sy = f._size[f._uf[x]], f._size[f._uf[y]]
                seen["y" if sy > sx else "x"] += 1
                f.link(x, y)
            else:
                random_forest_op(rng, f)
            check_depth_labels(f)
    assert seen["x"] > 20 and seen["y"] > 20, seen


def test_refused_link_changes_nothing(rng):
    f = Forest()
    for _ in range(40):
        f.make_node()
    for _ in range(120):
        random_forest_op(rng, f)
    n = len(f)
    before = (list(f.parent), list(f.fc), list(f.ns), list(f._raw))
    refused = 0
    for _ in range(200):
        x, y = rng.randrange(n), rng.randrange(n)
        if f.parent[y] is None and f.root_of(x) != y:
            continue
        with pytest.raises(ValueError):
            f.link(x, y)
        refused += 1
        assert (f.parent, f.fc, f.ns, f._raw) == before
    assert refused > 100
    check_depth_labels(f)


def test_link_under_fresh_singleton_leaves_big_tree_labels():
    """The larger tree keeps its raw depths and classes."""
    f, root = build_random_tree(random.Random(7), 1 << 10)
    raw, uf = list(f._raw), list(f._uf)
    s = f.make_node()
    f.link(s, root)
    assert f._raw[:1 << 10] == raw and f._uf[:1 << 10] == uf
    assert f._uf[s] == f._uf[root] and f._size[f._uf[s]] == (1 << 10) + 1
    check_depth_labels(f)


def reference_ca(f, x, y):
    """ca(x, y) from the two ancestor lists alone: no depths, no offsets."""
    def ancestors(v):
        out = [v]
        while f.parent[v] is not None:
            v = f.parent[v]
            out.append(v)
        return out

    ax, ay = ancestors(x), ancestors(y)
    if ax[-1] != ay[-1]:
        return None
    on_y = set(ay)
    i = next(i for i, v in enumerate(ax) if v in on_y)
    a = ax[i]
    j = ay.index(a)
    return CaTriple(a, ax[i - 1] if i else a, ay[j - 1] if j else a)


def test_oracle_matches_ancestor_lists(rng):
    """Every pair of every small random forest, built by links and growth."""
    kinds = {"same": 0, "ancestor": 0, "apart": 0, "cross": 0}
    for _ in range(60):
        f = Forest()
        for _ in range(rng.randrange(1, 6)):
            f.make_node()
        size = rng.randrange(2, 31)
        while len(f) < size:
            random_forest_op(rng, f)
        for _ in range(rng.randrange(4)):
            random_forest_op(rng, f)  # links may follow the last growth
        n = len(f)
        for x in range(n):
            for y in range(n):
                want = reference_ca(f, x, y)
                assert oracle_ca(f, x, y) == want, (x, y)
                if x == y:
                    kinds["same"] += 1
                elif want is None:
                    kinds["cross"] += 1
                elif want.a in (x, y):
                    kinds["ancestor"] += 1
                else:
                    kinds["apart"] += 1
    assert min(kinds.values()) > 100, kinds


def check_subtree(fc, ns, parent, born, r, skip=None):
    """subtree(fc, ns, r, skip) against the parent column.

    parent marks a root with None or -1, and born[v] orders the moments
    each v became a child.  The walk must list r's descendants less
    skip's, each once and after its parent, each node's children in one
    run, newest first.
    """
    def under(v, a):
        while v is not None and v >= 0:
            if v == a:
                return True
            v = parent[v]
        return False

    got = subtree(fc, ns, r, skip)
    want = {v for v in range(len(parent))
            if under(v, r) and (skip is None or not under(v, skip))}
    assert got[0] == r and len(got) == len(set(got)) and set(got) == want
    at = {v: i for i, v in enumerate(got)}
    runs = {}
    for v in got[1:]:
        assert at[parent[v]] < at[v], (r, v)
        runs.setdefault(parent[v], []).append(v)
    for u, kids in runs.items():
        i = at[kids[0]]
        assert got[i:i + len(kids)] == kids, (r, u)
        assert sorted(kids, key=born.__getitem__, reverse=True) == kids, (r, u)
    return got


def test_subtree_walk_on_every_owner(rng):
    """The one walk lists exactly a subtree on each owner of the columns.

    A Forest grown by add_leaf, add_root and link, an IncrementalTree
    grown by add_leaf and add_root, and the vertex level of a two-level
    LinkForest after random links each hand subtree their fc and ns.
    From every node, and again with a random proper descendant as skip,
    check_subtree holds the walk to the parent column.
    """
    f = Forest()
    for _ in range(5):
        f.make_node()
    born = {}
    for tick in range(200):
        before = list(f.parent)
        random_forest_op(rng, f)
        for v, p in enumerate(f.parent):
            if v >= len(before) or p != before[v]:
                born[v] = tick

    t = IncrementalTree(200)
    for _ in range(199):
        if rng.random() < 0.2:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(t.n))

    n = 300
    lf = LinkForest(2, n)
    g = Forest()
    for _ in range(n):
        lf.make_node()
        g.make_node()
    linked = {}
    for tick in range(n - 30):
        x = rng.randrange(n)
        y = rng.choice([v for v in range(n)
                        if lf.piT[v] < 0 and g._uf[v] != g._uf[x]])
        lf.link(x, y)
        g.link(x, y)
        linked[y] = tick
    k = lf.L
    assert any(S is not None for S in lf.sub[k])

    owners = [(f.fc, f.ns, f.parent, born),
              (t.fc, t.ns, t.piT, range(t.n)),   # ids grow with time
              (lf.fc[k], lf.ns[k], lf.pi[k], linked)]
    for fc, ns, parent, when in owners:
        skips = 0
        for r in range(len(parent)):
            got = check_subtree(fc, ns, parent, when, r)
            if len(got) > 1:
                check_subtree(fc, ns, parent, when, r, rng.choice(got[1:]))
                skips += 1
        assert skips > len(parent) // 4
