import copy
import gc
import hashlib
import itertools
import pickle
import random
import sys
import weakref
from array import array
from bisect import bisect_right
from collections import Counter

import pytest

from dynca import linkforest
from dynca.errors import check_id
from dynca.microset import PackedTree
from dynca.multilevel import MultilevelInc
from dynca import (AdaptiveLinkForest, CapacityError, Forest, LinkForest,
                   alpha, oracle_ca)

from _checks import (AckermannTable, a_inv, check_link_invariants, tree_stage,
                     window_stage)


def test_table_frozen_values():
    t = AckermannTable(65536)
    assert t.value(1, 3) == 8
    assert t.value(2, 2) == 4
    assert t.value(2, 3) == 16
    assert t.value(2, 4) == 65536
    assert t.value(3, 2) == 4
    assert t.value(3, 3) == 65536
    assert t.value(4, 2) == 4
    # row 1 doubles all the way up
    assert [t.value(1, j) for j in range(1, 6)] == [2, 4, 8, 16, 32]


def test_table_none_means_past_n():
    t = AckermannTable(100)
    assert t.value(2, 4) is None          # 65536 > 100
    assert t.value(1, 7) is None          # 128 > 100
    assert t.value(1, 99) is None         # past the tabulated columns
    assert t.size == 7


@pytest.mark.parametrize("n", [4, 100, 1 << 16, 1 << 20])
def test_reference_matches_acap(n):
    """The tests' reference, by its own recursion, is _acap clamped past n."""
    t = AckermannTable(n)
    for i, j in itertools.product(range(1, t.size + 1), repeat=2):
        v = linkforest._acap(i, j, n + 1)
        assert t.value(i, j) == (v if v <= n else None), (n, i, j)


def test_alpha_frozen():
    assert alpha(10, 10) == 1
    assert alpha(16, 16) == 1
    assert alpha(17, 17) == 2             # row 1 stops at 16 for j=4
    assert alpha(65536, 65536) == 2
    assert alpha(10 ** 5, 10 ** 5) == 3
    assert alpha(10 ** 6, 10) == 1        # heavy use of few nodes
    with pytest.raises(ValueError):
        alpha(0, 5)


def _alpha_by_definition(m, n):
    """alpha as first written: least i with _acap(i, j, n) >= n."""
    j = 4 * -(-m // n)
    if n <= 4 or j >= (n - 1).bit_length():
        return 1
    i = 1
    while linkforest._acap(i, j, n) < n:
        i += 1
    return i


def test_alpha_matches_its_definition():
    """Every A(i, j) within reach and its neighbours, j = 4, 8, 12.

    Each n is asked at the first and the last m of j = 4, 8, 12 and 16,
    for n up to 2^21, and at the 2^64 end of the tabulated range.
    """
    top = 1 << 21
    ns = set(range(1, 70))
    for j in (4, 8, 12):
        i = 1
        while (a := linkforest._acap(i, j, top + 2)) <= top + 1:
            ns.update((a - 1, a, a + 1))
            i += 1
    for k in range(2, 22):
        ns.update(((1 << k) - 1, (1 << k) + 1))
    ns.update(((1 << 64) - 1, 1 << 64))
    for n in sorted(ns):
        for c in range(1, 5):
            for m in ((c - 1) * n + 1, c * n):
                assert alpha(m, n) == _alpha_by_definition(m, n), (m, n)
    assert alpha(1, 1 << 64) == 3
    with pytest.raises(ValueError):
        alpha(1, (1 << 64) + 1)


def test_a_inv_frozen():
    assert a_inv(1, 2) == 1
    assert a_inv(1, 16) == 4
    assert a_inv(1, 17) == 5
    assert a_inv(2, 5) == 3               # 4 < 5 <= 16
    assert a_inv(2, 65536) == 4
    assert a_inv(1, 65536) == 16


def test_identities_hold_on_small_tables():
    for n in (4, 32, 1024, 65536):
        AckermannTable(n).check_identities()


def test_forest_constructor_errors():
    with pytest.raises(ValueError):
        LinkForest(0, 8)
    with pytest.raises(ValueError):
        LinkForest(4, 8)        # no row for that level: ceil(log2 8) = 3


@pytest.mark.parametrize("n, digest", [
    (4, "d6ca2535738f7bec"), (1 << 10, "24d60854b866b973"),
    (1 << 20, "800f585f63cd2f81"), (1 << 31, "4a229869577bbecc"),
    (1 << 64, "6261242cc391ba00")])
def test_floors_and_level_cap_pinned(n, digest):
    """The top level is ceil(log2 n); all floors match a digest (sha256 of
    their repr, 16 hex digits) taken while a 2-D table made them."""
    top = linkforest._bits(n)
    lf = LinkForest(top, n)
    floors = tuple(lf.floors[k] for k in range(1, top + 1))
    assert hashlib.sha256(repr(floors).encode()).hexdigest()[:16] == digest
    with pytest.raises(ValueError, match="has no row"):
        LinkForest(top + 1, n)


@pytest.mark.parametrize("n", [8, 100, 1 << 12])
def test_floors_read_the_window_stage(n):
    """The stage read off floors is the window search's, at every size.

    Sizes in a stage whose ceiling is past the table (None) stay in it.
    """
    ack = AckermannTable(max(4, n))
    lf = LinkForest(ack.size, n)
    open_top = 0
    for k in range(1, ack.size + 1):
        fl = lf.floors[k]
        for size in range(1, n + 1):
            st = window_stage(ack, k, size)
            assert bisect_right(fl, size) == st, (k, size)
            open_top += st > 0 and ack.value(k, st + 1) is None
    assert open_top


def test_level_two_record_kinds():
    """Sizes 8..31 share one packed tree; the 32nd node rebuilds it.

    On level 2 of a table for 2^12 nodes the floors are 4, 8 and 32:
    stage 2 holds trees of 8..31 nodes, and stage 3 has no tabulated
    ceiling.  The tree's size picks the record, so the stage-3 rebuild at
    32 nodes is packed too, and the 256th node promotes that record in
    place to a multilevel tree.
    """
    rng = random.Random(3)
    lf = LinkForest(2, 1 << 12)
    v = [lf.make_node() for _ in range(PackedTree.CAP + 1)]
    for i in range(1, 8):
        lf.link(v[rng.randrange(i)], v[i])
    S = lf.sub[2][v[0]]
    for i in range(8, 32):
        assert lf.sub[2][v[0]] is S and S.inc.n == i
        assert isinstance(S.inc, PackedTree) and tree_stage(lf, 2, v[0]) == 2
        lf.link(v[rng.randrange(i)], v[i])
    S = lf.sub[2][v[0]]
    for i in range(32, PackedTree.CAP + 1):
        assert lf.sub[2][v[0]] is S and S.inc.n == i
        assert isinstance(S.inc, PackedTree) and tree_stage(lf, 2, v[0]) == 3
        lf.link(v[rng.randrange(i)], v[i])
    assert lf.sub[2][v[0]] is S
    assert isinstance(S.inc, MultilevelInc) and S.inc.n == PackedTree.CAP + 1
    assert tree_stage(lf, 2, v[0]) == 3
    check_link_invariants(lf)


def _one_record_at(size, rng):
    """A level-2 tree of `size` nodes held by one packed record.

    From 32 nodes on the tree stays in stage 3, so every later link pours
    into the record it was rebuilt as; one in five of those links hangs
    the tree below a fresh vertex, which the record takes by add_root.
    Returns the forest, its oracle, the link function and the tree root.
    """
    n = PackedTree.CAP + 8
    lf = LinkForest(2, n)
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()

    def link(x, y):
        lf.link(x, y)
        f.link(x, y)

    top = 0
    for v in range(1, size):
        if v > 32 and rng.random() < 0.2:
            link(v, top)
            top = v
        else:
            link(rng.randrange(v), v)
    S = lf.sub[2][top]
    assert isinstance(S.inc, PackedTree) and S.inc.n == size
    assert sum(S.inc.sm[i] == i for i in range(size)) > 1
    return lf, f, link, top


def _record_promotions(monkeypatch):
    """Wrap _promote; each entry holds the record's state around one call."""
    seen = []
    promote = linkforest.LinkForest._promote

    def state(t):
        return t.n, t.varrho, list(t.sm), list(t.piT)

    def wrap(self, S):
        old = S.inc
        eta = self.stats.eta
        before = (type(old), state(old))
        inc = promote(self, S)
        seen.append((weakref.ref(old), before, (type(inc), state(inc)),
                     self.stats.eta - eta))
        return inc

    monkeypatch.setattr(linkforest.LinkForest, "_promote", wrap)
    return seen


@pytest.mark.parametrize("pour", ["leaf", "root"])
def test_full_packed_record_promotes_in_place(pour, monkeypatch):
    """A pour past PackedTree.CAP moves the record to a multilevel tree.

    leaf hangs a bare four-node tree under the record (sx > sy); root
    hangs the record below the end of a bare chain (sx < sy), so the
    chain joins as added roots and its side leaf as a leaf.  Either way
    the record is one short of full, so the second node added promotes
    it: ids, parents, spine meets and the root carry over, the copy adds
    no eta, and the packed record is freed.
    """
    seen = _record_promotions(monkeypatch)
    lf, f, link, top = _one_record_at(PackedTree.CAP - 1, random.Random(4))
    S = lf.sub[2][top]
    a, b, c, d = range(PackedTree.CAP - 1, PackedTree.CAP + 3)
    link(a, b)
    link(b, c)
    link(a, d)
    eta = lf.stats.eta
    if pour == "leaf":
        link(17, a)
        assert lf.sub[2][a] is S and lf.find_root(a) == top
    else:
        link(c, top)
        assert lf.find_root(top) == a and S.root == a
    assert lf.stats.eta == eta + 4
    assert len(seen) == 1
    old, before, after, added = seen[0]
    assert before[0] is PackedTree and after[0] is MultilevelInc
    assert after[1] == before[1] and before[1][0] == PackedTree.CAP
    assert added == 0
    gc.collect()
    assert old() is None
    assert isinstance(S.inc, MultilevelInc) and S.inc.n == PackedTree.CAP + 3
    assert all(lf.sub[2][v] is S for v in range(PackedTree.CAP + 3))
    check_link_invariants(lf)
    for x in range(lf.n):
        for y in range(lf.n):
            assert lf.ca(x, y) == oracle_ca(f, x, y), (x, y)


def _count_record_adds(monkeypatch):
    """Count record adds and the forest walks a singleton link must skip.

    A record add is counted once, by the entry it came in through:
    add_leaf and add_root add through _add_leaf, and so does the forest
    itself, so the calls nested in an add are not counted again.
    """
    calls = Counter()
    depth = [0]

    def counted(owner, name, key):
        orig = getattr(owner, name)

        def wrap(*a):
            if not depth[0]:
                calls[key] += 1
            depth[0] += 1
            try:
                return orig(*a)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, name, wrap)

    for cls in (PackedTree, MultilevelInc):
        counted(cls, "add_leaf", "add_leaf")
        counted(cls, "_add_leaf", "add_leaf")
        counted(cls, "add_root", "add_root")
    counted(LinkForest, "_fill", "_fill")
    counted(LinkForest, "tree_nodes", "tree_nodes")
    return calls


@pytest.mark.parametrize("size", [70, 300])
@pytest.mark.parametrize("level", [1, 2, 3, "adaptive"])
def test_singleton_link_is_one_record_add(level, size, rng, monkeypatch):
    """A fresh singleton linked into a staged tree costs one record add.

    Hung below any vertex it is one add_leaf on that vertex's record;
    hung above the root, one add_root on the root's record.  Neither
    enters _fill or tree_nodes, and each adds exactly 1 to eta.  The
    tree holds 70 nodes in a packed record or 300 in a three-level one,
    and the 40 singleton links stay inside its stage.
    """
    n = size + 40
    f = Forest()
    if level == "adaptive":
        af = AdaptiveLinkForest(n)
        make, link, forest = af.make_node, af.link, lambda: af
    else:
        lf = LinkForest(level, n)
        make, link, forest = lf.make_node, lf.link, lambda: lf
    for _ in range(n):
        make()
        f.make_node()
    for v in range(1, size):
        p = rng.randrange(v)
        link(p, v)
        f.link(p, v)
    top = 0
    calls = _count_record_adds(monkeypatch)
    for v in range(size, n):
        lf = forest()
        k = lf.L
        above = rng.random() < 0.5
        x, y = (v, top) if above else (rng.randrange(v), v)
        S = lf.sub[k][top]
        assert S is not None and isinstance(
            S.inc, PackedTree if size <= PackedTree.CAP else MultilevelInc)
        eta = lf.stats.eta
        calls.clear()
        link(x, y)
        f.link(x, y)
        assert forest() is lf and lf.sub[k][v] is S
        assert lf.stats.eta == eta + 1
        assert calls == Counter(["add_root" if above else "add_leaf"]), (
            v, calls)
        if above:
            top = v
            assert S.root == v and lf.find_root(x) == v
    lf = forest()
    check_link_invariants(lf)
    for _ in range(300):
        x, y = rng.randrange(n), rng.randrange(n)
        assert lf.ca(x, y) == oracle_ca(f, x, y), (x, y)


@pytest.mark.parametrize("above", [False, True])
def test_singleton_link_promotes_a_full_packed_record(above, monkeypatch):
    """A singleton linked into a full packed record promotes it once.

    The record holds PackedTree.CAP nodes, so the one add the link makes
    promotes it to a three-level tree and goes on there, below a vertex
    or above the root; the link still enters neither _fill nor
    tree_nodes and adds exactly 1 to eta.
    """
    seen = _record_promotions(monkeypatch)
    lf, f, link, top = _one_record_at(PackedTree.CAP, random.Random(6))
    S = lf.sub[2][top]
    calls = _count_record_adds(monkeypatch)
    eta = lf.stats.eta
    v = PackedTree.CAP
    if above:
        link(v, top)
        assert S.root == v
    else:
        link(100, v)
    assert lf.stats.eta == eta + 1
    assert len(seen) == 1 and seen[0][3] == 0
    assert calls["_fill"] == calls["tree_nodes"] == 0
    assert isinstance(S.inc, MultilevelInc) and S.inc.n == PackedTree.CAP + 1
    assert lf.sub[2][v] is S
    check_link_invariants(lf)
    for x in range(lf.n):
        for y in range(0, lf.n, 7):
            assert lf.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_make_node_capacity():
    lf = LinkForest(1, 2)
    lf.make_node()
    lf.make_node()
    with pytest.raises(CapacityError):
        lf.make_node()


def test_link_errors():
    lf = LinkForest(1, 8)
    a, b, c = lf.make_node(), lf.make_node(), lf.make_node()
    lf.link(a, b)
    with pytest.raises(ValueError):
        lf.link(c, b)                     # b is no longer a root
    with pytest.raises(ValueError):
        lf.link(b, a)                     # same tree
    with pytest.raises(ValueError):
        lf.ca(a, 99)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_refused_links_change_nothing(level, rng):
    """A refused link leaves every level as it was, records and Stats too.

    Random links leave three trees, with nodes on every level and
    records on the vertex level and the one below it.  A link is
    refused when its y is no root, when x and y share a tree, and when
    an id is out of range or a bool; after each, the pi, fc, ns and ts
    columns, the sub records and Stats are unchanged.
    """
    n = 2000
    lf = LinkForest(level, n)
    for _ in range(n):
        lf.make_node()
    members = {v: [v] for v in range(n)}
    while len(members) > 3:
        r, y = rng.sample(sorted(members), 2)
        lf.link(rng.choice(members[r]), y)
        members[r] += members.pop(y)
    assert all(lf.pi[k] for k in range(1, level + 1))
    for k in range(max(1, level - 1), level + 1):
        assert any(S is not None for S in lf.sub[k]), k
    check_link_invariants(lf)
    roots = sorted(members)

    def state():
        cols = (lf.pi, lf.fc, lf.ns, lf.ts, lf.sub, lf.lid, lf.down, lf.free)
        return ([[id(S) for S in lf.sub[k]] for k in lf.sub],
                pickle.dumps((cols, lf.stats)))

    r, other = max(roots, key=lambda v: lf.ts[level][v]), roots[0]
    inner = [v for v in lf.tree_nodes(r, level) if v != r]
    before = state()
    for x, y in ((other, inner[5]), (inner[0], r), (inner[3], inner[7]),
                 (other, n), (n, other), (-1, r), (r, -1),
                 (True, r), (r, False), (1.0, r)):
        with pytest.raises(ValueError):
            lf.link(x, y)
        assert state() == before, (x, y)
    lf.link(other, r)
    assert state() != before


def test_cross_tree_queries_are_none():
    lf = LinkForest(1, 8)
    a, b, c, d = (lf.make_node() for _ in range(4))
    lf.link(a, b)
    lf.link(c, d)
    assert lf.ca(a, c) is None
    assert lf.nca(b, d) is None
    assert lf.ca(a, b) == (a, a, b)


@pytest.mark.parametrize("kind", ["1", "2", "3", "adaptive"])
def test_same_record_query_skips_root_walks(kind, monkeypatch):
    """Ends in one vertex-level record are answered with no root walk.

    The forest holds a 12-node tree A, a tree B linked from two 8-node
    trees of equal stage, a 5-node tree C, a bare pair and singletons.
    Above one level B's halves tie in stage, so the link recurses one
    level down and B keeps two records; on one level every staged tree
    is a single record.  The adaptive forest restages to two levels
    while B's first half grows.  For every distinct pair, a same-record
    pair walks to no root and any other pair walks both ends.  A deep
    copy answers the same pairs by root walks and then _c, counting each
    adaptive meet first and each answered query after, as the checked ca
    does, and agrees answer for answer and counter for counter.
    """
    walks = [0]
    find_root = LinkForest._find_root

    def counted(self, x):
        walks[0] += 1
        return find_root(self, x)

    monkeypatch.setattr(LinkForest, "_find_root", counted)
    n = 40
    rng = random.Random(5)
    adaptive = kind == "adaptive"
    fr = AdaptiveLinkForest(n) if adaptive else LinkForest(int(kind), n)
    f = Forest()
    for _ in range(n):
        fr.make_node()
        f.make_node()

    def link(x, y):
        fr.link(x, y)
        f.link(x, y)

    def grow(lo, hi):
        for v in range(lo + 1, hi):
            link(rng.randrange(lo, v), v)

    grow(0, 12)
    grow(12, 20)
    grow(20, 28)
    link(rng.randrange(12, 20), 20)
    grow(28, 33)
    link(33, 34)
    lf = fr
    assert lf.L == (2 if adaptive else int(kind))
    sub = lf.sub[lf.L]

    def records(lo, hi):
        assert all(sub[v] is not None for v in range(lo, hi))
        return len({id(sub[v]) for v in range(lo, hi)})

    assert (records(0, 12), records(28, 33)) == (1, 1)
    assert records(12, 28) == (1 if lf.L == 1 else 2)
    assert sub[33] is None and sub[34] is None
    check_link_invariants(lf)

    def before(fr, x, y):
        if adaptive:
            if fr.n1:
                fr._count(0)
        if fr._find_root(x) != fr._find_root(y):
            return None
        fr.stats.queries += 1
        return fr._c(x, y, fr.L)

    twin = copy.deepcopy(fr)
    log = list(fr.stats.reorg_log)
    kinds = Counter()
    for x in range(n):
        for y in range(n):
            if x == y:
                continue
            same = sub[x] is not None and sub[x] is sub[y]
            walks[0] = 0
            got = fr.ca(x, y)
            assert walks[0] == (0 if same else 2), (x, y)
            assert got == oracle_ca(f, x, y), (x, y)
            assert before(twin, x, y) == got, (x, y)
            kinds[same, got is None] += 1
    assert fr.stats == twin.stats and fr.stats.reorg_log == log
    if adaptive:
        assert (fr.m1, fr.n1, fr.mark, fr.level) == (
            twin.m1, twin.n1, twin.mark, twin.level)
    b = 16 * 15 if lf.L == 1 else 2 * 8 * 7
    assert kinds[True, False] == 12 * 11 + b + 5 * 4
    assert kinds[False, False] == 16 * 15 - b + 2
    assert kinds[True, True] == 0 and kinds[False, True] > 0


def test_two_singletons_stay_bare():
    lf = LinkForest(1, 8)
    a, b = lf.make_node(), lf.make_node()
    lf.link(a, b)
    assert tree_stage(lf, 1, a) == 0
    assert lf.sub[1][a] is None and lf.sub[1][b] is None
    assert lf.pi[1][b] == a and lf.pi[1][a] == -1
    assert lf.find_root(b) == a
    check_link_invariants(lf)


def test_five_node_merge_reaches_stage_one():
    lf = LinkForest(1, 16)
    v = [lf.make_node() for _ in range(5)]
    lf.link(v[0], v[1])
    lf.link(v[1], v[2])                   # 3 nodes, still bare
    assert tree_stage(lf, 1, v[0]) == 0
    lf.link(v[0], v[3])                   # 4th node crosses the floor
    assert tree_stage(lf, 1, v[0]) == 1
    lf.link(v[3], v[4])                   # 5 nodes stay in stage 1
    assert tree_stage(lf, 1, v[0]) == 1
    assert lf.sub[1][v[4]] is lf.sub[1][v[0]]
    check_link_invariants(lf)
    assert lf.ca(v[2], v[4]) == (v[0], v[1], v[3])


def test_absorb_into_higher_stage():
    # stage 1 tree takes a bare 2-node tree without a rebuild
    lf = LinkForest(1, 32)
    v = [lf.make_node() for _ in range(6)]
    for i in range(3):
        lf.link(v[0], v[i + 1])
    assert tree_stage(lf, 1, v[0]) == 1
    S = lf.sub[1][v[0]]
    lf.link(v[4], v[5])
    lf.link(v[2], v[4])                   # 6 < 8: absorbed, same subtree
    assert tree_stage(lf, 1, v[0]) == 1
    assert lf.sub[1][v[5]] is S
    check_link_invariants(lf)
    assert lf.nca(v[5], v[3]) == v[0]


def test_pour_lower_stage_root_path():
    # x's side is bare, y's side is staged: x's root path joins by re-rooting
    lf = LinkForest(1, 32)
    v = [lf.make_node() for _ in range(7)]
    for i in range(3):
        lf.link(v[0], v[i + 1])           # staged 4-node tree under v0
    lf.link(v[4], v[5])
    lf.link(v[5], v[6])                   # bare chain v4 - v5 - v6
    S = lf.sub[1][v[0]]
    lf.link(v[6], v[0])                   # sx=0 < sy=1, merged size 7 < 8
    assert lf.find_root(v[0]) == v[4]
    for u in v:
        assert lf.sub[1][u] is S
        assert tree_stage(lf, 1, u) == 1
    check_link_invariants(lf)
    assert lf.ca(v[5], v[1]) == (v[5], v[5], v[6])
    assert lf.nca(v[4], v[3]) == v[4]


def test_equal_stage_merge_recurses_below():
    lf = LinkForest(2, 64)
    a = [lf.make_node() for _ in range(8)]
    b = [lf.make_node() for _ in range(8)]
    for i in range(7):
        lf.link(a[0], a[i + 1])
        lf.link(b[0], b[i + 1])
    assert tree_stage(lf, 2, a[0]) == 2 and tree_stage(lf, 2, b[0]) == 2
    zA = lf.sub[2][a[0]].up
    zB = lf.sub[2][b[0]].up
    assert zA is not None and zB is not None
    lf.link(a[3], b[0])                   # 16 < 2*A(2,3): stages tie, recurse
    assert tree_stage(lf, 2, a[0]) == 2
    assert lf.sub[2][a[0]] is not lf.sub[2][b[0]]
    assert lf.pi[1][zB] == zA
    check_link_invariants(lf)
    assert lf.ca(a[5], b[4]) == (a[0], a[5], a[3])
    assert lf.ca(b[4], a[3]) == (a[3], b[0], a[3])


def _random_links(lf, f, rng, n, skew):
    """Drive identical link workloads into lf and an oracle forest."""
    roots = list(range(n))
    for _ in range(n - 1):
        if skew and rng.random() < 0.8:
            i = rng.randrange(len(roots) - 1) + 1
            x, y = roots[0], roots[i]
        else:
            i, j = rng.sample(range(len(roots)), 2)
            x, y = roots[i], roots[j]
        lf.link(x, roots.pop(roots.index(y)))
        f.link(x, y)


@pytest.mark.parametrize("level", [1, 2, 3])
@pytest.mark.parametrize("skew", [False, True])
def test_differential_fixed_level(level, skew, rng):
    n = 300
    lf = LinkForest(level, n)
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()
    _random_links(lf, f, rng, n, skew)
    check_link_invariants(lf)
    for _ in range(4000):
        x = rng.randrange(n)
        y = rng.randrange(n)
        assert lf.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_invariants_and_eta_after_every_link(rng):
    n = 400
    lf = LinkForest(1, n)
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()
    roots = list(range(n))
    linked = set()
    while len(roots) > 1:
        i, j = rng.sample(range(len(roots)), 2)
        x, y = roots[i], roots[j]
        roots.remove(y)
        lf.link(x, y)
        f.link(x, y)
        linked.update((x, y))
        check_link_invariants(lf)
        ln = max(2, len(linked))
        assert lf.stats.eta <= 2 * ln * a_inv(1, ln)
    for _ in range(2000):
        x = rng.randrange(n)
        y = rng.randrange(n)
        assert lf.ca(x, y) == oracle_ca(f, x, y)


def test_adaptive_first_link_counts():
    af = AdaptiveLinkForest(16)
    v = [af.make_node() for _ in range(3)]
    assert af.ca(v[0], v[1]) is None      # not counted before the first link
    assert af.ca(v[2], v[2]) == (v[2], v[2], v[2])
    assert (af.m1, af.n1, af.level) == (0, 0, 1)
    sub = af.sub
    af.link(v[0], v[1])
    assert af.sub is sub                  # the first link restages nothing
    assert (af.m1, af.n1, af.level) == (1, 2, 1)
    assert af.reorg_log == []
    assert af.nca(v[0], v[1]) == v[0]
    assert af.m1 == 2                     # meets count once linking starts


def test_adaptive_rejected_link_changes_nothing(monkeypatch):
    """Rejected links and meets count nothing, the last at m1 == mark too.

    There the next valid meet passes the mark, so it reads alpha once.
    """
    af = AdaptiveLinkForest(4)
    for _ in range(4):
        af.make_node()
    with pytest.raises(ValueError):
        af.link(2, 2)                     # one tree before the first link
    assert (af.m1, af.n1, af.mark) == (0, 0, 0)
    af.link(0, 1)

    def state():
        return (af.m1, af.n1, af.mark, af.level, list(af.reorg_log),
                copy.deepcopy(af.stats))

    before = state()
    for x, y in ((1, 0), (0, 1), (3, 1)):
        with pytest.raises(ValueError):
            af.link(x, y)
    for x, y in ((0, 4), (-1, 0), (True, 1)):
        with pytest.raises(ValueError):
            af.ca(x, y)
    assert state() == before
    af.ca(0, 1)
    assert af.m1 == af.mark == 2
    reads = []

    def counted(m, n):
        reads.append((m, n))
        return alpha(m, n)

    monkeypatch.setattr(linkforest, "alpha", counted)
    before = state()
    for bad in (1.0, None, -1, af.n, True):
        for x, y in ((bad, 0), (0, bad)):
            with pytest.raises(ValueError):
                af.ca(x, y)
    assert state() == before and reads == []
    assert af.ca(1, 0) == (0, 1, 0)
    assert reads == [(3, 2)] and af.m1 == 3


def test_adaptive_reads_alpha_only_when_it_can_move(rng):
    """Level and log match a shadow that reads alpha at every operation.

    Links of fresh pairs pull 4*ceil(m1/n1) down, query bursts and links
    of two counted trees push it up.  Past 2^16 counted nodes alpha
    reaches 3, so a burst takes the level from 3 to 1 in a query, where
    n1 stands still and only the mark decides whether alpha is read.
    """
    n = (1 << 16) + 100
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    shadow = {"ops": 0, "m1": 0, "n1": 0, "level": 1}
    log = []
    counted = set()
    roots = []

    def count(nodes):
        shadow["ops"] += 1
        shadow["m1"] += 1
        for u in nodes:
            if u not in counted:
                counted.add(u)
                shadow["n1"] += 1
        lv = alpha(shadow["m1"], shadow["n1"])
        level = shadow["level"]
        if lv != level and lv != level - 1:
            log.append((shadow["ops"], level, lv))
            shadow["level"] = lv
        assert (af.level, af.reorg_log) == (shadow["level"], log)
        assert (af.m1, af.n1) == (shadow["m1"], shadow["n1"])

    def pairs(k):
        for _ in range(k):
            x = len(counted)
            af.link(x, x + 1)
            count((x, x + 1))
            roots.append(x)

    def merges(k):
        for _ in range(k):
            x, y = roots.pop(), roots.pop()
            af.link(x, y)
            count((x, y))
            roots.append(x)

    def queries(k):
        for _ in range(k):
            v = rng.randrange(len(counted))
            af.ca(v, v)
            count(())

    pairs(40)
    queries(200)
    merges(30)
    pairs((1 << 15) - 20)
    merges(30)
    queries(4 * shadow["n1"] - shadow["m1"] + 10)
    pairs(5)
    queries(3000)
    assert [(a, b) for _, a, b in log] == [(1, 2), (2, 3), (3, 1), (1, 2)]


def test_alpha_caches_stay_small_under_growth():
    """Every link of a 2^14-node growth counts a new node, yet the column
    table and the _acap cache behind alpha hold only a few hundred entries."""
    linkforest._acap.cache_clear()
    n = 1 << 14
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    rng = random.Random(3)
    for v in range(1, n):
        af.link(rng.randrange(v), v)
    assert af.n1 == n and af.reorg_log == [(16, 1, 2)]
    sizes = (linkforest._acap.cache_info().currsize,
             len(linkforest._COLUMNS))
    assert sum(sizes) <= 300, sizes


def test_stage_floors_leave_the_acap_cache_flat():
    """Forests at 2,000 capacities add nothing to the _acap cache.

    Every forest reads its floors at the one default clamp, keyed by
    level and j, so the widest capacity reaches every entry any
    narrower one needs.
    """
    linkforest._acap.cache_clear()
    for level in (1, 2):
        LinkForest(level, 1 << 64)
    size = linkforest._acap.cache_info().currsize
    rng = random.Random(7)
    caps = list(range(1, 1001)) + [rng.randrange(1, 1 << 64)
                                   for _ in range(1000)]
    for cap in caps:
        for level in (1, 2):
            LinkForest(level, cap)
    assert linkforest._acap.cache_info().currsize == size


def test_leaf_growth_checks_each_id_once(monkeypatch):
    """A seeded 2^12-node growth, replayed as links, makes exactly two
    check_id calls a link: link checks x and y, and neither the record
    add behind a fresh singleton nor a promotion's copy checks again.
    That holds for a leaf growth, and for a root-heavy one in which one
    op in four is an add_root, replayed as link(v, root): the record's
    add_root does not check its own root again.  The public add_leaf of
    both record kinds still refuses a bad id, and changes nothing when
    it does."""
    calls = [0]

    def counted(v, n):
        calls[0] += 1
        return check_id(v, n)

    # every module that imports check_id, so that no check goes uncounted
    for name, mod in list(sys.modules.items()):
        if name.startswith("dynca.") and hasattr(mod, "check_id"):
            monkeypatch.setattr(mod, "check_id", counted)
    n = 1 << 12
    for roots in (0, 0.25):
        af = AdaptiveLinkForest(n)
        for _ in range(n):
            af.make_node()
        calls[0] = 0
        rng = random.Random(5)
        root = 0
        for v in range(1, n):
            if rng.random() < roots:
                af.link(v, root)
                root = v
            else:
                af.link(rng.randrange(v), v)
        assert calls[0] == 2 * (n - 1), (roots, calls[0])
        assert isinstance(af.sub[af.L][0].inc, MultilevelInc)
        assert af.find_root(0) == root
    for t in (MultilevelInc(8), PackedTree()):
        t.add_leaf(0)
        size, eta = len(t.piT), t.stats.eta
        for bad in (-1, size, True, 1.0, None):
            with pytest.raises(ValueError):
                t.add_leaf(bad)
        assert (len(t.piT), t.stats.eta) == (size, eta)


def test_leaf_growth_reads_alpha_twice(monkeypatch):
    """Every link of a seeded 2^14-node leaf growth counts a new node, yet
    alpha is read only where it can move: at the first link, and when
    n1 = 17 passes 16, the reach of row 1 in the column of j = 4."""
    reads = []

    def counted(m, n):
        reads.append((m, n))
        return alpha(m, n)

    monkeypatch.setattr(linkforest, "alpha", counted)
    n = 1 << 14
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    rng = random.Random(5)
    for v in range(1, n):
        af.link(rng.randrange(v), v)
    assert af.n1 == n and af.reorg_log == [(16, 1, 2)]
    assert reads == [(1, 2), (16, 17)]


def test_adaptive_reorg_at_population_crossing():
    # disjoint pairs: m/n stays at 1/2, the level tracks alpha(i, 2i),
    # which first leaves {level, level-1} when 2i tops the row-1 value 16
    af = AdaptiveLinkForest(64)
    v = [af.make_node() for _ in range(40)]
    for i in range(16):
        af.link(v[2 * i], v[2 * i + 1])
        want = alpha(i + 1, 2 * (i + 1))
        assert af.level == want
    assert af.reorg_log == [(9, 1, 2)]
    check_link_invariants(af)


class _WeakSub(linkforest._Sub):
    """A subtree record that takes weak references."""

    __slots__ = ("__weakref__",)


def test_adaptive_reorg_drops_the_old_forest(monkeypatch):
    """A restaging frees every subtree record of the old staging, and the
    packed or three-level tree inside each."""
    monkeypatch.setattr(linkforest, "_Sub", _WeakSub)
    # a 12-node chain fills subtrees; disjoint pairs then push the level up
    af = AdaptiveLinkForest(64)
    v = [af.make_node() for _ in range(64)]
    for i in range(11):
        af.link(v[i], v[i + 1])
    old = {S for subs in af.sub.values() for S in subs if S is not None}
    assert old
    refs = [weakref.ref(S) for S in old] + [weakref.ref(S.inc) for S in old]
    del old
    i = 12
    while not af.reorg_log:
        af.link(v[i], v[i + 1])
        i += 2
    gc.collect()
    assert all(r() is None for r in refs)
    assert af.nca(v[3], v[9]) == v[3]


def test_adaptive_meet_that_restages_answers_on_the_new_forest(monkeypatch):
    """A meet past the mark whose alpha read restages the forest is
    answered on the new staging, not the one it was asked on."""
    af = AdaptiveLinkForest(16)
    v = [af.make_node() for _ in range(6)]
    for i in range(5):
        af.link(v[0], v[i + 1])
    af.ca(v[1], v[2])
    assert af.m1 == af.mark and af.L == 1
    seen = []
    ca = LinkForest._ca

    def asked(self, x, y):
        seen.append(self.L)
        return ca(self, x, y)

    monkeypatch.setattr(LinkForest, "_ca", asked)
    monkeypatch.setattr(linkforest, "alpha", lambda m, n: 3)
    assert af.ca(v[1], v[2]) == (v[0], v[1], v[2])
    assert af.reorg_log == [(7, 1, 3)]
    assert seen == [3]


def test_adaptive_reorg_keeps_the_vertex_level(monkeypatch):
    """A reorganization restages the trees around the vertex level it has.

    A 12-node chain is staged at level 1; disjoint pairs then push the
    level up.  The forest keeps the same shape columns and size list
    objects, and no vertex is made again.
    """
    af = AdaptiveLinkForest(64)
    v = [af.make_node() for _ in range(64)]
    for i in range(11):
        af.link(v[i], v[i + 1])
    kept = (af.pi[1], af.fc[1], af.ns[1], af.ts[1])
    made = []
    monkeypatch.setattr(linkforest.LinkForest, "make_node",
                        lambda self: made.append(self))
    i = 12
    while not af.reorg_log:
        af.link(v[i], v[i + 1])
        i += 2
    assert af.L == af.level == 2
    assert all(a is b for a, b in zip(kept, (
        af.pi[2], af.fc[2], af.ns[2], af.ts[2])))
    assert made == []
    assert tree_stage(af, 2, v[0]) >= 1 and af.sub[2][v[11]] is af.sub[2][v[0]]
    check_link_invariants(af)
    assert af.nca(v[3], v[9]) == v[3]


def test_adaptive_restages_in_place_down_as_well_as_up(monkeypatch):
    """Counted links restage one forest from 1 to 3 levels and back to 1.

    alpha is patched to return a set target.  Meets past the mark raise
    ceil(m1/n1) while the target is still the level in force; the target
    then moves, and the next link of a fresh pair lowers the ratio again,
    so _count reads alpha inside that link and restages.  After each
    restaging the vertex columns are the ones the forest opened with, the
    staging passes the full sweep, every pair meets as the oracle says,
    and down and free hold only the levels below the new L.
    """
    target = [1]
    monkeypatch.setattr(linkforest, "alpha", lambda m, n: target[0])
    n = 48
    af = AdaptiveLinkForest(n)
    f = Forest()
    for _ in range(n):
        af.make_node()
        f.make_node()
    kept = (af.pi[1], af.fc[1], af.ns[1], af.ts[1])
    fresh = iter(range(n))

    def link(x, y):
        af.link(x, y)
        f.link(x, y)

    def tree(size, shape):
        """A new tree of `size` fresh nodes: a chain or a star."""
        v = [next(fresh) for _ in range(size)]
        for i in range(1, size):
            link(v[i - 1] if shape == "chain" else v[0], v[i])
        return v[0]

    def restage(level):
        c = af.c
        while af.c == c:
            af.ca(0, 0)
        target[0] = level
        tree(2, "chain")
        assert af.L == af.level == level
        assert all(a is b for a, b in zip(kept, (
            af.pi[level], af.fc[level], af.ns[level], af.ts[level])))
        assert set(af.down) == set(af.free) == set(range(1, level))
        check_link_invariants(af)
        for x in range(n):
            for y in range(n):
                # LinkForest._ca answers without counting the meet
                assert LinkForest._ca(af, x, y) == oracle_ca(f, x, y), (x, y)

    a = tree(12, "chain")
    b = tree(6, "star")
    tree(2, "chain")
    restage(3)
    c = tree(8, "chain")
    link(a, c)                  # equal stages at level 3: recurses below
    link(tree(5, "star"), b)
    restage(1)
    assert [(lo, hi) for _, lo, hi in af.reorg_log] == [(1, 3), (3, 1)]
    assert len(af.stats.reorg_log) == 2


@pytest.mark.parametrize("bad", [0, 7])
def test_refused_restage_changes_nothing(bad):
    """A level with no row in the forest's Ackermann table is refused
    before anything is touched: L, the sub dict and each of its lists,
    the stats and every answer stay as they were."""
    n = 64                      # a table of 6 rows
    lf = LinkForest(2, n)
    for _ in range(n):
        lf.make_node()
    rng = random.Random(2)
    for v in range(1, 40):
        lf.link(rng.randrange(v), v)
    lf.link(40, 41)

    def answers():
        return [lf.ca(x, y) for x in range(n) for y in range(n)]

    before = answers()
    sub = lf.sub
    rows = {k: list(subs) for k, subs in sub.items()}
    stats = copy.deepcopy(lf.stats)
    with pytest.raises(ValueError):
        lf.relevel(bad)
    assert lf.L == 2 and lf.sub is sub
    assert {k: list(subs) for k, subs in sub.items()} == rows
    assert lf.stats == stats
    assert answers() == before
    check_link_invariants(lf)


def test_adaptive_replay_ends_with_multi_record_tree(rng, monkeypatch):
    """Batched random links at n = 4096, every answer held to the oracle.

    Sixteen rounds each link 256 random roots under random vertices of
    other trees and then ask 256 meets, half of them inside one tree.
    The batched links take the wrapper to two levels early, so the last
    tree spans many vertex-level records, and pairs in one tree but in
    different records run the level recursion rather than one record's
    meet.
    """
    cross = 0
    c = LinkForest._c

    def counted(self, x, y, k):
        nonlocal cross
        sub = self.sub[k]
        if k == self.L and sub[x] is not None and sub[y] not in (None, sub[x]):
            cross += 1
        return c(self, x, y, k)

    monkeypatch.setattr(LinkForest, "_c", counted)
    n = 4096
    batch = n // 16
    af = AdaptiveLinkForest(n)
    f = Forest()
    for _ in range(n):
        af.make_node()
        f.make_node()
    members = {v: [v] for v in range(n)}
    roots = list(range(n))
    while len(roots) > 1:
        for _ in range(min(batch, len(roots) - 1)):
            i, j = rng.sample(range(len(roots)), 2)
            r, y = roots[i], roots[j]
            roots[j] = roots[-1]
            roots.pop()
            x = rng.choice(members[r])
            af.link(x, y)
            f.link(x, y)
            members[r] += members.pop(y)
        joined = [r for r in roots if len(members[r]) > 1]
        for q in range(batch):
            if q % 2:
                x, y = rng.sample(members[rng.choice(joined)], 2)
            else:
                x, y = rng.randrange(n), rng.randrange(n)
            assert af.ca(x, y) == oracle_ca(f, x, y), (x, y)
    assert af.level == af.L >= 2
    check_link_invariants(af)
    top = af.sub[af.L]
    records = {id(top[v]) for v in af.tree_nodes(roots[0], af.L)}
    assert len(records) >= 2
    assert cross > 0


def _merge_and_ask(af, n, rng):
    """Random links of whole trees, three queries after each.

    Forty queries run before the first link.  Half of the later queries
    pair two members of one tree, the rest pair two random vertices.
    Returns a digest of every answer.
    """
    for _ in range(n):
        af.make_node()
    h = hashlib.sha256()
    for _ in range(40):
        h.update(repr(af.ca(rng.randrange(n), rng.randrange(n))).encode())
    members = {v: [v] for v in range(n)}
    tree = list(range(n))
    roots = list(range(n))
    while len(roots) > 1:
        i, j = rng.sample(range(len(roots)), 2)
        r, y = roots[i], roots[j]
        roots[j] = roots[-1]
        roots.pop()
        af.link(rng.choice(members[r]), y)
        moved = members.pop(y)
        members[r] += moved
        for v in moved:
            tree[v] = r
        for _ in range(3):
            a = rng.randrange(n)
            b = rng.choice(members[tree[a]]) if rng.random() < 0.5 else rng.randrange(n)
            h.update(repr(af.ca(a, b)).encode())
    return h.hexdigest()


def test_adaptive_frozen_run():
    """A fixed-seed run across one reorganization, frozen answer for answer.

    The reorganization comes at op 11,649, when trees of up to 20 nodes
    sit in stage 2, so the restaging re-seats many staged trees.  The
    digest covers every answer; the counters pin the work done, and
    queries is the number of same-tree answers.
    """
    af = AdaptiveLinkForest(5000)
    digest = _merge_and_ask(af, 5000, random.Random(12))
    s = af.stats
    assert (s.eta, s.work, s.queries, s.max_query_steps) == (16386, 42099, 7667, 11)
    assert af.reorg_log == [(11649, 1, 2)]
    assert (af.n1, af.m1) == (5000, 19996)
    assert digest == "adb43d93df84d8338097f45331faab95bf1ede034e90da32c640255d1e17de59"


def _star(lf, nodes):
    for u in nodes[1:]:
        lf.link(nodes[0], u)


@pytest.mark.parametrize("case", ["pour", "rebuild", "rebuild-64",
                                  "rebuild-256"])
def test_retired_subtree_takes_its_arena(case):
    """The losing side's subtree record is freed, with its microset store.

    A pour re-adds a stage-1 tree of 4 into a stage-2 tree of 8; a
    rebuild merges two stage-1 trees of 4 into one stage-2 subtree, and
    rebuild-64 two stage-5 trees of 64 into stage 6.  All of them retire
    packed trees, which hold no arena.  rebuild-256 merges two stage-7
    trees of 256, past a packed tree's capacity, whose records are
    multilevel trees.
    """
    side = {"rebuild-64": 64, "rebuild-256": 256}.get(case, 4)
    lf = LinkForest(1, 512)
    v = [lf.make_node() for _ in range(512)]
    _star(lf, v[:side])
    _star(lf, v[side:2 * side])
    if case == "pour":
        lf.link(v[0], v[4])               # 8 >= 2 * 4: one stage-2 subtree
        _star(lf, v[8:12])
        assert tree_stage(lf, 1, v[0]) == 2 and tree_stage(lf, 1, v[8]) == 1
        x, y = v[1], v[8]
    else:
        x, y = v[1], v[side]
    S = lf.sub[1][y]
    inc = weakref.ref(S.inc)
    arena = getattr(S.inc, "arena", None)
    assert ((arena is None) == (side <= PackedTree.CAP)
            == isinstance(S.inc, PackedTree))
    del S
    lf.link(x, y)
    gc.collect()
    assert inc() is None
    if side > 4:
        assert tree_stage(lf, 1, v[0]) == side.bit_length() - 1
    if arena is not None:
        # Arena takes no weak references: the test's own name and the
        # call's argument must be all that still holds it
        assert sys.getrefcount(arena) == 2
    check_link_invariants(lf)
    assert lf.nca(v[2], y) == v[0]


def test_adaptive_chain_climbs_stages_inside_period():
    # a chain kept at level 1 climbs stages inside one period, with
    # ceilings read from the table the forest built for max_n
    af = AdaptiveLinkForest(16)
    v = [af.make_node() for _ in range(12)]
    for i in range(11):
        af.link(v[i], v[i + 1])
    assert af.level == 1
    assert af.reorg_log == []
    assert tree_stage(af, 1, v[0]) == 2      # 12 nodes: 2 * A(1, 2) <= 12 < 2 * A(1, 3)
    check_link_invariants(af)
    assert af.nca(v[3], v[9]) == v[3]


def test_adaptive_differential(rng):
    n = 300
    af = AdaptiveLinkForest(n)
    f = Forest()
    for _ in range(n):
        af.make_node()
        f.make_node()
    roots = list(range(n))
    while len(roots) > 1:
        i, j = rng.sample(range(len(roots)), 2)
        x, y = roots[i], roots[j]
        roots.remove(y)
        af.link(x, y)
        f.link(x, y)
        for _ in range(3):
            a = rng.randrange(n)
            b = rng.randrange(n)
            assert af.ca(a, b) == oracle_ca(f, a, b), (a, b)
    check_link_invariants(af)
    assert af.stats.reorg_log is af.reorg_log


def test_adaptive_reorgs_count_wrapper_rebuilds_only():
    """A long chain restarts its subtree's level-1 root; reorgs skips that.

    At the default mu of 3 ceil(log2 n) the chain's record seeds its
    level-1 tree at 2,000 nodes but restarts its root only from about
    3,000; 4,000 restarts it twice.
    """
    n = 4000
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    for v in range(n - 1):
        af.link(v, v + 1)
    assert af.stats.root_renumberings > 0
    assert len(af.reorg_log) == 1


def test_adaptive_capacity_and_id_errors():
    af = AdaptiveLinkForest(2)
    af.make_node()
    af.make_node()
    with pytest.raises(CapacityError):
        af.make_node()
    with pytest.raises(ValueError):
        af.ca(0, 5)
    with pytest.raises(ValueError):
        af.link(0, 9)


@pytest.mark.parametrize("level", [1, 2])
def test_pour_moves_subtree_root(level, rng):
    """Staged roots linked under small bare trees: the sx < sy pour.

    Each pour re-roots the staged subtree through add_root, so its root
    moves while the subtree record stays.  Invariants and every pair are
    checked against the oracle after each link.
    """
    n = 48
    lf = LinkForest(level, n)
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()

    def link(x, y):
        lf.link(x, y)
        f.link(x, y)
        check_link_invariants(lf)
        for a in range(n):
            for b in range(n):
                assert lf.ca(a, b) == oracle_ca(f, a, b), (a, b)

    for v in range(1, 8):
        link(v - 1, v)
    big = 0
    fresh = 8
    pours = 0
    while fresh < n:
        k = min(rng.randrange(1, 4), n - fresh)
        small = list(range(fresh, fresh + k))
        fresh += k
        for u, v in zip(small, small[1:]):
            link(u, v)
        S = lf.sub[level][big]
        link(rng.choice(small), big)
        if lf.sub[level][big] is S:
            assert S.root == small[0]
            pours += 1
        big = small[0]
    assert pours >= 5


def test_eta_counts_each_subtree_add_once(rng, monkeypatch):
    """Every staged-subtree member costs one eta, inner levels none."""
    made = []
    init = linkforest._Sub.__init__

    def record(self, inc, *rest):
        init(self, inc, *rest)
        made.append(self)

    monkeypatch.setattr(linkforest._Sub, "__init__", record)
    # the last record contracts down to a level-1 tree only from about
    # 5,000 nodes at the default mu of 3 ceil(log2 n)
    n = 8000
    lf = LinkForest(1, n)
    for _ in range(n):
        lf.make_node()
    roots = list(range(n))
    while len(roots) > 1:
        i, j = rng.sample(range(len(roots)), 2)
        x, y = roots[i], roots[j]
        roots.remove(y)
        lf.link(x, y)
        assert lf.stats.eta == sum(len(S.rev) for S in made)
    # the last subtree is big enough to have grown its level-1 tree
    assert lf.sub[1][0].inc.inc is not None


def _holds_live_only(lf):
    """The forest keeps exactly the subtrees and contracted nodes it walks."""
    check_link_invariants(lf)
    subs = {k: {id(S): S for S in lf.sub[k] if S is not None}.values()
            for k in lf.sub}
    gc.collect()
    alive = {id(o) for o in gc.get_objects()
             if isinstance(o, (MultilevelInc, PackedTree)) and o.stats is lf.stats}
    assert alive == {id(S.inc) for k in subs for S in subs[k]}
    for k in range(1, lf.L):
        ups = {S.up for S in subs[k + 1]}
        assert len(lf.pi[k]) - len(lf.free[k]) == len(ups), k


@pytest.mark.parametrize("level", [1, 2, 3, "adaptive"])
def test_forest_holds_only_live_trees(level, rng, monkeypatch):
    """After random links no replaced subtree or contracted node is held.

    Every path that replaces subtrees runs: rebuilds, pours of y's lower
    stage tree under x, and pours of x's side into the root subtree of
    a higher-stage y.  Past level 1 each of them retires contracted trees.
    """
    n = 2000
    fills = Counter()
    fill = linkforest.LinkForest._fill

    def count(self, S, top, skip, k):
        fills["pour-x" if skip is not None else
              "rebuild" if self.sub[k][top] is S else "pour-y"] += 1
        fill(self, S, top, skip, k)

    monkeypatch.setattr(linkforest.LinkForest, "_fill", count)
    if level == "adaptive":
        af = AdaptiveLinkForest(n)
        make, link, forest = af.make_node, af.link, lambda: af
    else:
        lf = LinkForest(level, n)
        make, link, forest = lf.make_node, lf.link, lambda: lf
    for _ in range(n):
        make()
    members = {v: [v] for v in range(n)}
    while len(members) > 1:
        r, y = rng.sample(sorted(members), 2)
        link(rng.choice(members[r]), y)
        members[r] += members.pop(y)
        if len(members) % 250 == 0:
            _holds_live_only(forest())
    assert set(fills) == {"rebuild", "pour-x", "pour-y"}, fills
    if forest().L > 1:
        assert any(forest().free.values())


_COLUMNS = ("pi", "fc", "ns")


@pytest.mark.parametrize("level", [2, 3])
def test_reused_ids_carry_no_stale_links(level, rng, monkeypatch):
    """A retired id comes back with no parent, child or sibling.

    Random links retire contracted trees, whose ids the levels below
    the vertex level hand out again.  Each reused id starts with -1 in
    all three shape columns, and on every level, for every live node,
    the children walked from the columns are those whose parent is that
    node, newest link first.
    """
    n = 2000
    tick = iter(range(1 << 30))
    linked = {}        # (k, y): when y was last linked below its parent
    reused = Counter()
    new_node, l = LinkForest._new_node, LinkForest._l

    def fresh(self, k):
        was_free = bool(self.free.get(k))
        v = new_node(self, k)
        if was_free:
            reused[k] += 1
            assert [getattr(self, c)[k][v] for c in _COLUMNS] == [-1] * 3
            assert self.ts[k][v] == 1
        return v

    def logged(self, r, x, y, k, tx, ty):
        linked[k, y] = next(tick)
        l(self, r, x, y, k, tx, ty)

    monkeypatch.setattr(LinkForest, "_new_node", fresh)
    monkeypatch.setattr(LinkForest, "_l", logged)
    lf = LinkForest(level, n)
    for _ in range(n):
        lf.make_node()

    def sweep():
        for k in range(1, lf.L + 1):
            free = set(lf.free.get(k, ()))
            live = [v for v in range(len(lf.pi[k])) if v not in free]
            kids = {v: [] for v in live}
            for v in live:
                p = lf.pi[k][v]
                if p != -1:
                    kids[p].append(v)
            for v in live:
                walked = []
                w = lf.fc[k][v]
                while w != -1:
                    walked.append(w)
                    w = lf.ns[k][w]
                want = sorted(kids[v], key=lambda y: -linked[k, y])
                assert walked == want, (k, v)
                if lf.pi[k][v] == -1:
                    assert lf.ns[k][v] == -1, (k, v)

    members = {v: [v] for v in range(n)}
    while len(members) > 1:
        r, y = rng.sample(sorted(members), 2)
        lf.link(rng.choice(members[r]), y)
        members[r] += members.pop(y)
        if len(members) % 200 == 0:
            sweep()
    sweep()
    check_link_invariants(lf)
    assert reused[level - 1] > 0, reused


def _replay_against_oracle(lf, rng, n, queries):
    """Random links among n fresh nodes of lf, then meets held to the oracle."""
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()
    _random_links(lf, f, rng, n, False)
    check_link_invariants(lf)
    for _ in range(queries):
        x = rng.randrange(n)
        y = rng.randrange(n)
        assert lf.ca(x, y) == oracle_ca(f, x, y), (x, y)


def _int_cells(col, narrow, where):
    """col is a signed 32-bit array when narrow, else a list."""
    if narrow:
        assert type(col) is array and col.typecode == "i", where
    else:
        assert type(col) is list, where


def _live_records(lf):
    """Every live subtree record of lf, each once."""
    return list({id(S): S for col in lf.sub.values()
                 for S in col if S is not None}.values())


@pytest.mark.parametrize("max_n, narrow", [
    ((1 << 31) - 1, True), (1 << 31, True), ((1 << 31) + 1, False)])
def test_shape_columns_in_32_bit_cells_up_to_their_cutoff(max_n, narrow, rng):
    """Ids below 2^31 take signed 32-bit cells; a larger capacity, lists.

    -1 marks none, so the largest id max_n - 1 must fit a signed cell.
    Forests just below the cutoff, at it and one past it get the two
    cell kinds on every level, and a replay on each meets the oracle.
    After the replay the id columns that the replay filled, every live
    record's rev and every free list, hold the same cell kind.  A tree
    size can reach max_n itself, so the size column ts is an array only
    while max_n is below 2^31.
    """
    assert ((1 << 31) - 1).bit_length() == 31 < (1 << 31).bit_length()
    for lf in (LinkForest(3, max_n), AdaptiveLinkForest(max_n)):
        for c in _COLUMNS:
            for k, col in getattr(lf, c).items():
                _int_cells(col, narrow, (c, k))
                if narrow:
                    assert 8 * col.itemsize > (max_n - 1).bit_length()
        _replay_against_oracle(lf, rng, 300, 1500)
        for k, col in lf.ts.items():
            _int_cells(col, max_n < 1 << 31, ("ts", k))
        assert any(lf.free.values()) or lf.L == 1
        for k, col in lf.free.items():
            _int_cells(col, narrow, ("free", k))
        records = _live_records(lf)
        assert records
        for S in records:
            _int_cells(S.rev, narrow, "rev")
    wide = LinkForest(1, 1 << 64)
    assert type(wide.pi[1]) is list
    _replay_against_oracle(wide, rng, 40, 400)


def test_shape_columns_hold_no_per_node_lists(rng):
    """After a 2^12-node link replay every level's shape is three int arrays.

    Together they take at most 15 B per vertex over all levels: 12 B of
    cells and the arrays' growth slack.  No container the forest keeps
    per level holds a list per node.  The tree sizes, the free lists and
    every live record's rev are int arrays too, at most 12 B per vertex
    in all, and every packed record keeps its spine meets in bytes.
    """
    n = 1 << 12
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    members = {v: [v] for v in range(n)}
    while len(members) > 1:
        r, y = rng.sample(sorted(members), 2)
        af.link(rng.choice(members[r]), y)
        members[r] += members.pop(y)
    assert af.L > 1
    held = 0
    for c in _COLUMNS:
        for k, col in getattr(af, c).items():
            assert type(col) is array and col.typecode == "i", (c, k)
            held += sys.getsizeof(col)
    assert held <= 15 * n, held / n
    for name in ("ts", "sub", "lid", "down", "free"):
        for k, col in getattr(af, name).items():
            assert not any(type(v) is list for v in col), (name, k)
    ids = 0
    for name in ("ts", "free"):
        for k, col in getattr(af, name).items():
            _int_cells(col, True, (name, k))
            ids += sys.getsizeof(col)
    records = _live_records(af)
    assert any(type(S.inc) is PackedTree for S in records)
    for S in records:
        _int_cells(S.rev, True, "rev")
        ids += sys.getsizeof(S.rev)
        if type(S.inc) is PackedTree:
            assert type(S.inc.sm) is array and S.inc.sm.typecode == "B"
    assert ids <= 12 * n, ids / n


def _binomial_links(lf, n, rng):
    """Adjacent equal-size blocks merge, the right block's root (its first
    node) linked under a random vertex of the left, sizes 1, 2, 4, ..."""
    s = 1
    while s < n:
        for b in range(0, n, 2 * s):
            lf.link(rng.randrange(b, b + s), b + s)
        s *= 2


def _vertex_links(lf, n, rng):
    """Random roots linked under random vertices of other trees, to one tree."""
    uf = list(range(n))

    def find(v):
        while uf[v] != v:
            uf[v] = v = uf[uf[v]]
        return v

    roots = list(range(n))
    while len(roots) > 1:
        i = rng.randrange(len(roots))
        y = roots[i]
        roots[i] = roots[-1]
        roots.pop()
        x = rng.randrange(n)
        while find(x) == y:
            x = rng.randrange(n)
        lf.link(x, y)
        uf[y] = find(x)


@pytest.mark.parametrize("pattern", ["binomial", "random"])
def test_link_work_per_node_flat_on_deep_links(pattern):
    """(eta + work) per node stays flat as n doubles from 2^10 to 2^15.

    Binomial links tie equal stages at every size, so links recurse a
    level down; the forest restages to two levels, and level 1 holds
    staged records.  r rises by at most 10% per doubling and stays
    below 7 (5.83 to 6.14 binomial, 4.53 to 4.70 random).
    """
    links = _binomial_links if pattern == "binomial" else _vertex_links
    rs = []
    for e in range(10, 16):
        n = 1 << e
        lf = AdaptiveLinkForest(n)
        for _ in range(n):
            lf.make_node()
        links(lf, n, random.Random(e))
        assert lf.L == 2 and any(S is not None for S in lf.sub[1]), n
        rs.append((lf.stats.eta + lf.stats.work) / n)
    assert max(rs) < 7, rs
    assert all(b <= 1.1 * a for a, b in zip(rs, rs[1:])), rs
