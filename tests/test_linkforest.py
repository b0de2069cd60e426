import copy
import gc
import hashlib
import random
import sys
import weakref
from collections import Counter

import pytest

from dynca import linkforest
from dynca.microset import PackedTree
from dynca.multilevel import MultilevelInc
from dynca import (AckermannTable, AdaptiveLinkForest, CapacityError, Forest,
                   LinkForest, a_inv, alpha, oracle_ca)

from _checks import check_link_invariants


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


def test_table_argument_errors():
    with pytest.raises(ValueError):
        AckermannTable(1)
    t = AckermannTable(64)
    with pytest.raises(ValueError):
        t.value(0, 1)
    with pytest.raises(ValueError):
        t.value(t.size + 1, 1)
    with pytest.raises(ValueError):
        t.value(1, 0)
    with pytest.raises(ValueError):
        a_inv(1, 0)
    with pytest.raises(ValueError):
        alpha(0, t.n)


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
    with pytest.raises(ValueError):
        a_inv(0, 5)
    assert a_inv(1, 65536) == 16


def test_identities_hold_on_small_tables():
    for n in (4, 32, 1024, 65536):
        AckermannTable(n).check_identities()


def test_forest_constructor_errors():
    with pytest.raises(ValueError):
        LinkForest(0, 8)
    with pytest.raises(ValueError):
        LinkForest(AckermannTable(8).size + 1, 8)   # no row for that level


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


def test_cross_tree_queries_are_none():
    lf = LinkForest(1, 8)
    a, b, c, d = (lf.make_node() for _ in range(4))
    lf.link(a, b)
    lf.link(c, d)
    assert lf.ca(a, c) is None
    assert lf.nca(b, d) is None
    assert lf.ca(a, b) == (a, a, b)


def test_two_singletons_stay_bare():
    lf = LinkForest(1, 8)
    a, b = lf.make_node(), lf.make_node()
    lf.link(a, b)
    assert lf.stage[1][a] == 0
    assert lf.sub[1][a] is None and lf.sub[1][b] is None
    assert lf.pi[1][b] == a and lf.pi[1][a] is None
    assert lf.find_root(b) == a
    check_link_invariants(lf)


def test_five_node_merge_reaches_stage_one():
    lf = LinkForest(1, 16)
    v = [lf.make_node() for _ in range(5)]
    lf.link(v[0], v[1])
    lf.link(v[1], v[2])                   # 3 nodes, still bare
    assert lf.stage[1][v[0]] == 0
    lf.link(v[0], v[3])                   # 4th node crosses the floor
    assert lf.stage[1][v[0]] == 1
    lf.link(v[3], v[4])                   # 5 nodes stay in stage 1
    assert lf.stage[1][v[0]] == 1
    assert lf.sub[1][v[4]] is lf.sub[1][v[0]]
    check_link_invariants(lf)
    assert lf.ca(v[2], v[4]) == (v[0], v[1], v[3])


def test_absorb_into_higher_stage():
    # stage 1 tree takes a bare 2-node tree without a rebuild
    lf = LinkForest(1, 32)
    v = [lf.make_node() for _ in range(6)]
    for i in range(3):
        lf.link(v[0], v[i + 1])
    assert lf.stage[1][v[0]] == 1
    S = lf.sub[1][v[0]]
    lf.link(v[4], v[5])
    lf.link(v[2], v[4])                   # 6 < 8: absorbed, same subtree
    assert lf.stage[1][v[0]] == 1
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
        assert lf.stage[1][u] == 1
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
    assert lf.stage[2][a[0]] == 2 and lf.stage[2][b[0]] == 2
    zA = lf.sub[2][a[0]].up
    zB = lf.sub[2][b[0]].up
    assert zA is not None and zB is not None
    lf.link(a[3], b[0])                   # 16 < 2*A(2,3): stages tie, recurse
    assert lf.stage[2][a[0]] == 2
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
    assert (af.m1, af.n1, af.ops, af.level) == (0, 0, 0, 1)
    lf = af.lf
    af.link(v[0], v[1])
    assert af.lf is lf                    # the first link opens no new forest
    assert (af.m1, af.n1, af.level) == (1, 2, 1)
    assert af.reorg_log == []
    assert af.nca(v[0], v[1]) == v[0]
    assert af.m1 == 2                     # meets count once linking starts


def test_adaptive_rejected_link_changes_nothing():
    af = AdaptiveLinkForest(4)
    for _ in range(4):
        af.make_node()
    with pytest.raises(ValueError):
        af.link(2, 2)                     # one tree before the first link
    assert (af.ops, af.m1, af.n1, af.mark) == (0, 0, 0, 0)
    af.link(0, 1)

    def state():
        return (af.ops, af.m1, af.n1, af.mark, af.level, list(af.reorg_log),
                copy.deepcopy(af.stats))

    before = state()
    for x, y in ((1, 0), (0, 1), (3, 1)):
        with pytest.raises(ValueError):
            af.link(x, y)
    for x, y in ((0, 4), (-1, 0), (True, 1)):
        with pytest.raises(ValueError):
            af.ca(x, y)
    assert state() == before


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
    check_link_invariants(af.lf)


def test_adaptive_reorg_drops_the_old_forest():
    # a 12-node chain fills subtrees; disjoint pairs then push the level up
    af = AdaptiveLinkForest(64)
    v = [af.make_node() for _ in range(64)]
    for i in range(11):
        af.link(v[i], v[i + 1])
    old = weakref.ref(af.lf)
    i = 12
    while not af.reorg_log:
        af.link(v[i], v[i + 1])
        i += 2
    gc.collect()
    assert old() is None
    assert af.nca(v[3], v[9]) == v[3]


def test_adaptive_reorg_keeps_the_vertex_level(monkeypatch):
    """A reorganization restages the trees around the vertex level it has.

    A 12-node chain is staged at level 1; disjoint pairs then push the
    level up.  The new forest holds the same parent, child and size
    lists, and no vertex is made again.
    """
    af = AdaptiveLinkForest(64)
    v = [af.make_node() for _ in range(64)]
    for i in range(11):
        af.link(v[i], v[i + 1])
    old = af.lf
    kept = (old.pi[1], old.ch[1], old.ts[1])
    made = []
    monkeypatch.setattr(linkforest.LinkForest, "make_node",
                        lambda self: made.append(self))
    i = 12
    while not af.reorg_log:
        af.link(v[i], v[i + 1])
        i += 2
    lf = af.lf
    assert lf is not old and lf.L == af.level == 2
    assert all(a is b for a, b in zip(kept, (lf.pi[2], lf.ch[2], lf.ts[2])))
    assert made == []
    assert lf.stage[2][v[0]] >= 1 and lf.sub[2][v[11]] is lf.sub[2][v[0]]
    check_link_invariants(lf)
    assert af.nca(v[3], v[9]) == v[3]


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
    digest covers every answer; the counters pin the work done.  Subtrees
    under 64 nodes are packed trees, which note one query per meet.
    """
    af = AdaptiveLinkForest(5000)
    digest = _merge_and_ask(af, 5000, random.Random(12))
    s = af.stats
    assert (s.eta, s.work, s.queries, s.max_query_steps) == (16386, 42774, 7851, 11)
    assert af.reorg_log == [(11649, 1, 2)]
    assert (af.n1, af.m1) == (5000, 19996)
    assert digest == "adb43d93df84d8338097f45331faab95bf1ede034e90da32c640255d1e17de59"


def _star(lf, nodes):
    for u in nodes[1:]:
        lf.link(nodes[0], u)


@pytest.mark.parametrize("case", ["pour", "rebuild", "rebuild-64"])
def test_retired_subtree_takes_its_arena(case):
    """The losing side's subtree record is freed, with its microset store.

    A pour re-adds a stage-1 tree of 4 into a stage-2 tree of 8; a
    rebuild merges two stage-1 trees of 4 into one stage-2 subtree.
    Both retire packed trees, which hold no arena.  rebuild-64 merges two
    stage-5 trees of 64, whose records are multilevel trees.
    """
    side = 64 if case == "rebuild-64" else 4
    lf = LinkForest(1, 128)
    v = [lf.make_node() for _ in range(128)]
    _star(lf, v[:side])
    _star(lf, v[side:2 * side])
    if case == "pour":
        lf.link(v[0], v[4])               # 8 >= 2 * 4: one stage-2 subtree
        _star(lf, v[8:12])
        assert lf.stage[1][v[0]] == 2 and lf.stage[1][v[8]] == 1
        x, y = v[1], v[8]
    else:
        x, y = v[1], v[side]
    S = lf.sub[1][y]
    inc = weakref.ref(S.inc)
    arena = getattr(S.inc, "arena", None)
    assert (arena is None) == (side < 64) == isinstance(S.inc, PackedTree)
    del S
    lf.link(x, y)
    gc.collect()
    assert inc() is None
    if arena is not None:
        assert lf.stage[1][v[0]] == 6
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
    assert af.lf.stage[1][v[0]] == 2      # 12 nodes: 2 * A(1, 2) <= 12 < 2 * A(1, 3)
    check_link_invariants(af.lf)
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
    check_link_invariants(af.lf)
    assert af.stats.reorgs == len(af.reorg_log)


def test_adaptive_reorgs_count_wrapper_rebuilds_only():
    """A long chain restarts its subtree's level-1 root; reorgs skips that."""
    n = 2000
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    for v in range(n - 1):
        af.link(v, v + 1)
    assert af.stats.root_renumberings > 0
    assert af.stats.reorgs == len(af.reorg_log) == 1


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

    def record(self, inc, lid):
        init(self, inc, lid)
        made.append(self)

    monkeypatch.setattr(linkforest._Sub, "__init__", record)
    n = 400
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

    def count(self, S, top, have, skip, k, sg):
        fills["pour-x" if isinstance(have, set) else
              "rebuild" if have else "pour-y"] += 1
        fill(self, S, top, have, skip, k, sg)

    monkeypatch.setattr(linkforest.LinkForest, "_fill", count)
    if level == "adaptive":
        af = AdaptiveLinkForest(n)
        make, link, forest = af.make_node, af.link, lambda: af.lf
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
