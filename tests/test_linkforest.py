import copy
import random

import pytest

from dynca import linkforest
from dynca import (AckermannTable, AdaptiveLinkForest, CapacityError, Forest,
                   LinkForest, a_inv, alpha, oracle_ca)


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
    ack = AckermannTable(16)
    with pytest.raises(ValueError):
        LinkForest(0, ack, 8)
    with pytest.raises(ValueError):
        LinkForest(ack.size + 1, ack, 8)


def test_make_node_capacity():
    lf = LinkForest(1, AckermannTable(8), 2)
    lf.make_node()
    lf.make_node()
    with pytest.raises(CapacityError):
        lf.make_node()


def test_link_errors():
    lf = LinkForest(1, AckermannTable(8), 8)
    a, b, c = lf.make_node(), lf.make_node(), lf.make_node()
    lf.link(a, b)
    with pytest.raises(ValueError):
        lf.link(c, b)                     # b is no longer a root
    with pytest.raises(ValueError):
        lf.link(b, a)                     # same tree
    with pytest.raises(ValueError):
        lf.ca(a, 99)


def test_cross_tree_queries_are_none():
    lf = LinkForest(1, AckermannTable(8), 8)
    a, b, c, d = (lf.make_node() for _ in range(4))
    lf.link(a, b)
    lf.link(c, d)
    assert lf.ca(a, c) is None
    assert lf.nca(b, d) is None
    assert lf.ca(a, b) == (a, a, b)


def test_two_singletons_stay_bare():
    lf = LinkForest(1, AckermannTable(8), 8)
    a, b = lf.make_node(), lf.make_node()
    lf.link(a, b)
    assert lf.stage[1][a] == 0
    assert lf.sub[1][a] is None and lf.sub[1][b] is None
    assert lf.parent(b) == a and lf.parent(a) is None
    assert lf.find_root(b) == a
    lf.check_invariants()


def test_five_node_merge_reaches_stage_one():
    lf = LinkForest(1, AckermannTable(16), 16)
    v = [lf.make_node() for _ in range(5)]
    lf.link(v[0], v[1])
    lf.link(v[1], v[2])                   # 3 nodes, still bare
    assert lf.stage[1][v[0]] == 0
    lf.link(v[0], v[3])                   # 4th node crosses the floor
    assert lf.stage[1][v[0]] == 1
    lf.link(v[3], v[4])                   # 5 nodes stay in stage 1
    assert lf.stage[1][v[0]] == 1
    assert lf.sub[1][v[4]] is lf.sub[1][v[0]]
    lf.check_invariants()
    assert lf.ca(v[2], v[4]) == (v[0], v[1], v[3])


def test_absorb_into_higher_stage():
    # stage 1 tree takes a bare 2-node tree without a rebuild
    lf = LinkForest(1, AckermannTable(32), 32)
    v = [lf.make_node() for _ in range(6)]
    for i in range(3):
        lf.link(v[0], v[i + 1])
    assert lf.stage[1][v[0]] == 1
    S = lf.sub[1][v[0]]
    lf.link(v[4], v[5])
    lf.link(v[2], v[4])                   # 6 < 8: absorbed, same subtree
    assert lf.stage[1][v[0]] == 1
    assert lf.sub[1][v[5]] is S
    lf.check_invariants()
    assert lf.nca(v[5], v[3]) == v[0]


def test_pour_lower_stage_root_path():
    # x's side is bare, y's side is staged: x's root path joins by re-rooting
    lf = LinkForest(1, AckermannTable(32), 32)
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
    lf.check_invariants()
    assert lf.ca(v[5], v[1]) == (v[5], v[5], v[6])
    assert lf.nca(v[4], v[3]) == v[4]


def test_equal_stage_merge_recurses_below():
    lf = LinkForest(2, AckermannTable(64), 64)
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
    lf.check_invariants()
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
    lf = LinkForest(level, AckermannTable(2 * n), n)
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()
    _random_links(lf, f, rng, n, skew)
    lf.check_invariants()
    for _ in range(4000):
        x = rng.randrange(n)
        y = rng.randrange(n)
        assert lf.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_invariants_and_eta_after_every_link(rng):
    n = 400
    lf = LinkForest(1, AckermannTable(2 * n), n)
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
        lf.check_invariants()
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
    assert (af.m1, af.n1, af.ops, af.level) == (0, 0, 0, 0)
    af.link(v[0], v[1])
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
    assert af.lf is None and (af.ops, af.m1, af.n1) == (0, 0, 0)
    af.link(0, 1)

    def state():
        return (af.ops, af.m1, af.n1, list(af.counted), list(af.reorg_log),
                copy.deepcopy(af.stats))

    before = state()
    for x, y in ((1, 0), (0, 1), (3, 1)):
        with pytest.raises(ValueError):
            af.link(x, y)
    assert state() == before


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
    af.lf.check_invariants()


def test_adaptive_table_extends_inside_period():
    # a chain kept at level 1 outgrows the table opened for two nodes;
    # the ceiling lookup recomputes the table without a reorganization
    af = AdaptiveLinkForest(16)
    v = [af.make_node() for _ in range(12)]
    for i in range(11):
        af.link(v[i], v[i + 1])
    assert af.level == 1
    assert af.reorg_log == []
    assert af.lf.ack.n >= 12
    af.lf.check_invariants()
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
    af.lf.check_invariants()


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
    lf = LinkForest(level, AckermannTable(2 * n), n)
    f = Forest()
    for _ in range(n):
        lf.make_node()
        f.make_node()

    def link(x, y):
        lf.link(x, y)
        f.link(x, y)
        lf.check_invariants()
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

    def record(self, inc):
        init(self, inc)
        made.append(self)

    monkeypatch.setattr(linkforest._Sub, "__init__", record)
    n = 400
    lf = LinkForest(1, AckermannTable(2 * n), n)
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
