import random

import pytest
from hypothesis import given, settings, strategies as st

from dynca import (DYNAMIC_PARAMS, CapacityError, Forest, IncrementalTree,
                   StaticCa, oracle_ca)
from dynca.fat_preorder import shared_log_table

from _checks import (check_fat_order, children, guards, naive_table_entry,
                     shared_rows_ok, table_entry)


def test_first_node_frozen_numbers():
    t = IncrementalTree(16)
    assert guards(t, 0) == (0, 1, 4, 5)
    assert t.Qbar[0] == 2
    assert t.n == 1 and t.root == 0 and t.varrho == 0
    assert t.stats.eta == 1


def test_root_reorganizes_on_first_child():
    t = IncrementalTree(16)
    y = t.add_leaf(0)
    assert y == 1
    assert t.sigma[0] == 2  # weight refreshed by the recompression
    assert t.stats.recompressions == 1
    assert t.stats.root_renumberings == 1  # the root's own interval moved
    assert t.stats.eta == 2
    check_fat_order(t, range(t.n), 0, DYNAMIC_PARAMS, incremental=True)


def test_fast_path_carves_from_packing_zone():
    # with alpha = 6/5 a star recompresses on every add until sigma reaches 6,
    # so the sixth attachment is the first one that stays on the fast path
    t = IncrementalTree(64)
    for _ in range(5):
        t.add_leaf(0)
    base = t.stats.recompressions
    before = t.Qbar[0]
    y = t.add_leaf(0)  # 5*7 < 6*6, no drift
    assert t.stats.recompressions == base
    assert guards(t, y) == (before, before + 1, before + 4, before + 5)
    assert t.Qbar[0] == before + t.params.c


def test_sweep_random_growth(rng):
    """All numbering invariants after every one of 300 random attachments."""
    t = IncrementalTree(400)
    for _ in range(299):
        t.add_leaf(rng.randrange(t.n))
        check_fat_order(t, range(t.n), 0, DYNAMIC_PARAMS, incremental=True)


def test_differential_add_leaf(rng):
    f = Forest()
    f.make_node()
    t = IncrementalTree(600)
    for _ in range(499):
        x = rng.randrange(t.n)
        y = f.make_node()
        f.add_leaf(x, y)
        assert t.add_leaf(x) == y
    for _ in range(4000):
        x = rng.randrange(500)
        y = rng.randrange(500)
        assert t.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_rows_match_naive_scan(rng):
    """Every ancestor row entry after every op, against the path walk.

    Entries are read through the sharing rule: only the stored root and
    apexes with children own rows.
    """
    params = DYNAMIC_PARAMS
    cm2 = params.c - 2
    e = params.e
    t = IncrementalTree(320)
    for _ in range(299):
        if rng.random() < 0.2:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(t.n))
        for x in range(t.n):
            assert t.iq[x] == t._flb(cm2 * t.sigma[x] ** e) + 1
            for i in range(len(t.tab[x])):
                assert table_entry(t, x, i, 0) == \
                    naive_table_entry(t, x, i, params.beta, cm2, e), (x, i)
        shared_rows_ok(t, range(t.n), 0)
        assert sum(t.renum) == t.stats.recompression_nodes


def test_first_child_of_apex_leaf_gets_a_row(rng):
    """An apex leaf's first child renumbers it, so no row is read unowned.

    The leaf shares its compressed parent's row until then.  With weight
    1, a child always drifts it past the alpha slack; the renumbering
    either keeps it an apex, now with a row of its own, or puts it on a
    heavy path, and the child reads the row of the apex above.
    """
    t = IncrementalTree(400)
    for _ in range(150):
        t.add_leaf(rng.randrange(t.n))
    leaves = [x for x in range(1, t.n) if t.pos[x] == 0 and not children(t, x)]
    assert len(leaves) >= 20
    kept = 0
    for x in leaves:
        assert t.tab[x] is t.tab[t.piD[x]]
        before = t.stats.recompressions
        y = t.add_leaf(x)
        assert t.stats.recompressions == before + 1
        d = t.piD[y]
        assert d == (x if t.pos[x] == 0 else t.piD[x])
        kept += d == x
        shared_rows_ok(t, range(t.n), 0)
        for i in range(len(t.tab[y])):
            assert table_entry(t, y, i, 0) == naive_table_entry(
                t, y, i, t.params.beta, t.params.c - 2, t.params.e)
    assert kept >= 10


def test_root_recompression_matches_static():
    """A renumbering from the root is the frozen build of the stored tree."""
    rng = random.Random(3)
    f = Forest()
    f.make_node()
    t = IncrementalTree(3001)
    seen = 0
    for _ in range(3000):
        x = rng.randrange(t.n)
        f.add_leaf(x, f.make_node())
        restarts = t.stats.root_renumberings
        t.add_leaf(x)
        if t.stats.root_renumberings == restarts:
            continue
        seen += 1
        sca = StaticCa(f, DYNAMIC_PARAMS)
        for name in ("p", "q", "Qbar", "piD", "sigma", "succ", "pos", "iq"):
            assert getattr(t, name) == getattr(sca, name), (t.n, name)
        assert [list(r) for r in t.tab] == [list(r) for r in sca.tab], t.n
    assert seen >= 30


def test_capacity_beyond_32_bit_ids(rng):
    """A capacity of 2^31 takes 64-bit rows and grows like any other tree."""
    assert IncrementalTree(2 ** 31 - 1).tab[0].typecode == "i"
    f = Forest()
    f.make_node()
    t = IncrementalTree(2 ** 31)
    assert t.tab[0].typecode == "q"
    root = 0
    for _ in range(79):
        if rng.random() < 0.25:
            y = f.make_node()
            f.add_root(y, root)
            root = y
            assert t.add_root() == y
        else:
            x = rng.randrange(t.n)
            y = f.make_node()
            f.add_leaf(x, y)
            assert t.add_leaf(x) == y
    for x in range(t.n):
        for y in range(t.n):
            assert t.ca(x, y) == oracle_ca(f, x, y), (x, y)


def _grow_against_oracle(t, n, rng, queries):
    """Grow t to n vertices beside a Forest, one add_root in 64, then ask."""
    f = Forest()
    f.make_node()
    root = 0
    while t.n < n:
        if rng.random() < 1 / 64:
            y = f.make_node()
            f.add_root(y, root)
            root = y
            assert t.add_root() == y
        else:
            x = rng.randrange(t.n)
            y = f.make_node()
            f.add_leaf(x, y)
            assert t.add_leaf(x) == y
    c, e = DYNAMIC_PARAMS.c, DYNAMIC_PARAMS.e
    for name in ("p", "q", "Qbar"):
        assert max(getattr(t, name)) < c * t.max_n ** e, name
    for _ in range(queries):
        x = rng.randrange(n)
        y = rng.randrange(n)
        assert t.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_fat_numbers_in_64_bit_cells_up_to_their_bound():
    """c * max_n^e fits an unsigned 64-bit cell up to max_n = 43,826."""
    c, e = DYNAMIC_PARAMS.c, DYNAMIC_PARAMS.e
    assert c * 43_826 ** e <= 2 ** 64 < c * 43_827 ** e
    at = IncrementalTree(43_826)
    above = IncrementalTree(43_827)
    for name in ("p", "q", "Qbar"):
        assert getattr(at, name).typecode == "Q", name
        assert type(getattr(above, name)) is list, name
    f = Forest()
    f.add_leaf(f.make_node(), f.make_node())
    assert StaticCa(f).p.typecode == "Q"


def test_growth_to_2_15_in_64_bit_cells(rng):
    t = IncrementalTree(1 << 15)
    assert t.p.typecode == "Q"
    _grow_against_oracle(t, 1 << 15, rng, 2000)
    # the root last renumbered at weight above 2^15 / alpha, so its
    # interval ends past 4 * 27,000^4: the cells' high bits are in use
    assert max(t.q) >= 2 ** 60


def test_growth_in_list_cells(rng):
    t = IncrementalTree(1 << 20)
    assert type(t.p) is list
    _grow_against_oracle(t, 600, rng, 2000)


def test_add_root_chain():
    t = IncrementalTree(32)
    ys = [t.add_root() for _ in range(5)]
    assert t.varrho == ys[-1]
    # stored shape is a chain under the old root; logically each y is on top
    for x in range(t.n):
        assert t.ca(ys[-1], x).a == ys[-1]
    # the stored parent of each added root is the previous root handle
    assert t.piT[ys[0]] == 0
    for a, b in zip(ys, ys[1:]):
        assert t.piT[b] == a


def test_differential_interleaved_roots(rng):
    """add_leaf/add_root mix equals the oracle on the physically rerooted tree."""
    f = Forest()
    f.make_node()
    t = IncrementalTree(300)
    root = 0
    for _ in range(199):
        if rng.random() < 0.3:
            y = f.make_node()
            f.add_root(y, root)
            root = y
            assert t.add_root() == y
        else:
            x = rng.randrange(t.n)
            y = f.make_node()
            f.add_leaf(x, y)
            assert t.add_leaf(x) == y
        check_fat_order(t, range(t.n), 0, DYNAMIC_PARAMS, incremental=True)
    for _ in range(3000):
        x = rng.randrange(200)
        y = rng.randrange(200)
        assert t.ca(x, y) == oracle_ca(f, x, y), (x, y)


def test_ca_after_one_add_root(rng):
    t = IncrementalTree(64)
    for _ in range(20):
        t.add_leaf(rng.randrange(t.n))
    y = t.add_root()
    for x in range(t.n):
        assert t.ca(y, x).a == y
        assert t.nca(x, y) == y


def test_per_node_reorganization_bound(rng):
    n = 1 << 10
    t = IncrementalTree(n)
    for _ in range(n - 1):
        t.add_leaf(rng.randrange(t.n))
    params = t.params
    lt = shared_log_table(params.beta, params.c * n ** params.e)
    bound = lt.floor_log_beta(params.c * n ** params.e) + 1
    assert max(t.renum) <= bound
    # and the counters stay coherent
    assert t.stats.recompression_nodes == sum(t.renum)


def test_add_leaf_work_recounted(rng):
    """Each add_leaf adds to work the compressed walk, plus a recompression's writes.

    The walk reads the new leaf and then each compressed ancestor, which
    before the add are x when x is an apex and piD[x] otherwise, and
    their own piD chain.  A recompression adds the rows and nodes it
    wrote, the deltas of table_entries and recompression_nodes.
    """
    for shape in ("uniform", "deep", "star"):
        n = 600
        t = IncrementalTree(n)
        st = t.stats
        recompressed = 0
        for v in range(1, n):
            x = {"uniform": rng.randrange(v), "deep": max(0, v - rng.randint(1, 4)),
                 "star": 0}[shape]
            chain = []
            u = x if t.pos[x] == 0 else t.piD[x]
            while u is not None:
                chain.append(u)
                u = t.piD[u]
            work, rec = st.work, st.recompressions
            entries, renumbered = st.table_entries, st.recompression_nodes
            t.add_leaf(x)
            want = 1 + len(chain)
            if st.recompressions != rec:
                want += st.table_entries - entries + st.recompression_nodes - renumbered
                recompressed += 1
            assert st.work - work == want, (shape, v, x)
        assert 0 < recompressed < n - 1, shape


def test_capacity_error():
    t = IncrementalTree(4)
    for _ in range(3):
        t.add_leaf(0)
    with pytest.raises(CapacityError):
        t.add_leaf(0)


def test_query_counter_budget(rng):
    t = IncrementalTree(600)
    for _ in range(399):
        t.add_leaf(rng.randrange(t.n))
    for _ in range(50):
        t.add_root()
    for _ in range(3000):
        t.ca(rng.randrange(t.n), rng.randrange(t.n))
    # a rerooted ca makes at most one stored query, within the fixed budget
    assert t.stats.max_query_steps <= 12


def test_identity_and_errors():
    t = IncrementalTree(8)
    t.add_leaf(0)
    assert t.ca(1, 1) == (1, 1, 1)
    with pytest.raises(ValueError):
        t.ca(0, 7)
    with pytest.raises(ValueError):
        t.add_leaf(5)


def test_children_listing(rng):
    t = IncrementalTree(64)
    want = {0: []}
    for _ in range(40):
        x = rng.randrange(t.n)
        y = t.add_leaf(x)
        want[x].append(y)
        want[y] = []
    for u in range(t.n):
        assert children(t, u) == want[u]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=120),
       st.floats(min_value=0.0, max_value=0.4))
def test_incremental_property_mixed(seed, n, root_rate):
    r = random.Random(seed)
    f = Forest()
    f.make_node()
    t = IncrementalTree(n + 1)
    root = 0
    for _ in range(n - 1):
        if r.random() < root_rate:
            y = f.make_node()
            f.add_root(y, root)
            root = y
            t.add_root()
        else:
            x = r.randrange(t.n)
            y = f.make_node()
            f.add_leaf(x, y)
            t.add_leaf(x)
    check_fat_order(t, range(t.n), 0, DYNAMIC_PARAMS, incremental=True)
    for _ in range(60):
        x = r.randrange(n)
        y = r.randrange(n)
        assert t.ca(x, y) == oracle_ca(f, x, y)
