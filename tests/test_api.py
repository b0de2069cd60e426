import dataclasses
import functools
import importlib.util
import random
from pathlib import Path
from types import SimpleNamespace

import pytest

import dynca
from dynca import (AdaptiveLinkForest, CapacityError, Forest, IncrementalTree,
                   LinkForest, MultilevelInc, StaticCa, edmonds_tree,
                   linear_tree, oracle_ca)
from dynca.microset import PackedTree
from dynca.traces import GROWN

from _checks import check_link_invariants


def test_public_names_resolve():
    for name in dynca.__all__:
        assert hasattr(dynca, name), name
    ns = {}
    exec("from dynca import *", ns)
    assert set(dynca.__all__) <= set(ns)


def test_tracer_wraps_resolve():
    """Every name the benchmark's tracer wraps is bound where it looks.

    The tracer replaces module and class attributes in place, so a name
    that moves or goes unbound breaks the traced run, not the engines.
    """
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    if not path.is_file():
        pytest.skip("no bench/tracing.py beside the tests")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(dynca)  # reads owner.__dict__[name] for each wrap
        wrapped = {(owner.__name__, name) for owner, name, _ in tracer._undo}
    finally:
        tracer.uninstall()
    assert ("dynca.incremental", "assign_numbers") in wrapped
    assert ("dynca.incremental", "combine_rerooted") in wrapped
    assert dynca.incremental.assign_numbers is dynca.fat_preorder.assign_numbers


def _forest():
    f = Forest()
    f.make_node()
    f.add_leaf(0, f.make_node())
    return f


def _oracle():
    f = _forest()

    def ca(x, y):
        return oracle_ca(f, x, y)
    return SimpleNamespace(ca=ca, nca=lambda x, y: ca(x, y).a)


def _grown(make):
    t = make(8)
    t.add_leaf(0)
    return t


def _linked(t, singletons=0):
    t.make_node()
    t.make_node()
    t.link(0, 1)
    for _ in range(singletons):
        t.make_node()
    return t


ENGINES = {
    "oracle": _oracle,
    "static": lambda: StaticCa(_forest()),
    "inc": lambda: _grown(IncrementalTree),
    "inc-log2": lambda: _grown(edmonds_tree),
    "inc-linear": lambda: _grown(linear_tree),
    "link-fixed": lambda: _linked(LinkForest(1, 8)),
    "link": lambda: _linked(AdaptiveLinkForest(8)),
}


class Id(int):
    pass


@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_bool_ids_rejected(engine):
    t = ENGINES[engine]()
    for query in (t.ca, t.nca):
        with pytest.raises(ValueError):
            query(True, 1)
        with pytest.raises(ValueError):
            query(0, False)
    # other int subclasses stay valid ids
    assert t.ca(Id(1), Id(0)) == t.ca(1, 0) == (0, 1, 0)
    assert t.nca(Id(1), Id(0)) == t.nca(1, 0) == t.ca(1, 0).a == 0


def test_one_checked_entry():
    """Every fast engine answers through the same ca, nca and n."""
    hosts = (IncrementalTree, MultilevelInc, StaticCa, LinkForest,
             AdaptiveLinkForest)
    for name in ("ca", "nca", "n"):
        assert len({getattr(h, name) for h in hosts}) == 1, name


def _two_trees():
    """Forest of two trees, 0-1 and the singleton 2."""
    f = _forest()
    f.make_node()
    return f


ACROSS = {
    "static": lambda: StaticCa(_two_trees()),
    "link-fixed": lambda: _linked(LinkForest(1, 8), singletons=1),
    "link": lambda: _linked(AdaptiveLinkForest(8), singletons=1),
}


@pytest.mark.parametrize("engine", sorted(ACROSS))
def test_nca_none_across_trees(engine):
    """nca is ca's meet within a tree and None across trees."""
    t = ACROSS[engine]()
    for x, y in ((1, 0), (0, 1), (1, 1)):
        assert t.nca(x, y) == t.ca(x, y).a
    for x, y in ((1, 2), (2, 0)):
        assert t.ca(x, y) is None
        assert t.nca(x, y) is None
    assert t.nca(2, 2) == 2


@pytest.mark.parametrize("make", [
    IncrementalTree, MultilevelInc, edmonds_tree, linear_tree,
    pytest.param(functools.partial(LinkForest, 1), id="LinkForest"),
    AdaptiveLinkForest])
def test_capacity_below_one_rejected(make):
    """A grown tree holds node 0 from the start, a link forest makes it."""
    for bad in (0, -1):
        with pytest.raises(ValueError, match="capacity"):
            make(bad)
    t = make(1)
    if isinstance(t, LinkForest):
        t.make_node()
    assert t.n == 1


@pytest.mark.parametrize("engine", sorted(GROWN))
def test_rejected_call_changes_nothing(engine):
    """A raising ca, add_leaf or add_root leaves stats, n and root as they were."""
    rng = random.Random(5)
    t = GROWN[engine](24)
    while t.n < 12:
        if rng.random() < 0.3:
            t.add_root()
        else:
            t.add_leaf(rng.randrange(t.n))

    def rejects(exc, call, *args):
        before = (dataclasses.replace(t.stats), t.n, t.root)
        with pytest.raises(exc):
            call(*args)
        assert (t.stats, t.n, t.root) == before

    for bad in (-1, t.n, True, None):
        rejects(ValueError, t.ca, bad, 0)
        rejects(ValueError, t.ca, 0, bad)
        rejects(ValueError, t.add_leaf, bad)
    while t.n < 24:
        t.add_leaf(rng.randrange(t.n))
    rejects(CapacityError, t.add_leaf, 0)
    rejects(CapacityError, t.add_root)
    assert t.ca(0, t.root).a == t.root


def test_rejected_static_call_changes_nothing():
    """A raising ca or nca on a frozen forest leaves its stats as they were."""
    rng = random.Random(3)
    f = Forest()
    for v in range(30):
        f.make_node()
        if v % 10:
            f.add_leaf(rng.randrange(v - v % 10, v), v)
    t = StaticCa(f)
    assert t.n == 30
    for x, y in ((3, 7), (12, 18), (25, 25), (4, 14)):
        t.nca(x, y)
    assert t.stats.queries == 3

    for bad in (-1, t.n, True, None):
        for call, args in ((t.ca, (bad, 0)), (t.ca, (0, bad)),
                           (t.nca, (bad, 0)), (t.nca, (0, bad))):
            before = dataclasses.replace(t.stats)
            with pytest.raises(ValueError):
                call(*args)
            assert t.stats == before
    assert t.ca(3, 7) == oracle_ca(f, 3, 7)


LINKED = {
    "link-1": lambda n: LinkForest(1, n),
    "link-2": lambda n: LinkForest(2, n),
    "link-3": lambda n: LinkForest(3, n),
    "link": AdaptiveLinkForest,
}


@pytest.mark.parametrize("engine", sorted(LINKED))
def test_rejected_link_call_changes_nothing(engine):
    """A raising ca, link, find_root or make_node leaves the forest as it was.

    The links before it retire replaced subtrees, so the free lists are
    in play; a rejected call must not touch them, nor the rows or stats.
    """
    rng = random.Random(9)
    n = 240
    t = LINKED[engine](n)
    for _ in range(n):
        t.make_node()
    members = {v: [v] for v in range(n)}
    while len(members) > 3:
        r, y = rng.sample(sorted(members), 2)
        t.link(rng.choice(members[r]), y)
        members[r] += members.pop(y)
    if t.L > 1:
        assert any(t.free.values())
    a, b = sorted(members)[:2]
    child = next(v for v in members[a] if v != a)

    def rejects(exc, call, *args):
        sub = t.sub

        def state():
            return (dataclasses.replace(t.stats), list(t.stats.reorg_log),
                    t.n, t.sub is sub, t.L,
                    {k: len(p) for k, p in t.pi.items()},
                    {k: list(f) for k, f in t.free.items()})
        before = state()
        with pytest.raises(exc):
            call(*args)
        assert state() == before

    for bad in (-1, n, True, None):
        rejects(ValueError, t.ca, bad, a)
        rejects(ValueError, t.ca, a, bad)
        rejects(ValueError, t.link, bad, b)
        rejects(ValueError, t.link, a, bad)
        rejects(ValueError, t.find_root, bad)
    rejects(ValueError, t.link, b, child)      # target is not a root
    rejects(ValueError, t.link, b, b)          # self-link
    rejects(ValueError, t.link, child, a)      # within one tree
    rejects(CapacityError, t.make_node)
    assert t.find_root(child) == a
    t.link(child, b)
    check_link_invariants(t)


def _three_trees(rng, n):
    f = Forest()
    for v in range(n):
        f.make_node()
        if v % (n // 3):
            f.add_leaf(rng.randrange(v - v % (n // 3), v), v)
    return StaticCa(f)


def _grown_with_roots(t, rng, n):
    """Grow t to n nodes, one op in four an add_root."""
    for v in range(1, n):
        if rng.randrange(4):
            t.add_leaf(rng.randrange(v))
        else:
            t.add_root()
    return t


def _random_links(t, rng, n):
    """Link n fresh nodes by random root-under-vertex links into 8 trees."""
    for _ in range(n):
        t.make_node()
    members = {v: [v] for v in range(n)}
    while len(members) > 8:
        r, y = rng.sample(sorted(members), 2)
        t.link(rng.choice(members[r]), y)
        members[r] += members.pop(y)
    return t


COUNTED = {
    "static": lambda rng: _three_trees(rng, 600),
    "inc": lambda rng: _grown_with_roots(IncrementalTree(600), rng, 600),
    "inc-log2": lambda rng: _grown_with_roots(edmonds_tree(600), rng, 600),
    "inc-linear": lambda rng: _grown_with_roots(linear_tree(600), rng, 600),
    "link-fixed": lambda rng: _random_links(LinkForest(2, 600), rng, 600),
    "link": lambda rng: _random_links(AdaptiveLinkForest(600), rng, 600),
    "packed": lambda rng: _grown_with_roots(PackedTree(), rng, PackedTree.CAP),
}


@pytest.mark.parametrize("engine", sorted(COUNTED))
def test_one_query_per_answered_query(engine):
    """stats.queries counts each ca or nca that answers, x == y included,
    once; a query across trees counts nothing, whatever meets ran."""
    rng = random.Random(11)
    t = COUNTED[engine](rng)
    assert t.stats.queries == 0
    answered = 0
    for i in range(2000):
        x = rng.randrange(t.n)
        y = x if i % 8 == 0 else rng.randrange(t.n)
        answered += (t.ca if i % 2 else t.nca)(x, y) is not None
    assert t.stats.queries == answered
    # the forests of several trees see pairs across them
    assert (answered < 2000) == (engine in ("static", "link-fixed", "link"))
