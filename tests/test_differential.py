"""Every engine against the oracle, one random op sequence at a time.

A hypothesis state machine grows one oracle forest and mirrors each op
into the grown engines (inc, inc-log2, inc-linear, and multilevel trees
of two and three levels with microsets of four nodes), which hold the
tree of vertex 0, and into the link engines (LinkForest at levels 1-3
and AdaptiveLinkForest), which hold every vertex.  A grown engine follows a
link that touches its tree: a tree hung below it arrives as add_leafs,
and a tree it is hung into arrives as add_roots up the path from the
link point, then add_leafs for the rest.  Invalid calls are mixed in:
bad ids, bools, non-root link targets, self-links and links within one
tree.  Each must raise ValueError and leave the structure, its Stats
included, exactly as it was.

Once per example a chain of DEEP fresh vertices may hang below the
grown tree.  Its depth puts a grown engine's meets many edges away from
the first wide ancestor its query reads, and gives the link engines
trees in stage 2 and above; the adaptive engine usually reorganizes on
the way.  The other growth rules keep to CAP vertices besides the chain.
The link engines keep staged subtrees of at most PackedTree.CAP nodes as
packed trees and larger ones as multilevel trees, and a packed record
that a pour fills is promoted to a multilevel one.  The chain is longer
than PackedTree.CAP, so on levels 2 and up, whose stages are wide, it
grows one record through that promotion; a derandomized run checks that
both kinds and a promotion come up.  A second derandomized run builds
every multilevel record with microsets of four nodes, so the records'
level-1 trees meet the oracle too.  A third checks that queries and
renumberings reach the level-1 tree of both mu = 4 grown engines.
"""

import dataclasses
from array import array
from collections import Counter

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, precondition, rule,
                                 run_state_machine_as_test)

from dynca import (AdaptiveLinkForest, CaTriple, Forest, IncrementalTree,
                   LinkForest, oracle_ca)
from dynca import linkforest
from dynca.microset import PackedTree
from dynca.multilevel import MultilevelInc
from dynca.traces import GROWN

CAP = 48
DEEP = PackedTree.CAP + 1

# the CLI's grown engines, and multilevel trees whose microsets of four
# fill within a few adds, so their level-1 trees see every kind of op
GROWN_HERE = {
    **GROWN,
    "inc-2-mu4": lambda n: MultilevelInc(n, levels=2, mu=4),
    "inc-3-mu4": lambda n: MultilevelInc(n, levels=3, mu=4),
}

LINKED = {
    "link-1": lambda n: LinkForest(1, n),
    "link-2": lambda n: LinkForest(2, n),
    "link-3": lambda n: LinkForest(3, n),
    "link": AdaptiveLinkForest,
}


SCALARS = {int, bool, float, str, type(None)}


def snapshot(obj, memo=None):
    """A comparable deep copy of everything reachable from obj.

    Objects met twice become references to their first visit, so shared
    state (one Stats, one arena) and cycles are compared by shape.
    """
    if memo is None:
        memo = {}
    if obj is None or isinstance(obj, (int, float, str)):
        return obj
    if isinstance(obj, array):
        return obj.typecode, obj.tobytes()
    if isinstance(obj, (set, frozenset)):
        return frozenset(obj)
    if id(obj) in memo:
        return "ref", memo[id(obj)]
    memo[id(obj)] = len(memo)
    if isinstance(obj, (list, tuple)):
        if set(map(type, obj)) <= SCALARS:   # what the loop would give, faster
            return type(obj).__name__, tuple(obj)
        return type(obj).__name__, tuple(snapshot(v, memo) for v in obj)
    if isinstance(obj, dict):
        return "dict", tuple((k, snapshot(v, memo)) for k, v in obj.items())
    if callable(obj):
        return "callable", type(obj).__name__
    names = [f.name for f in dataclasses.fields(obj)] \
        if dataclasses.is_dataclass(obj) else \
        sorted(getattr(obj, "__dict__", ())) + \
        [s for c in type(obj).__mro__ for s in getattr(c, "__slots__", ())]
    return type(obj).__name__, tuple(
        (k, snapshot(getattr(obj, k, None), memo)) for k in names)


def state(t):
    """The oracle's shape, or an engine's whole state.

    The oracle's union-find compresses paths on lookups, rejected ones
    too; that is a cache, not part of the forest.
    """
    if isinstance(t, Forest):
        return snapshot((t.parent, t.children))
    return snapshot(t)


class Differential(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.f = Forest()
        self.f.make_node()
        self.grown = {k: make(CAP + DEEP) for k, make in GROWN_HERE.items()}
        self.linked = {k: make(CAP + DEEP) for k, make in LINKED.items()}
        for t in self.linked.values():
            t.make_node()
        self.gid = {0: 0}  # vertex -> grown id, for the tree of vertex 0
        self.fid = [0]     # grown id -> vertex
        self.top = 0       # root of that tree
        self.chained = 0   # vertices the chain rule added

    # ------------------------------------------------------------ helpers

    def vertex(self, data, pool=None):
        pool = range(len(self.f)) if pool is None else pool
        return data.draw(st.sampled_from(sorted(pool)))

    def tree(self, v):
        """Members of v's tree, breadth-first from its root."""
        order = [self.f.root_of(v)]
        for u in order:
            order += self.f.children[u]
        return order

    def fresh(self):
        y = self.f.make_node()
        for t in self.linked.values():
            assert t.make_node() == y
        return y

    def grow(self, v, root=False):
        """Mirror the new tree member v into every grown engine."""
        g = len(self.fid)
        for t in self.grown.values():
            got = t.add_root() if root else t.add_leaf(self.gid[self.f.parent[v]])
            assert got == g
        self.gid[v] = g
        self.fid.append(v)

    def rejects(self, calls):
        """Each (structure, call, args) raises and changes nothing."""
        for t, call, args in calls:
            before = state(t)
            try:
                call(*args)
            except ValueError:
                pass
            else:
                raise AssertionError(f"{call.__qualname__}{args!r} did not raise")
            assert state(t) == before, f"{call.__qualname__}{args!r} changed state"

    # -------------------------------------------------------------- rules

    def hang(self, x):
        """A fresh vertex added as a leaf below x, in every structure."""
        y = self.fresh()
        self.f.add_leaf(x, y)
        for t in self.linked.values():
            t.link(x, y)
        self.grow(y)
        return y

    @precondition(lambda self: len(self.f) - self.chained < CAP)
    @rule(data=st.data())
    def add_leaf(self, data):
        self.hang(self.vertex(data, self.gid))

    @precondition(lambda self: not self.chained)
    @rule(data=st.data())
    def chain(self, data):
        x = self.vertex(data, self.gid)
        for _ in range(DEEP):
            x = self.hang(x)
        self.chained = DEEP

    @precondition(lambda self: len(self.f) - self.chained < CAP)
    @rule()
    def add_root(self):
        y = self.fresh()
        self.f.add_root(y, self.top)
        for t in self.linked.values():
            t.link(y, self.top)
        self.grow(y, root=True)
        self.top = y

    @precondition(lambda self: len(self.f) - self.chained < CAP)
    @rule()
    def make_node(self):
        self.fresh()

    @rule(data=st.data())
    def link(self, data):
        f = self.f
        roots = [v for v in range(len(f)) if f.parent[v] is None]
        if len(roots) < 2:
            return
        y = data.draw(st.sampled_from(roots))
        below = self.tree(y)
        x = self.vertex(data, set(range(len(f))) - set(below))
        above = self.tree(x)
        f.link(x, y)
        for t in self.linked.values():
            t.link(x, y)
        if x in self.gid:
            for v in below:
                self.grow(v)
        elif y == self.top:
            path = [x]
            while f.parent[path[-1]] is not None:
                path.append(f.parent[path[-1]])
            for v in path:
                self.grow(v, root=True)
            for v in above:
                if v not in self.gid:
                    self.grow(v)
            self.top = path[-1]

    @rule(data=st.data())
    def ca(self, data):
        x = self.vertex(data)
        y = self.vertex(data)
        want = oracle_ca(self.f, x, y)
        for k, t in self.linked.items():
            assert t.ca(x, y) == want, (k, x, y)
        if x in self.gid and y in self.gid:
            fid = self.fid
            for k, t in self.grown.items():
                a, ax, ay = t.ca(self.gid[x], self.gid[y])
                assert CaTriple(fid[a], fid[ax], fid[ay]) == want, (k, x, y)

    @rule(data=st.data(), bad=st.sampled_from([-1, "n", True, False, None]),
          first=st.booleans())
    def bad_id(self, data, bad, first):
        x = self.vertex(data)
        f = self.f
        b = len(f) if bad == "n" else bad
        q = (b, x) if first else (x, b)
        calls = [(f, f.link, q)]
        for t in self.linked.values():
            calls += [(t, t.ca, q), (t, t.link, q), (t, t.find_root, (b,))]
        g = self.gid[self.top]
        for t in self.grown.values():
            b = t.n if bad == "n" else bad
            calls += [(t, t.ca, (b, g) if first else (g, b)),
                      (t, t.add_leaf, (b,))]
        self.rejects(calls)

    @rule(data=st.data())
    def bad_link(self, data):
        f = self.f
        y = self.vertex(data)
        if f.parent[y] is not None:
            x = self.vertex(data)          # target is not a root
        elif data.draw(st.booleans()):
            x = y                          # self-link
        else:
            x = self.vertex(data, self.tree(y))  # within one tree
        self.rejects([(t, t.link, (x, y)) for t in self.linked.values()]
                     + [(f, f.link, (x, y))])


TestDifferential = Differential.TestCase
TestDifferential.settings = settings(max_examples=60, stateful_step_count=60,
                                     deadline=None)


def test_run_reaches_both_record_kinds(monkeypatch):
    """A fixed run of the machine builds both record kinds, promotes one,
    and restages the adaptive forest in place at least once."""
    kinds = Counter()
    init = linkforest._Sub.__init__

    def record(self, inc, *rest):
        init(self, inc, *rest)
        kinds[type(inc).__name__] += 1

    promote = linkforest.LinkForest._promote

    def promoted(self, S):
        kinds["promoted"] += 1
        return promote(self, S)

    relevel = linkforest.LinkForest.relevel

    def restaged(self, level):
        kinds["relevel"] += 1
        return relevel(self, level)

    monkeypatch.setattr(linkforest._Sub, "__init__", record)
    monkeypatch.setattr(linkforest.LinkForest, "_promote", promoted)
    monkeypatch.setattr(linkforest.LinkForest, "relevel", restaged)
    run_state_machine_as_test(Differential, settings=settings(
        max_examples=8, stateful_step_count=60, deadline=None,
        derandomize=True, database=None))
    assert kinds["PackedTree"] and kinds["MultilevelInc"], kinds
    assert kinds["promoted"], kinds
    assert kinds["relevel"], kinds


def test_small_microset_records_meet_the_oracle(monkeypatch):
    """A fixed run of the machine with every link-forest multilevel record
    built at mu = 4.

    Such a record seeds its level-1 tree after 16 nodes, so the chain's
    promoted record grows one, and the chain's singleton links promote a
    full packed record outside _fill, through the single add they make.
    """
    records = []

    def small(max_n, stats=None):
        records.append(MultilevelInc(max_n, mu=4, stats=stats))
        return records[-1]

    promotions = Counter()
    filling = [0]
    fill = linkforest.LinkForest._fill
    promote = linkforest.LinkForest._promote

    def counted_fill(self, *args):
        filling[0] += 1
        try:
            return fill(self, *args)
        finally:
            filling[0] -= 1

    def promoted(self, S):
        promotions["in _fill" if filling[0] else "outside _fill"] += 1
        return promote(self, S)

    monkeypatch.setattr(linkforest, "MultilevelInc", small)
    monkeypatch.setattr(linkforest.LinkForest, "_fill", counted_fill)
    monkeypatch.setattr(linkforest.LinkForest, "_promote", promoted)
    run_state_machine_as_test(Differential, settings=settings(
        max_examples=8, stateful_step_count=60, deadline=None,
        derandomize=True, database=None))
    assert any(t.inc is not None for t in records), len(records)
    assert promotions["outside _fill"], promotions


def test_run_reaches_the_level1_tree_of_each_small_microset_engine(monkeypatch):
    """A fixed run of the machine takes both mu = 4 grown engines down to
    their level-1 IncrementalTree: queries recurse into it through
    MultilevelInc._flat, and it renumbers through _recompress.

    The 3-level engine's level 1 holds one node per 16 vertices, so only
    the DEEP chain gives it more than its seed; the run must draw one.
    """
    machines = []
    init = Differential.__init__

    def tracked(self):
        init(self)
        machines.append(self)

    flats = Counter()
    recompressions = Counter()
    flat = MultilevelInc._flat
    recompress = IncrementalTree._recompress

    def engine(pred):
        return next((k for k, t in machines[-1].grown.items() if pred(t)), None)

    def counted_flat(self, x, y, k):
        flats[engine(lambda t: t is self)] += 1
        return flat(self, x, y, k)

    def counted_recompress(self, v):
        recompressions[engine(lambda t: getattr(t, "inc", None) is self)] += 1
        return recompress(self, v)

    monkeypatch.setattr(Differential, "__init__", tracked)
    monkeypatch.setattr(MultilevelInc, "_flat", counted_flat)
    monkeypatch.setattr(IncrementalTree, "_recompress", counted_recompress)
    run_state_machine_as_test(Differential, settings=settings(
        max_examples=8, stateful_step_count=60, deadline=None,
        derandomize=True, database=None))
    assert any(m.chained for m in machines), len(machines)
    for k in ("inc-2-mu4", "inc-3-mu4"):
        assert flats[k] and recompressions[k], (k, flats, recompressions)
