"""The traced run: spans around the calls that cross between dynca's modules.

Wrappers are installed in place, from here, on the functions at each
module boundary; the program itself carries no tracing.  Every call the
benchmark makes into dynca opens a root span with a fresh op id, and the
layer spans it causes share that id.  Spans stay in flat arrays until
the run ends.  A span's self time is its duration minus the durations of
its direct children, which nest inside it because the load is one thread.
"""

import gzip
from array import array
from time import perf_counter

GROWN = ("inc", "inc-log2", "inc-linear")
MULTI = ("inc-log2", "inc-linear")

# (metric, unit, engines); engines None means the metric is not per engine
PER_LAYER = [
    ("traces.run_overhead_us", "us", None),
    ("forest.oracle_query_us", "us", None),
    ("forest.combine_us", "us", GROWN),
    ("fat_preorder.assign_us", "us", ("static",) + GROWN),
    ("fat_preorder.max_query_steps", "count", ("static",) + GROWN),
    ("incremental.recompress_us", "us", GROWN + ("link",)),
    ("incremental.add_us", "us", GROWN + ("link",)),
    ("incremental.renumbered_per_add", "count", GROWN + ("link",)),
    ("incremental.table_entries_per_add", "count", GROWN + ("link",)),
    ("incremental.query_us", "us", GROWN + ("link",)),
    ("microset.add_us", "us", MULTI),
    ("microset.query_us", "us", MULTI),
    ("microset.calls_per_query", "count", MULTI),
    ("multilevel.attach_self_us", "us", MULTI),
    ("multilevel.query_self_us", "us", MULTI),
    ("multilevel.level1_adds_per_vertex", "count", MULTI),
    ("linkforest.find_root_us", "us", ("link",)),
    ("linkforest.find_root_per_op", "count", ("link",)),
    ("linkforest.subtree_adds_per_link", "count", ("link",)),
    ("linkforest.reorg_us", "us", ("link",)),
    ("linkforest.reorgs", "count", ("link",)),
    ("arena.cells_per_node", "count", GROWN + ("link",)),
    ("arena.copied_per_node", "count", GROWN + ("link",)),
    ("stats.note_query_per_query", "count", ("static",) + GROWN + ("link",)),
    ("numeric.floor_log_per_query", "count", ("static",) + GROWN + ("link",)),
    ("trace.overhead_s", "s", None),
]


def per_layer_names():
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for metric, unit, engines in PER_LAYER:
        if engines is None:
            out.append((metric, unit))
        else:
            out.extend((f"{e}.{metric}", unit) for e in engines)
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]   # open spans, under a sentinel parent
        self.op_engine = []   # op id -> engine name
        self.op_kind = []     # op id -> "grow", "link", "query" or "build"
        self.cur_op = -1
        self.in_query = None  # engine name while a query op runs
        self.query_calls = {}  # engine -> counted calls made inside its queries
        self._undo = []

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _spanned(self, nid, fn, flag=None):
        """fn wrapped in a span named nid; flag as in wrap()."""
        stack = self.stack
        end = self.end
        name = self.name.append
        parent = self.parent.append
        op = self.op.append
        flags = self.flag
        mark = flags.append
        start = self.start.append
        tr = self

        def spanned(*a, **k):
            before = flag(a) if flag is not None else None
            i = len(end)
            name(nid)
            parent(stack[-1])
            op(tr.cur_op)
            mark(0)
            end.append(0.0)
            stack.append(i)
            start(perf_counter())
            try:
                return fn(*a, **k)
            finally:
                end[i] = perf_counter()
                stack.pop()
                if flag is not None and flag(a) != before:
                    flags[i] = 1
        return spanned

    def op_call(self, engine, kind, fn, flag=None):
        """fn wrapped as one top-level op: a root span with a fresh op id.

        flag, when given, reads a counter off the structure; the span is
        flagged when the op changed it.
        """
        inner = self._spanned(self._id(f"op.{kind}"), fn,
                              None if flag is None else lambda a: flag())
        tr = self
        query = engine if kind == "query" else None

        def call(*a, **k):
            tr.cur_op = len(tr.op_engine)
            tr.op_engine.append(engine)
            tr.op_kind.append(kind)
            tr.in_query = query
            try:
                return inner(*a, **k)
            finally:
                tr.in_query = None
                tr.cur_op = -1
        return call

    def wrap(self, owner, attr, name, flag=None):
        """Replace owner.attr with a spanned version until uninstall().

        flag(args) reads a counter; the span is flagged when the call
        changed it.
        """
        orig = owner.__dict__[attr]
        setattr(owner, attr, self._spanned(self._id(name), orig, flag))
        self._undo.append((owner, attr, orig))

    def count(self, owner, attr):
        """Count calls to owner.attr made inside query ops, per engine."""
        orig = owner.__dict__[attr]
        tr = self
        calls = self.query_calls

        def counted(*a, **k):
            e = tr.in_query
            if e is not None:
                calls[e] = calls.get(e, 0) + 1
            return orig(*a, **k)
        setattr(owner, attr, counted)
        self._undo.append((owner, attr, orig))

    def install(self, dynca):
        """Wrap every module boundary the per-layer metrics read.

        Structures read their bound methods when they are built, so build
        them after this call.
        """
        def recompressed(a):
            return a[0].stats.recompressions

        inc = dynca.incremental.IncrementalTree
        self.wrap(inc, "add_leaf", "incremental.add", recompressed)
        self.wrap(inc, "add_root", "incremental.add", recompressed)
        self.wrap(inc, "ca", "incremental.ca")
        self.wrap(dynca.microset.Microset, "add", "microset.add")
        self.wrap(dynca.microset.Microset, "ca", "microset.ca")
        ml = dynca.multilevel.MultilevelInc
        self.wrap(ml, "add_leaf", "multilevel.add")
        self.wrap(ml, "add_root", "multilevel.add")
        self.wrap(ml, "ca", "multilevel.ca")
        self.wrap(dynca.incremental, "combine_rerooted", "forest.combine")
        self.wrap(dynca.multilevel, "combine_rerooted", "forest.combine")
        self.wrap(dynca.fat_preorder, "assign_numbers", "fat_preorder.assign")
        self.wrap(dynca.incremental, "assign_numbers", "fat_preorder.assign")
        self.wrap(dynca.linkforest.LinkForest, "find_root", "linkforest.find_root")
        self.wrap(dynca.traces, "oracle_ca", "forest.oracle")
        self.count(dynca.numeric.LogTable, "floor_log_beta")

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def totals(self):
        """Per (engine, span name): calls, inclusive and self seconds.

        Also counts, per engine, the outermost spans of each name, i.e.
        those whose parent has another name (add_root calls add_leaf).
        """
        n = len(self.end)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {}
        names = self.names
        name = self.name
        op = self.op
        flag = self.flag
        for i in range(n):
            o = op[i]
            e = self.op_engine[o] if o >= 0 else None
            nm = names[name[i]]
            p = parent[i]
            outer = p < 0 or name[p] != name[i]
            key = (e, nm)
            t = out.get(key)
            if t is None:
                t = out[key] = {"calls": 0, "incl": 0.0, "self": 0.0,
                                "outer": 0, "outer_incl": 0.0,
                                "flagged": 0, "flagged_incl": 0.0}
            t["calls"] += 1
            t["incl"] += dur[i]
            t["self"] += dur[i] - child[i]
            if outer:
                t["outer"] += 1
                t["outer_incl"] += dur[i]
                if flag[i]:
                    t["flagged"] += 1
                    t["flagged_incl"] += dur[i]
        return out

    def write(self, path):
        """Write every span as one tab-separated line, times in microseconds."""
        t0 = self.start[0] if len(self.start) else 0.0
        names = self.names
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_us\tend_us\tparent\top\tengine\tflag\n")
            for i in range(len(self.end)):
                o = self.op[i]
                fh.write(f"{i}\t{names[self.name[i]]}\t"
                         f"{(self.start[i] - t0) * 1e6:.3f}\t{(self.end[i] - t0) * 1e6:.3f}\t"
                         f"{self.parent[i]}\t{o}\t"
                         f"{self.op_engine[o] if o >= 0 else '-'}\t{self.flag[i]}\n")


def layer_metrics(tracer, engines, n, run_overhead_us, overhead_s):
    """Per-layer metrics from the traced round's spans and structures.

    engines maps an engine name to its adapter after the traced round:
    adapter.t is the final structure, adapter.ops counts its top-level
    ops by kind.  Engines the round did not run read zero.
    """
    tot = tracer.totals()
    zero = {"calls": 0, "incl": 0.0, "self": 0.0, "outer": 0, "outer_incl": 0.0,
            "flagged": 0, "flagged_incl": 0.0}

    def t(e, name):
        return tot.get((e, name), zero)

    def div(a, b):
        return a / b if b else 0.0

    oracle = t(None, "forest.oracle")
    out = {
        "traces.run_overhead_us": run_overhead_us,
        "forest.oracle_query_us": div(oracle["incl"] * 1e6, oracle["calls"]),
        "trace.overhead_s": overhead_s,
    }
    for e, ad in engines.items():
        s = ad.t.stats
        queries = ad.ops.get("query", 0)
        vertices = n * ad.ops.get("build", 1)
        links = ad.ops.get("link", 0)
        adds = t(e, "incremental.add")
        flb = tracer.query_calls.get(e, 0)
        v = {
            "forest.combine_us": div(t(e, "forest.combine")["incl"] * 1e6, queries),
            "fat_preorder.assign_us": div(t(e, "fat_preorder.assign")["incl"] * 1e6, vertices),
            "fat_preorder.max_query_steps": s.max_query_steps,
            "incremental.recompress_us": div(adds["flagged_incl"] * 1e6, n),
            "incremental.add_us": div((adds["outer_incl"] - adds["flagged_incl"]) * 1e6,
                                      adds["outer"] - adds["flagged"]),
            "incremental.renumbered_per_add": div(s.recompression_nodes, adds["outer"]),
            "incremental.table_entries_per_add": div(s.table_entries, adds["outer"]),
            "incremental.query_us": div(t(e, "incremental.ca")["incl"] * 1e6,
                                        t(e, "incremental.ca")["calls"]),
            "microset.add_us": div(t(e, "microset.add")["incl"] * 1e6, t(e, "microset.add")["calls"]),
            "microset.query_us": div(t(e, "microset.ca")["incl"] * 1e6, t(e, "microset.ca")["calls"]),
            "microset.calls_per_query": div(t(e, "microset.ca")["calls"], queries),
            "multilevel.attach_self_us": div(t(e, "multilevel.add")["self"] * 1e6, n),
            "multilevel.query_self_us": div(t(e, "multilevel.ca")["self"] * 1e6, queries),
            "multilevel.level1_adds_per_vertex": div(adds["outer"], n),
            "linkforest.find_root_us": div(t(e, "linkforest.find_root")["incl"] * 1e6,
                                           t(e, "linkforest.find_root")["calls"]),
            "linkforest.find_root_per_op": div(t(e, "linkforest.find_root")["calls"],
                                               links + queries),
            "linkforest.subtree_adds_per_link": div(_outer_in(tracer, e, "link"), links),
            "linkforest.reorg_us": div((t(e, "op.link")["flagged_incl"]
                                        + t(e, "op.query")["flagged_incl"]) * 1e6,
                                       links + queries),
            "linkforest.reorgs": len(s.reorg_log),
            "arena.cells_per_node": div(ad.t.arena.used, n) if hasattr(ad.t, "arena") else 0,
            "arena.copied_per_node": div(ad.t.arena.cells_copied, n) if hasattr(ad.t, "arena") else 0,
            "stats.note_query_per_query": div(s.queries, queries),
            "numeric.floor_log_per_query": div(flb, queries),
        }
        for metric, value in v.items():
            out[f"{e}.{metric}"] = value
    return {name: out.get(name, 0) for name, _ in per_layer_names()}


def _outer_in(tracer, engine, kind):
    """Outermost IncrementalTree adds made inside the engine's ops of one kind."""
    nid = tracer._ids.get("incremental.add")
    if nid is None:
        return 0
    count = 0
    name = tracer.name
    parent = tracer.parent
    op = tracer.op
    for i in range(len(name)):
        if name[i] != nid:
            continue
        p = parent[i]
        if p >= 0 and name[p] == nid:
            continue
        o = op[i]
        if o >= 0 and tracer.op_engine[o] == engine and tracer.op_kind[o] == kind:
            count += 1
    return count
