"""Trace format, generators, engine adapters, and the differential runner.

A trace is a line-oriented op list over externally chosen integer ids;
parsing maps them to dense internal ids in declaration order and checks
every operand against the declared universe.  Engines wrap the package's
structures behind one replay interface.  The runner replays the whole
trace on each engine in turn, then holds every engine's answers to a
baseline's: the oracle's, or else the first engine's (and, when asked,
the baseline to the answers pinned in the trace).  A failing run's
reproduction is the trace through the first wrong answer.  Generators
produce the six workload shapes of PROFILES that the test suite leans
on, deterministically per seed.
"""

import re
import time
from dataclasses import dataclass, fields
from typing import NamedTuple, Optional

from .errors import ConfigError, TraceParseError
from .fat_preorder import StaticCa
from .forest import Forest, oracle_ca
from .incremental import IncrementalTree
from .linkforest import AdaptiveLinkForest
from .multilevel import MultilevelInc, edmonds_tree, linear_tree
from .stats import Stats

# The trace grammar: each op's operands in order, "+" declaring a fresh id
# and "=" naming a declared one.  A query may then pin its answer after an
# "=": none, or its ANSWER_IDS ids (nca's a; ca's a, ax and ay).
OPERANDS = {"make_node": "+", "add_leaf": "=+", "add_root": "+",
            "link": "==", "nca": "==", "ca": "=="}
ANSWER_IDS = {"nca": (1, "one id"), "ca": (3, "three ids")}
QUERIES = tuple(ANSWER_IDS)
STRUCTURAL = tuple(k for k in OPERANDS if k not in ANSWER_IDS)


class TraceOp(NamedTuple):
    kind: str
    a: Optional[int]
    b: Optional[int]
    expected: object  # None, "none", int (nca), or (a, ax, ay) for ca
    line: int


class Trace(list):
    """Ops with dense ids, plus the dense-to-external id map."""

    __slots__ = ("ext",)

    def __init__(self, ops=(), ext=None):
        super().__init__(ops)
        self.ext = list(ext) if ext is not None else []

    @property
    def n_nodes(self):
        return len(self.ext)

    def prefix(self, k):
        return Trace(list.__getitem__(self, slice(0, k)), self.ext)


def parse_trace(text):
    """Parse trace text into a Trace; raise TraceParseError with location."""
    ext2d = {}
    ext = []
    ops = []

    def ident(tok, line, col, fresh):
        """The dense id of tok, ASCII digits after an optional "-": a fresh
        declaration, or a declared id."""
        if not re.fullmatch(r"-?[0-9]+", tok):
            raise TraceParseError(f"expected an integer id, got {tok!r}", line, col)
        v = int(tok)
        d = ext2d.get(v)
        if fresh:
            if d is not None:
                raise TraceParseError(f"duplicate node id {v}", line, col)
            d = ext2d[v] = len(ext)
            ext.append(v)
        elif d is None:
            raise TraceParseError(f"undeclared node id {v}", line, col)
        return d

    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        toks = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", body)]
        if not toks:
            continue
        kind, kcol = toks[0]
        spec = OPERANDS.get(kind)
        if spec is None:
            raise TraceParseError(f"unknown op {kind!r}", ln, kcol)
        k = len(spec)
        args, rest = toks[1:k + 1], toks[k + 1:]
        if len(args) < k or (rest and kind not in ANSWER_IDS):
            raise TraceParseError(
                f"{kind} takes {k} operand{'s' if k != 1 else ''}, got {len(toks) - 1}",
                ln, rest[0][1] if rest else kcol)
        if kind == "add_root" and not ext:
            raise TraceParseError("add_root before any node exists", ln, kcol)
        ids = [ident(tok, ln, col, c == "+") for (tok, col), c in zip(args, spec)]
        ids += [None] * (2 - k)
        expected = None
        if rest:
            eq, ecol = rest[0]
            if eq != "=":
                raise TraceParseError("expected '=' before the answer", ln, ecol)
            vals = rest[1:]
            width, words = ANSWER_IDS[kind]
            if len(vals) == 1 and vals[0][0] == "none":
                expected = "none"
            elif len(vals) == width:
                ans = [ident(tok, ln, col, False) for tok, col in vals]
                expected = ans[0] if width == 1 else tuple(ans)
            else:
                raise TraceParseError(f"{kind} answer is {words} or none", ln, ecol)
        ops.append(TraceOp(kind, *ids, expected, ln))
    return Trace(ops, ext)


def extern_answer(trace, ans):
    """Map a query answer from dense ids back to the trace's external ids."""
    if isinstance(ans, int):
        return trace.ext[ans]
    if isinstance(ans, tuple):
        return tuple(trace.ext[v] for v in ans)
    return ans


def pin_text(trace, ans):
    """A query answer as a trace pins it after "=": none, or its external ids."""
    ans = extern_answer(trace, ans)
    if ans is None or ans == "none":
        return "none"
    return " ".join(map(str, ans if isinstance(ans, tuple) else (ans,)))


def format_trace(trace):
    """Serialize a Trace back to text, external ids restored."""
    ext = trace.ext
    out = []
    for op in trace:
        words = [op.kind] + [ext[v] for v in (op.a, op.b)[:len(OPERANDS[op.kind])]]
        if op.expected is not None:
            words += ["=", pin_text(trace, op.expected)]
        out.append(" ".join(map(str, words)))
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------- engines


class _Engine:
    """Replay interface: structural ops mutate, queries return a CaTriple or None."""

    ops = frozenset()
    t = None  # the engine's structure, once it has one

    def __init__(self, name, max_n):
        self.name = name
        self.max_n = max_n
        self.stats = Stats()

    def precheck(self, trace):
        for op in trace:
            if op.kind not in self.ops:
                raise ConfigError(
                    f"engine {self.name} does not support {op.kind}"
                    + (" (express growth as link)" if op.kind in ("add_leaf", "add_root") else ""))

    def apply(self, op):
        raise NotImplementedError

    @property
    def arena_cells(self):
        # the leveled grown engines store their microsets on an arena
        arena = getattr(self.t, "arena", None)
        return arena.used if arena is not None else 0


class OracleEngine(_Engine):
    """Brute-force baseline: parent walks on a plain forest."""

    ops = frozenset(STRUCTURAL + QUERIES)

    def __init__(self, name, max_n):
        super().__init__(name, max_n)
        self.f = Forest()
        self.root = None  # current root of the (single) grown tree

    def apply(self, op):
        f = self.f
        k = op.kind
        if k == "make_node":
            v = f.make_node()
            if self.root is None:
                self.root = v
        elif k == "add_leaf":
            v = f.make_node()
            f.add_leaf(op.a, v)
        elif k == "add_root":
            v = f.make_node()
            f.add_root(v, f.root_of(self.root))
            self.root = v
        elif k == "link":
            f.link(op.a, op.b)
        else:
            return oracle_ca(f, op.a, op.b)


class StaticEngine(OracleEngine):
    """Grows the oracle's forest; the first query freezes it into a StaticCa."""

    ops = frozenset(("make_node", "add_leaf", "add_root", "nca", "ca"))

    def precheck(self, trace):
        super().precheck(trace)
        seen_query = False
        for op in trace:
            if op.kind in QUERIES:
                seen_query = True
            elif seen_query:
                raise ConfigError(
                    "engine static cannot mutate after its first query")

    def apply(self, op):
        if op.kind not in QUERIES:
            return super().apply(op)
        if self.t is None:
            self.t = StaticCa(self.f, stats=self.stats)
        return self.t.ca(op.a, op.b)


GROWN = {"inc": IncrementalTree, "inc-log2": edmonds_tree,
         "inc-linear": linear_tree}


class GrowEngine(_Engine):
    """Single grown tree: make_node once, then add_leaf / add_root / queries."""

    ops = frozenset(("make_node", "add_leaf", "add_root", "nca", "ca"))

    def precheck(self, trace):
        super().precheck(trace)
        if trace and trace[0].kind != "make_node":
            raise ConfigError(f"engine {self.name} needs make_node first")
        if sum(op.kind == "make_node" for op in trace) > 1:
            raise ConfigError(f"engine {self.name} holds a single tree")

    def apply(self, op):
        k = op.kind
        if k == "make_node":
            self.t = GROWN[self.name](self.max_n, stats=self.stats)
        elif k == "add_leaf":
            v = self.t.add_leaf(op.a)
            assert v == op.b
        elif k == "add_root":
            v = self.t.add_root()
            assert v == op.a
        else:
            return self.t.ca(op.a, op.b)


class LinkEngine(_Engine):
    """The adaptive link forest."""

    ops = frozenset(("make_node", "link", "nca", "ca"))

    def __init__(self, name, max_n):
        super().__init__(name, max_n)
        self.t = AdaptiveLinkForest(max_n, stats=self.stats)

    @property
    def arena_cells(self):
        # each live multilevel subtree record stores its microsets on an arena
        live = {S for subs in self.t.sub.values() for S in subs if S is not None}
        return sum(S.inc.arena.used for S in live
                   if isinstance(S.inc, MultilevelInc))

    def apply(self, op):
        k = op.kind
        if k == "make_node":
            self.t.make_node()
        elif k == "link":
            self.t.link(op.a, op.b)
        else:
            return self.t.ca(op.a, op.b)


ENGINES = {
    "oracle": OracleEngine,
    "static": StaticEngine,
    "inc": GrowEngine,
    "inc-log2": GrowEngine,
    "inc-linear": GrowEngine,
    "link": LinkEngine,
}


def make_engine(name, max_n):
    cls = ENGINES.get(name)
    if cls is None:
        raise ConfigError(f"unknown engine {name!r} (have {', '.join(sorted(ENGINES))})")
    return cls(name, max_n)


def compatible_engines(trace):
    """Names of the engines whose precheck accepts this trace, oracle first."""
    cap = max(2, trace.n_nodes)
    names = []
    for name in ENGINES:
        try:
            make_engine(name, cap).precheck(trace)
        except ConfigError:
            continue
        names.append(name)
    return names


# ----------------------------------------------------------------- runner

# one counter column per Stats field, reorg_log printed as its length
# under the name reorgs
CSV_HEADER = ",".join(("engine", "n", "m", *(
    "reorgs" if f.name == "reorg_log" else f.name for f in fields(Stats)),
    "arena_cells", "wall_ms"))


@dataclass
class EngineReport:
    engine: str
    n: int
    m: int
    stats: Stats
    arena_cells: int
    wall_ms: float  # the engine's whole replay
    answers: list

    def csv_row(self):
        st = self.stats
        row = [self.engine, self.n, self.m,
               *(len(st.reorg_log) if f.name == "reorg_log" else getattr(st, f.name)
                 for f in fields(Stats)),
               self.arena_cells, f"{self.wall_ms:.3f}"]
        return ",".join(map(str, row))


@dataclass
class RunReport:
    reports: list
    mismatch: object = None  # (op_index, engine, got, want) or None
    repro: object = None     # the trace through the mismatched query

    @property
    def ok(self):
        return self.mismatch is None

    def csv(self):
        return "\n".join([CSV_HEADER] + [r.csv_row() for r in self.reports]) + "\n"


_UNPINNED = object()  # a query the trace carries no answer for


def _norm(kind, ans):
    if ans is None:
        return None
    return ans.a if kind == "nca" else (ans.a, ans.ax, ans.ay)


def _replay_one(e, trace):
    """Replay the whole trace on one engine: its report, answers included."""
    apply = e.apply
    t0 = time.perf_counter()
    got = [apply(op) for op in trace]
    wall = time.perf_counter() - t0
    answers = [_norm(op.kind, r) for op, r in zip(trace, got) if op.kind in QUERIES]
    return EngineReport(e.name, trace.n_nodes, len(answers), e.stats,
                        e.arena_cells, wall * 1000.0, answers)


def _first_diff(got, want):
    """Position of the first answer in got that want contradicts, or None."""
    if got == want:
        return None
    for i, (g, w) in enumerate(zip(got, want)):
        if w is not _UNPINNED and g != w:
            return i
    return None


def run(trace, engines, check=False, max_n=None):
    """Replay the trace on every named engine and compare query answers.

    Once every engine's precheck accepts the trace, each engine replays
    it whole, one after another.  The baseline is the oracle when it
    runs, else the first engine named, and every other engine is held to
    its answers.  With check, the trace's pinned answers hold the
    baseline too, and a run with neither the oracle nor a pinned answer
    raises ConfigError.  The mismatch is the earliest query answered
    wrongly; on a tie, the baseline against a pin.  Every engine answers
    online, so the trace through that query is the shortest failing
    prefix, and it is attached as the reproduction.
    """
    if not engines:
        raise ConfigError("engine set is empty")
    pins = check and any(op.expected is not None for op in trace)
    if check and not pins and "oracle" not in engines:
        raise ConfigError("check needs the oracle among the engines or expected answers")
    cap = max_n if max_n is not None else max(2, trace.n_nodes)
    if trace.n_nodes > cap:
        raise ConfigError(f"trace declares {trace.n_nodes} nodes, capacity is {cap}")
    insts = [make_engine(name, cap) for name in engines]
    for e in insts:
        e.precheck(trace)
    reports = [_replay_one(e, trace) for e in insts]
    base = reports[engines.index("oracle") if "oracle" in engines else 0]
    # the baseline against the pins goes first, so it wins a tie at one query
    held = []
    if pins:
        held.append((base, [_UNPINNED if op.expected is None
                            else None if op.expected == "none" else op.expected
                            for op in trace if op.kind in QUERIES]))
    held += [(r, base.answers) for r in reports if r is not base]
    where = [i for i, op in enumerate(trace) if op.kind in QUERIES]
    mismatch = None
    for r, want in held:
        q = _first_diff(r.answers, want)
        if q is not None and (mismatch is None or where[q] < mismatch[0]):
            mismatch = (where[q], r.engine, r.answers[q], want[q])
    repro = trace.prefix(mismatch[0] + 1) if mismatch else None
    return RunReport(reports, mismatch, repro)


def as_links(trace):
    """Rewrite grown-tree structure as link ops (queries pass through).

    add_leaf p c becomes make_node c; link p c, and add_root r becomes
    make_node r; link r <old root>.  Node declaration order, hence the
    dense id map, and the forest state seen by every query are unchanged,
    so answers are comparable op for op with the original trace.
    """
    ops = []
    root = None
    for op in trace:
        k = op.kind
        if k == "make_node":
            if root is None:
                root = op.a
            ops.append(op)
        elif k == "add_leaf":
            ops.append(TraceOp("make_node", op.b, None, None, op.line))
            ops.append(TraceOp("link", op.a, op.b, None, op.line))
        elif k == "add_root":
            ops.append(TraceOp("make_node", op.a, None, None, op.line))
            ops.append(TraceOp("link", op.a, root, None, op.line))
            root = op.a
        else:
            ops.append(op)
    return Trace(ops, trace.ext)


# ------------------------------------------------------------- generators

PROFILES = ("leaf-heavy", "leaf-deep", "root-heavy", "link-balanced", "link-skewed",
            "query-heavy")


def generate(seed, profile, n, m):
    """Deterministic trace for one of the named workload shapes."""
    import random

    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r} (have {', '.join(PROFILES)})")
    if n < 1:
        raise ConfigError("need n >= 1")
    if m < 0:
        raise ConfigError("need m >= 0")
    rng = random.Random(f"{profile}:{seed}:{n}:{m}")
    ops = []
    emitted = 0

    def query(hi, group=None):
        """A uniform pair below hi, or two distinct members of group."""
        nonlocal emitted
        if group is None:
            x = rng.randrange(hi)
            y = rng.randrange(hi)
        else:
            x, y = rng.sample(group, 2)
        ops.append(TraceOp("nca" if rng.random() < 0.5 else "ca", x, y, None, 0))
        emitted += 1

    if not profile.startswith("link"):
        ops.append(TraceOp("make_node", 0, None, None, 0))
        acc = 0.0
        step = m / max(1, n - 1)
        for v in range(1, n):
            if profile == "root-heavy" and rng.random() < 0.25:
                ops.append(TraceOp("add_root", v, None, None, 0))
            elif profile == "leaf-deep":    # each parent among the 8 newest
                ops.append(TraceOp("add_leaf", rng.randrange(max(0, v - 8), v), v, None, 0))
            else:
                ops.append(TraceOp("add_leaf", rng.randrange(v), v, None, 0))
            if profile == "root-heavy":
                acc += step
                while acc >= 1.0:
                    query(v + 1)
                    acc -= 1.0
            elif profile == "query-heavy" and rng.randrange(n) < 16:
                # a growth burst ends: queries over the nodes so far catch
                # up with their share of the growth
                while emitted < m * (v + 1) // n:
                    query(v + 1)
        while emitted < m:
            query(n)
    else:
        members = {v: [v] for v in range(n)}  # by the root of their tree
        tree = list(range(n))  # each vertex's tree, by its root
        joined = []            # vertices of trees with two or more nodes

        def linked_query():
            # every other pair: two distinct vertices of one tree
            if emitted % 2 or not joined:
                query(n)
            else:
                query(n, members[tree[rng.choice(joined)]])

        for v in range(n):
            ops.append(TraceOp("make_node", v, None, None, 0))
        roots = list(range(n))
        links = n - 1
        acc = 0.0
        step = m / max(1, links)
        for _ in range(links):
            if profile == "link-skewed":
                y = roots.pop()
                host = roots[0]
                x = rng.choice(members[host])
            else:
                i = rng.randrange(len(roots))
                y = roots.pop(i)
                host = roots[rng.randrange(len(roots))]
                x = rng.choice(members[host])
            for t in (host, y):
                if len(members[t]) == 1:
                    joined.append(t)
            for v in members[y]:
                tree[v] = host
            members[host].extend(members.pop(y))
            ops.append(TraceOp("link", x, y, None, 0))
            acc += step
            while acc >= 1.0:
                linked_query()
                acc -= 1.0
        while emitted < m:
            linked_query()
    return Trace(ops, range(n))
