"""Benchmark of dynca's engines: growth, link, query, memory and check costs.

    python3 bench/run.py --workload grow-leaf --seed 1 --seconds 30 --trace 0

Run from the repository root; dynca is imported from ./src, never from
an installed copy.  With --trace 0 the run starts worker processes one
after another until --seconds have passed; each sets up, replays the
check trace, and takes the engines in turns, batch by batch, through
one round of the workload.  The run prints, for each end-to-end metric,
the median over its workers.  With --trace 1 a single process runs the
workload's own engines through a settling round, an untraced round and
a traced one, and prints the per-layer metrics.  Times are CPU time, so
time spent descheduled by other load does not count.  Every answer is
checked, and the last line of standard output is one JSON object:
correct, attempted, failed and metrics.  See bench/README.md.
"""

import time

T_START = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402
from types import (BuiltinFunctionType, CodeType, FunctionType,  # noqa: E402
                   ModuleType)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from checker import Checker  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Tracer, layer_metrics, per_layer_names  # noqa: E402
from workloads import (CHECK_M, CHECK_N, ROOT, STEPS, WORKLOADS,  # noqa: E402
                       make_worlds)

BUILD_EVERY = 2     # StaticCa is rebuilt before every second query batch
MEMORY = ("static", "inc", "inc-linear", "link")

END_TO_END = (
    [("setup_s", "s"), ("static.build_us", "us"), ("static.query_us", "us")]
    + [(f"{e}.grow_us", "us") for e in ("inc", "inc-log2", "inc-linear")]
    + [(f"{e}.query_us", "us") for e in ("inc", "inc-log2", "inc-linear")]
    + [("link.link_us", "us"), ("link.query_us", "us")]
    + [(f"{e}.bytes_per_node", "B") for e in MEMORY]
    + [("check_s", "s")]
)

_UNSET = object()


def load_dynca():
    """Import dynca from the checkout's src directory."""
    if not (SRC / "dynca" / "__init__.py").is_file():
        sys.exit(f"bench: no dynca sources under {SRC}")
    sys.path.insert(0, str(SRC))
    dynca = importlib.import_module("dynca")
    if Path(dynca.__file__).resolve().parent != SRC / "dynca":
        sys.exit(f"bench: imported dynca from {dynca.__file__}, not {SRC}")
    return dynca


# ---------------------------------------------------------------- engines


class Engine:
    """One engine replaying one world; times its calls batch by batch.

    secs and ops accumulate time and op counts by kind ("grow", "link",
    "query", "build").  With a tracer, every call the benchmark makes
    into dynca becomes one top-level op of the trace.
    """

    def __init__(self, name, world, dynca):
        self.name = name
        self.world = world
        self.dynca = dynca
        self.tracer = None
        self.t = None
        self.secs = {}
        self.ops = {}
        self.failed = 0

    def _call(self, kind, fn, flag=None):
        if self.tracer is None:
            return fn
        return self.tracer.op_call(self.name, kind, fn, flag)

    def _add(self, kind, secs, ops):
        self.secs[kind] = self.secs.get(kind, 0.0) + secs
        self.ops[kind] = self.ops.get(kind, 0) + ops

    def fresh(self):
        """A new, empty structure for the next round."""
        raise NotImplementedError

    def structure(self, k):
        """Apply structural batch k."""
        raise NotImplementedError

    def query(self, k):
        """Ask query batch k; answers, with an exception standing for a raise."""
        ca = self._call("query", self.t.ca, self._flag())
        out = []
        app = out.append
        batch = self.world.queries[k]
        t0 = process_time()
        for x, y in batch:
            try:
                app(ca(x, y))
            except Exception as exc:  # a raise is a failed op, counted by the checker
                app(exc)
        self._add("query", process_time() - t0, len(batch))
        return out

    def _flag(self):
        return None


class Grown(Engine):
    """IncrementalTree, or the two- or three-level multilevel tree."""

    def fresh(self):
        d = self.dynca
        make = {"inc": d.IncrementalTree, "inc-log2": d.edmonds_tree,
                "inc-linear": d.linear_tree}[self.name]
        self.t = make(self.world.n)

    def structure(self, k):
        add_leaf = self._call("grow", self.t.add_leaf)
        add_root = self._call("grow", self.t.add_root)
        batch = self.world.ops[k]
        failed = 0
        t0 = process_time()
        for p in batch:
            try:
                if p == ROOT:
                    add_root()
                else:
                    add_leaf(p)
            except Exception:  # counted; later answers show the damage
                failed += 1
        self._add("grow", process_time() - t0, len(batch))
        self.failed += failed


class Static(Engine):
    """StaticCa, rebuilt on the final tree every BUILD_EVERY batches."""

    def __init__(self, name, world, dynca):
        super().__init__(name, world, dynca)
        f = dynca.Forest()
        parent = world.parent
        for _ in parent:
            f.make_node()
        order = [v for v, p in enumerate(parent) if p < 0]
        children = [[] for _ in parent]
        for v, p in enumerate(parent):
            if p >= 0:
                children[p].append(v)
        for u in order:
            for c in children[u]:
                f.add_leaf(u, c)
                order.append(c)
        self.forest = f

    def fresh(self):
        self.t = None
        self.stats = self.dynca.Stats()   # one sink for every build of a round

    def structure(self, k):
        if k % BUILD_EVERY:
            return
        build = self._call("build", self.dynca.StaticCa)
        self.t = None   # the old structure is freed outside the timed build
        t0 = process_time()
        try:
            self.t = build(self.forest, stats=self.stats)
        except Exception:  # counted; the queries then fail too
            self.failed += 1
        self._add("build", process_time() - t0, 1)


class Link(Engine):
    """AdaptiveLinkForest on n made nodes; growth worlds arrive as links."""

    def __init__(self, name, world, dynca):
        super().__init__(name, world, dynca)
        self.links = world.link_ops() if world.kind == "grow" else world.ops

    def fresh(self):
        self.t = self.dynca.AdaptiveLinkForest(self.world.n)
        for _ in range(self.world.n):
            self.t.make_node()

    def _flag(self):
        log = self.t.reorg_log
        return lambda: len(log)

    def structure(self, k):
        link = self._call("link", self.t.link, self._flag())
        batch = self.links[k]
        failed = 0
        t0 = process_time()
        for x, y in batch:
            try:
                link(x, y)
            except Exception:  # counted; later answers show the damage
                failed += 1
        self._add("link", process_time() - t0, len(batch))
        self.failed += failed


KINDS = {"static": Static, "inc": Grown, "inc-log2": Grown, "inc-linear": Grown,
         "link": Link}


# ------------------------------------------------------------------ bench


class Bench:
    """Inputs, checkers and engines of one workload."""

    def __init__(self, workload, seed, dynca, only=None):
        self.dynca = dynca
        self.worlds = make_worlds(workload, seed)
        self.checkers = [Checker(w.parent) for w in self.worlds]
        self.engines = []   # (world index, Engine)
        for wi, names in enumerate(WORKLOADS[workload][1]):
            for name in names:
                if only is None or name in only:
                    self.engines.append((wi, KINDS[name](name, self.worlds[wi], dynca)))
        for _, e in self.engines:
            e.fresh()
        self.attempted = 0
        self.failed = 0

    def by_name(self):
        return {e.name: e for _, e in self.engines}

    def round(self, tracer=None, reference=None):
        """One round: every engine through every batch, taking turns.

        With a reference, slices of its loop run before every batch.

        The collector stays on, but everything alive when a timed batch
        starts is frozen out of its view: the inputs, the answers kept
        for checking and the other engines' structures would otherwise
        make every full collection scan far more than one engine holds.
        A batch still pays for collecting what it allocates.
        """
        for _, e in self.engines:
            e.tracer = tracer
            e.fresh()
        gc.collect()
        for k in range(STEPS):
            for _, e in self.engines:
                if reference is not None:
                    reference.slice()
                gc.freeze()
                e.structure(k)
                gc.unfreeze()
            answers = [[] for _ in self.worlds]
            for wi, e in self.engines:
                gc.freeze()
                answers[wi].append(e.query(k))
                gc.unfreeze()
            for wi, got in enumerate(answers):
                if got:
                    self._check(wi, k, got)
        for wi, e in self.engines:
            e.tracer = None
            self.failed += e.failed
            e.failed = 0
            if isinstance(e, Static):
                self.attempted += -(-STEPS // BUILD_EVERY)
            else:
                self.attempted += sum(len(b) for b in self.worlds[wi].ops)

    def _check(self, wi, k, answers):
        """Check one query batch of every engine of a world.

        An answer equal to one the checker accepted is right too, since
        the triple is unique; anything else is checked on its own.
        """
        world = self.worlds[wi]
        checker = self.checkers[wi]
        pairs = world.queries[k]
        same = world.same[k] if world.same is not None else None
        good = [_UNSET] * len(pairs)
        for got in answers:
            self.attempted += len(got)
            for i, ans in enumerate(got):
                g = good[i]
                if g is not _UNSET:
                    if ans != g:
                        self.failed += 1
                    continue
                x, y = pairs[i]
                if checker.ok(x, y, ans, True if same is None else same[i]):
                    good[i] = ans
                else:
                    self.failed += 1

    def engine_secs(self):
        return sum(sum(e.secs.values()) for _, e in self.engines)


def held_bytes(root):
    """Bytes of every object reachable from root, each counted once.

    Classes, modules and functions are code, not data, and are skipped.
    """
    skip = (type, ModuleType, FunctionType, BuiltinFunctionType, CodeType)
    seen = set()
    stack = [root]
    total = 0
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, skip):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        stack.extend(gc.get_referents(o))
    return total


def to_trace(dynca, world):
    """The world as a dynca trace: structural ops, each batch followed by ca queries."""
    Op = dynca.TraceOp
    ops = []
    if world.kind == "grow":
        ops.append(Op("make_node", 0, None, None, 0))
        v = 1
    else:
        ops.extend(Op("make_node", v, None, None, 0) for v in range(world.n))
    for batch, pairs in zip(world.ops, world.queries):
        for item in batch:
            if world.kind == "link":
                ops.append(Op("link", item[0], item[1], None, 0))
            elif item == ROOT:
                ops.append(Op("add_root", v, None, None, 0))
                v += 1
            else:
                ops.append(Op("add_leaf", item, v, None, 0))
                v += 1
        ops.extend(Op("ca", x, y, None, 0) for x, y in pairs)
    return dynca.Trace(ops, range(world.n))


def check_runs(dynca, workload, seed):
    """The traces.run calls behind `dynca run --check` on this workload's shape."""
    world = make_worlds(workload, seed, n=CHECK_N, m=CHECK_M)[0]
    trace = to_trace(dynca, world)
    runs = [(trace, dynca.compatible_engines(trace))]
    if world.kind == "grow":
        runs.append((dynca.traces.as_links(trace), ["oracle", "link"]))
    return runs


def check_pass(dynca, runs):
    """Replay the check traces.

    Returns CPU seconds spent in run(), the runs that reported a
    mismatch, and run()'s own wall time beside the engines' wall_ms, in
    microseconds per trace op.
    """
    secs = 0.0
    failed = 0
    overhead = 0.0
    ops = 0
    for trace, engines in runs:
        # the harness's own objects are hidden from the collector, as in
        # Bench.round, so collections inside run() scan what run() holds
        gc.collect()
        gc.freeze()
        t0 = process_time()
        w0 = perf_counter()
        rep = dynca.run(trace, engines, check=True)
        wall = perf_counter() - w0
        secs += process_time() - t0
        gc.unfreeze()
        if not rep.ok:
            print(f"check pass mismatch on {engines}: {rep.mismatch}", file=sys.stderr)
            failed += 1
        overhead += wall - sum(r.wall_ms for r in rep.reports) / 1000.0
        ops += len(trace)
    return secs, failed, overhead * 1e6 / ops


# ------------------------------------------------------------------- runs


def measure(workload, seed, memory):
    """One worker process's measurement: set-up, check pass, one timed round.

    Returns the metric values this process saw, and its op counts.
    """
    bench = Bench(workload, seed, load_dynca())
    values = {"setup_s": process_time() - T_START}
    reference = Reference()
    dynca = bench.dynca
    # the check pass runs while the heap holds little beyond the inputs
    runs = check_runs(dynca, workload, seed)
    secs, failed, _ = check_pass(dynca, runs)
    values["check_s"] = secs
    bench.attempted += len(runs)
    bench.failed += failed
    del runs
    bench.round(reference=reference)
    eng = bench.by_name()

    def per(name, kind):
        e = eng[name]
        return e.secs[kind] / e.ops[kind] * 1e6

    values["static.build_us"] = per("static", "build") / eng["static"].world.n
    values["static.query_us"] = per("static", "query")
    values["link.link_us"] = per("link", "link")
    values["link.query_us"] = per("link", "query")
    for e in ("inc", "inc-log2", "inc-linear"):
        values[f"{e}.grow_us"] = per(e, "grow")
        values[f"{e}.query_us"] = per(e, "query")
    scale = reference.scale()
    for name in values:
        values[name] *= scale
    if memory:
        for e in MEMORY:
            values[f"{e}.bytes_per_node"] = held_bytes(eng[e].t) / eng[e].world.n
    return {"values": values, "scale": scale,
            "attempted": bench.attempted, "failed": bench.failed}


def timed_run(workload, seed, seconds):
    """Worker processes, one after another, until `seconds` have passed.

    Each worker measures a whole round in a fresh process and reports
    its times at the reference loop's nominal speed (see reference.py);
    each metric is the median over the workers.
    """
    samples = []
    scales = []
    attempted = failed = 0
    t_first = perf_counter()
    while not samples or perf_counter() - t_first < seconds:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--worker",
               "--workload", workload, "--seed", str(seed)]
        if not samples:
            cmd.append("--memory")
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: worker exited with code {proc.returncode}")
        out = json.loads(proc.stdout.splitlines()[-1])
        samples.append(out["values"])
        scales.append(out["scale"])
        attempted += out["attempted"]
        failed += out["failed"]
    values = {}
    for name, _ in END_TO_END:
        seen = [v[name] for v in samples if name in v]
        values[name] = statistics.median(seen)
    print(f"workload {workload} seed {seed}: {len(samples)} worker processes, "
          f"{attempted} ops attempted, {failed} failed; times scaled by "
          f"{' '.join(f'{x:.3f}' for x in scales)} to the reference speed")
    metrics = {}
    for name, unit in END_TO_END:
        spread = " ".join(f"{v[name]:.4g}" for v in samples if name in v)
        print(f"  {name:26s} {values[name]:14.4f} {unit:5s} ({spread})")
        metrics[name] = {"value": values[name], "unit": unit}
    return attempted, failed, metrics


def traced_run(workload, seed):
    only = WORKLOADS[workload][2]
    dynca = load_dynca()
    bench = Bench(workload, seed, dynca, only=only)
    bench.round()   # settles the heap, as in timed_run
    for _, e in bench.engines:
        e.secs.clear()
    bench.round()
    untraced = bench.engine_secs()
    for _, e in bench.engines:
        e.secs.clear()
        e.ops.clear()
    tracer = Tracer()
    tracer.install(dynca)
    try:
        bench.round(tracer)
        traced = bench.engine_secs()
        _, failed, run_overhead_us = check_pass(dynca, check_runs(dynca, workload, seed))
    finally:
        tracer.uninstall()
    bench.attempted += 1
    bench.failed += failed
    values = layer_metrics(tracer, bench.by_name(), bench.worlds[0].n,
                           run_overhead_us, traced - untraced)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload}.tsv.gz")
    print(f"workload {workload} seed {seed}: traced {len(tracer.end)} spans, "
          f"{bench.attempted} ops attempted, {bench.failed} failed")
    metrics = {}
    for name, unit in per_layer_names():
        print(f"  {name:48s} {values[name]:14.4f} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return bench.attempted, bench.failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(args.workload, args.seed, args.memory)))
        return
    if args.trace:
        attempted, failed, metrics = traced_run(args.workload, args.seed)
    else:
        attempted, failed, metrics = timed_run(args.workload, args.seed, args.seconds)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
