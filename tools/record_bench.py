"""Record the benchmark's end-to-end metrics over repeated runs, or compare two records.

    python3 tools/record_bench.py --out BENCH.json
    python3 tools/record_bench.py --out BENCH.json --runs 10 --checkout parent=../old --checkout change=.
    python3 tools/record_bench.py --compare BENCH.json#parent BENCH.json#change

Recording runs the command that BENCHMARK.json declares, unchanged, in
each checkout: `python3 bench/run.py --workload W --seed 5 --seconds S
--trace 0`, --runs times for every workload, where S is the benchmark's
run_seconds unless --seconds overrides it.  Rounds take the workloads
in turn and, for each, every checkout, the first checkout going first in
even rounds and last in odd ones, so a slow spell of the host falls on
all of them alike.  Each metric keeps its median, its quartiles and the
value of every run; the file also holds the seed, the run length, each
checkout's commit and the Python version that ran the benchmark.

--compare prints, per workload and end-to-end metric, the move from A's
median to B's, and flags every metric that is worse by more than its
bound in BENCHMARK.json, or whose runs were not all correct.  It exits 1
when anything is flagged.  When A and B hold as many runs, taken in the
same rounds, it also counts the rounds in which B's run reads better
than A's.  A and B name a record file, followed by #LABEL when the file
holds more than one checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SEED = 5


def summary(values):
    """Median, quartiles and the raw values of one metric's runs."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "runs": list(values)}


def commit_of(checkout):
    """The checkout's commit, marked +dirty when tracked files differ; None outside git."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
    head = git("rev-parse", "HEAD")
    if head.returncode != 0:
        return None
    dirty = git("status", "--porcelain", "--untracked-files=no").stdout.strip()
    return head.stdout.strip() + ("+dirty" if dirty else "")


def run_once(command, checkout, workload, seconds):
    """One benchmark run; returns its final JSON line."""
    cmd = command + ["--workload", workload, "--seed", str(SEED),
                     "--seconds", f"{seconds:g}", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"record_bench: {' '.join(cmd)} in {checkout} exited "
                 f"with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def record(spec, checkouts, runs, seconds):
    """Run the benchmark in every checkout and summarize each metric."""
    command = spec["command"]
    workloads = [w["name"] for w in spec["workloads"]]
    seen = {label: {w: [] for w in workloads} for label in checkouts}
    labels = list(checkouts)
    for i in range(runs):
        order = labels if i % 2 == 0 else labels[::-1]
        for w in workloads:
            for label in order:
                seen[label][w].append(
                    run_once(command, checkouts[label], w, seconds))
    version = subprocess.run(
        [command[0], "-c", "import platform; print(platform.python_version())"],
        capture_output=True, text=True, check=True).stdout.strip()
    records = {}
    for label, checkout in checkouts.items():
        out = {}
        for w, outs in seen[label].items():
            names = outs[0]["metrics"]
            out[w] = {
                "correct": all(o["correct"] and o["failed"] == 0 for o in outs),
                "attempted": sum(o["attempted"] for o in outs),
                "failed": sum(o["failed"] for o in outs),
                "metrics": {
                    name: {"unit": names[name]["unit"],
                           **summary([o["metrics"][name]["value"] for o in outs])}
                    for name in names},
            }
        records[label] = {"commit": commit_of(checkout), "workloads": out}
    return {"command": " ".join(command) + " --workload W --seed "
                       f"{SEED} --seconds {seconds:g} --trace 0",
            "seed": SEED, "seconds": seconds, "runs": runs,
            "python": version, "records": records}


def load(ref):
    """The record that ref names: PATH, or PATH#LABEL."""
    path, _, label = ref.partition("#")
    records = json.loads(Path(path).read_text())["records"]
    if not label:
        if len(records) != 1:
            sys.exit(f"record_bench: {path} holds {', '.join(records)}; "
                     "name one as PATH#LABEL")
        (label,) = records
    if label not in records:
        sys.exit(f"record_bench: {path} holds no record {label!r}")
    return records[label]


def compare(spec, a, b):
    """Print per-metric moves from a to b; returns how many are flagged."""
    flagged = 0
    for w in spec["workloads"]:
        w = w["name"]
        if w not in a["workloads"] or w not in b["workloads"]:
            print(f"{w}: missing from {'A' if w not in a['workloads'] else 'B'}")
            flagged += 1
            continue
        wa, wb = a["workloads"][w], b["workloads"][w]
        print(f"{w}: A correct {wa['correct']}, B correct {wb['correct']}")
        if not (wa["correct"] and wb["correct"]):
            flagged += 1
        for m in spec["end_to_end"]:
            name = m["name"]
            ma, mb = wa["metrics"].get(name), wb["metrics"].get(name)
            if ma is None or mb is None:
                print(f"  {name:28s} missing")
                flagged += 1
                continue
            x, y = ma["median"], mb["median"]
            rel = (y - x) / x if x else 0.0
            worse = rel if m["better"] == "lower" else -rel
            flag = worse > m["bound"]
            flagged += flag
            ra, rb = ma["runs"], mb["runs"]
            sign = 1 if m["better"] == "lower" else -1
            wins = (f"  B better in {sum(sign * (u - v) > 0 for u, v in zip(ra, rb))}"
                    f"/{len(ra)} rounds" if ra and len(ra) == len(rb) else "")
            print(f"  {name:28s} {x:12.4f} -> {y:12.4f} {m['unit']:3s} "
                  f"{rel * 100:+7.1f}%  (bound {m['bound'] * 100:.0f}%)"
                  + wins + ("  PAST BOUND" if flag else ""))
    return flagged


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--out", help="record file to write")
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                    help="a checkout to run; default: this one, as 'checkout'")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--seconds", type=float,
                    help="run length; default: the benchmark's run_seconds")
    args = ap.parse_args(argv)
    spec = json.loads(SPEC.read_text())
    if args.compare:
        return 1 if compare(spec, *map(load, args.compare)) else 0
    if not args.out:
        ap.error("give --out, or --compare A B")
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    checkouts = {}
    for item in args.checkout or [f"checkout={ROOT}"]:
        label, sep, path = item.partition("=")
        if not sep or not label or label in checkouts:
            ap.error(f"--checkout {item!r}: want a new LABEL=DIR")
        checkouts[label] = Path(path).resolve()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    out = record(spec, checkouts, args.runs, seconds)
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
