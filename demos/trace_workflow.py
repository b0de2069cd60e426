"""The trace harness end to end: generate, replay, compare, reproduce.

Everything here is also reachable from the command line:

    dynca gen --profile leaf-heavy --n 200 --m 500 --seed 1 -o t.trace
    dynca run --engine oracle --engine inc --trace t.trace --stats csv

Run:  python3 demos/trace_workflow.py
"""

from dynca.traces import (compatible_engines, extern_answer, format_trace,
                          generate, parse_trace, run)

# --- generate a workload and race the engines on it ---

trace = generate(seed=1, profile="leaf-heavy", n=200, m=500)
engines = compatible_engines(trace)
print("engines for this trace:", engines)

report = run(trace, engines)
print("all agree:", report.ok)
print(report.csv())

# --- traces are plain text ---

snippet = "\n".join(format_trace(trace).splitlines()[:5])
print("first lines of the trace file:")
print(snippet)

# --- expected answers freeze behavior; a mismatch carries its shortest repro ---

bad = parse_trace("""
make_node 1
add_leaf 1 2
add_leaf 2 3
add_leaf 1 4
nca 3 4 = 1
nca 3 2 = 3
""")

report = run(bad, ["oracle"], check=True)
idx, engine, got, want = report.mismatch
print(f"\nplanted a wrong answer: op {idx} ({engine} said "
      f"{extern_answer(bad, got)}, trace claims {extern_answer(bad, want)})")

print("repro, the trace through that query,", len(report.repro), "ops:")
print(format_trace(report.repro))
