import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dynca
from dynca import CaTriple, ConfigError, traces
from dynca.cli import main
from dynca.traces import (CSV_HEADER, PROFILES, GrowEngine, OracleEngine,
                          Trace, TraceOp, TraceParseError, as_links,
                          compatible_engines, format_trace, generate,
                          make_engine, parse_trace, run)

REPO = Path(__file__).resolve().parents[1]

GOOD = """\
# a comment
make_node 10
add_leaf 10 20
add_leaf 10 30
nca 20 30 = 10
ca 20 30 = 10 20 30
nca 20 20
make_node 40
nca 20 40 = none
ca 40 10 = none
"""


def test_parse_round_trip():
    tr = parse_trace(GOOD)
    assert tr.n_nodes == 4
    assert [op.kind for op in tr] == ["make_node", "add_leaf", "add_leaf",
                                      "nca", "ca", "nca", "make_node",
                                      "nca", "ca"]
    # answers are stored densely renumbered, like the ids themselves
    assert tr[3].expected == 0 and tr[3].line == 5
    assert tr[4].expected == (0, 1, 2)
    assert tr[5].expected is None
    assert tr[7].expected == "none" and tr[8].expected == "none"
    back = parse_trace(format_trace(tr))
    assert [op[:4] for op in back] == [op[:4] for op in tr]
    assert back.ext == tr.ext
    assert format_trace(tr).splitlines()[-2:] == ["nca 20 40 = none",
                                                  "ca 40 10 = none"]
    for profile in PROFILES:
        text = format_trace(generate(1, profile, 200, 400))
        assert format_trace(parse_trace(text)) == text, profile


def test_parse_expected_none():
    tr = parse_trace("make_node 1\nmake_node 2\nnca 1 2 = none\n")
    assert tr[2].expected == "none"


@pytest.mark.parametrize("text,line,col", [
    ("make_node 1\nmake_node 1\n", 2, 11),      # duplicate id
    ("add_leaf 1 2\n", 1, 10),                  # undeclared parent
    ("make_node x\n", 1, 11),                   # not an integer
    ("make_node 1\nnca 1\n", 2, 1),             # missing argument
    ("make_node 1\nfrobnicate 1\n", 2, 1),      # unknown op
    ("make_node 1\nnca 1 1 = 7\n", 2, 11),      # undeclared answer id
    ("add_root 5\n", 1, 1),                     # add_root before any node
    ("make_node 1\nca 1 1 = 1\n", 2, 8),        # ca wants three answer ids
    ("make_node 1 2\n", 1, 13),                 # make_node: extra operand
    ("make_node 1\nadd_leaf 1 2 3\n", 2, 14),   # add_leaf: extra operand
    ("make_node 1\nmake_node 2\nlink 1 2 3 4\n", 3, 10),  # link: extra
    ("make_node 1\nnca 1 1 1\n", 2, 9),         # an answer with no '='
    ("make_node 1\nnca 1 1 = 1 1\n", 2, 9),     # nca wants one answer id
    ("make_node 1\nadd_leaf 1 1\n", 2, 12),     # duplicate add_leaf child
    ("make_node 1\nadd_root 1\n", 2, 10),       # duplicate add_root id
    ("make_node 1\nlink 1 2\n", 2, 8),          # undeclared link operand
    ("make_node 1_0\n", 1, 11),                 # int() reads "1_0" as 10
    ("make_node 1\nadd_leaf 1 +3\n", 2, 12),    # int() reads a "+" sign
    ("make_node 1\nmake_node 2\nca 1 2 = 1 2 \u0661\n", 3, 14),  # Arabic-Indic 1
])
def test_parse_errors_carry_position(text, line, col):
    with pytest.raises(TraceParseError) as ei:
        parse_trace(text)
    assert ei.value.line == line
    assert ei.value.col == col


def test_generator_deterministic_and_sized():
    for profile in PROFILES:
        t1 = generate(7, profile, 60, 40)
        t2 = generate(7, profile, 60, 40)
        assert t1 == t2
        queries = sum(1 for op in t1 if op.kind in ("nca", "ca"))
        structural = len(t1) - queries
        assert queries == 40
        assert t1.n_nodes == 60
        # tree profiles grow one node per op; link profiles declare all
        # n nodes up front and then spend n-1 links
        assert structural == (119 if profile.startswith("link") else 60)


def test_generator_profiles_shape():
    t = generate(3, "leaf-heavy", 50, 30)
    kinds = [op.kind for op in t]
    assert kinds[0] == "make_node"
    assert all(k == "add_leaf" for k in kinds[1:50])
    assert all(k in ("nca", "ca") for k in kinds[50:])

    # leaf-deep grows the same way, each parent among the 8 newest nodes
    t = generate(3, "leaf-deep", 200, 30)
    grown = [op for op in t if op.kind == "add_leaf"]
    assert [op.b for op in grown] == list(range(1, 200))
    assert all(op.b - 8 <= op.a < op.b for op in grown)
    assert max(op.b - op.a for op in grown) == 8

    t = generate(3, "root-heavy", 50, 30)
    assert any(op.kind == "add_root" for op in t)
    mut_seen = 0
    for op in t:
        if op.kind in ("nca", "ca"):
            assert mut_seen > 0            # queries interleave, never lead
        else:
            mut_seen += 1

    # query-heavy interleaves growth and query bursts, each query over
    # the nodes grown so far
    t = generate(3, "query-heavy", 200, 2000)
    kinds = [op.kind for op in t]
    assert kinds != [op.kind for op in generate(3, "leaf-heavy", 200, 2000)]
    grown = 0
    switches = 0
    for prev, op in zip(t, t[1:]):
        if op.kind == "add_leaf":
            grown = op.b
            switches += prev.kind in ("nca", "ca")
        elif op.kind in ("nca", "ca"):
            assert max(op.a, op.b) <= grown
    assert switches >= 5

    for profile in ("link-balanced", "link-skewed"):
        t = generate(3, profile, 50, 30)
        roots = set()
        for op in t:
            if op.kind == "make_node":
                roots.add(op.a)
            elif op.kind == "link":
                assert op.b in roots       # only live roots get linked
                roots.remove(op.b)
        assert len(roots) == 1

        # at least 40% of the queries ask two distinct vertices of one tree
        t = generate(3, profile, 400, 4000)
        f = dynca.Forest()
        inside = 0
        for op in t:
            if op.kind == "make_node":
                f.make_node()
            elif op.kind == "link":
                f.link(op.a, op.b)
            else:
                inside += op.a != op.b and f._find(op.a) == f._find(op.b)
        assert inside >= 0.4 * 4000, (profile, inside)


def test_compatible_engines():
    tree = generate(1, "leaf-heavy", 20, 10)
    assert compatible_engines(tree) == ["oracle", "static", "inc",
                                        "inc-log2", "inc-linear"]
    rooty = generate(1, "root-heavy", 20, 10)
    assert "static" not in compatible_engines(rooty)
    linky = generate(1, "link-balanced", 20, 10)
    assert compatible_engines(linky) == ["oracle", "link"]
    single = parse_trace("make_node 1\nnca 1 1\n")
    names = compatible_engines(single)
    assert names == ["oracle", "static", "inc", "inc-log2", "inc-linear",
                     "link"]
    rep = run(single, names)
    assert rep.ok
    assert [(r.engine, r.answers) for r in rep.reports] == [
        (name, [0]) for name in names]


def test_run_matches_and_reports():
    tr = generate(11, "leaf-heavy", 100, 200)
    rep = run(tr, ["oracle", "static", "inc"], check=True)
    assert rep.ok
    csv = rep.csv().splitlines()
    assert csv[0] == CSV_HEADER
    assert len(csv) == 4
    assert csv[1].startswith("oracle,100,200,")


def test_run_catches_wrong_expected():
    tr = parse_trace("make_node 1\nadd_leaf 1 2\nnca 1 2 = 2\n")
    rep = run(tr, ["oracle"], check=True)
    assert not rep.ok
    idx, engine, got, want = rep.mismatch
    assert idx == 2 and engine == "oracle"
    assert got == 0 and want == 1


ONE_WRONG = ("make_node 1\nadd_leaf 1 2\nadd_leaf 1 3\n"
             "nca 2 3 = 1\nca 2 3 = 1 2 3\nadd_leaf 3 4\n"
             "ca 2 4 = 1 2 3\n")


class OneWrong(GrowEngine):
    """inc, with one wrong answer: to the query on line 5 of ONE_WRONG."""

    def apply(self, op):
        got = super().apply(op)
        return CaTriple(2, 2, 2) if op.line == 5 else got


def test_run_holds_engines_to_oracle_without_check(monkeypatch):
    """One wrong answer fails the run whenever the oracle runs beside it."""
    tr = parse_trace(ONE_WRONG)
    bad = tr[4]
    monkeypatch.setitem(traces.ENGINES, "inc", OneWrong)
    rep = run(tr, ["oracle", "inc"])
    assert not rep.ok
    assert rep.mismatch == (4, "inc", (2, 2, 2), (0, 1, 2))
    assert len(rep.repro) == 5 and rep.repro[-1] is bad
    # no oracle: check holds the engine to the trace's pinned answers
    rep = run(tr, ["inc"], check=True)
    assert rep.mismatch == (4, "inc", (2, 2, 2), (0, 1, 2))
    assert rep.repro[-1] is bad


def test_run_holds_engines_to_first_engine_without_oracle(monkeypatch, tmp_path):
    tr = parse_trace(ONE_WRONG)
    monkeypatch.setitem(traces.ENGINES, "inc", OneWrong)
    rep = run(tr, ["inc-log2", "inc"])
    assert rep.mismatch == (4, "inc", (2, 2, 2), (0, 1, 2))
    assert len(rep.repro) == 5 and rep.repro[-1] is tr[4]
    path = tmp_path / "one_wrong.trace"
    path.write_text(ONE_WRONG)
    assert main(["run", "--engine", "inc-log2", "--engine", "inc",
                 "--trace", str(path)]) == 1


def test_failing_run_builds_each_engine_once(monkeypatch):
    built = []

    def counting(name, max_n):
        built.append(name)
        return make_engine(name, max_n)

    monkeypatch.setitem(traces.ENGINES, "inc", OneWrong)
    monkeypatch.setattr(traces, "make_engine", counting)
    names = ["oracle", "inc", "inc-log2", "inc-linear"]
    rep = run(parse_trace(ONE_WRONG), names)
    assert rep.mismatch[:2] == (4, "inc") and len(rep.repro) == 5
    assert built == names


def test_tie_at_one_query_names_the_baseline_against_a_pin(monkeypatch):
    """The same disagreement, blamed on the baseline only where a pin speaks."""
    tr = parse_trace(ONE_WRONG)
    monkeypatch.setitem(traces.ENGINES, "inc", OneWrong)
    # inc, the baseline, contradicts the pin at op 4; inc-log2 matches it
    rep = run(tr, ["inc", "inc-log2"], check=True)
    assert rep.mismatch == (4, "inc", (2, 2, 2), (0, 1, 2))
    # without check no pin speaks, so inc-log2 disagrees with the baseline
    rep = run(tr, ["inc", "inc-log2"])
    assert rep.mismatch == (4, "inc-log2", (0, 1, 2), (2, 2, 2))
    assert len(rep.repro) == 5


def test_run_without_check_ignores_expected():
    tr = parse_trace("make_node 1\nadd_leaf 1 2\nnca 1 2 = 2\n")
    assert run(tr, ["oracle"], check=False).ok


def test_minimize_finds_short_repro():
    # expected answers poisoned at the tail: the shortest failing prefix
    # must end exactly at the first bad query
    lines = ["make_node 0"]
    lines += [f"add_leaf {i} {i + 1}" for i in range(30)]
    lines.append("nca 0 30 = 0")
    lines.append("nca 1 30 = 30")         # wrong on purpose
    tr = parse_trace("\n".join(lines) + "\n")
    short = run(tr, ["oracle"], check=True).repro
    assert len(short) == len(tr)
    assert short[-1].kind == "nca"
    rep = run(short, ["oracle"], check=True)
    assert not rep.ok and rep.mismatch[0] == len(short) - 1


def test_engine_precheck_rejects_links():
    tr = parse_trace("make_node 1\nmake_node 2\nlink 1 2\n")
    with pytest.raises(ConfigError) as ei:
        run(tr, ["inc"])
    assert "does not support link" in str(ei.value)


def test_engine_precheck_hints_link_reduction():
    tr = parse_trace("make_node 1\nadd_leaf 1 2\n")
    with pytest.raises(ConfigError) as ei:
        run(tr, ["link"])
    assert "express growth as link" in str(ei.value)


def test_grow_engine_precheck_rejects_before_any_replay(monkeypatch):
    def replayed(self, op):
        raise AssertionError("an engine replayed before every precheck passed")

    monkeypatch.setattr(OracleEngine, "apply", replayed)
    monkeypatch.setattr(GrowEngine, "apply", replayed)
    two = parse_trace("make_node 1\nmake_node 2\n")
    with pytest.raises(ConfigError, match="holds a single tree"):
        run(two, ["inc"])
    with pytest.raises(ConfigError, match="holds a single tree"):
        run(two, ["oracle", "inc"])
    headless = Trace([TraceOp("nca", 0, 0, None, 1),
                      TraceOp("make_node", 0, None, None, 2)], [1])
    with pytest.raises(ConfigError, match="needs make_node first"):
        run(headless, ["inc"])


def test_static_engine_rejects_mutation_after_query():
    tr = parse_trace("make_node 1\nadd_leaf 1 2\nnca 1 2\nadd_leaf 2 3\n")
    with pytest.raises(ConfigError):
        run(tr, ["static"])


def test_as_links_equivalence(rng):
    for profile in ("leaf-heavy", "root-heavy"):
        tr = generate(5, profile, 80, 120)
        linked = as_links(tr)
        assert all(op.kind in ("make_node", "link", "nca", "ca")
                   for op in linked)
        r1 = run(tr, ["oracle"])
        r2 = run(linked, ["oracle", "link"])
        assert r1.ok and r2.ok
        assert r1.reports[0].answers == r2.reports[0].answers


def test_run_multiple_seeds_all_engines(rng):
    for profile in PROFILES:
        for seed in (1, 2, 3):
            tr = generate(seed, profile, 50, 80)
            assert run(tr, compatible_engines(tr)).ok


def test_capacity_budget_respected():
    tr = generate(1, "leaf-heavy", 40, 5)
    with pytest.raises(Exception) as ei:
        run(tr, ["oracle"], max_n=10)
    assert "capacity" in str(ei.value).lower()


# -- command line ------------------------------------------------------------


def test_cli_gen_and_run_ok(tmp_path, capsys):
    path = tmp_path / "t.trace"
    assert main(["gen", "--profile", "leaf-heavy", "--n", "40", "--m", "60",
                 "--seed", "3", "-o", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", "--engine", "oracle", "--engine", "inc",
                 "--trace", str(path), "--stats", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == CSV_HEADER
    assert len(out) == 3


def test_cli_gen_stdout(capsys):
    assert main(["gen", "--profile", "link-skewed", "--n", "10", "--m", "5",
                 "--seed", "1", "-o", "-"]) == 0
    text = capsys.readouterr().out
    tr = parse_trace(text)
    assert tr.n_nodes == 10


def test_cli_check_flag_catches_bad_answer(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("make_node 1\nadd_leaf 1 2\nnca 1 2 = 2\n")
    assert main(["run", "--engine", "oracle", "--trace", str(path)]) == 0
    assert main(["run", "--engine", "oracle", "--trace", str(path),
                 "--check"]) == 1
    err = capsys.readouterr().err
    assert "mismatch at op 2" in err
    assert "answered = 1, expected = 2" in err


def test_cli_parse_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.trace"
    path.write_text("make_node 1\nmake_node 1\n")
    assert main(["run", "--engine", "oracle", "--trace", str(path)]) == 2
    assert "trace error" in capsys.readouterr().err


def test_cli_config_error_is_exit_2(tmp_path, capsys):
    path = tmp_path / "links.trace"
    path.write_text("make_node 1\nmake_node 2\nlink 1 2\n")
    assert main(["run", "--engine", "inc", "--trace", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_max_n_below_one_refused(tmp_path, capsys):
    """A capacity below 1 exits 2; one too small for the trace exits 2 too."""
    path = tmp_path / "empty.trace"
    path.write_text("")
    for bad in ("0", "-1"):
        assert main(["run", "--engine", "inc", "--trace", str(path),
                     "--max-n", bad]) == 2
        assert "--max-n must be positive" in capsys.readouterr().err
    assert main(["run", "--engine", "inc", "--trace", str(path),
                 "--max-n", "1"]) == 0
    path = tmp_path / "t.trace"
    main(["gen", "--profile", "leaf-heavy", "--n", "30", "--m", "5",
          "--seed", "1", "-o", str(path)])
    capsys.readouterr()
    assert main(["run", "--engine", "oracle", "--trace", str(path),
                 "--max-n", "10"]) == 2
    assert "capacity is 10" in capsys.readouterr().err
    assert main(["run", "--engine", "oracle", "--trace", str(path),
                 "--max-n", "64"]) == 0


def test_cli_unset_max_n_sizes_by_trace(tmp_path, capsys, monkeypatch):
    path = tmp_path / "t.trace"
    main(["gen", "--profile", "leaf-heavy", "--n", "30", "--m", "5",
          "--seed", "1", "-o", str(path)])
    seen = []

    def spy(trace, engines, check=False, max_n=None):
        seen.append(max_n)
        return traces.run(trace, engines, check=check, max_n=max_n)

    monkeypatch.setattr(dynca.cli, "run", spy)
    assert main(["run", "--engine", "oracle", "--engine", "inc",
                 "--trace", str(path), "--check"]) == 0
    assert main(["run", "--engine", "oracle", "--trace", str(path)]) == 0
    assert seen == [None, None]


def _assert_dynca_help(r):
    assert r.returncode == 0, r.stderr
    usage = r.stdout.split("\n\n", 1)[0]
    assert usage.startswith("usage: dynca")
    commands = re.search(r"\{([^}]*)\}", usage)
    assert commands and {"run", "gen"} <= set(commands.group(1).split(","))


def test_console_script_installed():
    # Run what pip's console-script wrapper for the declared entry point
    # runs, so the packaging metadata is checked without an install.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["dynca"]
    module, _, attr = target.partition(":")
    script = (f"import sys; sys.argv[0] = 'dynca'; "
              f"from {module} import {attr}; sys.exit({attr}())")
    env = dict(os.environ,
               PYTHONPATH=str(Path(dynca.__file__).resolve().parents[1]))
    r = subprocess.run([sys.executable, "-c", script, "--help"],
                       capture_output=True, text=True, env=env)
    _assert_dynca_help(r)


@pytest.mark.skipif(shutil.which("dynca") is None,
                    reason="dynca console script not on PATH")
def test_console_script_on_path():
    r = subprocess.run(["dynca", "--help"], capture_output=True, text=True)
    _assert_dynca_help(r)


def test_csv_splits_rebuilds_from_root_renumberings():
    """reorgs counts link-forest rebuilds; root restarts have their own column."""
    links = generate(4, "link-balanced", 600, 300)
    e = make_engine("link", links.n_nodes)
    for op in links:
        e.apply(op)
    assert len(e.stats.reorg_log) >= 1
    grown = generate(4, "leaf-heavy", 200, 50)
    rep = run(grown, ["oracle", "inc"]).reports + run(links, ["link"]).reports
    head = CSV_HEADER.split(",")
    rows = {r.engine: dict(zip(head, r.csv_row().split(","))) for r in rep}
    assert rows["link"]["reorgs"] == str(len(e.stats.reorg_log))
    assert rows["inc"]["reorgs"] == "0"
    assert int(rows["inc"]["root_renumberings"]) >= 1


def test_link_arena_cells_sum_the_live_multilevel_records(tmp_path, capsys):
    """The link row's arena_cells is the cells of its live multilevel records.

    A skewed link trace grows trees past a packed record's capacity; the
    sum is checked against every live MultilevelInc that shares the
    engine's Stats, found without the forest's own lists.
    """
    import gc
    from dynca import MultilevelInc

    tr = generate(1, "link-skewed", 500, 1000)
    e = make_engine("link", tr.n_nodes)
    for op in tr:
        e.apply(op)
    gc.collect()
    cells = sum(o.arena.used for o in gc.get_objects()
                if isinstance(o, MultilevelInc) and o.stats is e.stats)
    assert cells > 0 and e.arena_cells == cells
    path = tmp_path / "skewed.trace"
    path.write_text(format_trace(tr))
    assert main(["run", "--engine", "link", "--trace", str(path),
                 "--max-n", str(tr.n_nodes), "--stats", "csv"]) == 0
    out = capsys.readouterr().out.splitlines()
    row = dict(zip(CSV_HEADER.split(","), out[1].split(",")))
    assert row["engine"] == "link" and int(row["arena_cells"]) == cells
