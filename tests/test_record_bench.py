"""tools/record_bench.py: its record layout and its --compare report."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "record_bench.py"

SPEC = {
    "command": [sys.executable, "bench/run.py"],
    "run_seconds": 0.5,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "link.link_us", "unit": "us", "better": "lower", "bound": 0.2},
        {"name": "link.bytes_per_node", "unit": "B", "better": "lower",
         "bound": 0.05},
    ],
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("record_bench", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _record(link_us, bytes_per_node, correct=True, runs=()):
    def metrics(scale):
        return {"link.link_us": {"unit": "us", "median": link_us * scale,
                                 "q1": 0.0, "q3": 0.0,
                                 "runs": [r * scale for r in runs]},
                "link.bytes_per_node": {"unit": "B", "median": bytes_per_node,
                                        "q1": 0.0, "q3": 0.0, "runs": []}}
    return {"commit": None, "workloads": {
        "w1": {"correct": correct, "metrics": metrics(1.0)},
        "w2": {"correct": True, "metrics": metrics(2.0)}}}


def _write(path, records):
    path.write_text(json.dumps({"records": records}))
    return str(path)


@pytest.fixture
def files(tmp_path, tool, monkeypatch):
    """A spec, a parent record and two changes: one within every bound,
    one with link.link_us 25% worse than a 20% bound allows."""
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(SPEC))
    monkeypatch.setattr(tool, "SPEC", spec)
    a = _write(tmp_path / "a.json",
               {"parent": _record(10.0, 100.0, runs=(10.0, 11.0, 9.0))})
    b = _write(tmp_path / "b.json",
               {"ok": _record(8.0, 104.0, runs=(8.0, 12.0, 8.5)),
                "slow": _record(12.5, 100.0)})
    return a, b


def test_compare_within_bounds(tool, files, capsys):
    a, b = files
    assert tool.main(["--compare", a, b + "#ok"]) == 0
    out = capsys.readouterr().out
    assert "PAST BOUND" not in out
    assert out.count("-20.0%") == 2 and out.count("+4.0%") == 2
    # paired runs: B's link.link_us is lower in rounds 1 and 3 of 3
    assert out.count("B better in 2/3 rounds") == 2


def test_compare_flags_a_metric_past_its_bound(tool, files, capsys):
    a, b = files
    assert tool.main(["--compare", a, b + "#slow"]) == 1
    flagged = [line for line in capsys.readouterr().out.splitlines()
               if "PAST BOUND" in line]
    assert len(flagged) == 2
    assert all("link.link_us" in line and "+25.0%" in line for line in flagged)


def test_compare_flags_an_incorrect_run_and_needs_a_label(tool, files, tmp_path):
    a, b = files
    bad = _write(tmp_path / "bad.json", {"x": _record(10.0, 100.0, False)})
    assert tool.main(["--compare", a, bad]) == 1
    with pytest.raises(SystemExit, match="PATH#LABEL"):
        tool.main(["--compare", a, b])


def test_record_summarizes_every_run(tool, tmp_path, monkeypatch):
    """Three runs of a stub benchmark: each metric keeps its median,
    quartiles and raw values, and every run gets seed 5 and the
    benchmark's run length."""
    bench = tmp_path / "co" / "bench"
    bench.mkdir(parents=True)
    (bench / "run.py").write_text(
        "import json, pathlib, sys\n"
        "n = pathlib.Path('count')\n"
        "k = int(n.read_text()) + 1 if n.exists() else 1\n"
        "n.write_text(str(k))\n"
        "assert sys.argv[1:] == ['--workload', sys.argv[2], '--seed', '5',\n"
        "                        '--seconds', '0.5', '--trace', '0']\n"
        "print('noise')\n"
        "print(json.dumps({'correct': True, 'attempted': 5, 'failed': 0,\n"
        "    'metrics': {'link.link_us': {'value': float(k), 'unit': 'us'}}}))\n")
    spec = tmp_path / "BENCHMARK.json"
    spec.write_text(json.dumps(SPEC))
    monkeypatch.setattr(tool, "SPEC", spec)
    out = tmp_path / "rec.json"
    assert tool.main(["--out", str(out), "--checkout", f"c={tmp_path / 'co'}",
                      "--runs", "3"]) == 0
    rec = json.loads(out.read_text())
    assert (rec["seed"], rec["seconds"], rec["runs"]) == (5, 0.5, 3)
    assert rec["python"] == "{}.{}.{}".format(*sys.version_info[:3])
    w1, w2 = (rec["records"]["c"]["workloads"][w] for w in ("w1", "w2"))
    assert w1["correct"] and w1["attempted"] == 15
    # runs alternate between the workloads: w1 saw calls 1, 3 and 5
    assert w1["metrics"]["link.link_us"] == {
        "unit": "us", "median": 3.0, "q1": 2.0, "q3": 4.0,
        "runs": [1.0, 3.0, 5.0]}
    assert w2["metrics"]["link.link_us"]["runs"] == [2.0, 4.0, 6.0]
