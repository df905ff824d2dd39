"""Tests of the benchmark itself: every output check rejects a corrupted
output, span arithmetic is right, and a small run of each workload
finishes and reports its attempted and failed counts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mhg.completion import magic_complete  # noqa: E402
from mhg.graphs import EdgeLabelledGraph  # noqa: E402
from mhg.magic import default_context  # noqa: E402
from mhg.oracle import verify_equivalence  # noqa: E402
from mhg.params import ParameterSequence  # noqa: E402

P3 = (3, 1, 3, 8, 9)
IIB = workloads.IIB


def test_report_check_rejects_wrong_graph_count():
    obj = verify_equivalence(ParameterSequence(*P3), 4).to_json_obj()
    assert checks.check_report(obj, P3, 4, None, None) == []
    assert checks.check_report(dict(obj, graphs_checked=obj["graphs_checked"] - 1), P3, 4, None, None)
    spot = dict(obj["spot_checks"], witness=obj["spot_checks"]["witness"] + 1)
    assert checks.check_report(dict(obj, spot_checks=spot), P3, 4, None, None)
    assert checks.check_report(dict(obj, ok=False, magic_mismatch_count=1), P3, 4, None, None)


def test_sampled_report_count_is_the_sample():
    obj = verify_equivalence(ParameterSequence(*IIB), 4, sample=300, seed=5).to_json_obj()
    assert checks.check_report(obj, IIB, 4, 300, 5) == []
    assert checks.check_report(obj, IIB, 4, 301, 5)


def test_completion_check_rejects_missing_input_edge():
    given = [(i, (i + 1) % 5, 5) for i in range(5)]
    done, _ = magic_complete(default_context(ParameterSequence(*IIB)), EdgeLabelledGraph(5, given))
    edges = done.to_json_obj()["edges"]
    assert checks.check_completion(IIB, 5, given, 5, edges) == []
    dropped = [e for e in edges if e[:2] != [0, 1]]
    assert checks.check_completion(IIB, 5, given, 5, dropped)
    relabelled = [[u, v, 4 if [u, v] == [0, 1] else l] for u, v, l in edges]
    assert checks.check_completion(IIB, 5, given, 5, relabelled)


def test_walk_check_rejects_walk_that_is_not_closed():
    pentagon = [(i, (i + 1) % 5, 5) for i in range(5)]
    assert checks.check_walk(5, pentagon, [0, 1, 2, 3, 4], [5, 5, 5, 5, 5]) == []
    path = pentagon[:-1]
    assert checks.check_walk(5, path, [0, 1, 2, 3, 4], [5, 5, 5, 5, 5])
    assert checks.check_walk(5, pentagon, [0, 1, 2, 3, 4], [4, 5, 5, 5, 5])


def test_own_rules_against_brute_force():
    k5 = [(u, v, 3) for u in range(5) for v in range(u + 1, 5)]
    assert checks.is_member(IIB, 5, k5)
    assert not checks.is_member(IIB, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 3)])  # not metric
    assert not checks.is_member(IIB, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 1)])  # perimeter 3 <= 2K1
    # Filling 0-2 with 2 is the only way to close (1, 1, x); on the square
    # 0-1-2-3 the chords are forced to 2 and triangle (2, 1, 5) is not metric.
    path = [(0, 1, 1), (1, 2, 1)]
    square = path + [(2, 3, 1), (0, 3, 5)]
    assert checks.completable(IIB, 3, path)
    assert not checks.completable(IIB, 4, square)
    assert checks.forbidden_triangles(P3) >= {(1, 1, 3), (3, 3, 3)}


def test_summarize_self_and_layer_time():
    spans = [
        ["oracle.verify_equivalence", 0.0, 10.0, -1],
        ["engine.decode", 1.0, 3.0, 0],
        ["families.find_witness", 4.0, 8.0, 0],
        ["families.enumerate_forbidden", 5.0, 6.0, 2],
    ]
    got = tracing.summarize(spans, {"engine.decode.rows": 7})
    assert got["oracle.verify_equivalence.self_s"] == 4.0
    assert got["families.find_witness.self_s"] == 3.0
    assert got["layer.families.total_s"] == 4.0
    assert got["layer.families.self_s"] == 4.0
    assert got["layer.engine.total_s"] == 2.0
    assert got["engine.decode.rows"] == 7


def _small(name, seed, outdir):
    """The workload's own operations on small inputs: sweeps to n = 4, and
    the CLI commands without the 200-vertex and K5 queries."""
    if name == "sweep-exhaustive":
        ops = [workloads._sweep_op(p, 4, None, seed) for p in (P3, (3, 2, 2, 10, 9))]
        return workloads.Workload(ops, True, workloads._magic_vs_brute_force([P3], seed))
    if name == "sweep-sampled":
        ops = [workloads._sweep_op(IIB, 4, 500, workloads.SAMPLE_SEED)]
        return workloads.Workload(ops, True, workloads._magic_vs_brute_force([IIB], seed))
    wl = workloads.cli_queries(seed, outdir)
    wl.ops = [op for op in wl.ops if "cycle200" not in op.label and "K5" not in op.label]
    return wl


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_run(monkeypatch, capsys, tmp_path, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, lambda seed, outdir: _small(name, seed, outdir))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    spec = json.load(open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8"))
    want = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in want}
    assert out["correct"] is True
    rounds = 2 if trace else 1
    ops = len(_small(name, 3, str(tmp_path)).ops)
    assert out["attempted"] == rounds * ops
    # The JSON-boolean graph check fails on every round until the fault is mended.
    assert out["failed"] == (rounds if name == "cli-queries" else 0)
    if trace and name != "cli-queries":
        assert out["metrics"]["engine.decode.rows"]["value"] > 0
    if trace and name == "cli-queries":
        assert out["metrics"]["cli.main.s"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-queries", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
