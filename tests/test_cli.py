import hashlib
import json
import subprocess
import sys

import pytest
from conftest import python_env, run_python

from mhg import cli
from mhg.cli import main
from mhg.completion import magic_complete
from mhg.graphs import EdgeLabelledGraph, is_member
from mhg.magic import default_context
from mhg.params import ParameterSequence

IIB = ["5", "3", "3", "16", "13"]
III3 = ["3", "1", "3", "10", "9"]


@pytest.fixture
def pentagon(tmp_path):
    path = tmp_path / "pentagon.json"
    path.write_text(
        json.dumps({"n": 5, "edges": [[i, (i + 1) % 5, 5] for i in range(5)]})
    )
    return str(path)


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 3], [0, 2, 3], [1, 2, 3]]}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_check_admissible(capsys):
    code, out, _ = run(capsys, ["params", "check", *IIB])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "acceptable": True,
        "admissible": True,
        "c": 13,
        "c_prime": 16,
        "case": "IIB",
        "params": [5, 3, 3, 16, 13],
    }


def test_params_check_not_acceptable(capsys):
    code, out, _ = run(capsys, ["params", "check", "2", "1", "1", "8", "7"])
    assert code == 0
    obj = json.loads(out)
    assert obj == {
        "acceptable": False,
        "case": "NotAcceptable",
        "params": [2, 1, 1, 8, 7],
    }


def test_params_check_sorted_keys(capsys):
    _, out, _ = run(capsys, ["params", "check", *IIB])
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_params_list(capsys):
    code, out, _ = run(capsys, ["params", "list", "3"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "3 1 2 10 9  III"


def test_params_list_json(capsys):
    code, out, _ = run(capsys, ["params", "list", "5", "--json"])
    assert code == 0
    entries = json.loads(out)
    assert len(entries) == 33
    assert {"params": [5, 3, 3, 16, 13], "case": "IIB", "c": 13, "c_prime": 16} in entries


def test_params_list_refuses_delta_over_limit(capsys, monkeypatch):
    """`params list` grows as delta^4, so a delta past cli.MAX_LIST_DELTA
    exits 2, with or without --json, before any tuple is enumerated, and
    the message names the limit."""

    def no_work(delta):
        raise AssertionError("enumerated past the limit")

    monkeypatch.setattr(cli, "enumerate_admissible", no_work)
    over = str(cli.MAX_LIST_DELTA + 1)
    for argv in (["params", "list", over], ["params", "list", over, "--json"]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: params list takes delta up to {cli.MAX_LIST_DELTA}, not {over}\n"


def test_params_list_4_bytes(capsys):
    """The listing below the limit is byte-for-byte what it was before the
    limit came in: SHA-1 of stdout, text and --json."""
    for argv, sha in (
        (["params", "list", "4"], "1f58322be5fbe44bb3797370b5df742dc40d8d7a"),
        (["params", "list", "4", "--json"], "8abf5f64082860e1f6c0fe3295798f5dfcad8703"),
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha1(out.encode()).hexdigest() == sha, argv


def test_magic_show_json(capsys):
    code, out, _ = run(capsys, ["magic", "show", *IIB, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 3
    assert obj["candidates"] == [3]
    assert obj["permutation"] == [5, 1, 4, 2, 3]
    assert obj["time"] == [1, 3, None, 2, 0]
    assert obj["oplus"][4][4] == 2  # 5 (+) 5


def test_magic_show_text(capsys):
    code, out, _ = run(capsys, ["magic", "show", *IIB])
    assert code == 0
    assert "m = 3" in out
    assert "permutation: 5 1 4 2 3" in out
    assert "t(3)=inf" in out


def test_magic_show_bad_m(capsys):
    code, _, err = run(capsys, ["magic", "show", *IIB, "--m", "1"])
    assert code == 2
    assert "magic distance" in err


def test_graph_check_member(capsys, triangle):
    code, out, _ = run(capsys, ["graph", "check", triangle, "--params", *IIB, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["member"] is True
    assert obj["complete"] is True
    assert obj["violating_triangle"] is None


def test_graph_check_violation(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1]]}))
    code, out, _ = run(capsys, ["graph", "check", str(path), "--params", *IIB, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["member"] is False
    assert obj["violating_triangle"]["vertices"] == [0, 1, 2]
    assert obj["violating_triangle"]["violations"] == ["K1Low"]


def test_graph_check_text(capsys, tmp_path, triangle):
    code, out, _ = run(capsys, ["graph", "check", triangle, "--params", *IIB])
    assert code == 0
    assert out == "member\n"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1], [2, 3, 2]]}))
    code, out, _ = run(capsys, ["graph", "check", str(path), "--params", *IIB])
    assert code == 0
    assert out.splitlines() == [
        "not a member",
        "graph is incomplete",
        "violating triangle (0,1,2) labels (1, 1, 1) [K1Low]",
    ]
    path.write_text(json.dumps({"n": 4, "edges": [[0, 1, 1], [0, 2, 1], [1, 2, 1], [2, 3, 7]]}))
    code, out, err = run(capsys, ["graph", "check", str(path), "--params", *IIB])
    assert (code, out, err) == (2, "", "error: graph labels exceed delta=5\n")


@pytest.mark.parametrize(
    "edges",
    [
        [[0, 1, 9], [0, 2, 1], [1, 2, 1], [2, 3, 2]],  # in the first triangle scanned
        [[0, 1, 9], [2, 3, 2]],  # in no triangle
        [[0, 1, 1], [0, 2, 1], [1, 2, 1], [2, 3, 7]],  # after a violating triangle
    ],
    ids=["first-triangle", "no-triangle", "after-violation"],
)
@pytest.mark.parametrize(
    "argv",
    [["graph", "check"], ["graph", "check", "--json"], ["complete"], ["family", "witness"]],
    ids=" ".join,
)
def test_label_above_delta_refused_by_every_graph_command(capsys, tmp_path, edges, argv):
    """A label above delta is an input error wherever it sits: every command
    that reads a graph exits 2 with the same message and prints nothing."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 4, "edges": edges}))
    code, out, err = run(capsys, [*argv, str(path), "--params", *IIB])
    assert (code, out, err) == (2, "", "error: graph labels exceed delta=5\n")


def test_graph_check_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run(capsys, ["graph", "check", str(path), "--params", *IIB])
    assert code == 2
    assert "invalid JSON" in err


def test_graph_check_bad_edge_shape(capsys, tmp_path):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
    code, _, err = run(capsys, ["graph", "check", str(path), "--params", *IIB])
    assert code == 2
    assert "edges[0]" in err


def test_graph_check_missing_file(capsys):
    code, _, err = run(capsys, ["graph", "check", "/no/such/file.json", "--params", *IIB])
    assert code == 2
    assert err


def test_graph_check_non_admissible_params(capsys, triangle):
    code, out, err = run(capsys, ["graph", "check", triangle, "--params", "3", "1", "1", "8", "9"])
    assert (code, out, err) == (2, "", "error: parameters (3, 1, 1, 8, 9) are not admissible\n")


def test_complete_pentagon(capsys, pentagon):
    code, out, _ = run(capsys, ["complete", pentagon, "--params", *IIB, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["m"] == 3
    assert [0, 2, 2] in obj["graph"]["edges"]
    assert len(obj["graph"]["edges"]) == 10


def test_complete_trace(capsys, pentagon):
    code, out, _ = run(capsys, ["complete", pentagon, "--params", *IIB, "--trace"])
    assert code == 0
    obj = json.loads(out)
    assert obj["trace"]["stages"] == [
        {"stage": 4, "distance": 2, "pairs": [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]}
    ]
    assert obj["trace"]["fallback_pairs"] == []


def test_complete_plain(capsys, triangle):
    code, out, _ = run(capsys, ["complete", triangle, "--params", *IIB])
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": 3, "edges": [[0, 1, 3], [0, 2, 3], [1, 2, 3]]}


WIDE = ["300", "300", "300", "902", "901"]  # case III, magic distance 300


def test_complete_and_check_wide_delta(capsys, tmp_path):
    """delta = 300: labels and the magic distance overflow uint8, and the
    output matches the scalar references."""
    g = EdgeLabelledGraph(6, [(0, 1, 3), (1, 2, 300), (2, 3, 299), (3, 4, 1), (4, 5, 150), (5, 0, 7)])
    path = tmp_path / "wide.json"
    path.write_text(g.dumps())
    p = ParameterSequence(*map(int, WIDE))
    done, trace = magic_complete(default_context(p), g)
    code, out, _ = run(capsys, ["complete", str(path), "--params", *WIDE, "--trace"])
    assert code == 0
    assert json.loads(out) == {"graph": done.to_json_obj(), "m": 300, "trace": trace.to_json_obj()}
    path.write_text(done.dumps())
    code, out, _ = run(capsys, ["graph", "check", str(path), "--params", *WIDE, "--json"])
    assert code == 0
    assert is_member(p, done) and json.loads(out)["member"] is True
    # 256 would read as a blank pair in uint8; the odd perimeter 513 is at
    # most 2 K1 = 600.
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 256], [0, 2, 256], [1, 2, 1]]}))
    code, out, _ = run(capsys, ["graph", "check", str(path), "--params", *WIDE, "--json"])
    assert code == 0
    assert json.loads(out)["violating_triangle"] == {
        "vertices": [0, 1, 2], "labels": [256, 256, 1], "violations": ["K1Low"]
    }


def test_family_classify(capsys):
    code, out, _ = run(
        capsys, ["family", "classify", "--params", *IIB, "--cycle", "5,5,5,5,5", "--json"]
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["forbidden"] is True
    assert obj["canonical"] == [5, 5, 5, 5, 5]
    assert {"tag": "Special5", "n": 2, "d_edges": [5, 5, 5, 5, 5], "x_edges": []} in obj[
        "witnesses"
    ]


def test_family_classify_text(capsys):
    code, out, _ = run(capsys, ["family", "classify", "--params", *IIB, "--cycle", "3,3,3"])
    assert code == 0
    assert "forbidden: no" in out
    code, out, _ = run(capsys, ["family", "classify", "--params", *IIB, "--cycle", "5,5,5,5,5"])
    assert code == 0
    assert out.splitlines() == [
        "cycle 5,5,5,5,5  forbidden: yes",
        "  C n=2 d=(5,5,5,5,5) x=(-)",
        "  Special5 n=2 d=(5,5,5,5,5) x=(-)",
    ]


def test_family_classify_bad_cycle(capsys):
    code, _, err = run(capsys, ["family", "classify", "--params", *IIB, "--cycle", "5,x"])
    assert code == 2
    assert "comma-separated" in err
    code, out, err = run(capsys, ["family", "classify", "--params", *IIB, "--cycle", "1,2"])
    assert code == 2
    assert out == ""
    assert "at least 3 labels" in err


def test_family_classify_non_positive_label(capsys):
    """A label below 1 is refused, in text and --json alike, not classified.
    A leading minus needs the --cycle=... form (test_family_classify_leading_minus)."""
    for cycle in (["--cycle", "0,0,0"], ["--cycle=-1,2,3"]):
        for json_flag in ([], ["--json"]):
            code, out, err = run(capsys, ["family", "classify", "--params", *IIB, *cycle, *json_flag])
            assert (code, out, err) == (2, "", "error: cycle labels must be positive\n"), (cycle, json_flag)


@pytest.mark.parametrize(
    "params, cycle",
    [
        (IIB, "5,5,5,5,5"),
        (["1500", "1500", "1500", "4502", "4501"], ",".join(["1"] * 1999)),
        (IIB, "3,3,3"),
    ],
    ids=["pentagon", "long-k1", "no-family"],
)
def test_family_classify_builds_the_canonical_form_once(capsys, monkeypatch, params, cycle):
    """--json reads the canonical form off the witnesses where a family
    holds, and builds it itself only where none does."""
    from mhg import families
    from mhg.graphs import canonical_cycle

    seen = []

    def counted(labels):
        seen.append(len(labels))
        return canonical_cycle(labels)

    monkeypatch.setattr(cli, "canonical_cycle", counted)
    monkeypatch.setattr(families, "canonical_cycle", counted)
    code, out, _ = run(capsys, ["family", "classify", "--params", *params, "--cycle", cycle, "--json"])
    assert code == 0
    assert json.loads(out)["canonical"] == list(canonical_cycle(tuple(map(int, cycle.split(",")))))
    assert len(seen) == 1


def test_family_classify_leading_minus(capsys):
    """argparse reads a value that starts with '-' as an option, so
    --cycle -1,2,3 is a missing value and never reaches the cycle check."""
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, ["family", "classify", "--params", *IIB, "--cycle", "-1,2,3", *json_flag])
        assert (code, out) == (2, ""), json_flag
        assert "argument --cycle: expected one argument" in err


def test_family_classify_label_above_delta(capsys):
    """F(p) holds only cycles labelled 1..delta; a larger label is refused,
    not classified."""
    code, out, err = run(
        capsys, ["family", "classify", "--params", "3", "1", "3", "10", "9", "--cycle", "9,1,1"]
    )
    assert code == 2
    assert out == ""
    assert "exceed delta=3" in err


def test_family_enumerate(capsys):
    code, out, _ = run(capsys, ["family", "enumerate", "--params", *IIB, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == 36
    assert obj["cycles"][0] == [1, 1, 1]
    assert [5, 5, 5, 5, 5] in obj["cycles"]


def test_family_enumerate_text(capsys):
    code, out, _ = run(capsys, ["family", "enumerate", "--params", *III3])
    assert code == 0
    assert out.strip().splitlines() == ["1,1,3", "3,3,3"]


def test_family_witness_found(capsys, pentagon):
    code, out, _ = run(capsys, ["family", "witness", pentagon, "--params", *IIB])
    assert code == 1
    assert "Special5" in out


def test_family_witness_none(capsys, triangle):
    code, out, _ = run(capsys, ["family", "witness", triangle, "--params", *IIB])
    assert code == 0
    assert out.strip() == "none"


def test_family_witness_json(capsys, pentagon):
    code, out, _ = run(capsys, ["family", "witness", pentagon, "--params", *IIB, "--json"])
    assert code == 1
    obj = json.loads(out)
    assert obj["witness"]["walk"] == [0, 1, 2, 3, 4]
    assert obj["witness"]["tag"] == "Special5"


def test_verify_text(capsys):
    code, out, _ = run(capsys, ["verify", "--params", *III3, "--n-max", "3"])
    assert code == 0
    assert "graphs checked: 64" in out
    assert out.strip().endswith("ok")
    code, out, _ = run(
        capsys, ["verify", "--params", *III3, "--n-max", "3", "--sample", "50", "--seed", "4"]
    )
    assert code == 0
    assert out.splitlines()[1] == "mode sampled  n=3  sample=50  seed=4"
    assert "graphs checked: 50" in out


def test_verify_json_byte_stable(capsys):
    argv = ["verify", "--params", *III3, "--n-max", "4", "--json"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    obj = json.loads(out1)
    assert obj["ok"] is True
    assert obj["graphs_checked"] == 4160


def test_verify_stats_leave_json_alone(capsys):
    argv = ["verify", "--params", *III3, "--n-max", "4", "--json"]
    code1, out1, err1 = run(capsys, argv)
    code2, out2, err2 = run(capsys, argv + ["--stats"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert err1 == ""
    label, _, body = err2.strip().partition(" ")
    assert label == "stats"
    assert json.loads(body)["rows_checked"] == 4160


def test_verify_sampled_seed_echo(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "--params", *IIB, "--n-max", "4", "--sample", "200", "--seed", "9", "--json"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["mode"] == "sampled"
    assert obj["seed"] == 9
    assert obj["sample"] == 200


def test_table_text(capsys):
    code, out, _ = run(capsys, ["table", "--params", "4", "1", "3", "14", "11"])
    assert code == 0
    assert out.rstrip("\n") == (
        "    0   1  2  3\n"
        "0δ  ·   ·  ·\n"
        "1δ  ·   ·  δ  δ\n"
        "2δ  ·  K2\n"
        "3δ     C1"
    )


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--params", *IIB, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert {"i": 5, "j": 0, "tag": "C1^5"} in obj["cells"]
    assert len(obj["cells"]) == 11


def test_family_enumerate_delta9_is_fast():
    """F(p) for (9,1,8,22,21) tests the label multisets of 3 to
    walk_bound(p) = 9 labels, the length of its longest member; under a
    looser bound of 17 it took 21-24 s in a fresh process (2-core Xeon)."""
    proc = run_python(["-m", "mhg", "family", "enumerate", "--params", "9", "1", "8", "22", "21", "--json"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    cycles = json.loads(proc.stdout)["cycles"]
    assert len(cycles) == 1017
    assert max(map(len, cycles)) == 9


def test_table_delta100_is_fast():
    """The table sweeps the cells with i + j <= walk_bound(p); over the
    (3 delta + 4)^2 grid, delta = 100 took 7-11 s in a fresh process
    (2-core Xeon)."""
    proc = run_python(["-m", "mhg", "table", "--params", "100", "100", "100", "302", "301", "--json"], timeout=10)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["cells"]) == 197


def test_twisted(capsys):
    code, out, _ = run(
        capsys,
        [
            "twisted",
            "--params1", "4", "1", "3", "12", "11",
            "--params2", "4", "2", "3", "14", "11",
        ],
    )
    assert code == 0
    assert "twisted pair: yes" in out


def test_twisted_json(capsys):
    code, out, _ = run(
        capsys,
        [
            "twisted",
            "--params1", "4", "1", "3", "12", "11",
            "--params2", "4", "2", "3", "12", "11",
            "--json",
        ],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["twisted"] is False


def test_usage_error_exit_code(capsys):
    assert main(["params"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    assert main(["verify", "--params", *III3, "--n-max", "3", "--threads", "2"]) == 2
    assert main(["verify", "--params", *III3, "--n-max", "3", "--budget", "5"]) == 2


def test_verify_rejects_bad_n(capsys):
    code, _, err = run(capsys, ["verify", "--params", *III3, "--n-max", "2"])
    assert code == 2
    assert "n_max" in err


@pytest.mark.parametrize("sample", ["0", "-1"])
def test_verify_rejects_non_positive_sample(capsys, sample):
    code, out, err = run(
        capsys, ["verify", "--params", *III3, "--n-max", "4", "--sample", sample]
    )
    assert code == 2
    assert out == ""
    assert "sample" in err


@pytest.mark.parametrize("sample", [[], ["--sample", "50"]], ids=["exhaustive", "sampled"])
def test_verify_rejects_negative_seed(capsys, sample):
    """verify checks the seed itself in both modes: the stdlib picker of
    spot-check rows would take a negative seed, and only sampled mode draws
    rows with numpy, whose generator refuses it with its own message."""
    code, out, err = run(capsys, ["verify", "--params", *III3, "--n-max", "4", "--seed", "-1", *sample])
    assert code == 2
    assert out == ""
    assert "seed must be non-negative" in err


@pytest.mark.parametrize("exc", [RuntimeError("engine disagreement"), MemoryError()])
def test_internal_error_exit_code(capsys, monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_params_check", boom)
    code, out, err = run(capsys, ["params", "check", *IIB])
    assert code == 3
    assert out == ""
    assert f"internal error: {type(exc).__name__}" in err
    assert "Traceback (most recent call last)" in err


@pytest.mark.parametrize(
    "command", [["graph", "check"], ["complete"], ["family", "witness"]], ids=["graph-check", "complete", "witness"]
)
def test_unreadable_graph_path_is_input_error(capsys, tmp_path, command):
    """A graph path that cannot be read, here a directory, is an input
    error: exit 2 with the OS message, no traceback."""
    code, out, err = run(capsys, [*command, str(tmp_path), "--params", *IIB])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["graph", "check"], ["complete"]], ids=["graph-check", "complete"])
def test_huge_n_refused(tmp_path, command):
    """A 27-byte input with n far above the cap exits 2 at once, before any
    n-by-n allocation or O(n^3) scan."""
    path = tmp_path / "huge.json"
    path.write_text('{"n": 100000, "edges": []}')
    proc = run_python(["-m", "mhg", *command, str(path), "--params", *IIB], timeout=30)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "vertices" in proc.stderr


@pytest.mark.parametrize(
    "n_max, sample, hint",
    [
        ("300", ["--sample", "10"], "sampled mode caps it"),
        ("1000", ["--sample", "10"], "sampled mode caps it"),
        ("6", [], "use sampling"),
    ],
    ids=["sampled-300", "sampled-1000", "exhaustive-6"],
)
def test_verify_huge_n_refused(n_max, sample, hint):
    """The lattice size of n_max is checked before any Engine is built or
    any smaller n is run: at n = 1,000 the engine's tables alone exhaust
    memory, at n = 300 the point count has more digits than Python will
    print, and an exhaustive run would first spend minutes on n = 5."""
    proc = run_python(["-m", "mhg", "verify", "--params", *IIB, "--n-max", n_max, *sample], timeout=2)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"lattice for n={n_max} has 6^" in proc.stderr
    assert f"points, over 200000000; {hint}" in proc.stderr


@pytest.mark.parametrize(
    "edges, code, out",
    [
        ([], 0, "none"),
        (
            [[999999997, 999999998, 5], [999999998, 999999999, 5], [999999997, 999999999, 5]],
            1,
            "walk 999999997-999999998-999999999  cycle 5,5,5  C1 n=1",
        ),
    ],
    ids=["empty", "triangle"],
)
def test_family_witness_huge_sparse_graph(tmp_path, edges, code, out):
    """Only vertices that carry an edge lie on a closed walk, so a 10^9
    vertex graph is answered without per-vertex work."""
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"n": 1_000_000_000, "edges": edges}))
    proc = run_python(["-m", "mhg", "family", "witness", str(path), "--params", *IIB], timeout=30)
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.strip() == out


@pytest.mark.parametrize(
    "command",
    [["family", "enumerate"], ["family", "witness", "TRIANGLE"], ["verify", "--n-max", "3"]],
    ids=["enumerate", "witness", "verify"],
)
def test_oversized_obstruction_set_refused(triangle, command):
    """Under (10,1,10,22,23) F(p) means testing 2.0e7 label multisets, of 3
    to 19 labels, minutes of work: each command that enumerates it exits 2
    before starting."""
    argv = [triangle if a == "TRIANGLE" else a for a in command]
    proc = run_python(["-m", "mhg", *argv, "--params", "10", "1", "10", "22", "23"], timeout=30)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "tests 20029944 label multisets; at most 4000000 are supported" in proc.stderr


def test_verify_large_delta_refused_before_engine_tables():
    """Under each tuple the n = 3 lattice passes the cap check, but F(p)
    would test far more than 4,000,000 label multisets (1.2e17 under
    (30,1,29,64,63)): verify exits 2 with that message at once, exhaustive or
    sampled, before the (delta + 1)**3 label cube of any Engine table is built."""
    for args in (
        ["--params", "30", "1", "29", "64", "63"],
        ["--params", "300", "300", "300", "902", "901"],
        ["--params", "300", "300", "300", "902", "901", "--sample", "10"],
        ["--params", "150", "150", "150", "452", "451"],
    ):
        proc = run_python(["-m", "mhg", "verify", "--n-max", "3", *args], timeout=10)
        assert proc.returncode == 2, (args, proc.stderr)
        assert proc.stdout == ""
        assert "label multisets; at most 4000000 are supported" in proc.stderr, args


def test_closed_stdout_pipe_is_quiet():
    """A reader that stops after one line, as `mhg params list 40 | head -1`
    does, ends the 199 kB listing without a traceback or exit code 3."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "mhg", "params", "list", "40"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=python_env(),
    )
    assert proc.stdout.readline() == b"40 1 39 84 83  III\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode != 3
    assert b"Traceback" not in err and b"internal error" not in err, err


def test_cli_cold_start_modules(pentagon):
    """Only `verify` loads numpy; `graph check` and `complete` run on Python
    ints.  The value types are named tuples, so no command loads dataclasses
    or inspect, and traceback loads only for an internal error.  mhg.oracle
    is imported with mhg.cli, not lazily: tracers look it up in sys.modules
    once mhg.cli is imported."""
    code = (
        "import sys\n"
        "def unloaded(step):\n"
        "    for name in ('numpy', 'dataclasses', 'inspect', 'traceback'):\n"
        "        assert name not in sys.modules, (name, step)\n"
        "import mhg.cli\n"
        "unloaded('import mhg.cli')\n"
        "assert 'mhg.oracle' in sys.modules\n"
        "assert mhg.cli.main(['params', 'check', '5', '3', '3', '16', '13']) == 0\n"
        "unloaded('params check')\n"
        f"assert mhg.cli.main(['graph', 'check', {pentagon!r}, '--params', *{IIB!r}]) == 0\n"
        "unloaded('graph check')\n"
        f"assert mhg.cli.main(['complete', {pentagon!r}, '--params', *{IIB!r}, '--json', '--trace']) == 0\n"
        "unloaded('complete')\n"
    )
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr
