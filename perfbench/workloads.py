"""The three workloads: their inputs, their timed operations and the checks
on each operation's output.

A workload is a list of operations that makes one round.  The runner times
each operation's ``run`` and then, outside the timed part, its ``check``.
Inputs depend only on the seed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import checks
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

IIB = (5, 3, 3, 16, 13)

# The sampled sweep checks a fixed set of delta = 5 tuples with the sample
# seed of the criterion-2 sweep.  Its cost is set by the scalar witness
# search on the 12 spot-checked rows, which takes 0.03 s on a row with an
# obstruction and up to 3 s on one without; with a seeded sample seed the
# call time of one tuple moved between 1.9 s and 6.5 s, wider than any
# usable bound.  The four tuples cover cases IIA, IIB and III and walk
# bounds 9, 8 and 5; at seed 7 they take 2.7, 2.1, 1.4 and 11.8 s.
SAMPLE = 100_000
SAMPLE_SEED = 7
SAMPLED_TUPLES = ((5, 3, 3, 14, 13), (5, 3, 3, 16, 13), (5, 3, 4, 14, 17), (5, 2, 4, 16, 15))


@dataclass
class Op:
    """One timed operation.  run(tracer) returns the output that
    check(output) inspects; a check returns a list of problems.  An
    operation with known_fault fails today because of that fault."""

    label: str
    run: Callable[[tracing.Tracer | None], object]
    check: Callable[[object], list[str]]
    known_fault: str | None = None


@dataclass
class Workload:
    ops: list[Op]
    # Traced in-process by wrapping mhg's modules; otherwise each operation
    # traces its own child process.
    in_process: bool
    final_check: Callable[[], list[str]] = lambda: []
    child_rss_kib: list[int] = field(default_factory=list)


# ---------------------------------------------------------------- sweeps


def _sweep_op(p: tuple, n_max: int, sample: int | None, seed: int) -> Op:
    from mhg import oracle
    from mhg.params import ParameterSequence

    ps = ParameterSequence(*p)
    mode = "exhaustive" if sample is None else "sampled"

    def run(_tracer):
        # Looked up at call time, so a tracer's wrapper is the one called.
        return oracle.verify_equivalence(ps, n_max, sample=sample, seed=seed)

    def check(report) -> list[str]:
        return checks.check_report(report.to_json_obj(), p, n_max, sample, seed)

    return Op(f"verify {mode} {p} n={n_max} seed={seed}", run, check)


def _magic_vs_brute_force(tuples, seed: int) -> Callable[[], list[str]]:
    """Per tuple: two members of the class with three pairs blanked (so
    completable) and two uniform lattice points on four vertices.  The
    program's magic completion plus membership must agree with brute
    force over the triangle rules."""

    def final_check() -> list[str]:
        from mhg.completion import magic_complete
        from mhg.graphs import EdgeLabelledGraph, is_member
        from mhg.magic import default_context
        from mhg.params import ParameterSequence

        rng = random.Random(seed)
        bad = []
        for p in tuples:
            ctx = default_context(ParameterSequence(*p))
            graphs = []
            for _ in range(2):
                edges = checks.random_member(p, 5, rng)
                for i in sorted(rng.sample(range(len(edges)), 3), reverse=True):
                    del edges[i]
                graphs.append((5, edges))
            graphs += [(4, checks.random_partial(p, 4, rng)) for _ in range(2)]
            for n, edges in graphs:
                done, _ = magic_complete(ctx, EdgeLabelledGraph(n, edges))
                want = checks.completable(p, n, edges)
                if is_member(ctx.params, done) != want:
                    bad.append(f"magic route on {p} n={n} {edges}: brute force says {want}")
        return bad

    return final_check


# Tuples run in a fixed order: the first call of a process pays for
# first-touch memory and code, and a seeded order moved that cost between
# tuples and the median call by up to 25%.


def sweep_exhaustive(seed: int, outdir: str) -> Workload:
    """Every admissible delta = 3 tuple, exhaustive to n = 5, as criterion 2
    runs them; the seed draws the spot-check seed of each call and the
    graphs of the brute-force check."""
    from mhg.params import enumerate_admissible

    rng = random.Random(seed)
    tuples = [p.as_tuple() for p in enumerate_admissible(3)]
    ops = [_sweep_op(p, 5, None, rng.randrange(2**31)) for p in tuples]
    return Workload(ops, True, _magic_vs_brute_force(tuples, seed))


def sweep_sampled(seed: int, outdir: str) -> Workload:
    """SAMPLED_TUPLES, 10^5 sampled graphs on n = 5 each; the seed draws
    the graphs of the brute-force check."""
    ops = [_sweep_op(p, 5, SAMPLE, SAMPLE_SEED) for p in SAMPLED_TUPLES]
    return Workload(ops, True, _magic_vs_brute_force(SAMPLED_TUPLES, seed))


# ----------------------------------------------------------- cli queries


@dataclass
class Proc:
    code: int
    out: str
    err: str


def child_env() -> dict:
    path = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def spawn(cmd: list[str], outdir: str, rss: list[int] | None = None) -> Proc:
    """Run a child to its end; its peak RSS (KiB) goes to rss."""
    out_path = os.path.join(outdir, "child.out")
    err_path = os.path.join(outdir, "child.err")
    with open(out_path, "w+b") as fo, open(err_path, "w+b") as fe:
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        out, err = fo.read().decode(), fe.read().decode()
    if rss is not None:
        rss.append(usage.ru_maxrss)
    return Proc(proc.returncode, out, err)


def cold_start(outdir: str, repeats: int = 5) -> list[float]:
    """Wall time of a child that only imports mhg.cli."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        proc = spawn([sys.executable, "-c", "import mhg.cli"], outdir)
        times.append(time.perf_counter() - t)
        if proc.code != 0:
            raise RuntimeError(f"importing mhg.cli failed: {proc.err}")
    return times


def _write(outdir: str, name: str, n: int, edges) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"n": n, "edges": [list(e) for e in edges]}, fh)
    return path


def _json(proc: Proc):
    if proc.code != 0:
        raise ValueError(f"exit {proc.code}: {proc.err.strip()[-300:]}")
    return json.loads(proc.out)


def _problems(fn: Callable[[Proc], list[str]]) -> Callable[[Proc], list[str]]:
    """A check that raises (bad exit code, unparsable output) reports it."""

    def check(proc: Proc) -> list[str]:
        try:
            return fn(proc)
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return [f"{type(e).__name__}: {e}"]

    return check


def check_params_check(proc: Proc) -> list[str]:
    obj = _json(proc)
    # Paper: (5,3,3,16,13) is case IIB with C = 13 and C' = 16.
    if (obj["case"], obj["c"], obj["c_prime"], obj["admissible"]) != ("IIB", 13, 16, True):
        return [f"params check 5 3 3 16 13 gave {obj}"]
    return []


def check_params_list(proc: Proc) -> list[str]:
    got = {tuple(e["params"]): e for e in _json(proc)}
    bad = []
    for (d, k1, k2, c0, c1), e in got.items():
        acceptable = (
            d == 4 and 1 <= k1 <= k2 <= d and c0 % 2 == 0 and c1 % 2 == 1
            and all(2 * d + 2 <= c <= 3 * d + 2 for c in (c0, c1))
        )
        if not acceptable or (e["c"], e["c_prime"]) != (min(c0, c1), max(c0, c1)):
            bad.append(f"listed tuple {e}")
    # Tuples of the paper's tables and examples.
    for p in ((4, 1, 4, 10, 11), (4, 1, 3, 14, 11), (4, 1, 3, 12, 11), (4, 2, 3, 14, 11)):
        if p not in got:
            bad.append(f"admissible {p} not listed")
    return bad


def check_magic_show(proc: Proc) -> list[str]:
    obj = _json(proc)
    m, table = obj["m"], obj["oplus"]
    bad = [] if m == 2 else [f"magic show 4 1 4 10 11 gave M = {m}, paper says 2"]
    d = len(table)
    if any(table[x][m - 1] != m or table[x][y] != table[y][x] for x in range(d) for y in range(d)):
        bad.append("oplus is not commutative with M absorbing")
    return bad


def check_classify_pentagon(proc: Proc) -> list[str]:
    obj = _json(proc)
    tags = {w["tag"] for w in obj["witnesses"]}
    if not obj["forbidden"] or "Special5" not in tags:
        return [f"all-5 pentagon under {IIB}: forbidden={obj['forbidden']} tags={tags}"]
    return []


def check_enumerate(p):
    def check(proc: Proc) -> list[str]:
        obj = _json(proc)
        cycles = [tuple(c) for c in obj["cycles"]]
        bad = []
        if obj["count"] != len(cycles) or cycles != sorted(cycles, key=lambda c: (len(c), c)):
            bad.append("cycle list miscounted or out of order")
        if any(checks.canonical_cycle(c) != c or not set(c) <= set(range(1, p[0] + 1)) for c in cycles):
            bad.append("non-canonical cycle or label out of range")
        if {c for c in cycles if len(c) == 3} != checks.forbidden_triangles(p):
            bad.append("3-edge members of F differ from the forbidden triangles")
        return bad

    return check


# Paper, Table 3: the distance-1/delta cells of (4,1,3,14,11).
TABLE_3 = {(1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 1): "C1"}


def check_table(proc: Proc) -> list[str]:
    got = {(c["i"], c["j"]): c["tag"] for c in _json(proc)["cells"]}
    return [] if got == TABLE_3 else [f"table for (4,1,3,14,11) is {got}"]


def check_twisted(proc: Proc) -> list[str]:
    obj = _json(proc)
    pos1 = {(c["i"], c["j"]) for c in obj["cells1"]}
    pos2 = {(c["j"], c["i"]) for c in obj["cells2"]}
    # Paper, Table 2: the two sub-tables are transposes of each other.
    if obj["twisted"] is not True or pos1 != pos2:
        return [f"twisted={obj['twisted']}, transposed positions equal: {pos1 == pos2}"]
    return []


def check_verify(p, n_max):
    def check(proc: Proc) -> list[str]:
        return checks.check_report(_json(proc), p, n_max, None, None)

    return check


def check_graph_check(p, n, edges):
    want = checks.is_member(p, n, edges)

    def check(proc: Proc) -> list[str]:
        got = _json(proc)["member"]
        return [] if got == want else [f"graph check says member={got}, triangle rules say {want}"]

    return check


def check_witness(n, edges, completed_member: Callable[[], bool]):
    """A reported walk must check out; "none" must agree with membership of
    the graph's completion (completable exactly when witness-free)."""

    def check(proc: Proc) -> list[str]:
        if proc.code not in (0, 1):
            return [f"exit {proc.code}: {proc.err.strip()[-300:]}"]
        hit = json.loads(proc.out)["witness"]
        if (hit is None) != (proc.code == 0):
            return [f"exit {proc.code} with witness {hit}"]
        member = completed_member()
        if hit is None:
            return [] if member else ["no witness, but the completion is not a member"]
        bad = checks.check_walk(n, edges, hit["walk"], hit["cycle"])
        if member:
            bad.append(f"witness {hit['walk']} in a graph whose completion is a member")
        return bad

    return check


def cli_queries(seed: int, outdir: str) -> Workload:
    """One fresh `python -m mhg` process per command; see README.md."""
    rng = random.Random(seed)
    wl = Workload([], False)
    iib = [str(x) for x in IIB]
    state: dict[str, bool] = {}

    def add(label, argv, check, known_fault=None):
        def run(tracer):
            if tracer is None:
                return spawn([sys.executable, "-m", "mhg", *argv], outdir, wl.child_rss_kib)
            spans_path = os.path.join(outdir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv]
            proc = spawn(cmd, outdir, wl.child_rss_kib)
            tracer.absorb(*tracing.load(spans_path))
            return proc

        wl.ops.append(Op(label, run, _problems(check), known_fault))

    add("params check", ["params", "check", *iib], check_params_check)
    add("params list", ["params", "list", "4", "--json"], check_params_list)
    add("magic show", ["magic", "show", "4", "1", "4", "10", "11", "--json"], check_magic_show)
    add(
        "family classify",
        ["family", "classify", "--params", *iib, "--cycle", "5,5,5,5,5", "--json"],
        check_classify_pentagon,
    )
    p3 = (3, 1, 3, 10, 9)
    add(
        "family enumerate",
        ["family", "enumerate", "--params", *map(str, p3), "--json"],
        check_enumerate(p3),
    )
    add("table", ["table", "--params", "4", "1", "3", "14", "11", "--json"], check_table)
    add(
        "twisted",
        ["twisted", "--params1", "4", "1", "3", "12", "11",
         "--params2", "4", "2", "3", "14", "11", "--json"],
        check_twisted,
    )
    add(
        "verify small",
        ["verify", "--params", "3", "1", "3", "8", "9", "--n-max", "4", "--json"],
        check_verify((3, 1, 3, 8, 9), 4),
    )

    member6 = checks.random_member(IIB, 6, rng)
    relabel = rng.choice([l for l in range(1, 6) if l != member6[0][2]])
    small = {
        "member6": member6,
        "changed6": [(0, 1, relabel)] + member6[1:],
        "partial6": checks.random_partial(IIB, 6, rng),
    }
    for name, edges in small.items():
        path = _write(outdir, f"{name}.json", 6, edges)
        add(f"graph check {name}", ["graph", "check", path, "--params", *iib, "--json"],
            check_graph_check(IIB, 6, edges))

    # A JSON `true` label is not an integer label; the input is rejected with
    # exit 2 once EdgeLabelledGraph.from_json_obj refuses booleans.
    bool_path = os.path.join(outdir, "bool_label.json")
    with open(bool_path, "w", encoding="utf-8") as fh:
        fh.write('{"n": 3, "edges": [[0, 1, 3], [0, 2, 3], [1, 2, true]]}')

    def check_bool(proc: Proc) -> list[str]:
        if proc.code == 2:
            return []
        return [f"JSON boolean label accepted: exit {proc.code}, output {proc.out.strip()!r}"]

    add("graph check bool label", ["graph", "check", bool_path, "--params", *iib], check_bool,
        known_fault="EdgeLabelledGraph.from_json_obj accepts JSON booleans as integer labels")

    k5 = [(u, v, 3) for u in range(5) for v in range(u + 1, 5)]
    path = _write(outdir, "k5_all3.json", 5, k5)
    add("family witness K5", ["family", "witness", path, "--params", *iib, "--json"],
        check_witness(5, k5, lambda: checks.is_member(IIB, 5, k5)))

    n = 200
    cycle = [(i, (i + 1) % n, rng.randint(1, 5)) for i in range(n)]
    cycle_path = _write(outdir, "cycle200.json", n, cycle)
    done_path = os.path.join(outdir, "cycle200_done.json")

    def check_complete(proc: Proc) -> list[str]:
        g = _json(proc)["graph"]
        bad = checks.check_completion(IIB, n, cycle, g["n"], g["edges"])
        state["member"] = not bad and checks.is_member(IIB, n, g["edges"])
        with open(done_path, "w", encoding="utf-8") as fh:
            json.dump(g, fh)
        return bad

    def check_done(proc: Proc) -> list[str]:
        got = _json(proc)["member"]
        if "member" not in state or got != state["member"]:
            return [f"graph check says member={got}, triangle rules say {state.get('member')}"]
        return []

    add("complete cycle200", ["complete", cycle_path, "--params", *iib, "--json"], check_complete)
    add("graph check cycle200 completed",
        ["graph", "check", done_path, "--params", *iib, "--json"], check_done)
    add("family witness cycle200", ["family", "witness", cycle_path, "--params", *iib, "--json"],
        check_witness(n, cycle, lambda: state.get("member") is True))

    # The same cycle with edges 0-1 and 1-2 relabelled 1 and a chord 0-2
    # labelled 5: the triangle (1, 1, 5) is not metric, so a witness exists.
    chord = [(0, 1, 1), (1, 2, 1)] + cycle[2:] + [(0, 2, 5)]
    path = _write(outdir, "cycle200_chord.json", n, chord)
    add("family witness cycle200+chord", ["family", "witness", path, "--params", *iib, "--json"],
        check_witness(n, chord, lambda: False))
    return wl


WORKLOADS = {
    "sweep-exhaustive": sweep_exhaustive,
    "sweep-sampled": sweep_sampled,
    "cli-queries": cli_queries,
}
