"""Benchmark of mhg's equivalence checker and its command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its src/.
One round runs every operation of the workload once.  The run repeats whole
rounds and stops before a round would end past S seconds; it always runs at
least one.  With --trace 0 it prints the end-to-end metrics of
BENCHMARK.json, with --trace 1 one untraced round and then traced rounds,
and the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


@dataclass
class Round:
    times: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)  # unexpected failures
    faults: list[str] = field(default_factory=list)  # failures of known faults

    @property
    def run_s(self) -> float:
        return sum(self.times)


def run_round(wl: workloads.Workload, tracer: tracing.Tracer | None) -> Round:
    r = Round()
    for op in wl.ops:
        t = time.perf_counter()
        try:
            out = op.run(tracer)
        except Exception:  # a call that raises is a failed call; keep going
            r.times.append(time.perf_counter() - t)
            bad = [traceback.format_exc(limit=3)]
        else:
            r.times.append(time.perf_counter() - t)
            bad = op.check(out)
        if bad:
            r.failed += 1
            (r.faults if op.known_fault else r.problems).extend(f"{op.label}: {b}" for b in bad)
    return r


def run_rounds(wl, tracer, seconds: float, after=None) -> list[Round]:
    """Whole rounds until the next one would end past `seconds`; at least
    one.  after(round) runs outside the timing, after each round."""
    rounds: list[Round] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t = time.perf_counter()
        rounds.append(run_round(wl, tracer))
        if after is not None:
            after(rounds[-1])
        longest = max(longest, time.perf_counter() - t)
        if time.perf_counter() - start + longest > seconds:
            return rounds


def setup_samples(args, first: float) -> list[float]:
    """Set-up time of this process plus SETUP_REPEATS - 1 fresh processes
    that import mhg and build the same inputs."""
    times = [first]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.split()[-1]))
    return times


def median_metrics(samples: list[dict]) -> dict:
    keys = set().union(*samples)
    return {k: statistics.median(s.get(k, 0) for s in samples) for k in keys}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mhg", "__init__.py")):
        print(f"error: no package at {SRC}/mhg; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)

    import mhg  # noqa: F401  (the import is part of set-up)

    outroot = os.path.join(HERE, ".out")
    os.makedirs(outroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=outroot)
    trace_path = os.path.join(outroot, f"trace-{args.workload}-seed{args.seed}.json")
    try:
        return measure(args, spec, workdir, trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, spec: dict, workdir: str, trace_path: str) -> int:
    """Set-up, the timed rounds and the checks; inputs and child output go
    to workdir, the spans of a traced run to trace_path."""
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    setup_first = time.perf_counter() - T0
    if args.setup_only:
        print(repr(setup_first))
        return 0
    setups = setup_samples(args, setup_first)

    rounds: list[Round] = []
    layer_rounds: list[dict] = []
    trace_rounds: list[list] = []
    metrics: dict[str, float] = {}
    if args.trace:
        start = time.perf_counter()
        rounds.append(run_round(wl, None))
        tracer = tracing.Tracer()
        if wl.in_process:
            tracer.install()

        def collect(r: Round) -> None:
            spans, counts = tracer.take()
            trace_rounds.append(spans)
            layer_rounds.append(tracing.summarize(spans, counts) | {"trace.run_s": r.run_s})

        remaining = args.seconds - (time.perf_counter() - start)
        rounds += run_rounds(wl, tracer, remaining, collect)
        tracer.uninstall()
        got = median_metrics(layer_rounds)
        points = got.get("engine.completable_lattice.points", 0)
        rows = got.get("engine.decode.rows", 0)
        got["engine.rows_per_lattice_point"] = rows / points if points else 0.0
        got["cli.cold_start.s"] = statistics.median(workloads.cold_start(workdir))
        got["trace.untraced_run_s"] = rounds[0].run_s
        got["trace.overhead_s"] = got["trace.run_s"] - rounds[0].run_s
        for m in spec["per_layer"]:
            metrics[m["name"]] = got.get(m["name"], 0)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "rounds": trace_rounds}, fh)
    else:
        rounds = run_rounds(wl, None, args.seconds)
        if wl.in_process:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            rss_kib = max(wl.child_rss_kib)
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": statistics.median(r.run_s for r in rounds),
            "call_p50_ms": 1000 * statistics.median(t for r in rounds for t in r.times),
            "peak_rss_mib": rss_kib / 1024,
        }

    problems = [p for r in rounds for p in r.problems] + wl.final_check()
    for line in problems + sorted({f for r in rounds for f in r.faults}):
        print(line, file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": not problems,
        "attempted": sum(len(r.times) for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(f"{args.workload} seed={args.seed}: {len(rounds)} round(s) of {len(wl.ops)} calls", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
