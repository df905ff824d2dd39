"""Command-line front end.

Exit status contract: 0 for a clean run or verdict, 1 when `verify` found a
mismatch or `family witness` found a witness, 2 for usage or input errors
(malformed graph JSON, a graph file that cannot be read, a graph label above
delta, non-admissible parameters where admissibility is required), 3 for an
internal error: any other exception, such as an engine disagreement or
running out of memory.  `graph check`, `complete` and `family witness` refuse
a label above delta with "graph labels exceed delta=<delta>" before any work.
All --json output is serialized with sorted keys so identical inputs give
byte-identical bytes.  As a program, a command whose stdout reader closes
(`mhg params list 40 | head -1`) ends on SIGPIPE, without a traceback, where
the platform has that signal.

`graph check` and `complete` run on per-vertex label bitsets held as Python
ints and refuse, with exit 2, a graph of more than graphs.MAX_BITSET_N (1,000)
vertices.  `family witness` exits 2 past families.WITNESS_BUDGET (100,000,000)
neighbour tests, `family classify` past MAX_CYCLE_LABELS (4,000) labels, and
`params list`, whose output grows as delta^4, past MAX_LIST_DELTA (60).
numpy is imported only by `verify`, traceback only on exit 3.  The value
types are named tuples, so a cold start imports neither dataclasses nor inspect.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

from .completion import bitset_complete
from .families import classify_cycle, enumerate_forbidden, find_witness, is_forbidden
from .graphs import EdgeLabelledGraph, canonical_cycle, first_violating_bitset
from .magic import default_context, magic_distances
from .onedelta import is_twisted_pair, render_table
from .oracle import BudgetExceededError, verify_equivalence
from .params import ParameterSequence, classify, enumerate_admissible, is_acceptable

PARAM_NAMES = ("DELTA", "K1", "K2", "C0", "C1")


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _admissible(vals: list[int]) -> ParameterSequence:
    p = ParameterSequence(*vals)
    if not p.is_admissible:
        raise ValueError(f"parameters {p} are acceptable but not admissible")
    return p


def _load_graph(path: str) -> EdgeLabelledGraph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return EdgeLabelledGraph.loads(text)


# Most labels `family classify` takes, as canonical_cycle is quadratic in them.
MAX_CYCLE_LABELS = 4_000


def _parse_cycle(text: str) -> tuple[int, ...]:
    if (count := text.count(",") + 1) > MAX_CYCLE_LABELS:
        raise ValueError(f"a cycle of {count} labels is over the limit of {MAX_CYCLE_LABELS}")
    try:
        labels = tuple(int(t) for t in text.split(","))
    except ValueError:
        raise ValueError(f"cycle must be comma-separated integers, got {text!r}") from None
    if len(labels) < 3:
        raise ValueError("a cycle needs at least 3 labels")
    return labels


def cmd_params_check(args) -> int:
    d, k1, k2, c0, c1 = args.params
    case = classify(d, k1, k2, c0, c1)
    obj = {
        "params": list(args.params),
        "acceptable": is_acceptable(d, k1, k2, c0, c1),
        "case": case.value,
    }
    if obj["acceptable"]:
        p = ParameterSequence(*args.params)
        obj["c"] = p.c
        obj["c_prime"] = p.c_prime
        obj["admissible"] = p.is_admissible
    print(_dumps(obj))
    return 0


MAX_LIST_DELTA = 60  # `params list` grows as delta^4; delta = 60 answers in about 2 s


def cmd_params_list(args) -> int:
    if args.delta > MAX_LIST_DELTA:
        raise ValueError(f"params list takes delta up to {MAX_LIST_DELTA}, not {args.delta}")
    tuples = enumerate_admissible(args.delta)
    if args.json:
        out = [
            {
                "params": list(p.as_tuple()),
                "case": p.case.value,
                "c": p.c,
                "c_prime": p.c_prime,
            }
            for p in tuples
        ]
        print(_dumps(out))
    else:
        for p in tuples:
            print(" ".join(str(v) for v in p.as_tuple()) + f"  {p.case.value}")
    return 0


def cmd_magic_show(args) -> int:
    p = _admissible(args.params)
    ctx = default_context(p, args.m)
    candidates = magic_distances(p)
    times = [None if math.isinf(t) else int(t) for t in map(ctx.time, range(1, p.delta + 1))]
    table = ctx.oplus_table()
    if args.json:
        obj = {
            "params": list(p.as_tuple()),
            "case": p.case.value,
            "candidates": candidates,
            "m": ctx.m,
            "permutation": list(ctx.permutation),
            "time": times,
            "oplus": table,
        }
        print(_dumps(obj))
        return 0
    print(f"params {p}  case {p.case.value}  C={p.c} C'={p.c_prime}")
    print("magic distances: " + " ".join(str(m) for m in candidates))
    print(f"m = {ctx.m}")
    print("permutation: " + " ".join(str(d) for d in ctx.permutation))
    print("time: " + " ".join(f"t({x})={'inf' if t is None else t}" for x, t in enumerate(times, 1)))
    width = len(str(p.delta))
    print(" " * (width + 2) + " ".join(str(y).rjust(width) for y in range(1, p.delta + 1)))
    for x, row in enumerate(table, 1):
        print(f"{str(x).rjust(width)} | " + " ".join(str(c).rjust(width) for c in row))
    return 0


def cmd_graph_check(args) -> int:
    p = _admissible(args.params)
    g = _load_graph(args.file)
    viol = first_violating_bitset(p, g)
    member = g.is_complete() and viol is None
    if args.json:
        obj = {
            "member": member,
            "complete": g.is_complete(),
            "n": g.n,
            "max_label": g.max_label(),
            "violating_triangle": None
            if viol is None
            else {
                "vertices": list(viol[0]),
                "labels": list(viol[1].labels),
                "violations": sorted(v.value for v in viol[1].violations),
            },
        }
        print(_dumps(obj))
        return 0
    print("member" if member else "not a member")
    if not g.is_complete():
        print("graph is incomplete")
    if viol is not None:
        (u, v, w), verdict = viol
        tags = ",".join(sorted(k.value for k in verdict.violations))
        print(f"violating triangle ({u},{v},{w}) labels {verdict.labels} [{tags}]")
    return 0


def cmd_complete(args) -> int:
    p = _admissible(args.params)
    ctx = default_context(p, args.m)
    g = _load_graph(args.file)
    done, trace = bitset_complete(ctx, g)
    if args.trace or args.json:
        obj = {"graph": done.to_json_obj(), "m": ctx.m}
        if args.trace:
            obj["trace"] = trace.to_json_obj()
        print(_dumps(obj))
    else:
        print(done.dumps())
    return 0


def cmd_family_classify(args) -> int:
    p = _admissible(args.params)
    cycle = _parse_cycle(args.cycle)
    witnesses = classify_cycle(p, cycle)
    forbidden = is_forbidden(p, cycle)
    if args.json:
        obj = {
            "cycle": list(cycle),
            "canonical": list(canonical_cycle(cycle)),
            "forbidden": forbidden,
            "witnesses": [w.to_json_obj() for w in witnesses],
        }
        print(_dumps(obj))
        return 0
    print(f"cycle {','.join(str(l) for l in cycle)}  forbidden: {'yes' if forbidden else 'no'}")
    for w in witnesses:
        d = ",".join(str(x) for x in w.d_edges) or "-"
        x = ",".join(str(x) for x in w.x_edges) or "-"
        print(f"  {w.tag.value} n={w.n} d=({d}) x=({x})")
    return 0


def cmd_family_enumerate(args) -> int:
    p = _admissible(args.params)
    cycles = enumerate_forbidden(p)
    if args.json:
        print(_dumps({"params": list(p.as_tuple()), "count": len(cycles), "cycles": [list(c) for c in cycles]}))
    else:
        for c in cycles:
            print(",".join(str(l) for l in c))
    return 0


def cmd_family_witness(args) -> int:
    p = _admissible(args.params)
    g = _load_graph(args.file)
    hit = find_witness(p, g)
    if args.json:
        obj = {"witness": None}
        if hit is not None:
            verts, w = hit
            obj["witness"] = {"walk": list(verts), "cycle": list(w.cycle), **w.to_json_obj()}
        print(_dumps(obj))
    else:
        if hit is None:
            print("none")
        else:
            verts, w = hit
            walk = "-".join(str(v) for v in verts)
            print(f"walk {walk}  cycle {','.join(str(l) for l in w.cycle)}  {w.tag.value} n={w.n}")
    return 1 if hit is not None else 0


def cmd_verify(args) -> int:
    p = _admissible(args.params)
    report = verify_equivalence(
        p,
        args.n_max,
        sample=args.sample,
        seed=args.seed,
        m=args.m,
    )
    if args.stats:
        print(f"stats {_dumps(report.stats)}", file=sys.stderr)
    if args.json:
        print(_dumps(report.to_json_obj()))
    else:
        print(f"params {p}  m={report.m}")
        if report.mode == "sampled":
            print(f"mode sampled  n={report.n_max}  sample={report.sample}  seed={report.seed}")
        else:
            print(f"mode exhaustive  n_max={report.n_max}")
        print(f"graphs checked: {report.graphs_checked}")
        print(f"witness mismatches: {report.witness_mismatch_count}")
        print(f"magic mismatches: {report.magic_mismatch_count}")
        print(f"fallback graphs: {report.fallback_graph_count}")
        sc = report.spot_checks
        print(
            "spot checks: "
            f"search={sc['search']} magic={sc['magic']} witness={sc['witness']}"
            f" (skipped {sc['search_skipped']})"
        )
        print(f"elapsed: {report.elapsed_seconds:.2f}s")
        print("ok" if report.ok else "MISMATCH")
    return 0 if report.ok else 1


def cmd_table(args) -> int:
    p = _admissible(args.params)
    tbl = render_table(p)
    if args.json:
        print(_dumps(tbl.to_json_obj()))
    else:
        print(tbl.render())
    return 0


def cmd_twisted(args) -> int:
    p1 = _admissible(args.params1)
    p2 = _admissible(args.params2)
    t1 = render_table(p1)
    t2 = render_table(p2)
    verdict = is_twisted_pair(p1, p2)
    if args.json:
        print(
            _dumps(
                {
                    "twisted": verdict,
                    "cells1": t1.to_json_obj()["cells"],
                    "cells2": t2.to_json_obj()["cells"],
                }
            )
        )
    else:
        print(f"twisted pair: {'yes' if verdict else 'no'}")
        for name, tbl in (("first", t1), ("second", t2)):
            cells = " ".join(f"({c.i},{c.j}):{c.symbol}" for c in tbl.cells)
            print(f"{name} {tbl.params}: {cells}")
    return 0


def _add_json(sp) -> None:
    sp.add_argument("--json", action="store_true", help="machine-readable output")


def _add_params(sp, flag="--params") -> None:
    sp.add_argument(flag, nargs=5, type=int, required=True, metavar=PARAM_NAMES)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mhg",
        description="Admissible parameters, magic completion and forbidden "
        "cycle families for 3-constrained metrically homogeneous graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    params = sub.add_parser("params", help="parameter admissibility")
    psub = params.add_subparsers(dest="subcommand", required=True)
    check = psub.add_parser("check", help="classify a raw 5-tuple")
    # A tuple metavar on a positional breaks argparse help rendering on 3.10,
    # so positionals spell the order out in the help string instead.
    check.add_argument(
        "params", nargs=5, type=int, metavar="N", help="delta k1 k2 c0 c1"
    )
    check.set_defaults(func=cmd_params_check)
    plist = psub.add_parser("list", help="all admissible tuples for a diameter")
    plist.add_argument("delta", type=int)
    _add_json(plist)
    plist.set_defaults(func=cmd_params_list)

    magic = sub.add_parser("magic", help="magic distances and the oplus table")
    msub = magic.add_subparsers(dest="subcommand", required=True)
    show = msub.add_parser("show", help="candidates, permutation, oplus table")
    show.add_argument(
        "params", nargs=5, type=int, metavar="N", help="delta k1 k2 c0 c1"
    )
    show.add_argument("--m", type=int, default=None, help="magic distance override")
    _add_json(show)
    show.set_defaults(func=cmd_magic_show)

    graph = sub.add_parser("graph", help="edge-labelled graph checks")
    gsub = graph.add_subparsers(dest="subcommand", required=True)
    gcheck = gsub.add_parser("check", help="membership and first violating triangle")
    gcheck.add_argument("file")
    _add_params(gcheck)
    _add_json(gcheck)
    gcheck.set_defaults(func=cmd_graph_check)

    complete = sub.add_parser("complete", help="run the magic completion")
    complete.add_argument("file")
    _add_params(complete)
    complete.add_argument("--m", type=int, default=None, help="magic distance override")
    complete.add_argument("--trace", action="store_true", help="include the stage log")
    _add_json(complete)
    complete.set_defaults(func=cmd_complete)

    family = sub.add_parser("family", help="forbidden cycle families")
    fsub = family.add_subparsers(dest="subcommand", required=True)
    fc = fsub.add_parser("classify", help="tags and decompositions of one cycle")
    _add_params(fc)
    fc.add_argument("--cycle", required=True, help="comma-separated labels")
    _add_json(fc)
    fc.set_defaults(func=cmd_family_classify)
    fe = fsub.add_parser("enumerate", help="list the whole obstruction set")
    _add_params(fe)
    _add_json(fe)
    fe.set_defaults(func=cmd_family_enumerate)
    fw = fsub.add_parser("witness", help="search a graph for an obstruction")
    fw.add_argument("file")
    _add_params(fw)
    _add_json(fw)
    fw.set_defaults(func=cmd_family_witness)

    verify = sub.add_parser("verify", help="three-route equivalence check")
    _add_params(verify)
    verify.add_argument("--n-max", type=int, required=True, dest="n_max")
    verify.add_argument("--sample", type=int, default=None)
    seed_help = "non-negative; numpy's default_rng(seed) draws sampled rows, random.Random(seed) spot-checked ones"
    verify.add_argument("--seed", type=int, default=0, help=seed_help)
    verify.add_argument("--m", type=int, default=None, help="magic distance override")
    verify.add_argument(
        "--stats", action="store_true", help="print per-layer seconds and counters to stderr"
    )
    _add_json(verify)
    verify.set_defaults(func=cmd_verify)

    table = sub.add_parser("table", help="cell table for 1/delta cycles")
    _add_params(table)
    _add_json(table)
    table.set_defaults(func=cmd_table)

    twisted = sub.add_parser("twisted", help="transposed-table pairing")
    _add_params(twisted, "--params1")
    _add_params(twisted, "--params2")
    _add_json(twisted)
    twisted.set_defaults(func=cmd_twisted)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except json.JSONDecodeError as e:
        print(f"error: invalid JSON: {e}", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceededError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        import traceback  # only an internal error pays for loading it

        traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


def console_main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a closed stdout pipe ends the process quietly
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
