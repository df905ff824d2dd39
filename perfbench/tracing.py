"""Span recording around the calls into each mhg module, from outside.

A Tracer replaces chosen functions of the loaded ``mhg`` modules by wrappers
that record one span per call: name, start, end and the index of the
enclosing span.  Modules import names from each other by value (``oracle``
and ``cli`` hold their own references to ``find_witness``,
``magic_complete`` and the rest), so every module attribute that refers to a
wrapped function is replaced, not only the defining one.  Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import numpy as np

# (defining module, function name, span name).  Work counters taken from a
# call's arguments or result are in _count_args.
FUNCTIONS = (
    ("mhg.oracle", "verify_equivalence", "oracle.verify_equivalence"),
    ("mhg.oracle", "has_completion", "oracle.has_completion"),
    ("mhg.families", "find_witness", "families.find_witness"),
    ("mhg.families", "enumerate_forbidden", "families.enumerate_forbidden"),
    ("mhg.completion", "magic_complete", "completion.magic_complete"),
    ("mhg.graphs", "is_member", "graphs.is_member"),
    ("mhg.cli", "main", "cli.main"),
)
ENGINE_METHODS = (
    ("__init__", "engine.Engine"),
    ("completable_lattice", "engine.completable_lattice"),
    ("decode", "engine.decode"),
    ("complete_batch", "engine.complete_batch"),
    ("member_batch", "engine.member_batch"),
    ("obstruction_batch", "engine.obstruction_batch"),
)
LAYERS = ("engine", "families", "oracle", "completion", "graphs", "cli")


def _count_args(name, args, result, counts: Counter) -> None:
    """Work counters taken at the span boundary."""
    if name == "engine.decode":
        counts["engine.decode.rows"] += int(np.size(args[1]))
    elif name == "engine.completable_lattice":
        counts["engine.completable_lattice.points"] += int(args[0].size)
    elif name == "families.enumerate_forbidden":
        counts["families.enumerate_forbidden.cycles"] += len(result)
    elif name == "oracle.verify_equivalence":
        counts["oracle.search_skipped"] += int(result.spot_checks["search_skipped"])


class Tracer:
    """Records spans as [name, start, end, parent index] lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        _count_args(name, args, result, self.counts)
        return result

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def _wrap_walks(self, fn):
        """Counts the walks a closed-walk generator yields; its time stays
        with the caller, find_witness."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["graphs.closed_walks.yielded"] += 1
                yield item

        return wrapper

    def _replace_everywhere(self, orig, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "mhg" and not modname.startswith("mhg."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, attr, orig))
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        import mhg.cli  # noqa: F401  (cli is not imported by the package)
        from mhg import graphs
        from mhg.engine import Engine

        for modname, fname, span in FUNCTIONS:
            orig = getattr(sys.modules[modname], fname)
            self._replace_everywhere(orig, self._wrap(span, orig))
        orig = graphs.closed_walks_with_vertices
        self._replace_everywhere(orig, self._wrap_walks(orig))
        for meth, span in ENGINE_METHODS:
            orig = vars(Engine)[meth]
            self._restore.append((Engine, meth, orig))
            setattr(Engine, meth, self._wrap(span, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def absorb(self, spans: list[list], counts: Counter) -> None:
        """Adds spans recorded by another process, as top-level spans."""
        base = len(self.spans)
        for name, start, end, parent in spans:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1])
        self.counts.update(counts)

    def take(self) -> tuple[list[list], Counter]:
        """Spans and counts recorded since the last take."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def dump(path: str, spans: list[list], counts: Counter) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "counts": dict(counts)}, fh)


def load(path: str) -> tuple[list[list], Counter]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    return obj["spans"], Counter(obj["counts"])


def summarize(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-function and per-layer totals of one round.

    A span's self time is its duration minus the durations of its direct
    children; calls are sequential, so children never overlap.  A layer's
    total counts only its outermost spans, so nested calls inside the same
    layer are not counted twice.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = 0.0
        out[f"layer.{layer}.total_s"] = 0.0
    for i, (name, _, _, parent) in enumerate(spans):
        layer = name.split(".")[0]
        out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + dur[i]
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + dur[i] - child[i]
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"layer.{layer}.self_s"] += dur[i] - child[i]
        p = parent
        while p >= 0 and spans[p][0].split(".")[0] != layer:
            p = spans[p][3]
        if p < 0:
            out[f"layer.{layer}.total_s"] += dur[i]
    out.update(counts)
    return out
