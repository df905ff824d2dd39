"""Brute-force completion search and the equivalence verifier.

has_completion answers by depth-first search over fillings with triangle
pruning; it is the slow reference the lattice transform is checked against.
verify_equivalence runs three routes over edge-labelled graphs: search for
any valid completion, scan for obstruction cycles, run the magic completion
and test membership.  The characterization under test says the three agree
on every graph.  Reported mismatches are always re-verified with the scalar
routines first; a scalar result contradicting the vectorized one is an
internal error, never a finding.

Graphs on fewer than 3 vertices are vacuous for all three routes and are
not enumerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .completion import magic_complete
from .families import find_witness
from .graphs import EdgeLabelledGraph, first_violating_triangle, is_member, triangle_verdict
from .magic import default_context
from .params import ParameterSequence

_EXAMPLE_CAP = 20
_FALLBACK_CAP = 5
_LATTICE_CAP = 200_000_000


class BudgetExceededError(RuntimeError):
    """Search or lattice size exceeded the configured budget."""


def has_completion(
    p: ParameterSequence,
    g: EdgeLabelledGraph,
    budget: int = 10**9,
) -> bool:
    """Depth-first search for a filling of the blank pairs such that every
    triangle of the resulting complete graph is allowed.

    budget caps the number of search nodes.
    """
    if g.max_label() > p.delta:
        raise ValueError(f"graph labels exceed delta={p.delta}")
    if first_violating_triangle(p, g) is not None:
        return False
    blanks = g.non_edges()
    labels = g.labels
    order = list(range(1, p.delta + 1))
    nodes = 0

    def fits(u: int, v: int, l: int) -> bool:
        for z in range(g.n):
            if z == u or z == v:
                continue
            a = labels.get((u, z) if u < z else (z, u))
            b = labels.get((v, z) if v < z else (z, v))
            if a is not None and b is not None and not triangle_verdict(p, a, b, l).ok:
                return False
        return True

    # Explicit-stack depth-first search, so no blank count hits the recursion
    # limit.  tried[i] counts the labels of `order` already tried at blank i;
    # 0 means the search enters blank i afresh, which counts one node.
    tried = [0] * len(blanks)
    i = 0
    while i >= 0:
        if i == len(blanks):
            return True
        if tried[i] == 0:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"completion search exceeded budget {budget}")
        u, v = blanks[i]
        labels.pop((u, v), None)
        while tried[i] < len(order) and not fits(u, v, order[tried[i]]):
            tried[i] += 1
        if tried[i] == len(order):
            tried[i] = 0
            i -= 1
        else:
            labels[(u, v)] = order[tried[i]]
            tried[i] += 1
            i += 1
    return False


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of one verification run.  ok means all routes agreed on every
    graph checked; mismatch examples are capped but the counts are exact."""

    params: tuple[int, int, int, int, int]
    m: int
    n_max: int
    mode: str
    sample: int | None
    seed: int | None
    graphs_checked: int
    witness_mismatch_count: int
    magic_mismatch_count: int
    mismatch_examples: tuple[dict, ...]
    fallback_graph_count: int
    fallback_examples: tuple[dict, ...]
    spot_checks: dict
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return self.witness_mismatch_count == 0 and self.magic_mismatch_count == 0

    def to_json_obj(self) -> dict:
        # elapsed_seconds stays out: identical inputs must serialize to
        # byte-identical JSON.
        return {
            "params": list(self.params),
            "m": self.m,
            "n_max": self.n_max,
            "mode": self.mode,
            "sample": self.sample,
            "seed": self.seed,
            "graphs_checked": self.graphs_checked,
            "ok": self.ok,
            "witness_mismatch_count": self.witness_mismatch_count,
            "magic_mismatch_count": self.magic_mismatch_count,
            "mismatch_examples": list(self.mismatch_examples),
            "fallback_graph_count": self.fallback_graph_count,
            "fallback_examples": list(self.fallback_examples),
            "spot_checks": dict(self.spot_checks),
        }


def verify_equivalence(
    p: ParameterSequence,
    n_max: int,
    *,
    sample: int | None = None,
    seed: int = 0,
    m: int | None = None,
    budget: int = 10**9,
) -> EquivalenceReport:
    """Check search = witness-free = magic success over graphs on up to n_max
    vertices (exhaustive), or over `sample` uniform labellings on exactly
    n_max vertices when sample is given.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    if sample is not None and sample < 1:
        raise ValueError("sample must be at least 1")
    # numpy loads here, not at import: the CLI commands that never verify
    # start without it.
    import numpy as np

    from .engine import Engine

    ctx = default_context(p, m)
    start = time.monotonic()
    rng = np.random.default_rng(seed)
    checked = 0
    wit_mm = 0
    mag_mm = 0
    examples: list[dict] = []
    fb_graphs = 0
    fb_examples: list[dict] = []
    spot = {"search": 0, "search_skipped": 0, "magic": 0, "witness": 0}

    for n in [n_max] if sample is not None else range(3, n_max + 1):
        eng = Engine(ctx, n)
        if eng.size > _LATTICE_CAP:
            raise BudgetExceededError(f"lattice for n={n} has {eng.size} points; use sampling")
        completable = eng.completable_lattice()
        if sample is None:
            idx = np.arange(eng.size, dtype=np.int64)
        else:
            idx = rng.integers(0, eng.size, size=sample, dtype=np.int64)
        rows = eng.decode(idx)
        orc = completable[idx]
        filled, fb = eng.complete_batch(rows)
        magic_ok = eng.member_batch(filled)
        wit_free = ~eng.obstruction_batch(rows)
        checked += int(idx.size)

        fb_any = fb.any(axis=1)
        fb_graphs += int(fb_any.sum())
        for i in np.flatnonzero(fb_any):
            if len(fb_examples) >= _FALLBACK_CAP:
                break
            fb_examples.append(
                {
                    "n": n,
                    "graph": eng.row_to_graph(rows[i]).to_json_obj(),
                    "pairs": [list(eng.pairs[q]) for q in np.flatnonzero(fb[i])],
                }
            )

        _spot_check(eng, rows, orc, filled, fb, magic_ok, wit_free, rng, budget, spot)

        for i in np.flatnonzero(orc != wit_free):
            wit_mm += 1
            if len(examples) < _EXAMPLE_CAP:
                examples.append(_confirmed(eng, rows[i], "witness", orc[i], wit_free[i], magic_ok[i], budget))
        for i in np.flatnonzero(orc != magic_ok):
            mag_mm += 1
            if len(examples) < _EXAMPLE_CAP:
                examples.append(_confirmed(eng, rows[i], "magic", orc[i], wit_free[i], magic_ok[i], budget))

    return EquivalenceReport(
        params=p.as_tuple(),
        m=ctx.m,
        n_max=n_max,
        mode="sampled" if sample is not None else "exhaustive",
        sample=sample,
        seed=seed if sample is not None else None,
        graphs_checked=checked,
        witness_mismatch_count=wit_mm,
        magic_mismatch_count=mag_mm,
        mismatch_examples=tuple(examples),
        fallback_graph_count=fb_graphs,
        fallback_examples=tuple(fb_examples),
        spot_checks=spot,
        elapsed_seconds=time.monotonic() - start,
    )


def _spot_check(eng, rows, orc, filled, fb, magic_ok, wit_free, rng, budget, spot) -> None:
    """Scalar reference vs vectorized result over random rows, same route on
    both sides; any disagreement is an internal error, never a finding."""
    import numpy as np

    total = rows.shape[0]
    p = eng.p

    def pick(k: int) -> np.ndarray:
        return rng.choice(total, size=min(k, total), replace=False)

    for i in pick(200):
        g = eng.row_to_graph(rows[i])
        try:
            ref = has_completion(p, g, budget=min(budget, 2_000_000))
        except BudgetExceededError:
            spot["search_skipped"] += 1
            continue
        if ref != bool(orc[i]):
            raise RuntimeError(f"engine disagreement (search route) on {g!r}")
        spot["search"] += 1
    for i in pick(50):
        g = eng.row_to_graph(rows[i])
        done, trace = magic_complete(eng.ctx, g)
        if not np.array_equal(eng.graph_to_row(done), filled[i]):
            raise RuntimeError(f"engine disagreement (completion route) on {g!r}")
        if {eng.pair_index[pr] for pr in trace.fallback_pairs} != set(
            np.flatnonzero(fb[i]).tolist()
        ):
            raise RuntimeError(f"engine disagreement (fallback log) on {g!r}")
        if is_member(p, done) != bool(magic_ok[i]):
            raise RuntimeError(f"engine disagreement (membership route) on {g!r}")
        spot["magic"] += 1
    for i in pick(12):
        g = eng.row_to_graph(rows[i])
        if (find_witness(p, g) is None) != bool(wit_free[i]):
            raise RuntimeError(f"engine disagreement (obstruction route) on {g!r}")
        spot["witness"] += 1


def _confirmed(eng, row, kind, orc_v, wit_v, mag_v, budget) -> dict:
    """Re-derive all three verdicts for a mismatching graph with the scalar
    routines before reporting it."""
    g = eng.row_to_graph(row)
    ref_search = has_completion(eng.p, g, budget=budget)
    done, _ = magic_complete(eng.ctx, g)
    ref_magic = is_member(eng.p, done)
    ref_witness = find_witness(eng.p, g) is None
    if (ref_search, ref_witness, ref_magic) != (bool(orc_v), bool(wit_v), bool(mag_v)):
        raise RuntimeError(f"engine disagreement while confirming mismatch on {g!r}")
    return {
        "kind": kind,
        "n": g.n,
        "graph": g.to_json_obj(),
        "search_completable": ref_search,
        "witness_free": ref_witness,
        "magic_success": ref_magic,
    }
