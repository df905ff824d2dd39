"""Brute-force completion search and the equivalence verifier.

has_completion answers by depth-first search over fillings with triangle
pruning; it is the slow reference the engine's search route is checked
against.  verify_equivalence runs three routes over edge-labelled graphs:
search for any valid completion and scan for obstruction cycles (each read
off a lattice in exhaustive mode and answered for the drawn rows in sampled
mode), run the magic completion and test membership.  The characterization
under test says the three agree on every graph.  Reported mismatches are
always re-verified with the scalar routines first; a scalar result
contradicting the vectorized one is an internal error, never a finding.

Graphs on fewer than 3 vertices are vacuous for all three routes and are
not enumerated.
"""

from __future__ import annotations

import time
from itertools import compress
from typing import NamedTuple

from .completion import magic_complete
from .families import find_witness
from .graphs import BudgetExceededError, EdgeLabelledGraph, first_violating_triangle, is_member, triangle_ok
from .magic import default_context
from .params import ParameterSequence

_EXAMPLE_CAP = 20
_FALLBACK_CAP = 5
# Lattice points per n.  An exhaustive run holds a lattice being built, one
# byte per point, and three packed verdict bits per point: about 275 MB at
# the cap, within a conservative 600 MB.  A sampled run builds no lattice;
# its 4 index bytes and 3 verdict bits per row are budgeted, generously, at
# 8 + 3 bytes, within the same 600 MB.  The cap still bounds n there, since
# the batch search frontier has no per-row cap.
_LATTICE_CAP = 200_000_000
_SAMPLE_ROW_BYTES = 8 + 3
# Rows per engine batch, at most; the working set of a batch is a few MB.
_CHUNK_ROWS = 1 << 16
# Search nodes per spot-checked graph; one that needs more is skipped.
_SPOT_BUDGET = 2_000_000
# Keys of EquivalenceReport.stats["seconds"].
_LAYERS = ("tables", "search", "decode", "complete", "member", "obstruction", "spot_check")


def has_completion(
    p: ParameterSequence,
    g: EdgeLabelledGraph,
    budget: int = 10**9,
) -> bool:
    """Depth-first search for a filling of the blank pairs such that every
    triangle of the resulting complete graph is allowed.

    Blanks are filled in increasing (u, v) order, least label first; label l
    fits (u, v) when triangle_ok accepts it with each common neighbour's
    label pair.  budget caps the number of search nodes.
    """
    if first_violating_triangle(p, g) is not None:
        return False
    blanks = g.non_edges()
    adj = g.adjacency()
    ok = triangle_ok(p)
    nodes = 0

    # Explicit-stack depth-first search, so no blank count hits the recursion
    # limit.  Blank i tries label tried[i] + 1 next; tried[i] == 0 means the
    # search enters blank i afresh, which counts one node.
    # sides[i]: the common neighbours' label pairs at blank i, read on entry;
    # the blanks before i keep their labels until the search backs out of i.
    tried = [0] * len(blanks)
    sides: list[list[tuple[int, int]]] = [[] for _ in blanks]
    i = 0
    while i >= 0:
        if i == len(blanks):
            return True
        u, v = blanks[i]
        adj[u].pop(v, None)
        adj[v].pop(u, None)
        if tried[i] == 0:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError(f"completion search exceeded budget {budget}")
            sides[i] = [(adj[u][z], adj[v][z]) for z in adj[u].keys() & adj[v].keys()]
        while tried[i] < p.delta and not all(ok(a, b, tried[i] + 1) for a, b in sides[i]):
            tried[i] += 1
        if tried[i] == p.delta:
            tried[i] = 0
            i -= 1
        else:
            tried[i] += 1
            adj[u][v] = adj[v][u] = tried[i]
            i += 1
    return False


class EquivalenceReport(NamedTuple):
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
    # Where the run spent its time and what it counted; kept out of
    # to_json_obj like elapsed_seconds.
    stats: dict

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
) -> EquivalenceReport:
    """Check search = witness-free = magic success over graphs on up to n_max
    vertices (exhaustive), or over `sample` uniform labellings on exactly
    n_max vertices when sample is given.

    Rows go through the engine in chunks of at most _CHUNK_ROWS.  In
    exhaustive mode the search verdict is the completability lattice, the
    witness-free verdict the obstruction lattice negated in place, each
    packed before the next is built, and a chunk an aligned lattice block;
    in sampled mode the batch search and obstruction scan answer for the
    rows each chunk decodes.  Per n each verdict is kept as packed bits,
    padding bits 0, whose XOR and popcount count the mismatches after the
    chunks.  numpy draws the sampled rows and random.Random(seed), first, the
    spot-checked ones, so an exhaustive run never loads numpy.random.
    """
    if n_max < 3:
        raise ValueError("n_max must be at least 3")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    if sample is not None and sample < 1:
        raise ValueError("sample must be at least 1")
    budget = 3 * _LATTICE_CAP // _SAMPLE_ROW_BYTES
    if sample is not None and sample > budget:
        raise BudgetExceededError(f"sample of {sample} rows is over the budget of {budget} rows")
    # The lattice grows with n, so n_max decides, before any Engine (whose
    # tables grow as n^3) or any smaller n is run.  base**64 is above any
    # cap, so base**P is never formed or printed.
    base, P = p.delta + 1, n_max * (n_max - 1) // 2
    if base ** min(P, 64) > _LATTICE_CAP:
        hint = "use sampling" if sample is None else "sampled mode caps it"
        raise BudgetExceededError(f"lattice for n={n_max} has {base}^{P} points, over {_LATTICE_CAP}; {hint}")
    # numpy and random load here, not at import: the CLI commands that never
    # verify start without them.
    import random

    import numpy as np

    from .engine import Engine, unpack

    ctx = default_context(p, m)
    start = time.monotonic()
    spot_rng = random.Random(seed)
    checked = 0
    mismatches = {"witness": 0, "magic": 0}
    examples: list[dict] = []
    fb_graphs = 0
    fb_examples: list[dict] = []
    spot = {"search": 0, "search_skipped": 0, "magic": 0, "witness": 0}
    seconds = dict.fromkeys(_LAYERS, 0.0)
    points = chunks = completable_rows = verdict_bytes = 0

    def timed(layer, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        seconds[layer] += time.perf_counter() - t0
        return out

    def put(dst, bits):
        """Write the first hi - lo packed bits into dst from bit lo on."""
        b, off = divmod(lo, 8)
        new = np.packbits(np.concatenate([unpack(dst[b : b + 1], off), unpack(bits, hi - lo)]), bitorder="little")
        dst[b : b + new.size] = new

    def first_set(bits, cap):
        """Positions of the first cap set bits of packed bits, padding bits 0.
        Each nonzero byte holds a set bit, so the first cap such bytes hold them."""
        at = np.flatnonzero(bits)[:cap]
        byte, bit = np.nonzero(unpack(bits[at, None], 8))
        return (8 * at[byte] + bit)[:cap]

    def fallback_pairs(fb, cols):
        """The pairs fb marks for each row of cols, as [u, v] in pair order, from one gather."""
        return [list(map(list, compress(eng.pairs, row))) for row in (fb[:, cols >> 3] >> (cols & 7) & 1).T.tolist()]

    def take_spot_rows(filled, fb):
        """Completed labels and fallback pairs of the magic spot rows in [lo, hi)."""
        cols = magic_at[(lo <= magic_at) & (magic_at < hi)] - lo
        if cols.size:
            labels = (filled[..., cols >> 3] >> (cols & 7) & 1).argmax(axis=1).T.tolist()
            magic_done.update(zip((cols + lo).tolist(), zip(labels, fallback_pairs(fb, cols))))

    for n in [n_max] if sample is not None else range(3, n_max + 1):
        eng = timed("tables", Engine, ctx, n)
        if sample is None:
            # Row i is lattice point i, so the lattice is the search verdict.
            # A chunk is an aligned block of base**k points, the most that fit.
            idx, total = None, eng.size
            points += total
            k = next(k for k in range(eng.P, -1, -1) if eng.base**k <= _CHUNK_ROWS)
            step = eng.base**k
            orc = np.packbits(timed("search", eng.completable_lattice), bitorder="little")
            wit_free = timed("obstruction", eng.obstruction_lattice)
            wit_free = np.packbits(np.logical_not(wit_free, out=wit_free), bitorder="little")
        else:
            # numpy.random (5 MiB) loads only here.  Each chunk draws its indices
            # as int64, one stream however chunked, kept as uint32 as the cap allows.
            rng, idx = np.random.default_rng(seed), np.empty(sample, dtype=np.uint32)
            total, step = sample, _CHUNK_ROWS
            orc, wit_free = np.zeros((2, -(-total // 8)), dtype=np.uint8)
        magic_ok = np.zeros_like(orc)
        verdict_bytes = max(verdict_bytes, 3 * orc.size)

        def rows_at(pos):
            return eng.decode(pos if idx is None else idx[pos])

        spot_at = timed("spot_check", lambda: [spot_rng.sample(range(total), min(k, total)) for k in (200, 50, 12)])
        magic_at, magic_done = np.array(spot_at[1]), {}

        for lo in range(0, total, step):
            hi = min(lo + step, total)
            if idx is None:
                planes = timed("decode", eng.block_planes, lo // step, k)
            else:
                idx[lo:hi] = rng.integers(0, eng.size, size=hi - lo, dtype=np.int64)
                rows = timed("decode", rows_at, np.arange(lo, hi, dtype=np.int64))
                planes = timed("decode", eng.planes, rows)
                put(wit_free, np.invert(timed("obstruction", eng.obstruction_batch, planes)))
                put(orc, timed("search", eng.completable_batch, rows, planes))
            filled, fb = timed("complete", eng.complete_batch, planes)
            timed("spot_check", take_spot_rows, filled, fb)
            put(magic_ok, timed("member", eng.member_batch, filled))
            chunks += 1
            fb_any = np.bitwise_or.reduce(fb, axis=0)
            fb_graphs += int(np.bitwise_count(fb_any).sum())
            shown = first_set(fb_any, _FALLBACK_CAP - len(fb_examples))
            if shown.size:
                for row, pairs in zip(rows_at(lo + shown), fallback_pairs(fb, shown)):
                    fb_examples.append({"n": n, "graph": eng.row_to_graph(row).to_json_obj(), "pairs": pairs})
        checked += total
        completable_rows += int(np.bitwise_count(orc).sum())
        verdicts = (orc, wit_free, magic_ok)

        timed("spot_check", _spot_check, eng, rows_at, verdicts, *spot_at, magic_done, spot)

        for kind, verdict in (("witness", wit_free), ("magic", magic_ok)):
            diff = orc ^ verdict
            mismatches[kind] += int(np.bitwise_count(diff).sum())
            shown = first_set(diff, _EXAMPLE_CAP - len(examples))
            for i, row in zip(shown, rows_at(shown)):
                examples.append(_confirmed(eng, row, kind, *(_bit(v, i) for v in verdicts)))

    stats = {
        "seconds": seconds,
        "lattice_points": points,
        "rows_checked": checked,
        "chunks": chunks,
        "completable_fraction": completable_rows / checked,
        "search_skipped": spot["search_skipped"],
        "verdict_bytes": verdict_bytes,
    }
    return EquivalenceReport(
        params=p.as_tuple(),
        m=ctx.m,
        n_max=n_max,
        mode="sampled" if sample is not None else "exhaustive",
        sample=sample,
        seed=seed if sample is not None else None,
        graphs_checked=checked,
        witness_mismatch_count=mismatches["witness"],
        magic_mismatch_count=mismatches["magic"],
        mismatch_examples=tuple(examples),
        fallback_graph_count=fb_graphs,
        fallback_examples=tuple(fb_examples),
        spot_checks=spot,
        elapsed_seconds=time.monotonic() - start,
        stats=stats,
    )


def _bit(bits, i) -> bool:
    """Row i of packed bits."""
    return bool(bits[i >> 3] >> (i & 7) & 1)


def _spot_check(eng, rows_at, verdicts, search_at, magic_at, witness_at, magic_done, spot) -> None:
    """Scalar reference vs vectorized result over random rows, same route on
    both sides; any disagreement is an internal error, never a finding.
    rows_at(positions) decodes rows; magic_done[i] holds the labels and
    fallback pairs row i's chunk completed.  A search over its budget skips
    the graph; BudgetExceededError from a witness search propagates."""
    orc, wit_free, magic_ok = verdicts
    for i, row in zip(search_at, rows_at(search_at)):
        g = eng.row_to_graph(row)
        try:
            ref = has_completion(eng.p, g, budget=_SPOT_BUDGET)
        except BudgetExceededError:
            spot["search_skipped"] += 1
            continue
        if ref != _bit(orc, i):
            raise RuntimeError(f"engine disagreement (search route) on {g!r}")
        spot["search"] += 1
    for i, row in zip(magic_at, rows_at(magic_at)):
        g = eng.row_to_graph(row)
        labels, pairs = magic_done[i]
        done, trace = magic_complete(eng.ctx, g)
        if dict(zip(eng.pairs, labels)) != done.labels:
            raise RuntimeError(f"engine disagreement (completion route) on {g!r}")
        if set(map(tuple, pairs)) != set(trace.fallback_pairs):
            raise RuntimeError(f"engine disagreement (fallback log) on {g!r}")
        if is_member(eng.p, done) != _bit(magic_ok, i):
            raise RuntimeError(f"engine disagreement (membership route) on {g!r}")
        spot["magic"] += 1
    for i, row in zip(witness_at, rows_at(witness_at)):
        g = eng.row_to_graph(row)
        if (find_witness(eng.p, g) is None) != _bit(wit_free, i):
            raise RuntimeError(f"engine disagreement (obstruction route) on {g!r}")
        spot["witness"] += 1


def _confirmed(eng, row, kind, orc_v, wit_v, mag_v) -> dict:
    """Re-derive all three verdicts for a mismatching graph with the scalar
    routines before reporting it; BudgetExceededError propagates."""
    g = eng.row_to_graph(row)
    ref_search = has_completion(eng.p, g)
    done, _ = magic_complete(eng.ctx, g)
    ref_magic = is_member(eng.p, done)
    ref_witness = find_witness(eng.p, g) is None
    if (ref_search, ref_witness, ref_magic) != (orc_v, wit_v, mag_v):
        raise RuntimeError(f"engine disagreement while confirming mismatch on {g!r}")
    return {
        "kind": kind,
        "n": g.n,
        "graph": g.to_json_obj(),
        "search_completable": ref_search,
        "witness_free": ref_witness,
        "magic_success": ref_magic,
    }
