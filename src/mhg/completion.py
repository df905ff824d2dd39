"""Magic completion of partially labelled graphs, and its cycle-level moves.

The completion runs one stage per distance, in time order.  At the stage of
distance d, every unlabelled pair that closes a fork evaluating to d under the
magic operation receives d; all fills within a stage are computed from the
labelling as it stood when the stage began.  Pairs never relabel.

A *step* performs the first such fill on a standalone cycle, shrinking it by
one edge; an *inverse step* expands one edge back into a fork, provided the new
fork is the first thing the algorithm would collapse.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import EdgeLabelledGraph, Pair, bits, canonical_cycle, check_labels, label_bitsets
from .magic import MagicContext

Cycle = tuple[int, ...]


class CompletionTrace(NamedTuple):
    """Per-stage fill log. Only stages that filled something are recorded."""

    stages: tuple[tuple[int, int, tuple[Pair, ...]], ...]  # (stage, distance, pairs)
    fallback_pairs: tuple[Pair, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "stages": [
                {"stage": s, "distance": d, "pairs": [list(p) for p in pairs]}
                for s, d, pairs in self.stages
            ],
            "fallback_pairs": [list(p) for p in self.fallback_pairs],
        }


def magic_complete(
    ctx: MagicContext, g: EdgeLabelledGraph
) -> tuple[EdgeLabelledGraph, CompletionTrace]:
    """Run the staged completion and return the complete graph plus its trace.

    Reads neighbour maps: at the stage of distance d, a blank pair (x, y) is
    filled when some common neighbour z has label(x, z) (+) label(y, z) == d.
    Every fill of a stage is found before any is written, in increasing
    (x, y) order.  Pairs that no fork ever reaches (for instance across
    disconnected parts) are still blank after the last stage; they receive
    the magic distance M and are reported in fallback_pairs.
    """
    check_labels(g, ctx.delta)
    adj = g.adjacency()
    blanks = g.non_edges()
    stages = []
    for stage, d in enumerate(ctx.permutation, 1):
        filled = [(x, y) for x, y in blanks
                  if any(ctx.oplus(adj[x][z], adj[y][z]) == d for z in adj[x].keys() & adj[y].keys())]
        for x, y in filled:
            adj[x][y] = adj[y][x] = d
        blanks = [(x, y) for x, y in blanks if y not in adj[x]]
        if filled:
            stages.append((stage, d, tuple(filled)))
    fallback = tuple(blanks)
    edges = g.edges() + [(x, y, d) for _, d, ps in stages for x, y in ps] + [(x, y, ctx.m) for x, y in fallback]
    return EdgeLabelledGraph(g.n, edges), CompletionTrace(tuple(stages), fallback)


def bitset_complete(ctx: MagicContext, g: EdgeLabelledGraph) -> tuple[EdgeLabelledGraph, CompletionTrace]:
    """magic_complete on per-vertex label bitsets; same graph and trace.  At
    the stage of distance d, reach[x] ORs over the labelled pairs (x, z) the
    N[z][b] with label(x, z) (+) b == d.  The fills of x, its blank pairs
    above x in reach[x], are all found before any is written, and emitted
    in increasing (x, y) order.  (+) is tabulated only over the labels
    present, grouped by value and extended when a stage adds a label.
    """
    N = label_bitsets(g, ctx.delta)
    above = [-(2 << x) for x in range(g.n)]
    blank = [(1 << g.n) - 1 ^ 1 << x ^ sum(Nx.values()) for x, Nx in enumerate(N)]
    by_value, present = {}, []  # by_value[d][a]: the present labels b with a (+) b == d

    def add_label(a: int) -> None:
        present.append(a)
        for b in present:
            for x, y in {(a, b), (b, a)}:
                by_value.setdefault(ctx.oplus(a, b), {}).setdefault(x, []).append(y)

    for a in sorted({l for Nx in N for l in Nx}):
        add_label(a)
    stages = []
    for stage, d in enumerate(ctx.permutation, 1):
        need = sum(1 << x for x in range(g.n) if blank[x] & above[x])  # x with a blank (x, y > x)
        if not need:
            break
        pairs = by_value.get(d, {})
        reach = [0] * g.n
        for Nz in N:
            for a, xs in Nz.items():
                if xs & need and a in pairs:
                    v = sum(Nz.get(b, 0) for b in pairs[a])  # the classes are disjoint
                    for x in bits(xs & need if v else 0):
                        reach[x] |= v
        fills = [(x, f) for x in bits(need) if (f := reach[x] & blank[x] & above[x])]
        if fills and d not in present:
            add_label(d)
        filled = []
        for x, f in fills:
            N[x][d] = N[x].get(d, 0) | f
            blank[x] ^= f
            for y in bits(f):
                N[y][d] = N[y].get(d, 0) | 1 << x
                blank[y] ^= 1 << x
                filled.append((x, y))
        if filled:
            stages.append((stage, d, tuple(filled)))
    fallback = tuple((x, y) for x in bits(need) for y in bits(blank[x] & above[x]))
    edges = [(u, v, l) for (u, v), l in g.labels.items()] + [(x, y, d) for _, d, ps in stages for x, y in ps]
    edges += [(x, y, ctx.m) for x, y in fallback]
    return EdgeLabelledGraph(g.n, edges), CompletionTrace(tuple(stages), fallback)


def _adjacent_values(ctx: MagicContext, cycle: Cycle) -> list[int]:
    k = len(cycle)
    return [ctx.oplus(cycle[j], cycle[(j + 1) % k]) for j in range(k)]


def first_stage_value(ctx: MagicContext, cycle: Cycle) -> int:
    """The earliest-stage value among all adjacent label pairs of the cycle."""
    return min(_adjacent_values(ctx, cycle), key=ctx.stage_of)


def steps(ctx: MagicContext, cycle: Cycle) -> list[Cycle]:
    """All one-edge-shorter cycles a first-stage fill can produce.

    On a triangle every vertex pair is adjacent, so nothing can be filled and
    the list is empty.  Results are canonical and duplicate-free.
    """
    cycle = tuple(cycle)
    k = len(cycle)
    if k < 3:
        raise ValueError("a cycle has at least 3 edges")
    if k == 3:
        return []
    vals = _adjacent_values(ctx, cycle)
    target = min(vals, key=ctx.stage_of)
    out = set()
    for j, v in enumerate(vals):
        if v != target:
            continue
        if j + 1 < k:
            nxt = cycle[:j] + (v,) + cycle[j + 2 :]
        else:  # pair (cycle[-1], cycle[0]) wraps around
            nxt = cycle[1 : k - 1] + (v,)
        out.add(canonical_cycle(nxt))
    return sorted(out)


def inverse_steps(ctx: MagicContext, cycle: Cycle, max_edges: int) -> list[Cycle]:
    """All one-edge-longer cycles from which a step can produce this one.

    Each result replaces one edge p by a fork (q, r) with q (+) r = p such that
    p is the first-stage value of the expanded cycle.  Results with more than
    max_edges edges are not generated.
    """
    cycle = tuple(cycle)
    k = len(cycle)
    if k < 3:
        raise ValueError("a cycle has at least 3 edges")
    if k + 1 > max_edges:
        return []
    out = set()
    for idx, p in enumerate(cycle):
        for q in range(1, ctx.delta + 1):
            for r in range(1, ctx.delta + 1):
                if ctx.oplus(q, r) != p:
                    continue
                cand = cycle[:idx] + (q, r) + cycle[idx + 1 :]
                if first_stage_value(ctx, cand) == p:
                    out.add(canonical_cycle(cand))
    return sorted(out)


def has_tension(ctx: MagicContext, cycle: Cycle) -> bool:
    """True when some adjacent label pair evaluates away from M."""
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError("a cycle has at least 3 edges")
    return any(v != ctx.m for v in _adjacent_values(ctx, cycle))
