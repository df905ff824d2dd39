"""Edge-labelled graphs, labelled cycles and the numerical triangle constraints.

Graphs carry a symmetric partial labelling of vertex pairs by integer distances.
A labelled cycle is the cyclic sequence of its edge labels; its canonical form
is the lexicographically least tuple over all rotations and the reflection.
"""

from __future__ import annotations

import enum
import json
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import accumulate, combinations
from operator import or_
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .params import ParameterSequence

Pair = tuple[int, int]

# Most vertices the bitset routes accept; README `graph check` gives their cost.
MAX_BITSET_N = 1000


def _norm_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


class EdgeLabelledGraph:
    """Graph on vertices 0..n-1 with at most one positive label per pair."""

    def __init__(self, n: int, edges: "object" = ()) -> None:
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        labels: dict[Pair, int] = {}
        for u, v, label in edges:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad edge ({u}, {v})")
            if label < 1:
                raise ValueError(f"label {label} on ({u}, {v}) must be positive")
            key = _norm_pair(u, v)
            if key in labels:
                raise ValueError(f"duplicate edge {key}")
            labels[key] = label
        self._labels = labels

    @property
    def labels(self) -> Mapping[Pair, int]:
        """Read-only view of the labelling, pair (u, v) with u < v -> label."""
        return MappingProxyType(self._labels)

    def label(self, u: int, v: int) -> int | None:
        return self._labels.get(_norm_pair(u, v))

    def edges(self) -> list[tuple[int, int, int]]:
        return sorted((u, v, l) for (u, v), l in self._labels.items())

    def non_edges(self) -> list[Pair]:
        return [p for p in combinations(range(self.n), 2) if p not in self._labels]

    def is_complete(self) -> bool:
        return len(self._labels) == self.n * (self.n - 1) // 2

    def max_label(self) -> int:
        return max(self._labels.values(), default=0)

    def adjacency(self) -> list[dict[int, int]]:
        """Per-vertex map neighbour -> label."""
        adj: list[dict[int, int]] = [{} for _ in range(self.n)]
        for (u, v), l in self._labels.items():
            adj[u][v] = l
            adj[v][u] = l
        return adj

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeLabelledGraph)
            and self.n == other.n
            and self._labels == other._labels
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._labels.items())))

    def __repr__(self) -> str:
        return f"EdgeLabelledGraph(n={self.n}, edges={self.edges()})"

    def to_json_obj(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges()]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EdgeLabelledGraph":
        if not isinstance(obj, dict) or "n" not in obj:
            raise ValueError("graph object needs an \"n\" field")
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValueError("\"n\" must be an integer")
        edges = obj.get("edges", [])
        if not isinstance(edges, list):
            raise ValueError("\"edges\" must be a list of [u, v, label] triples")
        for i, e in enumerate(edges):
            ok = isinstance(e, list) and len(e) == 3
            if not (ok and isinstance(e[0], int) and isinstance(e[1], int) and isinstance(e[2], int)):
                raise ValueError(f"edges[{i}] must be an integer triple [u, v, label]")
        return cls(n, edges)

    @classmethod
    def loads(cls, text: str) -> "EdgeLabelledGraph":
        return cls.from_json_obj(json.loads(text))


def canonical_cycle(labels) -> tuple[int, ...]:
    """Lexicographically least rotation of the label sequence or its reversal."""
    t = tuple(labels)
    k = len(t)
    if k < 3:
        raise ValueError("a cycle has at least 3 edges")
    if any(l < 1 for l in t):
        raise ValueError("cycle labels must be positive")
    best = t
    for seq in (t, t[::-1]):
        for i in range(k):
            rot = seq[i:] + seq[:i]
            if rot < best:
                best = rot
    return best


class TriangleViolation(enum.Enum):
    NON_METRIC = "NonMetric"
    K1_LOW = "K1Low"
    K2_HIGH = "K2High"
    C0_HIGH = "C0High"
    C1_HIGH = "C1High"


class TriangleVerdict(NamedTuple):
    labels: tuple[int, int, int]
    violations: frozenset[TriangleViolation]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def perimeter(self) -> int:
        return sum(self.labels)


def triangle_violations(p: ParameterSequence, a, b, c):
    """(violation, condition) pairs for a triangle with labels a, b, c.

    Odd perimeter q with shortest edge m requires 2K1 < q < 2K2 + 2m and
    q < C1; even perimeter requires q < C0; and the triangle inequality must
    hold either way.  Written with comparisons and & / | only, so a, b, c may
    be ints (each condition is a bool) or integer numpy arrays (each is a
    bool array); labels are not range-checked here.
    """
    q = a + b + c
    odd = q % 2 == 1
    even = q % 2 == 0
    # q >= 2K2 + 2m holds for the shortest edge m exactly when it holds for
    # some edge, so no min is needed.
    k2_high = (q >= 2 * p.k2 + 2 * a) | (q >= 2 * p.k2 + 2 * b) | (q >= 2 * p.k2 + 2 * c)
    return (
        (TriangleViolation.NON_METRIC, (a > b + c) | (b > a + c) | (c > a + b)),
        (TriangleViolation.K1_LOW, odd & (q <= 2 * p.k1)),
        (TriangleViolation.K2_HIGH, odd & k2_high),
        (TriangleViolation.C1_HIGH, odd & (q >= p.c1)),
        (TriangleViolation.C0_HIGH, even & (q >= p.c0)),
    )


def triangle_verdict(p: ParameterSequence, a: int, b: int, c: int) -> TriangleVerdict:
    """Constraint check for one triangle; the rule is triangle_violations."""
    for l in (a, b, c):
        if not 1 <= l <= p.delta:
            raise ValueError(f"label {l} out of range 1..{p.delta}")
    bad = frozenset(v for v, hit in triangle_violations(p, a, b, c) if hit)
    return TriangleVerdict((a, b, c), bad)


@cache
def triangle_ok(p: ParameterSequence):
    """(a, b, c) -> triangle_verdict(p, a, b, c).ok, memoised per tuple on the
    triples queried, at most delta**3; from the CLI only `verify` reaches it.
    cache stores no exception, so a bad label raises its ValueError anew."""
    return cache(lambda a, b, c: triangle_verdict(p, a, b, c).ok)


def check_labels(g: EdgeLabelledGraph, delta: int) -> None:
    """ValueError on a label above delta, which every graph route raises
    before any work: the triangle rules are stated for labels 1..delta."""
    if g.max_label() > delta:
        raise ValueError(f"graph labels exceed delta={delta}")


def first_violating_triangle(
    p: ParameterSequence, g: EdgeLabelledGraph
) -> tuple[tuple[int, int, int], TriangleVerdict] | None:
    """First fully labelled triangle (by vertex triple) with a violation.  Per
    u, walks the neighbour pairs v < w above u, not all C(n, 3) triples;
    only the triangle returned gets a TriangleVerdict."""
    check_labels(g, p.delta)
    adj = g.adjacency()
    ok = triangle_ok(p)
    for u in range(g.n):
        for v, w in combinations(sorted(x for x in adj[u] if x > u), 2):
            lvw = adj[v].get(w)
            if lvw is not None and not ok(adj[u][v], adj[u][w], lvw):
                return (u, v, w), triangle_verdict(p, adj[u][v], adj[u][w], lvw)
    return None


def bits(m: int) -> Iterator[int]:
    """Indices of the set bits of m >= 0, ascending."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def label_bitsets(g: EdgeLabelledGraph, delta: int) -> list[dict[int, int]]:
    """N[u][l]: bit w set iff pair (u, w) has label l.  ValueError before any
    work on a label above delta (check_labels) or above MAX_BITSET_N vertices."""
    check_labels(g, delta)
    if g.n > MAX_BITSET_N:
        raise ValueError(f"graph has {g.n} vertices; at most {MAX_BITSET_N} are supported")
    N: list[dict[int, int]] = [{} for _ in range(g.n)]
    for (u, v), l in g.labels.items():
        N[u][l] = N[u].get(l, 0) | 1 << v
        N[v][l] = N[v].get(l, 0) | 1 << u
    return N


def allowed_intervals(p: ParameterSequence, a: int, b: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """(lo, hi) for even c, then for odd c: (a, b, c) is allowed iff c is in
    the range of its parity (triangle_violations solved for c)."""
    s, d = a + b, abs(a - b)
    odd = (max(d, 2 * p.k1 + 1 - s, s - 2 * p.k2 + 1), min(s, 2 * p.k2 - 1 - d, p.c1 - 1 - s))
    even = (d, min(s, p.c0 - 1 - s))
    return (even, odd) if s % 2 == 0 else (odd, even)


def first_violating_bitset(
    p: ParameterSequence, g: EdgeLabelledGraph
) -> tuple[tuple[int, int, int], TriangleVerdict] | None:
    """first_violating_triangle on per-vertex label bitsets; same result and
    the same ValueError.  For u ascending, one pass over the labelled v > u
    in ascending order: with a the label of (u, v), bad is the OR over the
    labels b at u of N[u][b] AND the vertices whose label at v is not
    allowed with (a, b): a prefix and a suffix of v's sorted labels of each
    parity (allowed_intervals), read from prefix and suffix ORs.  The first
    v with bad set, and bad's lowest bit w, are the first violating triangle.
    """
    N = label_bitsets(g, p.delta)
    # Per vertex and parity present: (parity, sorted labels, prefix ORs, suffix ORs).
    tabs = []
    for Nv in N:
        per = []
        for par in (0, 1):
            ls = sorted(c for c in Nv if c % 2 == par)
            if ls:
                suf = [*accumulate((Nv[c] for c in reversed(ls)), or_, initial=0)]
                per.append((par, ls, [*accumulate((Nv[c] for c in ls), or_, initial=0)], suf[::-1]))
        tabs.append(per)
    intervals = cache(lambda a, b: allowed_intervals(p, a, b))
    for u in range(g.n):
        Nu = N[u]
        order = sorted(((vb.bit_length() - 1, b, vb) for b, vb in Nu.items()), reverse=True)
        rows = {a: [None, None] for a in Nu}  # [a][parity of c]: (highest bit, N[u][b], allowed lo, hi of c) per b
        for v, a in sorted((v, a) for a, va in Nu.items() for v in bits(va & -(2 << u))):
            row = rows[a]
            bad = 0  # gets no bit w < v: that stop would have come at w or an earlier u
            for par, ls, pre, suf in tabs[v]:
                if row[par] is None:  # built when first needed
                    row[par] = [(hb, vb, *intervals(a, b)[par]) for hb, b, vb in order]
                for hb, vb, lo, hi in row[par]:
                    if hb <= v:
                        break
                    bad |= vb & (pre[bisect_left(ls, lo)] | suf[bisect_right(ls, hi)])
            if bad:
                w = (bad & -bad).bit_length() - 1
                return (u, v, w), triangle_verdict(p, g.label(u, v), g.label(u, w), g.label(v, w))
    return None


def is_member(p: ParameterSequence, g: EdgeLabelledGraph) -> bool:
    """Complete, labels within 1..delta, and every triangle constraint holds;
    False, not the ValueError of the scan, on a label above delta."""
    return g.is_complete() and g.max_label() <= p.delta and first_violating_triangle(p, g) is None


# No program path calls this.  It stays as the tests' reference scan for
# families.find_witness because perfbench/tracing.py hooks it by name.
def closed_walks_with_vertices(
    g: EdgeLabelledGraph, max_len: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All closed walks of length 3..max_len through labelled edges.

    Yields (vertices, labels) with len(vertices) == len(labels); the walk
    returns from the last vertex to the first.  Vertices and edges may repeat.
    Order: by length, then lexicographically by vertex sequence.
    """
    adj = g.adjacency()
    nbrs = [sorted(a) for a in adj]
    for length in range(3, max_len + 1):
        stack = [(v,) for v in reversed(range(g.n))]
        while stack:
            path = stack.pop()
            if len(path) == length:
                if path[0] in adj[path[-1]]:
                    labels = tuple(
                        adj[path[i]][path[(i + 1) % length]] for i in range(length)
                    )
                    yield path, labels
                continue
            # Leave room to come back: any vertex works, closure is checked at
            # full length.
            for w in reversed(nbrs[path[-1]]):
                stack.append(path + (w,))
    return
