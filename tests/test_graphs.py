import json
import random
import re
from itertools import product

import pytest
from conftest import MATRIX_TUPLES, WIDE_TUPLES, many_label_graph, random_graph, run_python

from mhg.completion import bitset_complete, first_stage_value, has_tension, inverse_steps, magic_complete, steps
from mhg.families import classify_cycle, is_forbidden
from mhg.graphs import (
    EdgeLabelledGraph,
    TriangleViolation,
    canonical_cycle,
    check_cycle,
    closed_walks_with_vertices,
    allowed_intervals,
    first_violating_bitset,
    first_violating_triangle,
    is_member,
    triangle_ok,
    triangle_verdict,
    triangle_violations,
)
from mhg.magic import default_context
from mhg.oracle import has_completion
from mhg.params import ParameterSequence, enumerate_admissible

P = ParameterSequence(5, 3, 3, 16, 13)


def cycle_graph(labels):
    k = len(labels)
    return EdgeLabelledGraph(k, [(i, (i + 1) % k, labels[i]) for i in range(k)])


def test_constructor_and_accessors():
    g = EdgeLabelledGraph(4, [(0, 1, 2), (2, 1, 5)])
    assert g.n == 4
    assert g.label(0, 1) == 2
    assert g.label(1, 2) == 5  # stored under the sorted pair
    assert g.label(0, 3) is None
    assert g.edges() == [(0, 1, 2), (1, 2, 5)]
    assert g.non_edges() == [(0, 2), (0, 3), (1, 3), (2, 3)]
    assert not g.is_complete()
    assert g.max_label() == 5
    assert g.adjacency()[1] == {0: 2, 2: 5}


def test_constructor_rejects_bad_edges():
    with pytest.raises(ValueError):
        EdgeLabelledGraph(0)
    with pytest.raises(ValueError):
        EdgeLabelledGraph(3, [(0, 3, 1)])
    with pytest.raises(ValueError):
        EdgeLabelledGraph(3, [(1, 1, 2)])
    with pytest.raises(ValueError):
        EdgeLabelledGraph(3, [(0, 1, 0)])
    with pytest.raises(ValueError):
        EdgeLabelledGraph(3, [(0, 1, 2), (1, 0, 3)])


def test_equality_and_hash():
    g1 = EdgeLabelledGraph(3, [(0, 1, 2)])
    g2 = EdgeLabelledGraph(3, [(1, 0, 2)])
    assert g1 == g2
    assert hash(g1) == hash(g2)
    assert g1 != EdgeLabelledGraph(3, [(0, 1, 3)])


def test_json_round_trip():
    g = EdgeLabelledGraph(4, [(0, 1, 2), (1, 2, 5), (0, 3, 1)])
    assert EdgeLabelledGraph.loads(g.dumps()) == g
    obj = g.to_json_obj()
    assert obj == {"n": 4, "edges": [[0, 1, 2], [0, 3, 1], [1, 2, 5]]}
    assert json.loads(g.dumps()) == obj


@pytest.mark.parametrize(
    "obj",
    [
        {"edges": []},
        {"n": "4"},
        {"n": 3, "edges": {}},
        {"n": 3, "edges": [[0, 1]]},
        {"n": 3, "edges": [[0, 1, "x"]]},
        {"n": 3, "edges": [[0, 5, 1]]},
        {"n": True},  # JSON true is a Python int; it must not pass as n = 1
    ],
)
def test_from_json_rejects(obj):
    with pytest.raises(ValueError):
        EdgeLabelledGraph.from_json_obj(obj)


def test_from_json_checks_types_before_values():
    """Every entry is type-checked before any edge is built, so a mistyped
    entry is reported even after an out-of-range one."""
    with pytest.raises(ValueError, match=r"^edges\[1\] must be an integer triple \[u, v, label\]$"):
        EdgeLabelledGraph.from_json_obj({"n": 3, "edges": [[0, 5, 1], [0, "1", 2]]})


CTX = default_context(P)
CYCLE_ROUTES = {
    "is_forbidden": lambda c: is_forbidden(P, c),
    "classify_cycle": lambda c: classify_cycle(P, c),
    "steps": lambda c: steps(CTX, c),
    "inverse_steps": lambda c: inverse_steps(CTX, c, 8),
    "has_tension": lambda c: has_tension(CTX, c),
    "first_stage_value": lambda c: first_stage_value(CTX, c),
    "check_cycle": lambda c: check_cycle(c, P.delta),
}
NOT_CYCLES = [
    ((1, 2), "a cycle has at least 3 labels"),
    ((0, 1, 1), "cycle labels must be positive"),
    ((-1, 2, 3), "cycle labels must be positive"),
    ((6, 1, 1), "cycle labels exceed delta=5"),
]


@pytest.mark.parametrize("route", list(CYCLE_ROUTES))
def test_cycle_routes_refuse_the_same_inputs(route):
    """Every cycle route refuses a non-cycle under delta = 5 with the one
    message of graphs.check_cycle, and reads a list as its tuple."""
    for cycle, message in NOT_CYCLES:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CYCLE_ROUTES[route](cycle)
    CYCLE_ROUTES[route]([5, 5, 5])


def test_canonical_cycle():
    assert canonical_cycle((3, 1, 2)) == (1, 2, 3)
    assert canonical_cycle((2, 1, 3)) == (1, 2, 3)  # reflection reaches (1,2,3) too
    assert canonical_cycle((1, 3, 2, 3)) == (1, 3, 2, 3)
    assert canonical_cycle((3, 1, 3, 2)) == (1, 3, 2, 3)
    assert canonical_cycle((5, 5, 5, 5, 5)) == (5, 5, 5, 5, 5)
    # reflection matters: (1,2,1,3) rotations never start 1,3
    assert canonical_cycle((2, 1, 3, 1)) == (1, 2, 1, 3)
    # No delta, so check_cycle's rule without its upper bound.
    assert check_cycle(iter((9, 1, 1)), None) == (9, 1, 1)
    assert canonical_cycle((9, 1, 1)) == (1, 1, 9)
    for cycle, message in NOT_CYCLES[:3]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            canonical_cycle(cycle)


@pytest.mark.parametrize(
    "labels,expected",
    [
        ((1, 1, 1), {TriangleViolation.K1_LOW}),
        ((5, 5, 5), {TriangleViolation.C1_HIGH}),
        ((1, 1, 5), {TriangleViolation.NON_METRIC}),
        ((1, 1, 3), {TriangleViolation.NON_METRIC, TriangleViolation.K1_LOW}),
        ((5, 5, 1), {TriangleViolation.K2_HIGH}),
        ((3, 3, 3), set()),
        ((5, 5, 4), set()),
        ((1, 2, 3), set()),
    ],
)
def test_triangle_verdict_iib(labels, expected):
    # (5, 3, 3, 16, 13): odd perimeter q needs 2*3 < q < 2*3 + 2*min and q < 13,
    # even q needs q < 16.
    v = triangle_verdict(P, *labels)
    assert v.violations == frozenset(expected)
    assert v.ok is (not expected)
    assert v.perimeter == sum(labels)


def test_triangle_verdict_even_cap():
    p = ParameterSequence(4, 2, 3, 12, 11)
    assert triangle_verdict(p, 4, 4, 4).violations == {TriangleViolation.C0_HIGH}
    assert triangle_verdict(p, 4, 4, 2).violations == set()


def test_triangle_verdict_rejects_out_of_range():
    with pytest.raises(ValueError):
        triangle_verdict(P, 0, 1, 1)
    with pytest.raises(ValueError):
        triangle_verdict(P, 1, 1, 6)


def test_triangle_ok_per_tuple():
    """triangle_ok(p) answers triangle_verdict(p, ...).ok for every label
    triple of every delta <= 5 tuple.  The tuples are queried interleaved,
    so a memo shared between tuples would answer with another tuple's
    verdict.  An out-of-range label raises the same ValueError on every
    call, not a cached answer.  A graph holding one is refused up front by
    first_violating_triangle, and so by has_completion before any search;
    is_member answers False on it without scanning."""
    tuples = [p for d in range(1, 6) for p in enumerate_admissible(d)]
    for a, b, c in product(range(1, 6), repeat=3):
        for p in tuples:
            if max(a, b, c) <= p.delta:
                assert triangle_ok(p)(a, b, c) == triangle_verdict(p, a, b, c).ok, (p, a, b, c)
    for p in tuples:
        big = p.delta + 1
        g = EdgeLabelledGraph(3, [(0, 1, 1), (0, 2, big), (1, 2, 1)])
        for _ in range(2):
            with pytest.raises(ValueError, match=rf"^label {big} out of range 1\.\.{p.delta}$"):
                triangle_ok(p)(1, big, 1)
            with pytest.raises(ValueError, match=rf"^graph labels exceed delta={p.delta}$"):
                first_violating_triangle(p, g)
            assert not is_member(p, g)
            with pytest.raises(ValueError, match=rf"^graph labels exceed delta={p.delta}$"):
                has_completion(p, g)


def test_first_violating_triangle():
    g = EdgeLabelledGraph(4, [(0, 1, 3), (0, 2, 3), (1, 2, 3), (1, 3, 2), (2, 3, 2)])
    assert first_violating_triangle(P, g) is None
    g2 = EdgeLabelledGraph(4, [(0, 1, 3), (1, 2, 1), (0, 2, 1), (2, 3, 5), (1, 3, 5)])
    hit = first_violating_triangle(P, g2)
    assert hit is not None
    (u, v, w), verdict = hit
    assert (u, v, w) == (0, 1, 2)
    assert verdict.labels == (3, 1, 1)
    assert verdict.violations == {TriangleViolation.NON_METRIC, TriangleViolation.K1_LOW}


def test_first_violating_triangle_sparse_huge_graph():
    """A 100,000-vertex path closed into one K1Low triangle at its far end:
    C(n, 3) is about 1.7e14 triples, but the scan walks only neighbour
    pairs, so a fresh process answers well inside the time limit."""
    code = (
        "from mhg.graphs import EdgeLabelledGraph, first_violating_triangle\n"
        "from mhg.params import ParameterSequence\n"
        "n = 100_000\n"
        "g = EdgeLabelledGraph(n, [(i, i + 1, 1) for i in range(n - 1)] + [(n - 3, n - 1, 1)])\n"
        "tri, verdict = first_violating_triangle(ParameterSequence(5, 3, 3, 16, 13), g)\n"
        "print(tri, sorted(v.value for v in verdict.violations))\n"
    )
    proc = run_python(["-c", code], timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(99997, 99998, 99999) ['K1Low']\n"


def test_is_member():
    assert is_member(P, cycle_graph((3, 3, 3)))
    assert not is_member(P, cycle_graph((1, 1, 1)))  # K1Low triangle
    assert not is_member(P, EdgeLabelledGraph(3, [(0, 1, 3)]))  # incomplete
    big = EdgeLabelledGraph(3, [(0, 1, 6), (0, 2, 6), (1, 2, 6)])
    assert not is_member(P, big)  # label above delta


def test_closed_walks_triangle():
    g = cycle_graph((1, 2, 3))
    walks = list(closed_walks_with_vertices(g, 3))
    # 3 starting points * 2 directions
    assert len(walks) == 6
    assert walks[0][0] == (0, 1, 2)
    assert walks[0][1] == (1, 2, 3)
    verts = [w[0] for w in walks]
    assert verts == sorted(verts)
    assert all(len(v) == 3 for v in verts)


def test_closed_walks_lengths_and_repeats():
    g = EdgeLabelledGraph(2, [(0, 1, 4)])
    # A single edge only produces even-length back-and-forth walks.
    walks = [labels for _, labels in closed_walks_with_vertices(g, 5)]
    assert walks == [(4, 4, 4, 4), (4, 4, 4, 4)]


def test_closed_walks_cover_path_triangles():
    g = EdgeLabelledGraph(3, [(0, 1, 2), (1, 2, 3)])
    # No closed triangle without the third edge.
    assert list(closed_walks_with_vertices(g, 3)) == []
    walks = [labels for _, labels in closed_walks_with_vertices(g, 4)]
    assert (2, 2, 3, 3) in walks


def outcome(fn, p, g):
    """fn's result, or the text of the ValueError it raises."""
    try:
        return fn(p, g)
    except ValueError as e:
        return f"ValueError: {e}"


def assert_same_scan(p, g):
    """Same first violating triangle or ValueError from both scans; with no
    error, `graph check`'s membership (complete and no violating triangle
    from the bitset scan) agrees with is_member."""
    got = outcome(first_violating_bitset, p, g)
    assert got == outcome(first_violating_triangle, p, g), g
    if not isinstance(got, str):
        assert (g.is_complete() and got is None) == is_member(p, g), g


@pytest.mark.parametrize("p", MATRIX_TUPLES, ids=str)
def test_first_violating_graph_matches_reference(p):
    """Same first triple and verdict as the scalar scan, on completed
    graphs (most are members, so the whole graph is scanned) and on
    random partial ones (most have a violating triangle).  At n = 70 and
    130 a vertex's bitset spans more than one machine word."""
    rng = random.Random(f"scan {p}")
    ctx = default_context(p)
    labels = list(range(1, p.delta + 1))
    for n in (1, 2, 3, 4, 5, 8, 12, 20, 35, 60, 70, 130):
        done = bitset_complete(ctx, random_graph(rng, n, 0.08, labels))[0]
        if n == 130:
            # Half the pairs of a member: the reference scans every triple
            # of the whole graph in a quarter of the time.
            done = EdgeLabelledGraph(n, [e for e in done.edges() if rng.random() < 0.5])
        assert_same_scan(p, done)
        assert_same_scan(p, random_graph(rng, n, rng.choice((0.3, 0.7, 1.0)), labels))


@pytest.mark.parametrize("big", [6, 257, 10**12])
def test_first_violating_graph_out_of_range_labels(big):
    """A label above delta = 5 makes both scans raise the same ValueError
    before scanning, also where a violating triangle comes first.  257 and
    10**12 would wrap around in uint8."""
    rng = random.Random(f"big {big}")
    for _ in range(150):
        n = rng.randint(3, 14)
        g = random_graph(rng, n, rng.choice((0.5, 0.8, 1.0)), [1, 2, 3, 4, 5, big])
        assert_same_scan(P, g)


@pytest.mark.parametrize("p", WIDE_TUPLES, ids=str)
def test_first_violating_graph_wide_delta(p):
    """delta above 255: labels near delta must neither wrap around nor be
    mistaken for one another; delta + 1 and 10**12 beyond it make both scans
    raise the same ValueError before scanning."""
    rng = random.Random(f"scan wide {p}")
    ctx = default_context(p)
    few = [1, 2, p.delta // 2, ctx.m, p.delta - 1, p.delta]
    for n in (3, 4, 6, 10, 16, 25):
        assert_same_scan(p, magic_complete(ctx, random_graph(rng, n, 0.15, few))[0])
        for labels in (few, few + [p.delta + 1], few + [10**12]):
            assert_same_scan(p, random_graph(rng, n, rng.choice((0.5, 1.0)), labels))
    # Dozens of label classes at every vertex, as is, with one pair
    # relabelled by an odd label, and with one label above delta.
    for n in (8, 20, 40):
        g = many_label_graph(rng, p, n)
        assert_same_scan(p, g)
        edges = g.edges()
        for label in (p.delta // 2 + 1, p.delta + 1):
            k = rng.randrange(len(edges))
            assert_same_scan(p, EdgeLabelledGraph(n, edges[:k] + [edges[k][:2] + (label,)] + edges[k + 1 :]))


SMALL_TUPLES = [p for d in range(3, 9) for p in enumerate_admissible(d)]


@pytest.mark.parametrize("tuples", [SMALL_TUPLES, WIDE_TUPLES], ids=["delta<=8", "wide"])
def test_allowed_intervals_match_triangle_violations(tuples):
    """For every admissible tuple with delta <= 8 and the wide tuples, and
    every a, b, c in 1..delta: c lies in the interval of its parity exactly
    when triangle_violations finds nothing.  Checked on (a, b, c) arrays,
    a block of a at a time."""
    import numpy as np

    for p in tuples:
        # iv[a - 1, b - 1, parity of c] = (lo, hi)
        iv = np.array([[allowed_intervals(p, a, b) for b in range(1, p.delta + 1)] for a in range(1, p.delta + 1)])
        for first in range(1, p.delta + 1, 20):
            grid = np.ogrid[first : min(first + 20, p.delta + 1), 1 : p.delta + 1, 1 : p.delta + 1]
            a, b, c = (x.astype(np.int16) for x in grid)  # every sum the rule forms is below 2^15
            block = iv[first - 1 : first + 19, :, None]  # (a, b, 1, parity of c, (lo, hi))
            ends = np.where((c % 2 == 1)[..., None], block[..., 1, :], block[..., 0, :])
            lo, hi = ends[..., 0], ends[..., 1]
            bad = np.zeros(lo.shape, dtype=bool)
            for _, hit in triangle_violations(p, a, b, c):
                bad |= hit
            wrong = np.argwhere(((lo <= c) & (c <= hi)) == bad)
            assert wrong.size == 0, (p, *(wrong[0] + [first, 1, 1]))
