import json
import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from conftest import run_python
from mhg import engine, oracle
from mhg.cli import main
from mhg.completion import magic_complete
from mhg.engine import Engine, _close, plane_rows, unpack
from mhg.families import enumerate_forbidden, find_witness, is_forbidden, walk_bound
from mhg.graphs import EdgeLabelledGraph, is_member
from mhg.magic import default_context
from mhg.oracle import BudgetExceededError, has_completion, verify_equivalence
from mhg.params import ParameterSequence, enumerate_admissible

P_IIB = ParameterSequence(5, 3, 3, 16, 13)
P_III3 = ParameterSequence(3, 1, 3, 10, 9)


def cycle_graph(labels):
    k = len(labels)
    return EdgeLabelledGraph(k, [(i, (i + 1) % k, labels[i]) for i in range(k)])


def test_has_completion_basics():
    assert has_completion(P_III3, EdgeLabelledGraph(3))
    assert has_completion(P_III3, EdgeLabelledGraph(4))
    # an already violating triangle can never be completed
    assert not has_completion(P_IIB, cycle_graph((1, 1, 1)))


def test_has_completion_pentagon():
    # The all-5 pentagon admits no completion under the IIB tuple.
    assert not has_completion(P_IIB, cycle_graph((5, 5, 5, 5, 5)))
    # Relaxing one edge opens it up again.
    g = EdgeLabelledGraph(5, [(0, 1, 5), (1, 2, 5), (2, 3, 5), (3, 4, 5), (0, 4, 4)])
    assert has_completion(P_IIB, g)


def test_has_completion_budget():
    with pytest.raises(BudgetExceededError):
        has_completion(P_IIB, EdgeLabelledGraph(6), budget=3)


def test_has_completion_many_blanks():
    # 1,035 blank pairs: the search must not be bounded by the recursion limit.
    assert has_completion(ParameterSequence(3, 1, 3, 8, 9), EdgeLabelledGraph(46))


def test_has_completion_rejects_large_labels():
    with pytest.raises(ValueError):
        has_completion(P_III3, EdgeLabelledGraph(3, [(0, 1, 4)]))


def lattice_index(eng: Engine, rows: np.ndarray) -> np.ndarray:
    """Inverse of Engine.decode: the last pair is the fastest-varying digit."""
    return np.ravel_multi_index(rows.T, (eng.base,) * eng.P)


def magic_batch(eng: Engine, rows: np.ndarray):
    """complete_batch and member_batch on the planes of rows, read back per
    row: (completed rows, fallback pair mask, membership)."""
    filled, fb = eng.complete_batch(eng.planes(rows))
    k = len(rows)
    return plane_rows(filled, k), unpack(fb, k).T, unpack(eng.member_batch(filled), k)


def obstruction_bits(eng: Engine, rows: np.ndarray) -> np.ndarray:
    """obstruction_batch on the planes of rows, read back per row."""
    return unpack(eng.obstruction_batch(eng.planes(rows)), len(rows))


def search_bits(eng: Engine, rows: np.ndarray) -> np.ndarray:
    """completable_batch on rows and their planes, read back per row."""
    return unpack(eng.completable_batch(rows, eng.planes(rows)), len(rows))


def test_engine_round_trips():
    eng = Engine(default_context(P_III3), 3)
    idx = np.arange(eng.size, dtype=np.int64)
    rows = eng.decode(idx)
    assert rows.shape == (64, 3)
    assert np.array_equal(lattice_index(eng, rows), idx)
    g = eng.row_to_graph(rows[37])
    assert np.array_equal([g.label(u, v) or 0 for u, v in eng.pairs], rows[37])


@pytest.mark.parametrize("delta, n", [(4, 5), (4, 6)])
def test_decode_matches_digit_expansion(delta, n):
    """decode against Python's base-(delta + 1) digits at the ends and the
    middle of the lattice.  The two lattices sit on either side of decode's
    choice between uint32 and int64: 5**10 is below 2**32, 5**15 above."""
    eng = Engine(default_context(enumerate_admissible(delta)[0]), n)
    at = [0, 1, eng.size // 2, eng.size - 2, eng.size - 1]
    want = [[i // eng.base**e % eng.base for e in range(eng.P - 1, -1, -1)] for i in at]
    assert eng.decode(np.array(at, dtype=np.int64)).tolist() == want


def test_engine_matches_scalar_routes_delta3_n3():
    """Every route of the vectorized engine against its scalar reference on
    the full n = 3 lattice."""
    ctx = default_context(P_III3)
    eng = Engine(ctx, 3)
    rows = eng.decode(np.arange(eng.size, dtype=np.int64))
    completable = eng.completable_lattice()
    filled, fb, member = magic_batch(eng, rows)
    obstructed = obstruction_bits(eng, rows)
    for i in range(eng.size):
        g = eng.row_to_graph(rows[i])
        assert completable[i] == has_completion(P_III3, g), g
        done, trace = magic_complete(ctx, g)
        assert eng.row_to_graph(filled[i]) == done, g
        assert {eng.pairs[q] for q in np.flatnonzero(fb[i])} == set(trace.fallback_pairs), g
        assert member[i] == is_member(P_III3, done), g
        assert obstructed[i] == (find_witness(P_III3, g) is not None), g


def test_complete_and_member_batch_match_scalar_delta3_all_n4():
    """complete_batch and member_batch against magic_complete and is_member,
    fallback pairs included, on every n = 4 lattice point of each delta = 3
    tuple."""
    params = enumerate_admissible(3)
    assert len(params) == 10
    fallback_graphs = 0
    for p in params:
        ctx = default_context(p)
        eng = Engine(ctx, 4)
        rows = eng.decode(np.arange(eng.size, dtype=np.int64))
        filled, fb, member = magic_batch(eng, rows)
        fallback_graphs += int(fb.any(axis=1).sum())
        for row, row_filled, row_fb, ok in zip(rows, filled, fb, member):
            g = eng.row_to_graph(row)
            done, trace = magic_complete(ctx, g)
            assert eng.row_to_graph(row_filled) == done, (p, g)
            assert {eng.pairs[q] for q in np.flatnonzero(row_fb)} == set(trace.fallback_pairs), (p, g)
            assert ok == is_member(p, done), (p, g)
    assert fallback_graphs > 0


@pytest.mark.parametrize(
    "t, n", [((3, 1, 3, 10, 9), 5), ((6, 3, 4, 16, 15), 4)], ids=["delta3-n5", "delta6-n4"]
)
def test_batch_operations_ignore_row_layout(t, n):
    """On decode's transposed view, on a C-ordered copy of it and on a
    strided row slice the batch operations return equal arrays, and the
    input rows are left as they were.  Each pair is blank with probability
    0.45, so fallback pairs occur, and under the delta = 6 tuple the greedy
    search pass leaves rows to its frontier."""
    eng = Engine(default_context(ParameterSequence(*t)), n)
    rng = np.random.default_rng(sum(t))
    k = 400
    labels = rng.integers(1, eng.base, size=(k, eng.P)) * (rng.random((k, eng.P)) >= 0.45)
    rows = eng.decode(lattice_index(eng, labels))
    assert rows.T.flags.c_contiguous and not rows.flags.c_contiguous
    want = [*magic_batch(eng, rows), obstruction_bits(eng, rows), search_bits(eng, rows)]
    assert np.array_equal(rows, labels)
    assert want[1].any() and want[2].any() and want[3].any() and want[4].any() and not want[4].all()
    for layout, sel in [(np.ascontiguousarray, slice(None)), (lambda x: x[::2], slice(None, None, 2))]:
        got = [*magic_batch(eng, layout(rows)), obstruction_bits(eng, layout(rows)), search_bits(eng, layout(rows))]
        for w, g in zip(want, got):
            assert np.array_equal(w[sel], g)


@pytest.mark.parametrize(
    "p, n, chunk_rows, k", [(P_III3, 5, None, 8), (P_IIB, 4, 7, 1)], ids=["delta3-n5", "delta5-n4-chunk7"]
)
def test_block_planes_match_decoded_planes(monkeypatch, p, n, chunk_rows, k):
    """Every aligned block of an exhaustive run, base**k points for the
    largest k with base**k <= _CHUNK_ROWS, built from the grid of its low
    pairs and its constant high digits, equals the planes packed from
    decode; blocks of 6 rows end inside a byte."""
    if chunk_rows:
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
    eng = Engine(default_context(p), n)
    step = eng.base**k
    assert step <= oracle._CHUNK_ROWS < step * eng.base
    for block in range(eng.size // step):
        idx = np.arange(block * step, (block + 1) * step, dtype=np.int64)
        assert np.array_equal(eng.block_planes(block, k), eng.planes(eng.decode(idx))), block


@pytest.mark.parametrize("t", [(3, 1, 3, 10, 9), (5, 3, 3, 16, 13), (6, 3, 4, 16, 15)])
def test_plane_kernels_on_ragged_batches(t):
    """complete_batch and member_batch against magic_complete and is_member
    on batches whose row count is not a multiple of 8, each pair blank with
    probability 0.45 so fallback pairs occur.  Every plane they return
    keeps its padding bits 0, so padding is never a row or a fallback."""
    p = ParameterSequence(*t)
    ctx = default_context(p)
    eng = Engine(ctx, 5)
    rng = np.random.default_rng(sum(t))
    fallback_graphs = 0
    for k in (1, 7, 13, 61):
        rows = (rng.integers(1, eng.base, size=(k, eng.P)) * (rng.random((k, eng.P)) >= 0.45)).astype(np.uint8)
        filled, fb = eng.complete_batch(eng.planes(rows))
        member = eng.member_batch(filled)
        for out in (filled, fb, member):
            assert not np.unpackbits(out, axis=-1, bitorder="little")[..., k:].any(), k
        fallback_graphs += int(unpack(fb, k).any(axis=0).sum())
        for row, row_filled, row_fb, ok in zip(rows, plane_rows(filled, k), unpack(fb, k).T, unpack(member, k)):
            g = eng.row_to_graph(row)
            done, trace = magic_complete(ctx, g)
            assert eng.row_to_graph(row_filled) == done, (k, g)
            assert {eng.pairs[q] for q in np.flatnonzero(row_fb)} == set(trace.fallback_pairs), (k, g)
            assert ok == is_member(p, done), (k, g)
    assert fallback_graphs > 0


def test_completable_batch_matches_lattice_all_n4():
    """The batch search against the lattice on every n = 4 lattice point of
    each admissible tuple with delta <= 5."""
    params = [p for delta in range(3, 6) for p in enumerate_admissible(delta)]
    assert len(params) == 63
    for p in params:
        eng = Engine(default_context(p), 4)
        rows = eng.decode(np.arange(eng.size, dtype=np.int64))
        assert np.array_equal(search_bits(eng, rows), eng.completable_lattice()), p


def test_completable_lattice_matches_batch_delta3_n5():
    """The search lattice against the batch search on every n = 5 lattice
    point of each delta = 3 tuple, decoded in chunks."""
    for p in enumerate_admissible(3):
        eng = Engine(default_context(p), 5)
        lattice = eng.completable_lattice()
        assert lattice.any() and not lattice.all()
        for lo in range(0, eng.size, 1 << 18):
            idx = np.arange(lo, min(lo + (1 << 18), eng.size), dtype=np.int64)
            assert np.array_equal(lattice[idx], search_bits(eng, eng.decode(idx))), (p, lo)


def close_by_axis(H: np.ndarray, down: bool) -> None:
    """The per-axis closure that _close replaced, kept as its reference."""
    for q in range(H.ndim):
        v = np.moveaxis(H, q, 0)
        if down:
            for l in range(1, H.shape[0]):
                v[0] |= v[l]
        else:
            v[1:] |= v[0]


@pytest.mark.parametrize("down", [True, False], ids=["down", "up"])
@pytest.mark.parametrize(
    "base, P, slab", [(b, P, None) for b in (4, 5, 6) for P in (3, 6, 10)] + [(5, 6, 1)]
)
def test_close_matches_per_axis_loop(monkeypatch, base, P, slab, down):
    """_close against the per-axis loop on random lattices, one point in 8
    set but the all-blank one, which the up closure would spread to every
    point.  At P = 3 every axis is a low axis; a slab of one byte makes each
    row of the low axes a slab of its own, so every boundary is crossed."""
    if slab:
        monkeypatch.setattr(engine, "_SLAB", slab)
    H = np.random.default_rng(100 * base + P).integers(0, 8, (base,) * P, dtype=np.uint8) == 0
    H.flat[0] = False
    want = H.copy()
    close_by_axis(want, down)
    assert (want != H).any() and not want.all()
    _close(H, down)
    assert np.array_equal(H, want)


def test_obstruction_lattice_matches_batch():
    """The obstruction lattice against the batch scan on every n = 4
    lattice point of each admissible tuple with delta <= 5, and on every
    n = 5 point of each delta = 3 tuple, decoded in chunks."""
    params = [p for delta in range(3, 6) for p in enumerate_admissible(delta)]
    assert len(params) == 63
    for p in params:
        eng = Engine(default_context(p), 4)
        rows = eng.decode(np.arange(eng.size, dtype=np.int64))
        assert np.array_equal(eng.obstruction_lattice(), obstruction_bits(eng, rows)), p
    for p in enumerate_admissible(3):
        eng = Engine(default_context(p), 5)
        lattice = eng.obstruction_lattice()
        assert lattice.any() and not lattice.all()
        for lo in range(0, eng.size, 1 << 18):
            idx = np.arange(lo, min(lo + (1 << 18), eng.size), dtype=np.int64)
            assert np.array_equal(lattice[idx], obstruction_bits(eng, eng.decode(idx))), (p, lo)


@pytest.mark.parametrize("t", [(5, 3, 3, 16, 13), (5, 1, 5, 12, 13)])
def test_obstruction_batch_matches_lattice_at_workload_size(t):
    """One sampled chunk at the size verify draws: 65,531 seeded n = 5
    lattice indices, a count that ends inside a byte.  The obstruction
    bits equal the obstruction lattice at those indices, and the padding
    bits of the last byte are 0."""
    eng = Engine(default_context(ParameterSequence(*t)), 5)
    k = (1 << 16) - 5
    idx = np.random.default_rng(sum(t)).integers(0, eng.size, size=k, dtype=np.int64)
    bits = eng.obstruction_batch(eng.planes(eng.decode(idx)))
    want = eng.obstruction_lattice()[idx]
    assert want.any() and not want.all()
    assert np.array_equal(unpack(bits, k), want)
    assert bits.size == -(-k // 8) and bits[-1] >> (k % 8) == 0


@pytest.mark.parametrize("t", [(5, 3, 3, 16, 13), (5, 1, 5, 12, 13)])
def test_completable_batch_matches_lattice_at_workload_size(t):
    """The batch search on one sampled chunk at the size verify draws:
    65,531 seeded n = 5 lattice indices, a count that ends inside a byte,
    against the search lattice at those indices; the padding bits of the
    last byte are 0."""
    eng = Engine(default_context(ParameterSequence(*t)), 5)
    k = (1 << 16) - 5
    idx = np.random.default_rng(sum(t)).integers(0, eng.size, size=k, dtype=np.int64)
    rows = eng.decode(idx)
    bits = eng.completable_batch(rows, eng.planes(rows))
    want = eng.completable_lattice()[idx]
    assert want.any() and not want.all()
    assert np.array_equal(unpack(bits, k), want)
    assert bits.size == -(-k // 8) and bits[-1] >> (k % 8) == 0


def test_engine_forb3_matches_is_forbidden():
    """forb3, filled from the triangles of enumerate_forbidden, against
    is_forbidden on every label triple; label 0 (a blank pair) is never
    forbidden."""
    for p in [p for delta in range(3, 6) for p in enumerate_admissible(delta)]:
        eng = Engine(default_context(p), 3)
        want = np.zeros((eng.base,) * 3, dtype=bool)
        for t in product(range(1, eng.base), repeat=3):
            want[t] = is_forbidden(p, t)
        assert np.array_equal(eng.forb3, want), p


# Every delta = 3 tuple at n = 4 and 5, and cases IIA, IIB (delta = 5) and
# III (delta = 4) at n = 5: each pair has n - 2 partner vertices z, and the
# lattice index spans several digits.  The search's label masks are 7 bits
# wide under the delta = 6 tuple and 9 bits under the delta = 8 one.
SEEDED_ROW_CASES = [(p, n) for p in enumerate_admissible(3) for n in (4, 5)] + [
    (ParameterSequence(5, 3, 3, 14, 13), 5),
    (P_IIB, 5),
    (ParameterSequence(4, 2, 3, 14, 11), 5),
    (ParameterSequence(6, 3, 4, 16, 15), 4),
    (ParameterSequence(8, 1, 7, 26, 23), 4),
]


@pytest.mark.parametrize(
    "p, n", SEEDED_ROW_CASES, ids=[f"{p.as_tuple()}-n{n}" for p, n in SEEDED_ROW_CASES]
)
def test_engine_matches_scalar_routes_seeded_rows(p, n):
    """Every route of the vectorized engine against its scalar reference on
    seeded rows: uniform lattice points, and rows with each pair blank with
    probability 0.45, which reach the fallback and longer cycles more often.
    The obstruction lattice, read at the rows, equals the row scan."""
    ctx = default_context(p)
    eng = Engine(ctx, n)
    rng = np.random.default_rng(n * 1000 + sum(p.as_tuple()))
    k = 60
    idx = rng.integers(0, eng.size, size=k, dtype=np.int64)
    sparse = rng.integers(1, eng.base, size=(k, eng.P)) * (rng.random((k, eng.P)) >= 0.45)
    rows = np.concatenate([eng.decode(idx), sparse.astype(np.uint8)])
    assert np.array_equal(lattice_index(eng, rows[:k]), idx)
    completable = eng.completable_lattice()[lattice_index(eng, rows)]
    searched = search_bits(eng, rows)
    filled, fb, member = magic_batch(eng, rows)
    obstructed = obstruction_bits(eng, rows)
    assert np.array_equal(eng.obstruction_lattice()[lattice_index(eng, rows)], obstructed)
    for i, row in enumerate(rows):
        g = eng.row_to_graph(row)
        assert completable[i] == searched[i] == has_completion(p, g), g
        done, trace = magic_complete(ctx, g)
        assert eng.row_to_graph(filled[i]) == done, g
        assert {eng.pairs[q] for q in np.flatnonzero(fb[i])} == set(trace.fallback_pairs), g
        assert member[i] == is_member(p, done), g
        assert obstructed[i] == (find_witness(p, g) is not None), g


@pytest.mark.parametrize("t", [(5, 1, 5, 12, 13), (5, 4, 4, 16, 15)])
@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_obstruction_batch_matches_find_witness_triangle_free(t, n):
    """The plane-product word walk against find_witness where only cycles
    of 4 to walk_bound(p) edges can obstruct: seeded rows, each pair blank
    with probability 0.6, keeping those without a forbidden triangle.  The
    longest obstruction cycles have 9 and 7 edges under the two tuples, so
    the trie is walked to its full depth over (n, n) adjacency planes."""
    p = ParameterSequence(*t)
    longest = {(5, 1, 5, 12, 13): 9, (5, 4, 4, 16, 15): 7}[t]
    assert walk_bound(p) == max(map(len, enumerate_forbidden(p))) == longest
    eng = Engine(default_context(p), n)
    rng = np.random.default_rng(n * 1000 + sum(t))
    k = 2000
    rows = (rng.integers(1, eng.base, size=(k, eng.P)) * (rng.random((k, eng.P)) >= 0.6)).astype(np.uint8)
    q1, q2, q3 = eng.triangles.T
    rows = rows[~eng.forb3[rows[:, q1], rows[:, q2], rows[:, q3]].any(axis=1)][:200]
    assert len(rows) == 200
    obstructed = obstruction_bits(eng, rows)
    want = [find_witness(p, eng.row_to_graph(row)) is not None for row in rows]
    assert obstructed.tolist() == want
    assert 0 < obstructed.sum() < len(rows)


def test_word_scan_top_bit_at_64_vertices():
    """At n = 64, vertex 63 is the last row and column of the adjacency
    planes: the all-5 pentagon through it is found, and a path of four
    5-edges is not.  Past 64 vertices the engine refuses."""
    ctx = default_context(P_IIB)
    eng = Engine(ctx, 64)
    cycle = [59, 60, 61, 62, 63]
    rows = np.zeros((2, eng.P), dtype=np.uint8)
    for i in range(5):
        rows[0, eng.pairs.index(tuple(sorted((cycle[i], cycle[i - 1]))))] = 5
    rows[1] = rows[0]
    rows[1, eng.pairs.index((59, 63))] = 0
    assert obstruction_bits(eng, rows).tolist() == [True, False]
    with pytest.raises(ValueError, match="64 vertices"):
        Engine(ctx, 65)


def test_forbidden_cycles_are_obstructions_on_every_route():
    """Soundness of F(p) on all six routes: every member of
    enumerate_forbidden(p), for each admissible tuple with delta <= 5, drawn
    as a cycle graph with its labels rotated by one and its vertices
    shuffled, so no walk starts at vertex 0 with the canonical word.  The
    engine routes run on one batch per cycle length, and the members of up
    to 4 edges are also read off the obstruction lattice."""
    rng = random.Random(20180815)
    params = [p for delta in range(3, 6) for p in enumerate_admissible(delta)]
    assert len(params) == 63
    members = 0
    for p in params:
        ctx = default_context(p)
        by_length: dict[int, list[EdgeLabelledGraph]] = {}
        for cycle in enumerate_forbidden(p):
            k = len(cycle)
            labels = cycle[1:] + cycle[:1]
            perm = list(range(k))
            rng.shuffle(perm)
            g = EdgeLabelledGraph(k, [(perm[i], perm[(i + 1) % k], labels[i]) for i in range(k)])
            assert not has_completion(p, g), (p, g)
            assert find_witness(p, g) is not None, (p, g)
            assert not is_member(p, magic_complete(ctx, g)[0]), (p, g)
            by_length.setdefault(k, []).append(g)
            members += 1
        for k, graphs in by_length.items():
            eng = Engine(ctx, k)
            rows = np.array([[g.label(u, v) or 0 for u, v in eng.pairs] for g in graphs], dtype=np.uint8)
            assert not search_bits(eng, rows).any(), (p, k)
            assert obstruction_bits(eng, rows).all(), (p, k)
            if k <= 4:
                assert eng.obstruction_lattice()[lattice_index(eng, rows)].all(), (p, k)
            assert not magic_batch(eng, rows)[2].any(), (p, k)
    assert members == 916


def test_verify_counts_skipped_search_spot_checks(monkeypatch):
    """A spot-checked graph whose search outgrows the node budget is skipped
    and counted, and the run still passes."""
    monkeypatch.setattr(oracle, "_SPOT_BUDGET", 1)
    report = verify_equivalence(P_III3, 4)
    assert report.ok
    assert report.spot_checks["search_skipped"] > 0
    assert report.stats["search_skipped"] == report.spot_checks["search_skipped"]

# Its all-4 graphs are members, so the last n = 4 lattice point, alone in
# the final byte of the packed verdicts, is completable.
P_DELTA4 = ParameterSequence(4, 1, 3, 14, 11)
# The report's counters that do not depend on how rows are chunked.
CHUNK_FREE_STATS = ("lattice_points", "rows_checked", "completable_fraction", "search_skipped", "verdict_bytes")


@pytest.mark.parametrize(
    "p, kwargs, chunk_rows, chunks",
    [
        (P_III3, {}, 7, 4**3 // 4 + 4**6 // 4),
        (P_IIB, {"sample": 400, "seed": 11}, 7, -(-400 // 7)),
        (P_DELTA4, {}, 125, 1 + 125),
    ],
    ids=["exhaustive", "sampled", "delta4-blocks-of-125"],
)
def test_verify_chunk_size_does_not_change_report(monkeypatch, p, kwargs, chunk_rows, chunks):
    """Chunk boundaries everywhere must not change the JSON bytes or the
    counters.  Under delta = 3 a chunk of at most 7 rows is an aligned block
    of 4 points; under delta = 4 the n = 4 lattice runs in 125 blocks of
    125 points, and every block but the first starts inside a byte of the
    packed verdicts."""
    want = verify_equivalence(p, 4, **kwargs)
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
    got = verify_equivalence(p, 4, **kwargs)
    assert json.dumps(got.to_json_obj()) == json.dumps(want.to_json_obj())
    assert got.stats["chunks"] == chunks
    for key in CHUNK_FREE_STATS:
        assert got.stats[key] == want.stats[key], key


def test_sampled_rows_are_one_int64_draw(monkeypatch):
    """Sampled verify draws its indices a chunk at a time, here 7 rows, and
    keeps them as uint32; the rows its batch search sees are still those of
    one int64 draw of all `sample` indices from default_rng(seed)."""
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 7)
    seen = []
    batch = Engine.completable_batch

    def spy(self, rows, planes):
        seen.append(lattice_index(self, rows))
        return batch(self, rows, planes)

    monkeypatch.setattr(Engine, "completable_batch", spy)
    verify_equivalence(P_IIB, 4, sample=400, seed=11)
    want = np.random.default_rng(11).integers(0, 6**6, size=400, dtype=np.int64)
    assert np.concatenate(seen).tolist() == want.tolist()


def test_verify_padding_bits_are_not_rows():
    """Under delta = 4 the blocks of 5**3 and 5**6 points end inside a
    byte; the padding bits after them count as neither rows nor fallback
    graphs."""
    p = ParameterSequence(4, 1, 4, 10, 11)
    report = verify_equivalence(p, 4)
    assert report.ok and report.graphs_checked == 5**3 + 5**6
    want = 0
    for n in (3, 4):
        eng = Engine(default_context(p), n)
        want += int(magic_batch(eng, eng.decode(np.arange(eng.size)))[1].any(axis=1).sum())
    assert report.fallback_graph_count == want > 0


def test_verify_mid_byte_chunks_report_the_same_mismatches(monkeypatch):
    """The member flip of test_verify_reports_confirmed_mismatches, on the
    n = 4 lattice only, so every example comes from the chunked lattice:
    chunks of 125 and of 5 points, which start inside a byte, report the
    same 20 examples and counts as one 15,625-point block."""
    member_batch = Engine.member_batch
    monkeypatch.setattr(
        Engine,
        "member_batch",
        lambda self, planes: member_batch(self, planes) if self.n < 4 else np.zeros(planes.shape[-1], dtype=np.uint8),
    )
    monkeypatch.setattr(oracle, "is_member", lambda p, g: g.n < 4 and is_member(p, g))
    reports = []
    for chunk_rows in (oracle._CHUNK_ROWS, 125, 5):
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
        reports.append(verify_equivalence(P_DELTA4, 4))
    want = reports[0]
    completable = Engine(default_context(P_DELTA4), 4).completable_lattice()
    assert completable[-1] and 5**6 % 8 == 1
    assert want.magic_mismatch_count == completable.sum() > 20 and want.witness_mismatch_count == 0
    assert len(want.mismatch_examples) == 20
    assert all(ex["kind"] == "magic" and ex["n"] == 4 for ex in want.mismatch_examples)
    for got in reports[1:]:
        assert got.to_json_obj() == want.to_json_obj()


def dirty_padding(stage):
    """stage with the padding bits of its packed output set: the rows of
    the planes, its last argument, are the set bits of pair 0's planes."""

    def run(self, *args):
        bits = stage(self, *args).copy()
        count = int(np.bitwise_count(np.bitwise_or.reduce(args[-1][0], axis=0)).sum())
        if count % 8:
            bits[count // 8] |= 0xFF << (count % 8) & 0xFF
        return bits

    return run


@pytest.mark.parametrize("chunk_rows", [None, 1021])
@pytest.mark.parametrize("stage", ["completable_batch", "obstruction_batch", "member_batch"])
def test_verify_sampled_padding_bits_never_count(monkeypatch, stage, chunk_rows):
    """A sampled run of 65,531 rows ends inside a byte, and with chunks of
    1,021 rows nearly every chunk does: a stage whose padding bits are set
    gives the report and counters of the clean run."""
    want = verify_equivalence(P_IIB, 5, sample=65_531, seed=3)
    assert want.stats["verdict_bytes"] == 3 * 8192
    monkeypatch.setattr(Engine, stage, dirty_padding(getattr(Engine, stage)))
    if chunk_rows:
        monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
    got = verify_equivalence(P_IIB, 5, sample=65_531, seed=3)
    assert got.to_json_obj() == want.to_json_obj()
    for key in CHUNK_FREE_STATS:
        assert got.stats[key] == want.stats[key], key


def test_verify_stats_verdict_bytes():
    """Three packed verdicts per n, the largest n deciding: 3 * 4**10 / 8
    bytes for delta = 3 at n = 5."""
    assert verify_equivalence(P_III3, 5).stats["verdict_bytes"] == 3 * -(-(4**10) // 8) == 393_216


def test_numpy_random_loads_only_for_sampled_rows():
    """Spot-check rows come from the stdlib generator, so an exhaustive run
    never imports numpy.random; a sampled run draws its rows with it."""
    code = (
        "import sys\n"
        "from mhg.oracle import verify_equivalence\n"
        "from mhg.params import ParameterSequence\n"
        "p = ParameterSequence(3, 1, 3, 10, 9)\n"
        "assert verify_equivalence(p, 4).ok\n"
        "assert 'numpy' in sys.modules and 'numpy.random' not in sys.modules\n"
        "assert verify_equivalence(p, 4, sample=50).ok\n"
        "assert 'numpy.random' in sys.modules\n"
    )
    proc = run_python(["-c", code], timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_label_masks_refuse_delta_above_15(monkeypatch):
    """The search's uint8 table index a * base + b holds base 16 and wraps
    at base 17.  F(p) refuses delta >= 10 on its own, so it is stubbed
    empty to build an Engine at delta = 16; at delta = 15 the batch search
    still equals the lattice on every n = 3 point."""
    monkeypatch.setattr(engine, "enumerate_forbidden", lambda p: [])
    eng = Engine(default_context(enumerate_admissible(16)[0]), 3)
    with pytest.raises(ValueError, match="delta <= 15"):
        search_bits(eng, eng.decode(np.arange(4)))
    eng = Engine(default_context(enumerate_admissible(15)[0]), 3)
    assert np.array_equal(search_bits(eng, eng.decode(np.arange(eng.size))), eng.completable_lattice())


def test_verify_exhaustive_peak_memory():
    """An exhaustive run keeps three verdict bits per lattice point and
    packs each lattice before the next is built, so one lattice byte per
    point is the peak: (4,1,4,10,11) to n = 5, 9.8 M points, peaks below
    1.5 bytes per point under tracemalloc."""
    tracemalloc.start()
    try:
        report = verify_equivalence(ParameterSequence(4, 1, 4, 10, 11), 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.graphs_checked > 5**10
    assert peak < 1.5 * 5**10


def test_verify_sampled_peak_memory():
    """A sampled run keeps 4 index bytes and 3 verdict bits per row, so
    4 M rows of (3,1,3,10,9) at n = 5 peak below 4.4 bytes per row plus
    8 MiB for one chunk's working set under tracemalloc.  int64 indices
    peaked at 9.6 bytes per row."""
    sample = 4_000_000
    tracemalloc.start()
    try:
        report = verify_equivalence(P_III3, 5, sample=sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.graphs_checked == sample
    assert peak < 4.4 * sample + 8 * 2**20


def test_verify_stats_keys():
    report = verify_equivalence(P_III3, 4)
    stats = report.stats
    assert set(stats) == {
        "seconds",
        "lattice_points",
        "rows_checked",
        "chunks",
        "completable_fraction",
        "search_skipped",
        "verdict_bytes",
    }
    assert set(stats["seconds"]) == {
        "search",
        "decode",
        "complete",
        "member",
        "obstruction",
        "spot_check",
    }
    assert all(s >= 0 for s in stats["seconds"].values())
    assert stats["lattice_points"] == stats["rows_checked"] == report.graphs_checked == 4160
    assert stats["chunks"] == 2
    ctx = default_context(P_III3)
    completable = sum(int(Engine(ctx, n).completable_lattice().sum()) for n in (3, 4))
    assert stats["completable_fraction"] == completable / 4160
    assert stats["search_skipped"] == report.spot_checks["search_skipped"]
    assert "stats" not in report.to_json_obj()


def test_verify_stats_sampled_builds_no_lattice():
    """Sampled mode answers the search route from the drawn rows alone."""
    report = verify_equivalence(P_IIB, 5, sample=400, seed=11)
    stats = report.stats
    assert stats["lattice_points"] == 0
    assert stats["rows_checked"] == report.graphs_checked == 400
    assert stats["seconds"]["search"] > 0


def test_verify_exhaustive_frozen():
    report = verify_equivalence(P_III3, 4)
    assert report.ok
    assert report.mode == "exhaustive"
    assert report.graphs_checked == 4 **3 + 4**6
    assert report.witness_mismatch_count == 0
    assert report.magic_mismatch_count == 0
    assert report.mismatch_examples == ()
    assert report.seed is None
    assert report.sample is None
    assert report.m == 2
    # the all-blank graph goes through the fallback path
    assert report.fallback_graph_count > 0
    assert report.fallback_examples
    assert report.spot_checks["search"] > 0
    assert report.spot_checks["magic"] > 0
    assert report.spot_checks["witness"] > 0


def test_verify_report_json():
    report = verify_equivalence(P_III3, 3)
    obj = report.to_json_obj()
    assert obj["ok"] is True
    assert obj["params"] == [3, 1, 3, 10, 9]
    assert obj["mode"] == "exhaustive"
    assert obj["n_max"] == 3
    assert obj["graphs_checked"] == 64
    assert "elapsed_seconds" not in obj  # timing would break byte-stable JSON


def test_verify_sampled_mode():
    r1 = verify_equivalence(P_IIB, 4, sample=400, seed=11)
    r2 = verify_equivalence(P_IIB, 4, sample=400, seed=11)
    assert r1.ok and r2.ok
    assert r1.mode == "sampled"
    assert r1.seed == 11
    assert r1.graphs_checked == 400
    assert r1.to_json_obj() == r2.to_json_obj()


def test_verify_rejects_small_n():
    with pytest.raises(ValueError):
        verify_equivalence(P_III3, 2)


@pytest.mark.parametrize("sample", [0, -1])
def test_verify_rejects_non_positive_sample(sample):
    with pytest.raises(ValueError, match="sample"):
        verify_equivalence(P_III3, 4, sample=sample)


def _flip_completion(out):
    """Every completed row with its first pair relabelled 1 -> 2 -> 3 -> 1."""
    filled, fb = out
    filled = filled.copy()
    filled[0, 1:4] = filled[0, [3, 1, 2]]
    return filled, fb


# One engine stage per route, a wrapper that turns its verdict around, and
# the sample size of the run (None: exhaustive).  The search and
# obstruction routes have a stage per mode; the text before a comma names
# the route.
ENGINE_FLIPS = {
    "search route": ("completable_lattice", np.logical_not, None),
    "search route, sampled": ("completable_batch", np.invert, 50),
    "completion route": ("complete_batch", _flip_completion, None),
    "fallback log": ("complete_batch", lambda out: (out[0], ~out[1]), None),
    "membership route": ("member_batch", np.invert, None),
    "obstruction route": ("obstruction_lattice", np.logical_not, None),
    "obstruction route, sampled": ("obstruction_batch", np.invert, 50),
}


@pytest.mark.parametrize("case", list(ENGINE_FLIPS))
def test_engine_disagreement_is_internal_error(monkeypatch, capsys, case):
    """A vectorized stage that contradicts its scalar reference stops the
    run with an error naming the route; it is never reported as a finding."""
    name, flip, sample = ENGINE_FLIPS[case]
    route = case.partition(",")[0]
    stage = getattr(Engine, name)
    monkeypatch.setattr(Engine, name, lambda self, *args: flip(stage(self, *args)))
    with pytest.raises(RuntimeError, match=re.escape(f"engine disagreement ({route})")):
        verify_equivalence(P_III3, 3, sample=sample)
    argv = ["verify", "--params", "3", "1", "3", "10", "9", "--n-max", "3"]
    assert main(argv + (["--sample", str(sample)] if sample else [])) == 3
    assert f"({route})" in capsys.readouterr().err


def test_verify_reports_confirmed_mismatches(monkeypatch, capsys):
    """Engine and scalar membership both call every completion a non-member,
    so the magic route disagrees with the search route on exactly the
    completable rows, and every example survives the scalar re-check."""
    monkeypatch.setattr(Engine, "member_batch", lambda self, planes: np.zeros(planes.shape[-1], dtype=np.uint8))
    monkeypatch.setattr(oracle, "is_member", lambda p, g: False)
    report = verify_equivalence(P_III3, 4)
    ctx = default_context(P_III3)
    completable = sum(int(Engine(ctx, n).completable_lattice().sum()) for n in (3, 4))
    assert not report.ok
    assert report.witness_mismatch_count == 0
    assert report.magic_mismatch_count == completable > 20
    assert len(report.mismatch_examples) == 20
    for ex in report.mismatch_examples:
        assert ex["kind"] == "magic"
        verdicts = (ex["search_completable"], ex["witness_free"], ex["magic_success"])
        assert verdicts == (True, True, False)
        assert has_completion(P_III3, EdgeLabelledGraph.from_json_obj(ex["graph"]))
    assert report.to_json_obj()["ok"] is False
    assert main(["verify", "--params", "3", "1", "3", "10", "9", "--n-max", "4"]) == 1
    assert capsys.readouterr().out.strip().endswith("MISMATCH")


def test_verify_refuses_lattice_above_cap(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_LATTICE_CAP", 100)
    verify_equivalence(P_III3, 3)  # 64 points
    with pytest.raises(BudgetExceededError, match="n=4"):
        verify_equivalence(P_III3, 4)
    assert main(["verify", "--params", "3", "1", "3", "10", "9", "--n-max", "4"]) == 2
    assert "use sampling" in capsys.readouterr().err
    # Sampled mode builds no lattice, but still refuses that n.
    with pytest.raises(BudgetExceededError, match="n=4"):
        verify_equivalence(P_III3, 4, sample=1)
    assert main(["verify", "--params", "3", "1", "3", "10", "9", "--n-max", "4", "--sample", "1"]) == 2
    err = capsys.readouterr().err
    assert "n=4" in err and "use sampling" not in err


def test_verify_refuses_sample_above_memory_budget(monkeypatch):
    """8 index bytes and 3 verdict bytes per sampled row must fit in the 3
    bytes per point that the lattice cap allows an exhaustive run."""
    monkeypatch.setattr(oracle, "_LATTICE_CAP", 1100)  # 3,300 bytes: 300 rows
    assert verify_equivalence(P_III3, 3, sample=300, seed=1).graphs_checked == 300
    with pytest.raises(BudgetExceededError, match="sample of 301 rows"):
        verify_equivalence(P_III3, 3, sample=301, seed=1)


def test_verify_cli_refuses_huge_sample():
    """A 10^9-row sample (11 GB of rows and verdicts) exits 2 at once in a
    fresh process, instead of failing in numpy's allocator."""
    proc = run_python(
        ["-m", "mhg", "verify", "--params", "3", "1", "3", "10", "9", "--n-max", "4", "--sample", "1000000000"],
        timeout=30,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "sample" in proc.stderr
