import random

import pytest
from conftest import MATRIX_TUPLES, WIDE_TUPLES, many_label_graph, random_graph

from mhg.completion import (
    CompletionTrace,
    bitset_complete,
    first_stage_value,
    has_tension,
    inverse_steps,
    magic_complete,
    steps,
)
from mhg.graphs import MAX_BITSET_N, EdgeLabelledGraph, canonical_cycle, is_member
from mhg.magic import MagicContext, default_context, magic_distances
from mhg.params import ParameterSequence

CTX = default_context(ParameterSequence(5, 3, 3, 16, 13))  # M = 3, C = 13


def cycle_graph(labels):
    k = len(labels)
    return EdgeLabelledGraph(k, [(i, (i + 1) % k, labels[i]) for i in range(k)])


def test_pentagon_completion():
    """All chords of the all-5 pentagon close forks 5 (+) 5 = 2 in one stage."""
    done, trace = magic_complete(CTX, cycle_graph((5, 5, 5, 5, 5)))
    assert done.is_complete()
    chords = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
    assert all(done.label(u, v) == 2 for u, v in chords)
    assert trace.stages == ((4, 2, tuple(chords)),)
    assert trace.fallback_pairs == ()
    # The pentagon is an obstruction, so its completion cannot be a member.
    assert not is_member(CTX.params, done)


def test_two_stage_completion():
    g = EdgeLabelledGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5)])
    done, trace = magic_complete(CTX, g)
    assert done.label(0, 2) == 4  # 5 (+) 1 at the stage of distance 4
    assert done.label(1, 3) == 4
    assert done.label(0, 3) == 3  # 5 (+) 4, only visible one stage later
    assert trace.stages == ((3, 4, ((0, 2), (1, 3))), (5, 3, ((0, 3),)))
    assert trace.fallback_pairs == ()


def test_complete_input_is_untouched():
    g = cycle_graph((3, 3, 3))
    done, trace = magic_complete(CTX, g)
    assert done == g
    assert trace.stages == ()
    assert trace.fallback_pairs == ()


def test_fallback_pairs():
    """Pairs never reached by a fork get the magic distance after all stages."""
    g = EdgeLabelledGraph(4, [(0, 1, 3), (2, 3, 3)])
    done, trace = magic_complete(CTX, g)
    cross = ((0, 2), (0, 3), (1, 2), (1, 3))
    assert trace.fallback_pairs == cross
    assert all(done.label(u, v) == CTX.m for u, v in cross)
    assert trace.stages == ()


def test_completion_is_deterministic():
    g = EdgeLabelledGraph(4, [(0, 1, 5), (1, 2, 1), (2, 3, 5)])
    a = magic_complete(CTX, g)
    b = magic_complete(CTX, g)
    assert a == b


def test_completion_rejects_large_labels():
    with pytest.raises(ValueError):
        magic_complete(CTX, EdgeLabelledGraph(3, [(0, 1, 6)]))


def test_trace_json():
    _, trace = magic_complete(CTX, cycle_graph((5, 5, 5, 5, 5)))
    obj = trace.to_json_obj()
    assert obj["stages"] == [
        {"stage": 4, "distance": 2, "pairs": [[0, 2], [0, 3], [1, 3], [1, 4], [2, 4]]}
    ]
    assert obj["fallback_pairs"] == []
    assert CompletionTrace((), ()).to_json_obj() == {"stages": [], "fallback_pairs": []}


def test_first_stage_value():
    # stage order for M = 3 is 5, 4, 1, 2, 3
    assert first_stage_value(CTX, (1, 1, 5, 5)) == 4
    assert first_stage_value(CTX, (5, 5, 5, 5, 5)) == 2
    assert first_stage_value(CTX, (3, 3, 3)) == 3


def test_steps_frozen():
    assert steps(CTX, (5, 5, 5, 5, 5)) == [(2, 5, 5, 5)]
    assert steps(CTX, (1, 1, 5, 5)) == [(1, 4, 5)]
    assert steps(CTX, (3, 3, 3)) == []
    with pytest.raises(ValueError):
        steps(CTX, (1, 2))


def test_steps_shrink_by_one():
    for cycle in [(2, 5, 5, 5), (1, 4, 5, 2), (1, 1, 1, 1, 1, 1)]:
        for nxt in steps(CTX, cycle):
            assert len(nxt) == len(cycle) - 1


def test_inverse_steps_frozen():
    assert inverse_steps(CTX, (1, 1, 2), 5) == [(1, 1, 1, 1)]
    assert inverse_steps(CTX, (2, 5, 5, 5), 5) == [(5, 5, 5, 5, 5)]
    assert inverse_steps(CTX, (2, 5, 5, 5), 4) == []
    with pytest.raises(ValueError):
        inverse_steps(CTX, (1,), 5)


def test_inverse_steps_invert_steps():
    """Every expansion steps back to the cycle it came from."""
    for cycle in [(1, 1, 2), (2, 5, 5, 5), (1, 4, 5)]:
        for bigger in inverse_steps(CTX, cycle, 8):
            assert canonical_cycle(cycle) in steps(CTX, bigger), (cycle, bigger)
            assert len(bigger) == len(cycle) + 1


def test_has_tension():
    assert not has_tension(CTX, (3, 3, 3))
    assert has_tension(CTX, (5, 5, 5, 5, 5))
    assert has_tension(CTX, (1, 1, 5, 5))
    with pytest.raises(ValueError):
        has_tension(CTX, (1, 2))


@pytest.mark.parametrize("p", MATRIX_TUPLES, ids=str)
def test_complete_graph_matches_magic_complete(p):
    """The bitset completion gives the reference's graph, stages and
    fallback pairs, for every magic distance of the tuple.  Sparse graphs
    leave pairs no fork reaches, so the fallback is exercised too.  At
    n = 70 and 130 a vertex's bitset spans more than one machine word."""
    rng = random.Random(f"complete {p}")
    for m in magic_distances(p):
        ctx = MagicContext(p, m)
        labels = range(1, p.delta + 1)
        graphs = [cycle_graph([rng.choice(labels) for _ in range(60)])]
        graphs.append(random_graph(rng, 40, 0.05, labels))
        if m == magic_distances(p)[0]:
            graphs += [random_graph(rng, 70, 0.3, labels), random_graph(rng, 130, 0.1, labels)]
        for _ in range(12):
            n = rng.randint(1, 12)
            graphs.append(random_graph(rng, n, rng.choice((0.1, 0.3, 0.6, 1.0)), labels))
        for g in graphs:
            assert bitset_complete(ctx, g) == magic_complete(ctx, g), g


@pytest.mark.parametrize("p", WIDE_TUPLES, ids=str)
def test_complete_graph_matches_magic_complete_wide_delta(p):
    """Labels and magic distance above 255, where a uint8 table would wrap
    around.  Labels come from all of 1..delta, and from a handful of
    values, so that forks repeat and many pairs fill."""
    rng = random.Random(f"complete wide {p}")
    ctx = default_context(p)
    few = [1, 2, p.delta // 2, ctx.m, p.delta - 1, p.delta]
    for labels in (range(1, p.delta + 1), few):
        graphs = [cycle_graph([rng.choice(labels) for _ in range(16)])]
        for _ in range(8):
            n = rng.randint(1, 10)
            graphs.append(random_graph(rng, n, rng.choice((0.2, 0.5, 1.0)), labels))
        for g in graphs:
            assert bitset_complete(ctx, g) == magic_complete(ctx, g), g
    # Dozens of labels at every vertex, a tenth of the pairs blank: the
    # (+) pairs of many present labels, extended as stages add labels.
    for n in (12, 40):
        g = many_label_graph(rng, p, n)
        g = EdgeLabelledGraph(n, [e for e in g.edges() if rng.random() > 0.1])
        assert bitset_complete(ctx, g) == magic_complete(ctx, g), g


def test_complete_graph_rejects_what_the_reference_rejects():
    big = EdgeLabelledGraph(3, [(0, 1, 6)])
    with pytest.raises(ValueError) as ref:
        magic_complete(CTX, big)
    with pytest.raises(ValueError, match=str(ref.value)):
        bitset_complete(CTX, big)
    with pytest.raises(ValueError, match="vertices"):
        bitset_complete(CTX, EdgeLabelledGraph(MAX_BITSET_N + 1))
