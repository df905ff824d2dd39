import functools
import json
import math
import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from conftest import run_python
from mhg import cli, families
from mhg.families import (
    SPECIAL_PENTAGON,
    FamilyTag,
    FamilyWitness,
    active_tags,
    classify_cycle,
    enumerate_forbidden,
    find_witness,
    is_forbidden,
    walk_bound,
)
from mhg.graphs import EdgeLabelledGraph, canonical_cycle, closed_walks_with_vertices
from mhg.params import ParameterSequence, enumerate_admissible

P_IIB = ParameterSequence(5, 3, 3, 16, 13)  # C = 13, C' = 16
P_IIA = ParameterSequence(5, 3, 3, 14, 13)
P_III4 = ParameterSequence(4, 1, 3, 14, 11)
P_III4N = ParameterSequence(4, 1, 3, 12, 11)  # C' = C + 1
P_III3 = ParameterSequence(3, 1, 3, 10, 9)


def cycle_graph(labels):
    k = len(labels)
    return EdgeLabelledGraph(k, [(i, (i + 1) % k, labels[i]) for i in range(k)])


def check_witness(p: ParameterSequence, w: FamilyWitness) -> None:
    """Re-derive the defining inequality of the family from the decomposition."""
    labels = tuple(sorted(w.d_edges + w.x_edges, reverse=True))
    assert labels == tuple(sorted(w.cycle, reverse=True))
    total = sum(labels)
    gap = sum(w.d_edges) - sum(w.x_edges)
    if w.tag is FamilyTag.NON_METRIC:
        assert w.n == 0 and len(w.d_edges) == 1
        assert 2 * w.d_edges[0] > total
    elif w.tag is FamilyTag.K1_CYCLE:
        assert w.n == 0 and w.d_edges == ()
        assert total % 2 == 1 and total < 2 * p.k1
        assert 2 * max(labels) <= total
    elif w.tag is FamilyTag.K2_CYCLE:
        assert len(w.d_edges) == 2 * w.n + 2
        assert total % 2 == 1
        assert gap > 2 * p.k2 + w.n * (p.c - 1)
    elif w.tag is FamilyTag.C_CYCLE:
        assert len(w.d_edges) == 2 * w.n + 1 and w.n >= 1
        assert gap > w.n * (p.c - 1)
    elif w.tag is FamilyTag.C0_CYCLE:
        assert w.n == 1 and len(w.d_edges) == 3
        assert total % 2 == 0 and gap > p.c0 - 1
    elif w.tag is FamilyTag.C1_CYCLE:
        assert w.n == 1 and len(w.d_edges) == 3
        assert total % 2 == 1 and gap > p.c1 - 1
    elif w.tag is FamilyTag.SPECIAL_5:
        assert canonical_cycle(w.cycle) == SPECIAL_PENTAGON
    else:  # pragma: no cover
        raise AssertionError(w.tag)


def test_active_tags_branches():
    assert active_tags(P_III4N) == {
        FamilyTag.NON_METRIC,
        FamilyTag.C_CYCLE,
        FamilyTag.K1_CYCLE,
        FamilyTag.K2_CYCLE,
    }
    assert active_tags(P_IIA) == active_tags(P_III4N)  # C' = C + 1 there as well
    assert active_tags(P_III4) == {
        FamilyTag.NON_METRIC,
        FamilyTag.C0_CYCLE,
        FamilyTag.C1_CYCLE,
        FamilyTag.K1_CYCLE,
        FamilyTag.K2_CYCLE,
    }
    assert active_tags(P_IIB) == active_tags(P_III4) | {FamilyTag.SPECIAL_5}


def test_special5_only_for_delta5_iib():
    for delta in range(3, 8):
        for p in enumerate_admissible(delta):
            special = FamilyTag.SPECIAL_5 in active_tags(p)
            assert special == (p.case.value == "IIB" and delta == 5), p


def test_active_tags_rejects_non_admissible():
    with pytest.raises(ValueError):
        active_tags(ParameterSequence(3, 1, 1, 8, 9))


def test_is_forbidden_frozen():
    assert is_forbidden(P_IIB, (5, 5, 5, 5, 5))
    assert is_forbidden(P_IIB, (2, 5, 5, 5))  # C1: 15 - 2 > 12
    assert is_forbidden(P_IIB, (1, 1, 1))  # K1: perimeter 3 < 6
    assert is_forbidden(P_IIB, (1, 1, 4))  # non-metric
    assert not is_forbidden(P_IIB, (3, 3, 3))
    assert not is_forbidden(P_IIB, (5, 5, 5, 5))  # even, below C0 bound
    assert is_forbidden(P_III4, (4, 4, 1))  # K2: 8 - 1 > 6
    assert not is_forbidden(P_III4, (4, 4, 2))
    with pytest.raises(ValueError):
        is_forbidden(P_IIB, (1, 2))


def test_is_forbidden_rotation_invariant():
    for cyc in [(2, 5, 5, 5), (5, 2, 5, 5), (5, 5, 5, 2)]:
        assert is_forbidden(P_IIB, cyc)


def test_classify_pentagon():
    ws = classify_cycle(P_IIB, (5, 5, 5, 5, 5))
    assert [(w.tag, w.n) for w in ws] == [
        (FamilyTag.C_CYCLE, 2),
        (FamilyTag.SPECIAL_5, 2),
    ]
    # The C instance exists arithmetically but the C family is not active for
    # this tuple; only the special pentagon makes the cycle forbidden.
    assert FamilyTag.C_CYCLE not in active_tags(P_IIB)
    for w in ws:
        check_witness(P_IIB, w)


def test_classify_k2_example():
    ws = classify_cycle(P_III4, (4, 4, 1))
    assert len(ws) == 1
    w = ws[0]
    assert w.tag is FamilyTag.K2_CYCLE
    assert w.n == 0
    assert w.d_edges == (4, 4)
    assert w.x_edges == (1,)
    assert w.k == 1
    assert w.to_json_obj() == {"tag": "K2", "n": 0, "d_edges": [4, 4], "x_edges": [1]}
    check_witness(P_III4, w)


def test_classify_c1_example():
    ws = classify_cycle(P_IIB, (2, 5, 5, 5))
    assert [(w.tag, w.n, w.d_edges) for w in ws] == [
        (FamilyTag.C_CYCLE, 1, (5, 5, 5)),
        (FamilyTag.C1_CYCLE, 1, (5, 5, 5)),
    ]
    for w in ws:
        check_witness(P_IIB, w)


def test_classify_clean_cycle_empty():
    assert classify_cycle(P_IIB, (3, 3, 3)) == []
    with pytest.raises(ValueError):
        classify_cycle(P_IIB, (3, 3))


def test_classify_rejects_label_above_delta():
    with pytest.raises(ValueError, match="exceed delta=3"):
        classify_cycle(P_III3, (4, 1, 1))
    with pytest.raises(ValueError, match="exceed delta=5"):
        classify_cycle(P_IIB, (5, 5, 6, 5))


def test_classify_witnesses_all_valid():
    """Every reported decomposition satisfies its family inequality, for every
    short cycle over a few tuples."""
    for p in (P_IIB, P_III4, P_III3):
        for k in (3, 4):
            for ms in combinations_with_replacement(range(1, p.delta + 1), k):
                for w in classify_cycle(p, ms):
                    check_witness(p, w)
                    assert w.cycle == canonical_cycle(ms)


def combinations_subsets(desc):
    """Distinct sub-multisets by size, from every position set."""
    return {size: list(dict.fromkeys(combinations(desc, size))) for size in range(len(desc) + 1)}


def test_classify_matches_position_set_reference(monkeypatch):
    """classify_cycle, whose sub-multisets come from label counts, equals
    the same decomposition list built from position sets, on every multiset
    of 3 to 8 labels for each admissible tuple with delta <= 5."""
    params = [p for delta in range(3, 6) for p in enumerate_admissible(delta)]
    multisets = {
        delta: [ms for k in range(3, 9) for ms in combinations_with_replacement(range(1, delta + 1), k)]
        for delta in range(3, 6)
    }
    got = {(p, ms): classify_cycle(p, ms) for p in params for ms in multisets[p.delta]}
    monkeypatch.setattr(families, "_distinct_subsets", combinations_subsets)
    for (p, ms), witnesses in got.items():
        assert witnesses == classify_cycle(p, ms), (p.as_tuple(), ms)


@pytest.mark.parametrize("cycle", [[5] * 30, [1, 2, 3, 4, 5] * 6], ids=["30-fives", "1-to-5-x6"])
def test_classify_long_cycle_is_fast(cycle):
    """A 30-edge cycle has C(30, 15) position sets of one size but few
    distinct sub-multisets; classifying it must not walk the former."""
    labels = ",".join(map(str, cycle))
    proc = run_python(
        ["-m", "mhg", "family", "classify", "--params", *map(str, P_IIB.as_tuple()), "--cycle", labels],
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"cycle {labels}  forbidden: no"


def test_classify_many_distinct_labels_refused():
    """Thirty distinct labels have 2^30 sub-multisets, about 160 GiB of
    tuples: classify exits 2 naming the count before building any, and a
    cycle under MAX_SUBSETS still classifies.  No F(p) member with
    delta <= 9 comes near the cap: it has at most walk_bound(p) <= 17
    labels, and the sub-multiset count of b labels over delta values is
    largest with the counts spread evenly."""
    wide = ParameterSequence(300, 300, 300, 902, 901)
    labels = ",".join(map(str, range(1, 31)))
    proc = run_python(
        ["-m", "mhg", "family", "classify", "--params", *map(str, wide.as_tuple()), "--cycle", labels],
        timeout=20,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"have {2**30} distinct sub-multisets; at most {families.MAX_SUBSETS} are supported" in proc.stderr
    assert [w.d_edges for w in classify_cycle(wide, (*range(1, 13), 300))] == [(300,)]
    worst = 0
    for delta in range(3, 10):
        for p in enumerate_admissible(delta):
            q, r = divmod(walk_bound(p), delta)
            assert q * delta + r <= 17, p.as_tuple()
            worst = max(worst, (q + 2) ** r * (q + 1) ** (delta - r))
    assert worst == 13_122 < families.MAX_SUBSETS


def test_is_forbidden_matches_decompositions():
    """The closed-form membership test agrees with explicit decomposition
    search restricted to the active families."""
    for p in (P_IIB, P_III4, P_III4N, P_III3):
        tags = active_tags(p)
        bound = _closed_form_bound(p)
        for k in range(3, bound + 1):
            for ms in combinations_with_replacement(range(1, p.delta + 1), k):
                direct = any(w.tag in tags for w in classify_cycle(p, ms))
                assert is_forbidden(p, ms) == direct, (p.as_tuple(), ms)


def test_walk_bound_frozen():
    assert walk_bound(P_IIB) == 5
    assert walk_bound(P_III3) == 3
    assert walk_bound(P_III4) == 4


def _closed_form_bound(p: ParameterSequence) -> int:
    """A looser edge-count bound, one closed form per family, derived by hand
    from the inequalities: every filler is >= 1 and every distinguished
    label is <= delta."""
    d, k1, k2 = p.delta, p.k1, p.k2
    bounds = {
        FamilyTag.NON_METRIC: d,
        FamilyTag.K1_CYCLE: 2 * k1 - 1,
        FamilyTag.K2_CYCLE: 4 * (d - k2),
        FamilyTag.C_CYCLE: 2 * d - 1,
        FamilyTag.C0_CYCLE: 3 + max(-1, 3 * d - p.c0),
        FamilyTag.C1_CYCLE: 3 + max(-1, 3 * d - p.c1),
        FamilyTag.SPECIAL_5: 5,
    }
    return max(3, max(bounds[t] for t in active_tags(p)))


def test_walk_bound_is_longest_member_under_closed_form():
    """The multiset filter run up to the hand-derived bound finds exactly
    the members that _forbidden_multisets finds up to walk_bound(p), and the
    longest of them has walk_bound(p) labels: the derived bound is tight
    and cuts off no member, on every admissible tuple with delta <= 5."""
    for d in range(3, 6):
        for p in enumerate_admissible(d):
            tags = active_tags(p)
            found = tuple(
                ms
                for k in range(3, _closed_form_bound(p) + 1)
                for ms in combinations_with_replacement(range(1, d + 1), k)
                if not families._holding_tags(p, ms).isdisjoint(tags)
            )
            assert found == families._forbidden_multisets(p), p
            assert max(map(len, found)) == walk_bound(p), p


def test_multiset_cap_admits_every_delta9_tuple():
    """The F(p) enumeration tests C(delta + k - 1, k) multisets of each size
    k in 3..walk_bound(p): every tuple with delta <= 9 stays within
    MAX_MULTISETS.  test_cli pins the refusal above it."""
    for d in range(3, 10):
        for p in enumerate_admissible(d):
            count = sum(math.comb(d + k - 1, k) for k in range(3, walk_bound(p) + 1))
            assert count <= families.MAX_MULTISETS, p


def test_enumerate_forbidden_shape():
    for p in (P_IIB, P_III4, P_III3):
        cycles = enumerate_forbidden(p)
        bound = walk_bound(p)
        assert cycles == sorted(set(cycles), key=lambda c: (len(c), c))
        for c in cycles:
            assert 3 <= len(c) <= bound
            assert c == canonical_cycle(c)
            assert is_forbidden(p, c)


def test_enumerate_forbidden_frozen_iib():
    cycles = enumerate_forbidden(P_IIB)
    assert len(cycles) == 36
    assert cycles[:4] == [(1, 1, 1), (1, 1, 3), (1, 1, 4), (1, 1, 5)]
    assert SPECIAL_PENTAGON in cycles
    assert sum(1 for c in cycles if len(c) >= 4) == 21


def test_enumerate_forbidden_delta3_sizes():
    # Regression pin; the product scan below validates these independently.
    sizes = {p.as_tuple(): len(enumerate_forbidden(p)) for p in enumerate_admissible(3)}
    assert sizes == {
        (3, 1, 2, 10, 9): 3,
        (3, 1, 2, 10, 11): 2,
        (3, 1, 3, 8, 9): 5,
        (3, 1, 3, 10, 9): 2,
        (3, 1, 3, 10, 11): 1,
        (3, 2, 2, 10, 9): 4,
        (3, 2, 2, 10, 11): 3,
        (3, 2, 3, 10, 9): 3,
        (3, 2, 3, 10, 11): 2,
        (3, 3, 3, 10, 11): 5,
    }


def test_enumerate_forbidden_vs_product_scan():
    """Independent arrangement check: canonicalize every raw label sequence."""
    targets = [(p, 5) for p in enumerate_admissible(3)] + [(P_IIB, 5)]
    for p, cap in targets:
        direct = set()
        for k in range(3, cap + 1):
            for t in product(range(1, p.delta + 1), repeat=k):
                if is_forbidden(p, t):
                    direct.add(canonical_cycle(t))
        got = {c for c in enumerate_forbidden(p) if len(c) <= cap}
        assert got == direct, p.as_tuple()


def test_find_witness_pentagon():
    hit = find_witness(P_IIB, cycle_graph((5, 5, 5, 5, 5)))
    assert hit is not None
    verts, w = hit
    assert verts == (0, 1, 2, 3, 4)
    assert w.tag is FamilyTag.SPECIAL_5
    assert w.cycle == SPECIAL_PENTAGON


def test_find_witness_triangle():
    hit = find_witness(P_III4, cycle_graph((4, 4, 1)))
    assert hit is not None
    verts, w = hit
    assert len(verts) == 3
    assert w.tag is FamilyTag.K2_CYCLE


def test_find_witness_none_and_errors():
    assert find_witness(P_IIB, cycle_graph((3, 3, 3))) is None
    assert find_witness(P_IIB, EdgeLabelledGraph(4)) is None
    with pytest.raises(ValueError):
        find_witness(P_IIB, EdgeLabelledGraph(3, [(0, 1, 6)]))


def test_find_witness_budget(monkeypatch, tmp_path, capsys):
    """Past WITNESS_BUDGET neighbour tests the search raises, and the CLI
    exits 2 naming the cap; a search under the cap still answers.  The
    witness-free 200-cycle makes 2,000 neighbour tests, the pentagon 184."""
    monkeypatch.setattr(families, "WITNESS_BUDGET", 500)
    g = cycle_graph((3,) * 200)
    with pytest.raises(families.BudgetExceededError, match="500"):
        find_witness(P_IIB, g)
    assert find_witness(P_IIB, cycle_graph(SPECIAL_PENTAGON))[0] == (0, 1, 2, 3, 4)
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(g.to_json_obj()))
    assert cli.main(["family", "witness", str(path), "--params", "5", "3", "3", "16", "13"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "budget 500" in out.err


@functools.cache
def _forbidden_multiset(p: ParameterSequence, ms: tuple[int, ...]) -> bool:
    return is_forbidden(p, ms)


def walk_scan_witness(p: ParameterSequence, g: EdgeLabelledGraph):
    """Reference for find_witness: test every closed walk up to walk_bound(p)
    in (length, vertex sequence) order, with no pruning."""
    tags = active_tags(p)
    for verts, labels in closed_walks_with_vertices(g, walk_bound(p)):
        if _forbidden_multiset(p, tuple(sorted(labels))):
            return verts, next(w for w in classify_cycle(p, labels) if w.tag in tags)
    return None


def test_find_witness_matches_walk_scan_delta3_all_n4():
    pairs = list(combinations(range(4), 2))
    for p in enumerate_admissible(3):
        free = 0
        for labels in product(range(4), repeat=len(pairs)):
            g = EdgeLabelledGraph(4, [(u, v, l) for (u, v), l in zip(pairs, labels) if l])
            want = walk_scan_witness(p, g)
            assert find_witness(p, g) == want, (p.as_tuple(), g)
            free += want is None
        # Both outcomes occur often enough for the comparison to mean something.
        assert 0 < free < 4 ** len(pairs), p.as_tuple()


def test_find_witness_matches_walk_scan_delta4_delta5_random():
    """Random partial graphs on n <= 5; every other one is built around a
    forbidden 4- or 5-cycle, so witnesses longer than a triangle occur."""
    rng = random.Random(20180815)
    free = 0
    long_hits = 0
    for p in enumerate_admissible(4) + enumerate_admissible(5):
        words = [c for c in enumerate_forbidden(p) if 4 <= len(c) <= 5]
        for i in range(4):
            if i % 2 and words:
                word = rng.choice(words)
                n, density = len(word), 0.25
            else:
                word = ()
                n, density = rng.randint(3, 5), 0.6
            labels = {
                (u, v): rng.randint(1, p.delta)
                for u, v in combinations(range(n), 2)
                if rng.random() < density
            }
            for j, l in enumerate(word):
                labels[min(j, (j + 1) % n), max(j, (j + 1) % n)] = l
            g = EdgeLabelledGraph(n, [(u, v, l) for (u, v), l in labels.items()])
            want = walk_scan_witness(p, g)
            assert find_witness(p, g) == want, (p.as_tuple(), g)
            free += want is None
            long_hits += want is not None and len(want[0]) > 3
    assert free > 0 and long_hits > 0
