"""Acceptance suite: seven criteria, one test and one summary line each.

Criterion 2 drives the heavy sweeps; its reports are shared with criterion 3,
and with a pin on their `--json` bytes, through a session fixture.  Criterion 2 took 2-4 s on a 2-core Xeon
with Python 3.11 and numpy 2.4 (the full tier-1 run: about a minute).
"""

import hashlib
import json
from itertools import product

import pytest

from conftest import record_criterion
from mhg.completion import has_tension, inverse_steps, magic_complete, steps
from mhg.families import enumerate_forbidden, is_forbidden, walk_bound
from mhg.graphs import EdgeLabelledGraph, is_member, triangle_verdict
from mhg.magic import ForkKind, MagicContext, magic_distances
from mhg.onedelta import render_table
from mhg.oracle import BudgetExceededError, has_completion, verify_equivalence
from mhg.params import AdmissibilityCase, ParameterSequence, enumerate_admissible

P_IIB = ParameterSequence(5, 3, 3, 16, 13)
SAMPLE_SEED = 7
SAMPLE_SIZE = 100_000

# Reference cell grids for the three fixed tables, copied by hand.
TABLE_1 = {
    (0, 3): "K1",
    (0, 5): "K1",
    (1, 2): "δ",
    (1, 3): "δ",
    (1, 4): "δ",
    (2, 1): "K2",
    (2, 3): "K2",
    (3, 0): "C1",
    (3, 2): "C1",
    (4, 1): "K2",
    (5, 0): "C1^5",
}
TABLE_2_FIRST = {(1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 0): "C", (3, 1): "C"}
TABLE_2_SECOND = {(0, 3): "K1", (1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 1): "C1"}
TABLE_3 = {(1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 1): "C1"}


def cells(p: ParameterSequence) -> dict:
    return {(c.i, c.j): c.symbol for c in render_table(p).cells}


def test_criterion_1_table_reproduction():
    got_t1 = cells(P_IIB)
    got_t3 = cells(ParameterSequence(4, 1, 3, 14, 11))
    got_t2_second = cells(ParameterSequence(4, 2, 3, 12, 11))
    got_t2_first = cells(ParameterSequence(4, 1, 3, 12, 11))

    clauses = [
        (got_t1 == TABLE_1, "Table 1 for (5,3,3,16,13)"),
        (got_t3 == TABLE_3, "Table 3 for (4,1,3,14,11)"),
        (got_t2_second == TABLE_2_SECOND, "Table 2 second sub-table for (4,2,3,12,11)"),
        (got_t2_first == TABLE_2_FIRST, "Table 2 first sub-table from (4,1,3,12,11)"),
    ]
    notes = (
        "Table 2 first sub-table: the parameters printed above the reference "
        "sub-table disagree with its content; the content is reproduced "
        "exactly by the corrected parameters (4,1,3,12,11).",
        "Table 2 second sub-table: the derived grid for (4,2,3,12,11) is "
        f"{dict(sorted(got_t2_second.items()))}.",
        "It differs from the reference grid in two ways: cell (3,0) is "
        "present because the perimeter-12 cycle of three 4s meets C0 = 12, "
        "and the odd C-type cells carry tag C because C' = C + 1 merges the "
        "C0/C1 families for this tuple.",
        "The reference second sub-table instead equals the derived grid for "
        "(4,2,3,14,11); its parameter heading appears to be the misprint.",
    )
    ok = all(flag for flag, _ in clauses)
    failed = [label for flag, label in clauses if not flag]
    detail = (
        "all four table clauses reproduced"
        if ok
        else "clause(s) not reproduced: " + "; ".join(failed)
    )
    record_criterion(1, ok, detail, notes)
    for flag, label in clauses:
        assert flag, f"cell grid mismatch: {label}"


@pytest.fixture(scope="session")
def sweep_reports():
    """Criterion 2 sweep, shared with criterion 3.

    Exhaustive: all delta = 3 tuples to n = 5, all delta = 4 tuples to n = 4,
    and (5,3,3,16,13) to n = 4.  Sampled: 10^5 graphs on n = 5 vertices with
    a fixed seed for every delta in {4, 5} tuple.
    """
    reports = []
    for p in enumerate_admissible(3):
        reports.append((p, verify_equivalence(p, 5)))
    for p in enumerate_admissible(4):
        reports.append((p, verify_equivalence(p, 4)))
    reports.append((P_IIB, verify_equivalence(P_IIB, 4)))
    for delta in (4, 5):
        for p in enumerate_admissible(delta):
            reports.append(
                (p, verify_equivalence(p, 5, sample=SAMPLE_SIZE, seed=SAMPLE_SEED))
            )
    return reports


def test_criterion_2_oracle_equivalence(sweep_reports):
    expected_checked = {
        ("exhaustive", 3): 4**3 + 4**6 + 4**10,
        ("exhaustive", 4): 5**3 + 5**6,
        ("exhaustive", 5): 6**3 + 6**6,
        ("sampled", 4): SAMPLE_SIZE,
        ("sampled", 5): SAMPLE_SIZE,
    }
    total = 0
    mismatches = 0
    for p, rep in sweep_reports:
        total += rep.graphs_checked
        mismatches += rep.witness_mismatch_count + rep.magic_mismatch_count
        assert rep.graphs_checked == expected_checked[(rep.mode, p.delta)], p
        if rep.mode == "sampled":
            assert rep.seed == SAMPLE_SEED
    ok = mismatches == 0
    record_criterion(
        2,
        ok,
        f"{len(sweep_reports)} verification runs, {total} graphs, "
        f"{mismatches} route mismatches (tolerance 0)",
    )
    assert ok
    for p, rep in sweep_reports:
        assert rep.ok, (p.as_tuple(), rep.mode)


def test_criterion_2_json_bytes_are_pinned(sweep_reports):
    """The byte-stable `--json` contract: SHA-256 over every criterion-2
    report's sorted-key JSON, in fixture order.  Same rows, counts and
    examples give the same digest; a change that alters them on purpose
    updates it and says so."""
    digest = hashlib.sha256()
    for _, rep in sweep_reports:
        digest.update(json.dumps(rep.to_json_obj(), sort_keys=True).encode())
    assert digest.hexdigest() == "c476744bb4779c0629a17337001cdad28d7f88f9609aac47f2fa949a5553452a"


def test_criterion_3_magic_consistency(sweep_reports):
    magic_mismatches = 0
    fallback_graphs = 0
    fallback_verified = 0
    fallback_skipped = 0
    spot_magic = 0
    for p, rep in sweep_reports:
        magic_mismatches += rep.magic_mismatch_count
        fallback_graphs += rep.fallback_graph_count
        spot_magic += rep.spot_checks["magic"]
        ctx = MagicContext(p, rep.m)
        for ex in rep.fallback_examples:
            g = EdgeLabelledGraph.from_json_obj(ex["graph"])
            done, trace = magic_complete(ctx, g)
            assert [list(pr) for pr in trace.fallback_pairs] == ex["pairs"], ex
            magic_ok = is_member(p, done)
            try:
                search_ok = has_completion(p, g, budget=5_000_000)
            except BudgetExceededError:
                fallback_skipped += 1
                continue
            assert magic_ok == search_ok, ex
            fallback_verified += 1
    ok = magic_mismatches == 0 and fallback_verified > 0
    record_criterion(
        3,
        ok,
        f"{magic_mismatches} magic/oracle disagreements over every "
        f"criterion-2 graph; "
        f"{fallback_graphs} fallback graphs logged, {fallback_verified} logged "
        f"examples re-verified against the search oracle "
        f"({fallback_skipped} skipped on budget), {spot_magic} scalar "
        f"completion spot checks",
    )
    assert magic_mismatches == 0
    assert fallback_graphs > 0
    assert fallback_verified > 0


def test_criterion_4_triangle_correspondence():
    tuples = 0
    triangles = 0
    for delta in range(3, 7):
        for p in enumerate_admissible(delta):
            tuples += 1
            for a, b, c in product(range(1, delta + 1), repeat=3):
                triangles += 1
                assert is_forbidden(p, (a, b, c)) == (
                    not triangle_verdict(p, a, b, c).ok
                ), (p.as_tuple(), (a, b, c))
    record_criterion(
        4,
        True,
        f"obstruction membership equals triangle verdict on all {triangles} "
        f"triangles of {tuples} tuples (delta <= 6), zero exceptions",
    )


def test_criterion_5_closure():
    members = 0
    transitions = 0
    for delta in (3, 4, 5):
        for p in enumerate_admissible(delta):
            family = enumerate_forbidden(p)
            fset = set(family)
            bound = walk_bound(p)
            assert all(3 <= len(w) <= bound for w in family), p
            for m in magic_distances(p):
                ctx = MagicContext(p, m)
                for w in family:
                    members += 1
                    if len(w) >= 4:
                        for s in steps(ctx, w):
                            assert s in fset, (p.as_tuple(), m, w, s)
                            transitions += 1
                    # One edge past the bound, so that the longest
                    # members' inverse steps are generated and checked too.
                    for t in inverse_steps(ctx, w, bound + 1):
                        assert t in fset, (p.as_tuple(), m, w, t)
                        transitions += 1
    ctx = MagicContext(P_IIB, 3)
    pentagon = (5, 5, 5, 5, 5)
    square = (2, 5, 5, 5)
    assert steps(ctx, pentagon) == [square]
    assert pentagon in inverse_steps(ctx, square, walk_bound(P_IIB))
    record_criterion(
        5,
        True,
        f"all delta <= 5 families within their edge bounds and closed under "
        f"steps and inverse steps for every magic distance ({transitions} "
        f"transitions over {members} member/context pairs); pentagon <-> "
        f"(2,5,5,5) verified in both directions",
    )


def test_criterion_6_tension():
    checked = 0
    for delta in (3, 4, 5):
        for p in enumerate_admissible(delta):
            long_members = [w for w in enumerate_forbidden(p) if len(w) >= 4]
            for m in magic_distances(p):
                ctx = MagicContext(p, m)
                for w in long_members:
                    checked += 1
                    assert has_tension(ctx, w), (p.as_tuple(), m, w)
    record_criterion(
        6,
        True,
        f"every family member with >= 4 edges has tension, all delta <= 5 "
        f"tuples and magic distances ({checked} member/context pairs)",
    )


def test_criterion_7_algebra():
    contexts = 0
    for delta in range(3, 9):
        for p in enumerate_admissible(delta):
            for m in magic_distances(p):
                ctx = MagicContext(p, m)
                contexts += 1
                rng = range(1, delta + 1)
                for x in rng:
                    # absorbing row: the first semigroup fact
                    assert ctx.oplus(m, x) == m
                    for y in rng:
                        assert ctx.oplus(x, y) == ctx.oplus(y, x)
                        for z in rng:
                            assert ctx.oplus(ctx.oplus(x, y), z) == ctx.oplus(
                                x, ctx.oplus(y, z)
                            ), (p.as_tuple(), m, x, y, z)
                if p.case is AdmissibilityCase.CASE_III and p.c_prime > p.c + 1:
                    for x in rng:
                        for y in rng:
                            assert ctx.fork_kind(x, y) is not ForkKind.C_FORK
                if p.case is AdmissibilityCase.CASE_IIB:
                    for x in rng:
                        for y in rng:
                            assert (ctx.fork_kind(x, y) is ForkKind.C_FORK) == (
                                x == delta and y == delta
                            )
    nonempty = 0
    for delta in range(3, 21):
        for p in enumerate_admissible(delta):
            assert magic_distances(p), p.as_tuple()
            nonempty += 1
    record_criterion(
        7,
        True,
        f"oplus commutative and associative on {contexts} contexts "
        f"(delta <= 8); magic distances nonempty for all {nonempty} admissible "
        f"tuples with delta <= 20; absorbing-row and C-fork facts exhaustive",
    )
