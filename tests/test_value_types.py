"""The contract of the eight immutable value types: repr and str bytes,
refusal messages, hashes, immutability, copying and pickling.

The hashes are those of each instance's field tuple, so set and dict orders
built from these values do not depend on how the classes are declared.
"""

import copy
import pickle

import pytest

from mhg.completion import magic_complete
from mhg.families import classify_cycle
from mhg.graphs import EdgeLabelledGraph, triangle_verdict
from mhg.magic import MagicContext, default_context
from mhg.onedelta import render_table
from mhg.oracle import EquivalenceReport
from mhg.params import ParameterSequence, enumerate_admissible

IIB = ParameterSequence(5, 3, 3, 16, 13)
IIB_REPR = "ParameterSequence(delta=5, k1=3, k2=3, c0=16, c1=13)"
III3 = ParameterSequence(3, 1, 3, 10, 9)
PATH = EdgeLabelledGraph.from_json_obj({"n": 4, "edges": [[0, 1, 1], [1, 2, 5], [2, 3, 1]]})
REPORT = EquivalenceReport(
    params=(5, 3, 3, 16, 13),
    m=3,
    n_max=3,
    mode="exhaustive",
    sample=None,
    seed=None,
    graphs_checked=7,
    witness_mismatch_count=0,
    magic_mismatch_count=0,
    mismatch_examples=(),
    fallback_graph_count=0,
    fallback_examples=(),
    spot_checks={"rows": 2},
    elapsed_seconds=0.5,
    stats={"lattice_points": 7},
)

# (id, instance, repr); the str of each equals its repr, except
# ParameterSequence's, which is its plain tuple.
CASES = [
    ("params", IIB, IIB_REPR),
    ("magic", default_context(IIB), f"MagicContext(params={IIB_REPR}, m=3, permutation=(5, 1, 4, 2, 3))"),
    (
        "verdict",
        triangle_verdict(IIB, 1, 2, 4),
        "TriangleVerdict(labels=(1, 2, 4), violations=frozenset({<TriangleViolation.NON_METRIC: 'NonMetric'>}))",
    ),
    (
        "witness",
        classify_cycle(IIB, (5,) * 5)[0],
        "FamilyWitness(cycle=(5, 5, 5, 5, 5), tag=<FamilyTag.C_CYCLE: 'C'>, n=2, d_edges=(5, 5, 5, 5, 5), x_edges=())",
    ),
    (
        "trace",
        magic_complete(default_context(IIB), PATH)[1],
        "CompletionTrace(stages=((3, 4, ((0, 2), (1, 3))), (5, 3, ((0, 3),))), fallback_pairs=())",
    ),
    ("cell", render_table(IIB).cells[0], "OneDeltaCell(i=0, j=3, tag=<FamilyTag.K1_CYCLE: 'K1'>)"),
    (
        "table",
        render_table(III3),
        "OneDeltaTable(params=ParameterSequence(delta=3, k1=1, k2=3, c0=10, c1=9), "
        "cells=(OneDeltaCell(i=1, j=2, tag=<FamilyTag.NON_METRIC: 'NonMetric'>), "
        "OneDeltaCell(i=3, j=0, tag=<FamilyTag.C_CYCLE: 'C'>)))",
    ),
    (
        "report",
        REPORT,
        "EquivalenceReport(params=(5, 3, 3, 16, 13), m=3, n_max=3, mode='exhaustive', sample=None, "
        "seed=None, graphs_checked=7, witness_mismatch_count=0, magic_mismatch_count=0, "
        "mismatch_examples=(), fallback_graph_count=0, fallback_examples=(), "
        "spot_checks={'rows': 2}, elapsed_seconds=0.5, stats={'lattice_points': 7})",
    ),
]
IDS = [c[0] for c in CASES]
FIELDS = {
    "params": ("delta", "k1", "k2", "c0", "c1"),
    "magic": ("params", "m", "permutation"),
    "verdict": ("labels", "violations"),
    "witness": ("cycle", "tag", "n", "d_edges", "x_edges"),
    "trace": ("stages", "fallback_pairs"),
    "cell": ("i", "j", "tag"),
    "table": ("params", "cells"),
    "report": ("params",),
}


@pytest.mark.parametrize("name, obj, text", CASES, ids=IDS)
def test_repr_and_str(name, obj, text):
    assert repr(obj) == text
    assert str(obj) == ("(5, 3, 3, 16, 13)" if name == "params" else text)


@pytest.mark.parametrize("name, obj, text", CASES, ids=IDS)
def test_hash_is_the_field_tuple_hash(name, obj, text):
    fields = tuple(getattr(obj, f) for f in FIELDS[name])
    if name == "report":  # its dict fields make it unhashable
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(fields)


@pytest.mark.parametrize("name, obj, text", CASES, ids=IDS)
def test_attribute_assignment_refused(name, obj, text):
    with pytest.raises(AttributeError):
        setattr(obj, FIELDS[name][0], None)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name, obj, text", CASES, ids=IDS)
def test_copy_deepcopy_and_pickle(name, obj, text):
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is type(obj)
        assert clone == obj
        assert repr(clone) == text


def test_refusal_messages():
    with pytest.raises(ValueError, match=r"^not an acceptable parameter sequence: \(2, 1, 1, 8, 7\)$"):
        ParameterSequence(2, 1, 1, 8, 7)
    with pytest.raises(ValueError, match=r"^not an acceptable parameter sequence: \(5, 3, 3, 16, 12\)$"):
        ParameterSequence(5, 3, 3, 16, 12)
    with pytest.raises(ValueError, match=r"^5 is not a magic distance of \(5, 3, 3, 16, 13\)$"):
        MagicContext(IIB, 5)
    with pytest.raises(ValueError, match=r"^parameters \(5, 1, 1, 12, 13\) are not admissible$"):
        MagicContext(ParameterSequence(5, 1, 1, 12, 13), 3)


def test_enumerate_admissible_order():
    tuples = enumerate_admissible(5)
    assert [p.as_tuple() for p in tuples] == [
        (5, 1, 4, 14, 13), (5, 1, 4, 14, 15), (5, 1, 4, 14, 17), (5, 1, 4, 16, 15),
        (5, 1, 4, 16, 17), (5, 1, 5, 12, 13), (5, 1, 5, 14, 13), (5, 1, 5, 14, 15),
        (5, 1, 5, 16, 15), (5, 1, 5, 16, 17), (5, 2, 4, 14, 13), (5, 2, 4, 14, 15),
        (5, 2, 4, 14, 17), (5, 2, 4, 16, 15), (5, 2, 4, 16, 17), (5, 2, 5, 14, 13),
        (5, 2, 5, 14, 15), (5, 2, 5, 16, 15), (5, 2, 5, 16, 17), (5, 3, 3, 14, 13),
        (5, 3, 3, 16, 13), (5, 3, 4, 14, 15), (5, 3, 4, 14, 17), (5, 3, 4, 16, 15),
        (5, 3, 4, 16, 17), (5, 3, 5, 14, 15), (5, 3, 5, 16, 15), (5, 3, 5, 16, 17),
        (5, 4, 4, 16, 15), (5, 4, 4, 16, 17), (5, 4, 5, 16, 15), (5, 4, 5, 16, 17),
        (5, 5, 5, 16, 17),
    ]  # fmt: skip
    assert sorted(tuples) == tuples
