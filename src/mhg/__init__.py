"""Primitive 3-constrained metrically homogeneous graphs: admissible
parameters, the magic completion algorithm, forbidden cycle families and a
desk-scale verifier for the completion characterization."""

from .completion import (
    CompletionTrace,
    first_stage_value,
    has_tension,
    inverse_steps,
    magic_complete,
    steps,
)
from .families import (
    FamilyTag,
    FamilyWitness,
    active_tags,
    classify_cycle,
    enumerate_forbidden,
    find_witness,
    is_forbidden,
    walk_bound,
)
from .graphs import (
    EdgeLabelledGraph,
    TriangleVerdict,
    TriangleViolation,
    canonical_cycle,
    first_violating_triangle,
    is_member,
    triangle_verdict,
)
from .magic import (
    ForkKind,
    MagicContext,
    default_context,
    magic_distances,
    magic_permutation,
    time_value,
)
from .onedelta import (
    OneDeltaCell,
    OneDeltaTable,
    classify_1d,
    is_twisted_pair,
    render_table,
)
from .oracle import (
    BudgetExceededError,
    EquivalenceReport,
    has_completion,
    verify_equivalence,
)
from .params import (
    AdmissibilityCase,
    ParameterSequence,
    classify,
    enumerate_admissible,
    is_acceptable,
)

__all__ = [
    "AdmissibilityCase",
    "BudgetExceededError",
    "CompletionTrace",
    "EdgeLabelledGraph",
    "EquivalenceReport",
    "FamilyTag",
    "FamilyWitness",
    "ForkKind",
    "MagicContext",
    "OneDeltaCell",
    "OneDeltaTable",
    "ParameterSequence",
    "TriangleVerdict",
    "TriangleViolation",
    "active_tags",
    "canonical_cycle",
    "classify",
    "classify_1d",
    "classify_cycle",
    "default_context",
    "enumerate_admissible",
    "enumerate_forbidden",
    "find_witness",
    "first_stage_value",
    "first_violating_triangle",
    "has_completion",
    "has_tension",
    "inverse_steps",
    "is_acceptable",
    "is_forbidden",
    "is_member",
    "is_twisted_pair",
    "magic_complete",
    "magic_distances",
    "magic_permutation",
    "render_table",
    "steps",
    "time_value",
    "triangle_verdict",
    "verify_equivalence",
    "walk_bound",
]
