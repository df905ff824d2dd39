"""Forbidden cycle families and the obstruction set for completion.

Family membership of a cycle depends only on its label multiset: a cycle
belongs to a family when some split of its labels into distinguished edges
d_1, d_2, ... and filler edges x_1, ..., x_k satisfies the family inequality.
Each inequality is stated once, in the rule table _inequalities; the
membership test, the decomposition list and the enumeration of the
obstruction set all read it.  The special pentagon is the one family that is
a single cycle rather than an inequality.  The obstruction set is the union
of families active for the parameter tuple: a graph admits a completion
exactly when no cycle of the set maps homomorphically into it.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter
from itertools import accumulate, combinations_with_replacement
from math import comb, prod
from typing import Iterator, NamedTuple

from .graphs import EdgeLabelledGraph, canonical_cycle, check_labels
from .params import AdmissibilityCase, ParameterSequence

Cycle = tuple[int, ...]

SPECIAL_PENTAGON: Cycle = (5, 5, 5, 5, 5)


class FamilyTag(enum.Enum):
    NON_METRIC = "NonMetric"
    C_CYCLE = "C"
    C0_CYCLE = "C0"
    C1_CYCLE = "C1"
    K1_CYCLE = "K1"
    K2_CYCLE = "K2"
    SPECIAL_5 = "Special5"


class FamilyWitness(NamedTuple):
    """One qualifying decomposition: d_edges and x_edges partition the labels."""

    cycle: Cycle
    tag: FamilyTag
    n: int
    d_edges: tuple[int, ...]
    x_edges: tuple[int, ...]

    @property
    def k(self) -> int:
        return len(self.x_edges)

    def to_json_obj(self) -> dict:
        return {
            "tag": self.tag.value,
            "n": self.n,
            "d_edges": list(self.d_edges),
            "x_edges": list(self.x_edges),
        }


def active_tags(p: ParameterSequence) -> frozenset[FamilyTag]:
    """Families making up the obstruction set for this tuple.

    Adjacent C0, C1 use the single C family; a wider gap uses C0 and C1 with
    one distinguished triple each; the delta = 5 case IIB tuple additionally
    forbids the pentagon with all labels 5.
    """
    if not p.is_admissible:
        raise ValueError(f"parameters {p} are not admissible")
    if p.c_prime - p.c == 1:
        return frozenset(
            {FamilyTag.NON_METRIC, FamilyTag.C_CYCLE, FamilyTag.K1_CYCLE, FamilyTag.K2_CYCLE}
        )
    base = frozenset(
        {
            FamilyTag.NON_METRIC,
            FamilyTag.C0_CYCLE,
            FamilyTag.C1_CYCLE,
            FamilyTag.K1_CYCLE,
            FamilyTag.K2_CYCLE,
        }
    )
    if p.delta > 5 or p.case is AdmissibilityCase.CASE_III:
        return base
    # Remaining admissible shape: delta = 5, case IIB.
    return base | {FamilyTag.SPECIAL_5}


def _inequalities(
    p: ParameterSequence, total: int, length: int, metric: bool
) -> Iterator[tuple[FamilyTag, int, int, int]]:
    """The family inequalities for a cycle with this label sum and edge
    count, as (tag, n, size, bound): a choice d of size distinguished labels,
    the other labels being fillers, qualifies when 2*sum(d) - total > bound,
    that is sum(d) - sum(fillers) > bound.  metric says that no label
    exceeds the sum of the others."""
    cm1 = p.c - 1
    odd = total % 2 == 1
    yield FamilyTag.NON_METRIC, 0, 1, 0
    if odd:
        if metric:
            yield FamilyTag.K1_CYCLE, 0, 0, -2 * p.k1
        for n in range((length - 2) // 2 + 1):
            yield FamilyTag.K2_CYCLE, n, 2 * n + 2, 2 * p.k2 + n * cm1
    for n in range(1, (length - 1) // 2 + 1):
        yield FamilyTag.C_CYCLE, n, 2 * n + 1, n * cm1
    if odd:
        yield FamilyTag.C1_CYCLE, 1, 3, p.c1 - 1
    else:
        yield FamilyTag.C0_CYCLE, 1, 3, p.c0 - 1


def _holding_tags(p: ParameterSequence, labels: Cycle) -> set[FamilyTag]:
    """Every family, active for p or not, that the label multiset belongs
    to.  The best choice of size distinguished labels is the size largest,
    so one descending prefix sum decides each inequality."""
    desc = tuple(sorted(labels, reverse=True))
    pre = list(accumulate(desc, initial=0))
    total = pre[-1]
    held = {
        tag
        for tag, _, size, bound in _inequalities(p, total, len(desc), 2 * desc[0] <= total)
        if 2 * pre[size] - total > bound
    }
    if p.delta == 5 and desc == SPECIAL_PENTAGON:
        held.add(FamilyTag.SPECIAL_5)
    return held


def is_forbidden(p: ParameterSequence, cycle: Cycle) -> bool:
    """Membership of the cycle in the obstruction set of p."""
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError("a cycle has at least 3 edges")
    return not _holding_tags(p, cycle).isdisjoint(active_tags(p))


# Most tuple slots _distinct_subsets fills (about 100 MiB); the sub-multisets
# of an F(p) member with delta <= 10 fill 111,537 at most.
MAX_SUBSET_SLOTS = 10_000_000


def _distinct_subsets(desc: Cycle) -> dict[int, list[Cycle]]:
    """The distinct sub-multisets of the descending labels, by size, as
    descending tuples.  They are built from the label counts, so the work
    follows their number, not the number of position sets.  ValueError,
    before any work, when their sizes sum to more than MAX_SUBSET_SLOTS:
    each label is in half of them, so the sum is prod(c + 1) * len / 2."""
    counts = Counter(desc)  # first-seen order, which is descending here
    if (slots := prod(c + 1 for c in counts.values()) * len(desc) // 2) > MAX_SUBSET_SLOTS:
        raise ValueError(f"the sub-multisets fill {slots} tuple slots; at most {MAX_SUBSET_SLOTS} are supported")
    subsets = [()]
    for label, count in counts.items():
        subsets = [s + (label,) * t for s in subsets for t in range(count + 1)]
    by_size: dict[int, list[Cycle]] = {}
    for s in subsets:
        by_size.setdefault(len(s), []).append(s)
    return by_size


def _remove(desc: Cycle, part: Cycle) -> Cycle:
    rest = list(desc)
    for x in part:
        rest.remove(x)
    return tuple(rest)


def classify_cycle(p: ParameterSequence, cycle: Cycle) -> list[FamilyWitness]:
    """Every qualifying (tag, n, decomposition), duplicate-free and sorted.

    Decompositions are over the label multiset; position in the cycle does not
    matter.  n = 0 instances of the C, C0 and C1 inequalities are exactly the
    non-metric cycles and are reported under the NonMetric tag.
    """
    cycle = tuple(cycle)
    if len(cycle) < 3:
        raise ValueError("a cycle has at least 3 edges")
    if max(cycle) > p.delta:
        raise ValueError(f"cycle labels exceed delta={p.delta}")
    held = _holding_tags(p, cycle)
    if not held:  # where no family holds, no decomposition qualifies
        return []
    canon = canonical_cycle(cycle)
    desc = tuple(sorted(cycle, reverse=True))
    total = sum(desc)
    subsets = _distinct_subsets(desc)
    out = [
        FamilyWitness(canon, tag, n, d, _remove(desc, d))
        for tag, n, size, bound in _inequalities(p, total, len(desc), 2 * desc[0] <= total)
        for d in subsets.get(size, ())
        if 2 * sum(d) - total > bound
    ]
    if FamilyTag.SPECIAL_5 in held:
        out.append(FamilyWitness(canon, FamilyTag.SPECIAL_5, 2, SPECIAL_PENTAGON, ()))
    return sorted(out, key=lambda w: (w.tag.value, w.n, w.d_edges))


@functools.cache
def walk_bound(p: ParameterSequence) -> int:
    """Edge-count bound B: no obstruction cycle for p is longer than this.
    k labels in 1..delta give 2*sum(d) - total <= size*(delta + 1) - k, so B
    is the largest k at which that relaxation of an active inequality holds,
    for either parity of the total and either metric flag (none does past
    4*delta + 1, as C >= 2*delta + 2), or 5 for the special pentagon."""
    tags = active_tags(p)
    fits = (
        k for k in range(4 * p.delta + 1, 2, -1) for total in (0, 1) for metric in (False, True)
        for tag, _, size, bound in _inequalities(p, total, k, metric)
        if tag in tags and size * (p.delta + 1) - k > bound
    )
    return max(next(fits, 3), 5 if FamilyTag.SPECIAL_5 in tags else 3)


def _distinct_perms(pool: Cycle) -> Iterator[Cycle]:
    if not pool:
        yield ()
        return
    prev = None
    for i, x in enumerate(pool):
        if x == prev:
            continue
        prev = x
        for rest in _distinct_perms(pool[:i] + pool[i + 1 :]):
            yield (x,) + rest


def _arrangements(ms: Cycle) -> set[Cycle]:
    """Distinct cycles realizing the multiset, in canonical form.  Canonical
    forms start with the least label, so the first position can be pinned."""
    return {canonical_cycle((ms[0],) + rest) for rest in _distinct_perms(ms[1:])}


# Most label multisets _forbidden_multisets tests.  Every delta <= 9 tuple fits
# (at most 3.1 million, about 25 s on a 2-core Xeon), as do 182 of 188 delta = 10.
MAX_MULTISETS = 4_000_000


@functools.cache
def _forbidden_multisets(p: ParameterSequence) -> tuple[Cycle, ...]:
    """Label multisets of the obstruction cycles, ascending tuples, by length;
    cached, as every Engine and the prefix table of p read them.  ValueError,
    before any work, when there are more than MAX_MULTISETS to test."""
    tags = active_tags(p)
    sizes = range(3, walk_bound(p) + 1)
    count = sum(comb(p.delta + k - 1, k) for k in sizes)
    if count > MAX_MULTISETS:
        raise ValueError(f"enumerating F{p} tests {count} label multisets; at most {MAX_MULTISETS} are supported")
    pool = [combinations_with_replacement(range(1, p.delta + 1), k) for k in sizes]
    return tuple(ms for part in pool for ms in part if not _holding_tags(p, ms).isdisjoint(tags))


def enumerate_forbidden(p: ParameterSequence) -> list[Cycle]:
    """Every obstruction cycle for p, canonical, sorted by length then labels."""
    out: set[Cycle] = set()
    for ms in _forbidden_multisets(p):
        out |= _arrangements(ms)
    return sorted(out, key=lambda c: (len(c), c))


class BudgetExceededError(RuntimeError):
    """Search or lattice size exceeded the configured budget."""


# Neighbour tests find_witness makes, at most.  On a 2-core Xeon under
# (6,1,6,16,15), a completed random 200-cycle (no witness) needs 24.1 million
# (1.3 s); `family witness` on a completed 1,000-cycle stops after 9-10 s.
WITNESS_BUDGET = 100_000_000


@functools.cache
def _prefix_table(p: ParameterSequence) -> tuple[list[int], dict[int, set[int]]]:
    """Label weights and, per walk length L, the keys of every sub-multiset
    of a forbidden multiset of size L, the empty one (key 0) and the forbidden
    ones included.  A multiset's key is its count vector read as digits in
    base walk_bound(p) + 1, so adding label l adds weight[l].  The keys of L
    labels in the set for L are exactly the forbidden multisets of size L."""
    base = walk_bound(p) + 1
    weight = [0] + [base ** (l - 1) for l in range(1, p.delta + 1)]
    tables: dict[int, set[int]] = {}
    for ms in _forbidden_multisets(p):
        keys = tables.setdefault(len(ms), set())
        for subsets in _distinct_subsets(ms[::-1]).values():
            keys.update(sum(weight[l] for l in s) for s in subsets)
    return weight, tables


def find_witness(
    p: ParameterSequence, g: EdgeLabelledGraph
) -> tuple[tuple[int, ...], FamilyWitness] | None:
    """First closed walk of g tracing an obstruction cycle, or None.

    Walks are scanned up to walk_bound(p) in (length, vertex sequence) order;
    the returned witness is the first qualifying decomposition of the walk's
    label cycle under a tag active for p.

    Membership depends only on the label multiset, so at walk length L the
    depth-first search extends a partial walk only while its labels form a
    sub-multiset of some forbidden multiset of size L (a prefix of a rotation
    or reflection of a forbidden word), and a closed walk of L labels
    qualifies when its key is in the same set.  The pruned subtrees hold no
    qualifying walk, so the first hit is the one a full scan would find.
    BudgetExceededError once the search has made more than WITNESS_BUDGET
    neighbour tests: a popped walk of length L tests its closing edge, a
    shorter one every neighbour of its last vertex.
    """
    check_labels(g, p.delta)
    tags = active_tags(p)
    weight, tables = _prefix_table(p)
    budget, tested = WITNESS_BUDGET, 0
    # Only vertices that carry an edge lie on a closed walk, so neither the
    # neighbour lists nor the walk starts span all n vertices.
    adj: dict[int, dict[int, int]] = {}
    for (u, v), l in g.labels.items():
        adj.setdefault(u, {})[v] = l
        adj.setdefault(v, {})[u] = l
    nbrs = {u: sorted(a.items()) for u, a in adj.items()}
    starts = sorted(adj, reverse=True)
    for length, prefixes in sorted(tables.items()):
        stack = [((v,), 0) for v in starts]
        while stack:
            path, key = stack.pop()
            last = path[-1]
            tested += 1 if len(path) == length else len(nbrs[last])
            if tested > budget:
                raise BudgetExceededError(f"witness search exceeded budget {budget} neighbour tests")
            if len(path) == length:
                closing = adj[last].get(path[0])
                if closing is not None and key + weight[closing] in prefixes:
                    labels = tuple(
                        adj[path[i]][path[(i + 1) % length]] for i in range(length)
                    )
                    for w in classify_cycle(p, labels):
                        if w.tag in tags:
                            return path, w
                    raise AssertionError("forbidden cycle without an active witness")
                continue
            for v, l in reversed(nbrs[last]):
                ext = key + weight[l]
                if ext in prefixes:
                    stack.append((path + (v,), ext))
    return None
