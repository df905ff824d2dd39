"""Magic distances and the associated semigroup operation on {1..delta}.

A magic distance M is one that every other distance collapses onto: x (+) M = M
for all x.  The operation x (+) y gives the label that a completion fork with
legs x and y must produce, and the time function orders the distances into the
stage sequence used by the completion algorithm.
"""

from __future__ import annotations

import enum
import math
from functools import cache
from typing import NamedTuple

from .params import AdmissibilityCase, ParameterSequence, admissible


class ForkKind(enum.Enum):
    PLUS = "Plus"
    MINUS = "Minus"
    C_FORK = "CFork"
    MAGIC = "Magic"


def magic_distances(p: ParameterSequence) -> list[int]:
    """All magic distances of an admissible tuple, ascending.

    Candidates are max(K1, ceil(delta/2)) <= M <= min(K2, floor((C-delta-1)/2)),
    thinned by two Case III corner conditions.  Raises ValueError when p is not
    admissible.
    """
    admissible(p)
    lo = max(p.k1, -(-p.delta // 2))
    hi = min(p.k2, (p.c - p.delta - 1) // 2)
    out = []
    case3 = p.case is AdmissibilityCase.CASE_III
    for m in range(lo, hi + 1):
        if case3 and p.k1 + 2 * p.k2 == 2 * p.delta - 1 and m <= p.k1:
            continue
        if case3 and p.c_prime > p.c + 1 and p.c == 2 * p.delta + p.k2 and m >= p.k2:
            continue
        out.append(m)
    return out


def time_value(m: int, delta: int, x: int) -> float:
    """Stage time of distance x: 2x-1 below M, 2(delta-x) above M, inf at M.

    Odd below M, even above M, so times are distinct off M and the induced
    order alternates ends-inward: delta, 1, delta-1, 2, ... with M last.
    This interleaving is what makes staged completion sound: t(x + y) and
    t(|x - y|) never precede max(t(x), t(y)), so a fork's fill stage has
    never already passed when the fork appears.
    """
    if x == m:
        return math.inf
    return 2 * x - 1 if x < m else 2 * (delta - x)


def magic_permutation(p: ParameterSequence, m: int) -> tuple[int, ...]:
    """Distances 1..delta sorted by ascending time; M is always last."""
    return tuple(sorted(range(1, p.delta + 1), key=lambda x: time_value(m, p.delta, x)))


class _MagicFields(NamedTuple):
    params: ParameterSequence
    m: int
    permutation: tuple[int, ...]


class MagicContext(_MagicFields):
    """Parameter tuple with a chosen magic distance and derived tables."""

    __slots__ = ()

    def __new__(cls, params: ParameterSequence, m: int):
        if m not in magic_distances(params):
            raise ValueError(f"{m} is not a magic distance of {params}")
        return super().__new__(cls, params, m, magic_permutation(params, m))

    def __getnewargs__(self) -> tuple[ParameterSequence, int]:
        # copy and pickle call __new__ with these, not with all three fields.
        return (self.params, self.m)

    @property
    def delta(self) -> int:
        return self.params.delta

    def _check(self, x: int, y: int) -> None:
        if not (1 <= x <= self.delta and 1 <= y <= self.delta):
            raise ValueError(f"labels ({x}, {y}) out of range 1..{self.delta}")

    def oplus(self, x: int, y: int) -> int:
        """x (+) y: |x-y| if that exceeds M, else min(x+y, C-1-x-y) if that is
        below M, else M."""
        self._check(x, y)
        d = abs(x - y)
        if d > self.m:
            return d
        s = min(x + y, self.params.c - 1 - x - y)
        return s if s < self.m else self.m

    def fork_kind(self, x: int, y: int) -> ForkKind:
        """Which branch produced oplus(x, y); ties x+y = C-1-x-y report PLUS."""
        self._check(x, y)
        if abs(x - y) > self.m:
            return ForkKind.MINUS
        if min(x + y, self.params.c - 1 - x - y) < self.m:
            return ForkKind.PLUS if x + y <= self.params.c - 1 - x - y else ForkKind.C_FORK
        return ForkKind.MAGIC

    def time(self, x: int) -> float:
        if not 1 <= x <= self.delta:
            raise ValueError(f"label {x} out of range 1..{self.delta}")
        return time_value(self.m, self.delta, x)

    def stage_of(self, x: int) -> int:
        """1-based stage index at which distance x is filled in."""
        return self.permutation.index(x) + 1

    def oplus_table(self) -> list[list[int]]:
        """Full operation table, row/column indices 1..delta."""
        return [list(row[1:]) for row in oplus_rows(self)[1:]]


@cache
def oplus_rows(ctx: MagicContext) -> tuple[tuple[int, ...], ...]:
    """The (+) table, built once per context: rows[x][y] = x (+) y for labels
    1..delta, and 0 where x or y is 0 (a blank pair).  Reads skip oplus's range test."""
    labels = range(ctx.delta + 1)
    return tuple(tuple(ctx.oplus(x, y) if x and y else 0 for y in labels) for x in labels)


def default_context(p: ParameterSequence, m: int | None = None) -> MagicContext:
    """Context for the given magic distance, or the smallest one when omitted."""
    return MagicContext(p, magic_distances(p)[0] if m is None else m)
