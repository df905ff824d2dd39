"""Cycles with edge lengths 1 and delta only: cell families and tables.

A cell (i, j) stands for every cycle with i edges of length delta and j
edges of length 1, that is the label multiset {delta^i, 1^j}.  Cells are
read off the family inequalities in `families`: the tag of a cell is the
active family that forbids its multiset.  The families partition the
cells by i: i = 0 is the K1 bound, i = 1 non-metric, even i >= 2 the K2
bound and odd i >= 3 the C bound (split into C0/C1 when C' > C + 1, plus
the single special pentagon cell at (5, 0) for delta = 5 in case IIB).

Two parameter tuples form a twisted pair when the cell positions of one
table are exactly the transpose of the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .families import FamilyTag, _holding_tags, active_tags, walk_bound
from .params import ParameterSequence

TAG_SYMBOLS = {
    FamilyTag.K1_CYCLE: "K1",
    FamilyTag.NON_METRIC: "δ",
    FamilyTag.K2_CYCLE: "K2",
    FamilyTag.C_CYCLE: "C",
    FamilyTag.C0_CYCLE: "C0",
    FamilyTag.C1_CYCLE: "C1",
    FamilyTag.SPECIAL_5: "C1^5",
}

STAIRCASE = "·"


def classify_1d(p: ParameterSequence, i: int, j: int) -> FamilyTag | None:
    """Tag of cell (i, j), or None when such cycles are not forbidden.

    The tag is the first active family, in FamilyTag declaration order,
    whose inequality holds on {delta^i, 1^j}; on these multisets at most one
    active family holds, so the order only fixes the rule.  Pairs with
    i + j < 3 are not cycles and give None.
    """
    return _cell_tag(p, _ordered_tags(p), i, j)


def _ordered_tags(p: ParameterSequence) -> tuple[FamilyTag, ...]:
    """The active families of p in FamilyTag declaration order."""
    tags = active_tags(p)
    return tuple(t for t in FamilyTag if t in tags)


def _cell_tag(
    p: ParameterSequence, tags: tuple[FamilyTag, ...], i: int, j: int
) -> FamilyTag | None:
    if i < 0 or j < 0 or i + j < 3:
        return None
    held = _holding_tags(p, (p.delta,) * i + (1,) * j)
    return next((t for t in tags if t in held), None)


@dataclass(frozen=True)
class OneDeltaCell:
    i: int
    j: int
    tag: FamilyTag

    @property
    def symbol(self) -> str:
        return TAG_SYMBOLS[self.tag]


@dataclass(frozen=True)
class OneDeltaTable:
    params: ParameterSequence
    cells: tuple[OneDeltaCell, ...]

    @property
    def cell_map(self) -> dict[tuple[int, int], FamilyTag]:
        return {(c.i, c.j): c.tag for c in self.cells}

    @property
    def positions(self) -> frozenset[tuple[int, int]]:
        return frozenset((c.i, c.j) for c in self.cells)

    @property
    def i_max(self) -> int:
        return max([3] + [c.i for c in self.cells])

    @property
    def j_max(self) -> int:
        return max([3] + [c.j for c in self.cells])

    def render(self) -> str:
        """Aligned text grid: rows 0δ..iδ, columns j = 0..j_max, the
        corner with i + j < 3 blanked with a staircase marker."""
        cm = self.cell_map
        grid = [[""] + [str(j) for j in range(self.j_max + 1)]]
        for i in range(self.i_max + 1):
            row = [f"{i}δ"]
            for j in range(self.j_max + 1):
                if i + j < 3:
                    row.append(STAIRCASE)
                else:
                    tag = cm.get((i, j))
                    row.append(TAG_SYMBOLS[tag] if tag is not None else "")
            grid.append(row)
        widths = [max(len(r[k]) for r in grid) for k in range(len(grid[0]))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)).rstrip()
            for row in grid
        ]
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "params": list(self.params.as_tuple()),
            "cells": [
                {"i": c.i, "j": c.j, "tag": c.symbol}
                for c in self.cells
            ],
        }


@cache
def render_table(p: ParameterSequence) -> OneDeltaTable:
    """Sweep the cells with i + j <= walk_bound(p): a cell is a multiset of
    i + j labels, and no obstruction cycle is longer.  Cached: both the
    tuple and the table are frozen."""
    bound, tags = walk_bound(p), _ordered_tags(p)
    cells = (
        OneDeltaCell(i, j, tag)
        for i in range(bound + 1)
        for j in range(bound + 1 - i)
        if (tag := _cell_tag(p, tags, i, j)) is not None
    )
    return OneDeltaTable(p, tuple(cells))


def is_twisted_pair(p1: ParameterSequence, p2: ParameterSequence) -> bool:
    """Cell positions of one table equal the transposed positions of the
    other.  Tags are not compared; the pairing is positional."""
    t1 = render_table(p1).positions
    t2 = render_table(p2).positions
    return t1 == frozenset((j, i) for i, j in t2)
