import pytest

from mhg.families import FamilyTag, _holding_tags, active_tags, classify_cycle, is_forbidden
from mhg.onedelta import (
    STAIRCASE,
    TAG_SYMBOLS,
    OneDeltaCell,
    classify_1d,
    is_twisted_pair,
    render_table,
)
from mhg.params import ParameterSequence, enumerate_admissible

P_IIB = ParameterSequence(5, 3, 3, 16, 13)
P_A = ParameterSequence(4, 1, 3, 12, 11)
P_B = ParameterSequence(4, 2, 3, 14, 11)
P_C = ParameterSequence(4, 2, 3, 12, 11)
P_D = ParameterSequence(4, 1, 3, 14, 11)

# Cell grids spelled out by hand: (i, j) -> rendered symbol, i counting
# delta-edges and j counting 1-edges.
GRID_IIB = {
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
GRID_A = {(1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 0): "C", (3, 1): "C"}
GRID_B = {(0, 3): "K1", (1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 1): "C1"}
GRID_C = {
    (0, 3): "K1",
    (1, 2): "δ",
    (1, 3): "δ",
    (2, 1): "K2",
    (3, 0): "C",
    (3, 1): "C",
}
GRID_D = {(1, 2): "δ", (1, 3): "δ", (2, 1): "K2", (3, 1): "C1"}


def grid(p):
    tbl = render_table(p)
    return {(c.i, c.j): c.symbol for c in tbl.cells}


@pytest.mark.parametrize(
    "p,expected",
    [(P_IIB, GRID_IIB), (P_A, GRID_A), (P_B, GRID_B), (P_C, GRID_C), (P_D, GRID_D)],
)
def test_tables_frozen(p, expected):
    assert grid(p) == expected


def test_classify_1d_spot_values():
    assert classify_1d(P_IIB, 0, 3) is FamilyTag.K1_CYCLE
    assert classify_1d(P_IIB, 0, 4) is None  # even perimeter
    assert classify_1d(P_IIB, 1, 4) is FamilyTag.NON_METRIC
    assert classify_1d(P_IIB, 1, 5) is None  # j = delta closes the gap
    assert classify_1d(P_IIB, 2, 3) is FamilyTag.K2_CYCLE
    assert classify_1d(P_IIB, 3, 0) is FamilyTag.C1_CYCLE
    assert classify_1d(P_IIB, 5, 0) is FamilyTag.SPECIAL_5
    assert classify_1d(P_IIB, 2, 0) is None  # not a cycle
    assert classify_1d(P_IIB, 0, 0) is None
    assert classify_1d(P_IIB, -1, 5) is None
    assert classify_1d(P_A, 3, 0) is FamilyTag.C_CYCLE


def test_classify_1d_rejects_non_admissible():
    with pytest.raises(ValueError):
        classify_1d(ParameterSequence(3, 1, 1, 8, 9), 1, 2)


def test_cells_match_multiset_membership():
    """A cell fires exactly when the corresponding label multiset is in the
    obstruction set, its tag is one of the firing families, and no second
    active family fires, so the tag does not hang on the tie-break order.
    render_table, which sweeps fewer cells, finds the same ones."""
    for delta in range(3, 7):
        for p in enumerate_admissible(delta):
            cap = 3 * delta + 3
            tags = active_tags(p)
            found = {}
            for i in range(cap + 1):
                for j in range(cap + 1):
                    if i + j < 3:
                        assert classify_1d(p, i, j) is None
                        continue
                    ms = (delta,) * i + (1,) * j
                    tag = classify_1d(p, i, j)
                    assert (tag is not None) == is_forbidden(p, ms), (p, i, j)
                    if tag is not None:
                        found[i, j] = tag
                    assert len(_holding_tags(p, ms) & tags) <= 1, (p, i, j)
                    if tag is not None and i + j <= 12:
                        assert tag in tags
                        assert tag in {w.tag for w in classify_cycle(p, ms)}
            assert render_table(p).cell_map == found, p


def test_cell_invariants():
    """Cells step down by 2 in each coordinate, never have both counts even
    (an even perimeter of 1s and deltas is either metric or a smaller even
    case already caught), and their families partition by i: K1 at i = 0,
    non-metric at i = 1, K2 at even i >= 2, a C family at odd i >= 3."""
    c_tags = {FamilyTag.C_CYCLE, FamilyTag.C0_CYCLE, FamilyTag.C1_CYCLE}
    for delta in range(3, 9):
        for p in enumerate_admissible(delta):
            cells = render_table(p).cell_map
            pos = set(cells)
            for (i, j), tag in cells.items():
                if i == 0:
                    assert tag is FamilyTag.K1_CYCLE, (p, i, j)
                elif i == 1:
                    assert tag is FamilyTag.NON_METRIC, (p, i, j)
                elif i % 2 == 0:
                    assert tag is FamilyTag.K2_CYCLE, (p, i, j)
                else:
                    special = (i, j) == (5, 0) and tag is FamilyTag.SPECIAL_5
                    assert tag in c_tags or special, (p, i, j)
                assert not (i % 2 == 0 and j % 2 == 0), (p, i, j)
                if i - 2 >= 0 and (i - 2) + j >= 3:
                    assert (i - 2, j) in pos, (p, i, j)
                if j - 2 >= 0 and i + (j - 2) >= 3:
                    assert (i, j - 2) in pos, (p, i, j)


def test_render_frozen():
    tbl = render_table(P_D)
    assert tbl.i_max == 3
    assert tbl.j_max == 3
    assert tbl.render() == (
        "    0   1  2  3\n"
        "0δ  ·   ·  ·\n"
        "1δ  ·   ·  δ  δ\n"
        "2δ  ·  K2\n"
        "3δ     C1"
    )


def test_render_iib():
    text = render_table(P_IIB).render()
    lines = text.splitlines()
    assert len(lines) == 7  # header plus rows 0..5
    assert lines[6].startswith("5δ")
    assert "C1^5" in lines[6]
    assert STAIRCASE in lines[1]


def test_table_json():
    obj = render_table(P_D).to_json_obj()
    assert obj["params"] == [4, 1, 3, 14, 11]
    assert {"i": 2, "j": 1, "tag": "K2"} in obj["cells"]
    assert len(obj["cells"]) == 4


def test_cell_symbols():
    assert OneDeltaCell(1, 2, FamilyTag.NON_METRIC).symbol == "δ"
    assert set(TAG_SYMBOLS) == set(FamilyTag)


def test_twisted_frozen():
    assert is_twisted_pair(P_A, P_B)
    assert is_twisted_pair(P_C, P_C)
    assert is_twisted_pair(P_D, P_D)
    assert not is_twisted_pair(P_A, P_C)
    assert not is_twisted_pair(P_IIB, P_A)


def test_twisted_symmetric():
    seqs = enumerate_admissible(4)
    for p1 in seqs:
        for p2 in seqs:
            assert is_twisted_pair(p1, p2) == is_twisted_pair(p2, p1)
