"""Shared test plumbing: the acceptance criteria summary block, and the
tuples and random graphs of the label-matrix differential tests.

Each acceptance test records its verdict before asserting, so the final
report shows one line per criterion even when a criterion fails.
"""

from mhg.graphs import EdgeLabelledGraph
from mhg.params import ParameterSequence

# delta = 3, 4 and 5 tuples over cases IIA, IIB and III.
MATRIX_TUPLES = [
    ParameterSequence(3, 1, 3, 10, 9),
    ParameterSequence(4, 1, 3, 14, 11),
    ParameterSequence(4, 2, 3, 14, 11),
    ParameterSequence(5, 3, 3, 14, 13),
    ParameterSequence(5, 3, 3, 16, 13),
    ParameterSequence(5, 2, 4, 16, 15),
]
# Cases IIB, IIA and III with delta above 255, so labels overflow uint8.
WIDE_TUPLES = [
    ParameterSequence(257, 171, 171, 700, 685),
    ParameterSequence(300, 151, 151, 606, 605),
    ParameterSequence(300, 300, 300, 902, 901),
]


def random_graph(rng, n, density, labels):
    """Each pair is an edge with probability density, its label drawn from
    the sequence labels."""
    edges = [
        (u, v, rng.choice(labels))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < density
    ]
    return EdgeLabelledGraph(n, edges)


_criteria: dict[int, tuple[bool, str, tuple[str, ...]]] = {}


def record_criterion(num: int, ok: bool, detail: str, notes: tuple[str, ...] = ()) -> None:
    _criteria[num] = (ok, detail, notes)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_criteria):
        ok, detail, notes = _criteria[num]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"CRITERION {num}: {verdict} - {detail}")
        for line in notes:
            terminalreporter.write_line(f"  {line}")
