"""Shared test plumbing: the acceptance criteria summary block, the tuples
and random graphs of the bitset differential tests, and a runner for
code that must finish in a fresh process within a time limit.

Each acceptance test records its verdict before asserting, so the final
report shows one line per criterion even when a criterion fails.
"""

import os
import re
import subprocess
import sys

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


def many_label_graph(rng, p, n):
    """A complete graph on n vertices with labels drawn from the even values
    in delta/2..delta: about delta/4 label classes at each vertex.  Under
    (300,300,300,902,901) every such graph is a member (all perimeters are
    even and below C0, and the labels are within a factor of 2)."""
    evens = range(p.delta // 2 + p.delta // 2 % 2, p.delta + 1, 2)
    return EdgeLabelledGraph(n, [(u, v, rng.choice(evens)) for u in range(n) for v in range(u + 1, n)])


def python_env():
    """The environment with src/ first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join([src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    return dict(os.environ, PYTHONPATH=path)


def run_python(args, timeout):
    """`python ARGS` in a fresh process, src/ on the path; raises
    subprocess.TimeoutExpired after timeout seconds."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=python_env(),
    )


_criteria: dict[int, tuple[bool, str, tuple[str, ...]]] = {}
# Seconds per criterion: setup, call and teardown of its test.  Criterion
# 2's setup includes the sweep fixture it shares with criterion 3.
_seconds: dict[int, float] = {}


def record_criterion(num: int, ok: bool, detail: str, notes: tuple[str, ...] = ()) -> None:
    _criteria[num] = (ok, detail, notes)


def pytest_runtest_logreport(report):
    hit = re.search(r"::test_criterion_(\d+)_", report.nodeid)
    if hit:
        num = int(hit.group(1))
        _seconds[num] = _seconds.get(num, 0.0) + report.duration


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criteria:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(_criteria):
        ok, detail, notes = _criteria[num]
        verdict = "PASS" if ok else "FAIL"
        secs = _seconds.get(num, 0.0)
        terminalreporter.write_line(f"CRITERION {num}: {verdict} ({secs:.1f} s) - {detail}")
        for line in notes:
            terminalreporter.write_line(f"  {line}")
