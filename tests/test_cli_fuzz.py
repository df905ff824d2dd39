"""Property tests of the exit-code contract on graph files and cycles.

`graph check`, `complete` and `family witness` read a graph from a file.
Whatever JSON the file holds (nested lists, floats, huge integers,
booleans, missing keys), a call must exit 0, 1 or 2 and never 3, the code
for an internal error, and must return within CALL_SECONDS.  JSON booleans
are still read as the integers 0 and 1, so the test asserts the exit code
only, not which inputs are refused.

`family classify` reads a cycle from --cycle.  Whatever 0 to 7 integers
it holds, from -2 to delta + 2, a call must exit 0 or 2, and the text and
--json calls must exit alike, print the same stderr and, on exit 0, give
the same verdict, the library's `is_forbidden` verdict and its
`canonical_cycle` form.
"""

import io
import json
import signal
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest

from mhg.cli import main
from mhg.families import is_forbidden
from mhg.graphs import canonical_cycle
from mhg.params import ParameterSequence

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, seed, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

IIB = ["5", "3", "3", "16", "13"]
COMMANDS = {
    "graph-check": ["graph", "check"],
    "complete": ["complete"],
    "family-witness": ["family", "witness"],
}
CALL_SECONDS = 5
EXAMPLES = 150

huge = st.integers(-(10**40), 10**40)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | huge | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)
label = st.sampled_from([1, 2, 3, 4, 5, True])


@st.composite
def documents(draw):
    """A graph on 3 to 8 vertices with labels 1 to 5 or true, or such a
    graph with one part spoilt: the whole document, n, the edge list, one
    edge or one entry of an edge replaced by any JSON value, or a key left
    out.  A huge n is refused by the bitset routes before any per-vertex work,
    and `family witness` scans only the vertices that carry an edge."""
    n = draw(st.integers(3, 8))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True, max_size=15))
    doc = {"n": n, "edges": [[u, v, draw(label)] for u, v in pairs]}
    part = draw(st.sampled_from([None, None, None, "doc", "n", "edges", "edge", "entry", "key"]))
    if part == "doc":
        doc = draw(json_values)
    elif part == "n":
        doc["n"] = draw(st.integers(-1, 2) | st.integers(1001, 10**40) | json_values)
    elif part == "edges":
        doc["edges"] = draw(json_values)
    elif part in ("edge", "entry") and pairs:
        i = draw(st.integers(0, len(pairs) - 1))
        if part == "edge":
            doc["edges"][i] = draw(json_values)
        else:
            doc["edges"][i][draw(st.integers(0, 2))] = draw(json_values)
    elif part == "key":
        del doc[draw(st.sampled_from(["n", "edges"]))]
    return doc


class CallTimedOut(BaseException):
    """Raised by the alarm; a BaseException, so main's handler for internal
    errors does not turn it into exit code 3."""


def _alarm(signum, frame):
    raise CallTimedOut


def _exit_code(argv):
    """main(argv) with its output captured: the exit code, or "timeout",
    then stdout and stderr."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    except CallTimedOut:
        code = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", list(COMMANDS))
@seed(20181001)
@settings(
    max_examples=EXAMPLES,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(doc=documents())
def test_graph_commands_keep_exit_code_contract(tmp_path, command, doc):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, _, err = _exit_code([*COMMANDS[command], str(path), "--params", *IIB])
    assert code in (0, 1, 2), (doc, code, err)


@seed(20181001)
@settings(max_examples=EXAMPLES, deadline=None, database=None)
@given(labels=st.lists(st.integers(-2, int(IIB[0]) + 2), max_size=7))
def test_family_classify_text_and_json_agree(labels):
    argv = ["family", "classify", "--params", *IIB, "--cycle=" + ",".join(map(str, labels))]
    code, out, err = _exit_code(argv)
    json_code, json_out, json_err = _exit_code([*argv, "--json"])
    assert code in (0, 2), (labels, code, err)
    assert (json_code, json_err) == (code, err), labels
    if code == 0:
        obj = json.loads(json_out)
        forbidden = obj["forbidden"]
        assert out.startswith(f"cycle {','.join(map(str, labels))}  forbidden: {'yes' if forbidden else 'no'}\n")
        assert obj["canonical"] == list(canonical_cycle(labels)), labels
        assert forbidden == is_forbidden(ParameterSequence(*map(int, IIB)), labels), labels
