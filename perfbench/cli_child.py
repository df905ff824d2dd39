"""Runs one mhg command in-process with tracing on.

    python3 perfbench/cli_child.py SPANS_FILE ARG...

behaves like ``python3 -m mhg ARG...`` and writes the spans of the call to
SPANS_FILE when the command ends.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import mhg.cli  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return mhg.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracing.dump(path, tracer.spans, tracer.counts)


if __name__ == "__main__":
    sys.exit(main())
