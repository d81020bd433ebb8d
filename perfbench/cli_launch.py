"""Traced stand-in for ``python -m dressedbath``.

Usage: cli_launch.py TRACE_JSON time|peaks COMMAND-LINE-ARGS...

Imports ``dressedbath.cli`` (timing the import), installs the tracer on
every layer including ``cli.main``, runs the command, writes the spans and
their summary to TRACE_JSON and exits with the command's exit code.  In
``peaks`` mode the tracer records per-call tracemalloc peaks (see
tracing.py) and its times are not used.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv):
    start = time.perf_counter()
    import dressedbath.cli as cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer(peaks=argv[1] == "peaks")
    tracer.install()
    code = cli.main(argv[2:])
    tracer.write(argv[0], import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
