"""Run ``polycone.cli.main`` the way the installed ``polycone`` script does.

Usage: python3 perfbench/cli_entry.py VERB INPUT [options]

The package is imported from the ``src`` directory next to this one.  When
the environment variable PERFBENCH_SPANS names a file, the public functions
are traced and the spans are written there before exit.
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

spans_path = os.environ.get("PERFBENCH_SPANS")
if spans_path:
    from spans import Tracer

    tracer = Tracer()
    tracer.install()

from polycone import cli  # noqa: E402

code = cli.main(sys.argv[1:])
if spans_path:
    tracer.dump(spans_path)
sys.exit(code)
