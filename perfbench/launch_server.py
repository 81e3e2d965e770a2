"""Start ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/launch_server.py --spans OUT.json -- serve ...``

Everything after ``--`` is handed to the ``repro`` command line unchanged.
The spans recorded while serving are written to ``OUT.json`` once the
server has shut down (SIGTERM or SIGINT).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from spans import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the recorded spans")
    parser.add_argument("cli", nargs=argparse.REMAINDER, help="-- then the repro CLI arguments")
    args = parser.parse_args(argv)
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
    from repro.api.cli import main as repro_main

    tracer = Tracer()
    layers.install(tracer)
    try:
        return repro_main(cli)
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
