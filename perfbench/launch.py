"""Traced CLI launcher: install the span wrappers, run
``cubiclifford.cli.main(argv)``, write the spans to a JSON file and exit
with the CLI's exit code.  Stdout is exactly the CLI's.

Usage: python3 perfbench/launch.py SPANS_JSON -- CLI_ARGS...
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main():
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        raise SystemExit(__doc__)
    out_path, argv = sys.argv[1], sys.argv[3:]
    from cubiclifford import cli

    tracer = tracing.Tracer(keep=2000)
    absent = tracing.install(tracer)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout.flush()
        snap = tracer.snapshot()
        snap["absent"] = absent
        Path(out_path).write_text(json.dumps(snap))
    return code


if __name__ == "__main__":
    sys.exit(main())
