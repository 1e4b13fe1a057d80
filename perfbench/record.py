"""Record the stdout digest of every pooled CLI invocation into golden.json.

The process-per-call workloads compare each call's stdout byte-for-byte
against these digests.  Re-record only when a change to the CLI output is
intended, and say so in the change that does it.

Usage: python3 perfbench/record.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import inputs  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def main():
    digests = {}
    for argv in inputs.recorded_argvs():
        res = child.run(child.cli_args(argv), timeout=600)
        if res.returncode != 0 or not json.loads(res.stdout).get("ok"):
            sys.stderr.write(res.stderr.decode(errors="replace"))
            raise SystemExit(f"not recorded, call failed: {inputs.key(argv)}")
        digests[inputs.key(argv)] = hashlib.sha256(res.stdout).hexdigest()
        print(f"{res.wall_s:7.2f} s  {inputs.key(argv)}", flush=True)
    GOLDEN.write_text(json.dumps({"stdout_sha256": digests}, indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN.name}")


if __name__ == "__main__":
    main()
