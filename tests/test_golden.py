"""Every recorded CLI invocation still prints the stdout recorded in
``perfbench/golden.json``, byte for byte.

The benchmark replays the same argument lists in fresh processes and
counts a digest mismatch as a failed operation; this test catches the
drift in-process, through ``cli.main``.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

from cubiclifford.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", PERFBENCH / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_recorded_stdout_digests():
    inputs = _inputs()
    golden = json.loads((PERFBENCH / "golden.json").read_text())
    golden = golden["stdout_sha256"]
    argvs = {inputs.key(argv): argv for argv in inputs.recorded_argvs()}
    assert len(argvs) == len(golden) == 119
    mismatched = []
    for key, argv in argvs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (0, golden[key]):
            mismatched.append((key, code))
    assert mismatched == []
