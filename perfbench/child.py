"""Run the program from the source tree in a child process and account for
it: wall time from spawn to reap, CPU time and peak RSS of that child
alone (from ``wait4``), exit code and stdout bytes."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"


def child_env():
    """PYTHONPATH=src, and no CUBICLIFFORD_* variable that could change the
    program's defaults."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CUBICLIFFORD_")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    timed_out: bool


def run(args, timeout):
    """Run ``python <args>`` from the repository root and wait for it."""
    OUT.mkdir(exist_ok=True)
    err_path = OUT / "child-stderr.txt"
    with open(err_path, "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(),
                                stdout=subprocess.PIPE, stderr=err)
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return ChildResult(proc.returncode, out, stderr, wall,
                       usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                       bool(killed))


def cli_args(argv):
    return ["-m", "cubiclifford.cli", *argv]
