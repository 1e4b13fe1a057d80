"""End-to-end and per-layer benchmark for cubiclifford, run from the source
tree (``src/`` on the path, nothing installed).

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client drives the program, with at most one child process
at a time.  Every operation's output is checked; the last line of stdout is
the JSON result (end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``).  The line before it is a report with the workload's
own metric names, noise controls and an output digest.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RUN_BUDGET_S = 170.0  # a run must end within 180 s
SETUP_PROBES = 5
FLOOR_PROBES = 5
IMPORT_PROBES = 3

# Timings are CPU time (user + sys) of the process doing the work: on a
# shared machine wall time also measures the neighbours.  Wall-time
# figures are in the report line.
END_TO_END = {"cpu_p50_ms": "ms", "cpu_tail_ms": "ms", "ops_per_cpu_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in tracing.NAMES
       for kind, unit in (("ms", "ms"), ("self_ms", "ms"), ("calls", "count"))},
    "cli.import_ms": "ms", "cli.import_sympy_ms": "ms",
    "cli.interpreter_floor_ms": "ms",
    "trace.untraced_op_ms": "ms", "trace.overhead_ms": "ms",
    "trace.uncovered_ms": "ms",
}

# Workload-specific names of the wall-time figures in the report.
ALIASES = {
    "verify_all": {"verify_all_s": ("wall_p50_ms", 1e-3, "s")},
    "cli": {"cli_p50_ms": ("wall_p50_ms", 1, "ms"),
            "cli_tail_ms": ("wall_tail_ms", 1, "ms")},
    "fibers_generic": {"fiber_generic_p50_ms": ("wall_p50_ms", 1, "ms"),
                       "fibers_per_s": ("wall_ops_per_s", 1, "1/s")},
    "fibers_singular": {"fiber_singular_p50_ms": ("wall_p50_ms", 1, "ms"),
                        "fibers_per_s": ("wall_ops_per_s", 1, "1/s")},
    "normal_forms": {"nf_p50_ms": ("wall_p50_ms", 1, "ms"),
                     "nf_per_s": ("wall_ops_per_s", 1, "1/s")},
}

clock = time.perf_counter
cpu_clock = time.process_time


class Failure(Exception):
    """Set-up could not produce a checkable workload."""


def import_library():
    """Import the package from this checkout's src/, never another copy."""
    for k in [k for k in os.environ if k.startswith("CUBICLIFFORD_")]:
        del os.environ[k]
    if str(child.SRC) not in sys.path:
        sys.path.insert(0, str(child.SRC))
    import cubiclifford

    if Path(cubiclifford.__file__).resolve().parent.parent != child.SRC:
        raise Failure(f"cubiclifford imported from {cubiclifford.__file__}")


# -- workloads ----------------------------------------------------------------


class ProcessWorkload:
    """One CLI invocation per operation, in a fresh interpreter."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.traced = False
        self.children = []  # (wall s, cpu s, max rss KiB) per call
        self.spans = tracing.empty()
        self.absent = []

    def setup(self):
        golden = json.loads(GOLDEN.read_text())["stdout_sha256"]
        if self.name == "verify_all":
            script = inputs.verify_all_script(self.seed)
            self.digest_ops = 1
        else:
            script = inputs.cli_script(self.seed, rounds=200)
            self.digest_ops = len(inputs.cli_pool())
        self.script = [(argv, golden[inputs.key(argv)]) for argv in script]
        import_library()
        import cubiclifford.cli  # noqa: F401  warm-up: bytecode caches

    def op(self, i, deadline):
        argv, want = self.script[i % len(self.script)]
        if self.traced:
            spans_path = child.OUT / "launcher-spans.json"
            spans_path.unlink(missing_ok=True)
            args = [str(Path(__file__).resolve().parent / "launch.py"),
                    str(spans_path), "--", *argv]
        else:
            args = child.cli_args(argv)
        res = child.run(args, timeout=max(1.0, deadline - clock()))
        self.children.append((res.wall_s, res.cpu_s, res.maxrss_kb))
        ok = (res.returncode == 0 and not res.timed_out
              and hashlib.sha256(res.stdout).hexdigest() == want
              and json.loads(res.stdout).get("ok") is True)
        if self.traced and spans_path.exists():
            part = json.loads(spans_path.read_text())
            # span ids restart in every child: qualify them by operation
            part["spans"] = [(f"{i}:{sid}", None if up is None else f"{i}:{up}",
                              name, start, end)
                             for sid, up, name, start, end in part["spans"]]
            tracing.merge(self.spans, part)
            self.absent = part["absent"]
        if not ok:
            sys.stderr.write(f"check failed: {inputs.key(argv)} "
                             f"(exit {res.returncode})\n"
                             + res.stderr.decode(errors="replace")[-2000:])
        return ok, res.stdout, res.wall_s, res.cpu_s

    def start_tracing(self):
        self.traced = True

    def trace_snapshot(self):
        return self.spans

    def peak_rss_mb(self):
        return max(rss for _, _, rss in self.children) / 1024

    def extra(self):
        return {"child_wall_cpu_s": [[round(w, 4), round(c, 4)]
                                     for w, c, _ in self.children]}


class InProcessWorkload:
    """Library calls in the benchmark process."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.tracer = None
        self.absent = []

    def start_tracing(self):
        self.tracer = tracing.Tracer()
        self.absent = tracing.install(self.tracer)

    def trace_snapshot(self):
        return self.tracer.snapshot()

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def extra(self):
        return {}


class FiberWorkload(InProcessWorkload):
    """What `quotient`, `irreps` and `disc-locus` do for one central point,
    checked against the paper's table for the point's stratum."""

    ELLS = (3, 5, 12)
    digest_ops = 8

    def setup(self):
        import_library()
        from cubiclifford import disc, findim, repthy
        from cubiclifford.commgeo import central_point
        from cubiclifford.fields import make_field

        self.lib = (findim, disc, repthy)
        self.field = F = make_field("prime", inputs.PRIME)
        self.points = [(stratum, central_point(F, *pt), lib_seed)
                       for stratum, pt, lib_seed in inputs.fiber_points(
                           self.name, self.seed, 600)]

    def op(self, i, deadline):
        findim, disc, repthy = self.lib
        F = self.field
        stratum, pt, seed = self.points[i % len(self.points)]
        t0, c0 = clock(), cpu_clock()
        alg = findim.build_quotient(F, pt)
        assoc = findim.check_unit_and_associativity(alg)
        images = findim.reduce_center_images(alg)
        prof = disc.locus_profile(F, pt, seed=seed)
        dim1 = repthy.search_irreps_dim1(F, pt)
        verdicts = []
        for ell in self.ELLS:
            v = disc.v_ell_membership(F, pt, ell, prof)
            found = disc.modified_gram_check(prof.algebra, ell, seed=seed)
            if not found and not v.member:  # one reseed, as disc-locus does
                found = disc.modified_gram_check(prof.algebra, ell,
                                                 seed=seed + 1)
            verdicts.append((v.member, found))
        dt, dc = clock() - t0, cpu_clock() - c0
        dim, irreps = inputs.EXPECTED[stratum]
        ok = (alg.dim == prof.algebra.dim == dim
              and tuple(prof.irrep_dims) == irreps
              and prof.sum_squares == prof.gram_rank
              and len(dim1) == irreps.count(1)
              and assoc
              and [int(v) for v in images] == [int(v) for v in pt.coords()]
              and all(member == (prof.sum_squares < ell) and found != member
                      for ell, (member, found) in zip(self.ELLS, verdicts)))
        out = repr((stratum, pt.coords(), alg.dim, prof.irrep_dims,
                    prof.gram_rank, dim1, verdicts)).encode()
        if not ok:
            sys.stderr.write(f"check failed: {stratum} point {pt.coords()}: "
                             f"{out.decode()}\n")
        return ok, out, dt, dc


class NormalFormWorkload(InProcessWorkload):
    """Normal forms of degree-16..20 integer polynomials over F_13 and Q.
    Each output word must be normal, and the Q result reduced mod 13 must
    equal the F_13 result (the completed rules have +-1 coefficients)."""

    DEGREE = 20
    digest_ops = 50

    def setup(self):
        import_library()
        from cubiclifford.fields import make_field
        from cubiclifford.freealg import NcPoly, clifford_relations
        from cubiclifford.rewrite import complete, hilbert_oracle

        fp = make_field("prime", inputs.PRIME)
        fq = make_field("rational")
        self.systems = []
        for F in (fp, fq):
            system = complete(clifford_relations(F), degree_bound=self.DEGREE)
            for n in range(self.DEGREE + 1):
                if system.graded_dimension(n) != hilbert_oracle(n):
                    raise Failure(f"Hilbert table differs at degree {n} "
                                  f"over {F!r}")
            leads = [rule.lead for rule in system.rules]
            self.systems.append((F, system, leads))
        self.polys = [
            tuple(NcPoly(F, {w: F.of(c) for w, c in terms.items()})
                  for F, _, _ in self.systems)
            for terms in inputs.nf_corpus(self.seed)]
        self.field_cpu_ms = ([], [])

    def op(self, i, deadline):
        results = []
        dt = dc = 0.0
        for k, (_, system, _) in enumerate(self.systems):
            poly = self.polys[i % len(self.polys)][k]
            t0, c0 = clock(), cpu_clock()
            results.append(system.normal_form(poly))
            dt += clock() - t0
            c = cpu_clock() - c0
            self.field_cpu_ms[k].append(c * 1e3)
            dc += c
        nf_p, nf_q = results
        p = inputs.PRIME
        q_mod_p = {w: c.numerator * pow(c.denominator, -1, p) % p
                   for w, c in nf_q.terms.items()}
        q_mod_p = {w: c for w, c in q_mod_p.items() if c}
        ok = (q_mod_p == {w: int(c) for w, c in nf_p.terms.items()}
              and all(not any(lead in w for lead in leads)
                      for (_, _, leads), nf in zip(self.systems, results)
                      for w in nf.terms))
        out = (nf_p.serialize() + "|" + nf_q.serialize()).encode()
        if not ok:
            sys.stderr.write(f"check failed: normal form {out.decode()}\n")
        return ok, out, dt, dc

    def extra(self):
        return {"nf_fp_cpu_p50_ms": statistics.median(self.field_cpu_ms[0]),
                "nf_q_cpu_p50_ms": statistics.median(self.field_cpu_ms[1])}


WORKLOADS = {
    "verify_all": ProcessWorkload,
    "cli": ProcessWorkload,
    "fibers_generic": FiberWorkload,
    "fibers_singular": FiberWorkload,
    "normal_forms": NormalFormWorkload,
}


# -- measurement ----------------------------------------------------------------


def closed_loop(work, seconds, deadline):
    """Run operations back to back; start one only while it is expected to
    end inside the window (at least one always runs)."""
    walls, cpus, failed, digest = [], [], 0, hashlib.sha256()
    start = clock()
    i = 0
    while True:
        t0, c0 = clock(), cpu_clock()
        try:
            ok, out, dt, dc = work.op(i, deadline)
        except Exception:
            traceback.print_exc()
            ok, out, dt, dc = (False, b"<raised>", clock() - t0,
                               cpu_clock() - c0)
        walls.append(dt)
        cpus.append(dc)
        failed += not ok
        if i < work.digest_ops:
            digest.update(out + b"\n")
        i += 1
        elapsed = clock() - start
        if elapsed + elapsed / i > seconds or clock() > deadline:
            return {"walls": walls, "cpus": cpus, "failed": failed,
                    "elapsed": elapsed,
                    "digest": digest.hexdigest()[:16],
                    "digest_complete": i >= work.digest_ops}


def tail(times):
    """Highest percentile with at least ten samples beyond it (the maximum
    when a run has fewer than 11 samples)."""
    xs = sorted(times)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def interpreter_floor_ms(deadline):
    walls = [child.run(["-c", "pass"], timeout=max(1.0, deadline - clock()))
             .wall_s for _ in range(FLOOR_PROBES)]
    return statistics.median(walls) * 1e3


def setup_probe_s(workload, seed, deadline):
    """Median CPU time of fresh interpreters that only do the set-up, and
    their median wall time."""
    walls, cpus = [], []
    for _ in range(SETUP_PROBES):
        res = child.run([__file__, "--workload", workload, "--seed", str(seed),
                         "--setup-only"],
                        timeout=max(1.0, deadline - clock()))
        if res.returncode != 0:
            sys.stderr.write(res.stderr.decode(errors="replace"))
            raise Failure("set-up probe failed")
        walls.append(res.wall_s)
        cpus.append(res.cpu_s)
    return statistics.median(cpus), statistics.median(walls)


def import_times_ms(deadline):
    """cubiclifford.cli and sympy cumulative import times (-X importtime)."""
    cli_ms, sympy_ms = [], []
    for _ in range(IMPORT_PROBES):
        res = child.run(["-X", "importtime", "-c", "import cubiclifford.cli"],
                        timeout=max(1.0, deadline - clock()))
        found = {}
        for line in res.stderr.decode(errors="replace").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:"):
                name = parts[2].strip()
                if name in ("cubiclifford.cli", "sympy") and name not in found:
                    found[name] = int(parts[1]) / 1e3
        if "cubiclifford.cli" not in found:
            raise Failure("-X importtime did not report cubiclifford.cli")
        cli_ms.append(found["cubiclifford.cli"])
        sympy_ms.append(found.get("sympy", 0.0))
    return statistics.median(cli_ms), statistics.median(sympy_ms)


def source_size():
    """Files, lines and bytes under src/, build products left out."""
    files = lines = size = 0
    for path in child.SRC.rglob("*"):
        if (not path.is_file() or "__pycache__" in path.parts
                or path.suffix in (".pyc", ".so", ".o")):
            continue
        data = path.read_bytes()
        files += 1
        lines += data.count(b"\n")
        size += len(data)
    return {"files": files, "lines": lines, "bytes": size}


def end_to_end(work, loop, setup):
    n = len(loop["cpus"])
    cpu_tail, pct, _ = tail(loop["cpus"])
    wall_tail, _, _ = tail(loop["walls"])
    metrics = {
        "cpu_p50_ms": statistics.median(loop["cpus"]) * 1e3,
        "cpu_tail_ms": cpu_tail * 1e3,
        "ops_per_cpu_s": n / sum(loop["cpus"]),
        "setup_s": setup[0],
        "peak_rss_mb": work.peak_rss_mb(),
    }
    wall = {
        "wall_p50_ms": statistics.median(loop["walls"]) * 1e3,
        "wall_tail_ms": wall_tail * 1e3,
        "wall_ops_per_s": n / loop["elapsed"],
        "wall_setup_s": setup[1],
    }
    aliases = {alias: [wall[src] * scale, unit]
               for alias, (src, scale, unit) in ALIASES[work.name].items()}
    return metrics, {"tail_percentile": round(pct, 1), "samples": n,
                     **wall, **aliases}


def per_layer(work, untraced, traced, deadline):
    snap = work.trace_snapshot()
    n = len(traced["walls"])
    out = {}
    for name, (calls, incl, self_s) in snap["stats"].items():
        out[f"{name}.ms"] = incl * 1e3 / n
        out[f"{name}.self_ms"] = self_s * 1e3 / n
        out[f"{name}.calls"] = calls / n
    untraced_ms = statistics.fmean(untraced["cpus"]) * 1e3
    traced_ms = statistics.fmean(traced["cpus"]) * 1e3
    out["trace.untraced_op_ms"] = untraced_ms
    out["trace.overhead_ms"] = traced_ms - untraced_ms
    out["trace.uncovered_ms"] = traced_ms - snap["covered_s"] * 1e3 / n
    out["cli.import_ms"], out["cli.import_sympy_ms"] = import_times_ms(
        deadline)
    out["cli.interpreter_floor_ms"] = interpreter_floor_ms(deadline)

    # Stage shares: self time per operation over the untraced operation.
    shares = sorted(((out[f"{name}.self_ms"] / untraced_ms, name)
                     for name in tracing.NAMES), reverse=True)
    report = {name: round(share, 4) for share, name in shares if share}
    report["(uncovered)"] = round(out["trace.uncovered_ms"] / untraced_ms, 4)
    report["(tracing overhead)"] = round(out["trace.overhead_ms"]
                                         / untraced_ms, 4)
    spans_path = child.OUT / f"spans-{work.name}.jsonl"
    with open(spans_path, "w") as fh:
        for span in snap["spans"]:
            fh.write(json.dumps(span) + "\n")
    return out, {"stage_share_of_untraced_op": report,
                 "absent": work.absent, "spans_file": spans_path.name,
                 "spans_dropped": snap["dropped"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    deadline = clock() + RUN_BUDGET_S

    if not (child.SRC / "cubiclifford" / "__init__.py").is_file():
        print(f"no package source under {child.SRC}", file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](args.workload, args.seed)
    try:
        if args.setup_only:
            work.setup()
            return 0
        setup = (None if args.trace
                 else setup_probe_s(args.workload, args.seed, deadline))
        work.setup()
        floor_ms = interpreter_floor_ms(deadline)
        cpu0 = time.process_time()
        if args.trace:
            untraced = closed_loop(work, args.seconds / 2, deadline)
            work.start_tracing()
            traced = closed_loop(work, args.seconds / 2, deadline)
            metrics, extra = per_layer(work, untraced, traced, deadline)
            units = PER_LAYER
            loops = (untraced, traced)
        else:
            loop = closed_loop(work, args.seconds, deadline)
            metrics, extra = end_to_end(work, loop, setup)
            units = END_TO_END
            loops = (loop,)
        cpu_s = time.process_time() - cpu0
    except Failure as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(lp["walls"]) for lp in loops)
    failed = sum(lp["failed"] for lp in loops)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "failed_frac": failed / attempted,
        "output_digest": loops[0]["digest"],
        "digest_consistent": len({lp["digest"] for lp in loops
                                  if lp["digest_complete"]}) <= 1,
        "interpreter_floor_ms": floor_ms,
        "benchmark_cpu_s": cpu_s,
        "loop_wall_s": sum(lp["elapsed"] for lp in loops),
        "src": source_size(),
        **extra, **work.extra(),
    }
    correct = failed == 0 and report["digest_consistent"]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
