"""Spans around calls into the library, recorded from outside it.

``install`` replaces each traced function wherever it is bound: in its
defining module, in every ``cubiclifford`` module that imported it by name,
and on its class for methods.  The library itself is not changed.  A
target that no longer exists is reported as absent, so the benchmark keeps
working when a later change removes or renames a layer.

Span times are CPU time of the traced process, like the end-to-end
metrics, so that a share of an operation is not inflated by whoever else
held the core.  Field arithmetic and the 2x2 helper of the dim-2 search are
never wrapped: they run millions of times and the wrapper would dominate
them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path in that module)
TARGETS = (
    ("rewrite.complete", "cubiclifford.rewrite", "complete"),
    ("rewrite.normal_form", "cubiclifford.rewrite",
     "RewriteSystem.normal_form"),
    ("rewrite.graded_dimension", "cubiclifford.rewrite",
     "RewriteSystem.graded_dimension"),
    ("rewrite._reduce_generic", "cubiclifford.rewrite", "_reduce_generic"),
    ("kernel.reduce_terms", "cubiclifford._kernel", "reduce_terms"),
    ("center.centrality_report", "cubiclifford.center", "centrality_report"),
    ("center.center_relation_residue", "cubiclifford.center",
     "center_relation_residue"),
    ("findim.build_quotient", "cubiclifford.findim", "build_quotient"),
    ("findim.check_unit_and_associativity", "cubiclifford.findim",
     "check_unit_and_associativity"),
    ("findim.reduce_center_images", "cubiclifford.findim",
     "reduce_center_images"),
    ("findim.FinDimAlgebra.mul_vec", "cubiclifford.findim",
     "FinDimAlgebra.mul_vec"),
    ("linalg.rref", "cubiclifford.linalg", "rref"),
    ("linalg.rank", "cubiclifford.linalg", "rank"),
    ("linalg.kernel", "cubiclifford.linalg", "kernel"),
    ("repthy.full_gram", "cubiclifford.repthy", "full_gram"),
    ("repthy.radical", "cubiclifford.repthy", "radical"),
    ("repthy.wedderburn_blocks", "cubiclifford.repthy", "wedderburn_blocks"),
    ("repthy.search_irreps_dim1", "cubiclifford.repthy", "search_irreps_dim1"),
    ("repthy.search_irreps_dim2", "cubiclifford.repthy", "search_irreps_dim2"),
    ("disc.locus_profile", "cubiclifford.disc", "locus_profile"),
    ("disc.v_ell_membership", "cubiclifford.disc", "v_ell_membership"),
    ("disc.modified_gram_check", "cubiclifford.disc", "modified_gram_check"),
    ("disc.sample_locus", "cubiclifford.disc", "sample_locus"),
    ("pointmod.solve_next", "cubiclifford.pointmod", "solve_next"),
)

NAMES = tuple(name for name, _, _ in TARGETS)


class Tracer:
    """Spans (id, parent id, name, start, end) kept in memory up to
    ``keep``; per-name totals are kept for every span."""

    def __init__(self, keep=20000):
        self.keep = keep
        self.spans = []
        self.dropped = 0
        # name -> [calls, inclusive seconds, self seconds]
        self.stats = {name: [0, 0.0, 0.0] for name in NAMES}
        self.covered_s = 0.0  # time inside at least one span
        self._stack = []  # [span id, seconds spent in child spans]
        self._active = dict.fromkeys(NAMES, 0)
        self._next_id = 0

    def wrap(self, name, fn):
        stack, stats, active = self._stack, self.stats[name], self._active
        clock = time.process_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                active[name] -= 1
                stats[0] += 1
                if not active[name]:  # count re-entered time once
                    stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                else:
                    self.covered_s += dur
                if len(self.spans) < self.keep:
                    self.spans.append((sid, parent, name, start, end))
                else:
                    self.dropped += 1

        return traced

    def snapshot(self):
        return {"stats": self.stats, "covered_s": self.covered_s,
                "spans": self.spans, "dropped": self.dropped}


def _resolve(modname, path):
    try:
        owner = importlib.import_module(modname)
    except ImportError:
        return None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    return owner, getattr(owner, attr, None)


def install(tracer):
    """Wrap every target; returns the names of targets that are absent."""
    absent = []
    for name, modname, path in TARGETS:
        owner, orig = _resolve(modname, path)
        if orig is None:
            absent.append(name)
            continue
        wrapped = tracer.wrap(name, orig)
        if "." in path:  # a method: the class is its only binding
            setattr(owner, path.rsplit(".", 1)[1], wrapped)
            continue
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("cubiclifford"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)
    return absent


def merge(total, part, keep=20000):
    """Add one snapshot into another, keeping at most ``keep`` spans."""
    for name, (calls, incl, self_s) in part["stats"].items():
        acc = total["stats"].setdefault(name, [0, 0.0, 0.0])
        acc[0] += calls
        acc[1] += incl
        acc[2] += self_s
    total["covered_s"] += part["covered_s"]
    room = max(keep - len(total["spans"]), 0)
    total["spans"].extend(part["spans"][:room])
    total["dropped"] += part["dropped"] + max(len(part["spans"]) - room, 0)
    return total


def empty():
    return {"stats": {name: [0, 0.0, 0.0] for name in NAMES},
            "covered_s": 0.0, "spans": [], "dropped": 0}
