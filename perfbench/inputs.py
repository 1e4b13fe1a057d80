"""Seeded inputs for every workload.

Process-per-call workloads (``verify_all``, ``cli``) draw their arguments
from fixed pools whose stdout was recorded in ``golden.json``; the run seed
only picks entries and their order, so every call can be checked
byte-for-byte.  In-process workloads (``fibers_*``, ``normal_forms``)
generate fresh inputs from the run seed and check them against the
mathematics instead of a recording.
"""

from __future__ import annotations

import random

PRIME = 13
POOL_SEED = "cubiclifford-perfbench-pool"
VERIFY_SEEDS = tuple(range(8))


def rng(seed, stream):
    """Independent, reproducible stream per (seed, purpose)."""
    return random.Random(f"{stream}:{seed}")


# -- plain-integer geometry, so pools can be built without the library ----


def _disc(a, b, c, d, p=PRIME):
    """D = (1/4)(ad - bc)^2 - (ac - b^2)(bd - c^2) over F_p."""
    quarter = pow(4, p - 2, p)
    return (quarter * (a * d - b * c) ** 2
            - (a * c - b * b) * (b * d - c * c)) % p


def _on_cubic(a, b, c, d, p=PRIME):
    return ((a * d - b * c) % p == 0 and (a * c - b * b) % p == 0
            and (b * d - c * c) % p == 0)


def _fiber(a, b, c, d, p=PRIME):
    """All (e, f) with e^2 = f^3 - 27 D(a, b, c, d)."""
    rhs_d = 27 * _disc(a, b, c, d, p)
    return [(e, f) for f in range(p) for e in range(p)
            if (e * e - f ** 3 + rhs_d) % p == 0]


def smooth_point(r, f_zero=False, p=PRIME):
    """D != 0 and a point of its (e, f) fiber: a 9-dim quotient."""
    while True:
        a, b, c, d = (r.randrange(p) for _ in range(4))
        if _disc(a, b, c, d, p):
            fib = [ef for ef in _fiber(a, b, c, d, p) if (ef[1] == 0) == f_zero]
            if fib:
                return (a, b, c, d) + r.choice(fib)


def degenerate_point(r, f_zero=False, p=PRIME):
    """D = 0 off the twisted cubic: also a 9-dim quotient."""
    while True:
        a, b, c, d = (r.randrange(p) for _ in range(4))
        if _disc(a, b, c, d, p) == 0 and not _on_cubic(a, b, c, d, p):
            fib = [ef for ef in _fiber(a, b, c, d, p) if (ef[1] == 0) == f_zero]
            return (a, b, c, d) + r.choice(fib)


def cubic_point(r, on_axis=False, p=PRIME):
    """A nonzero twisted-cubic point with e = f = 0: a 15-dim quotient."""
    while True:
        x0, x1 = r.randrange(p), r.randrange(p)
        if (x0 or x1) and (x0 * x1 == 0) == on_axis:
            return (x0 ** 3 % p, x0 * x0 * x1 % p, x0 * x1 * x1 % p,
                    x1 ** 3 % p, 0, 0)


def origin_point(r):
    return (0, 0, 0, 0, 0, 0)  # the 17-dim quotient


# stratum -> (quotient dim, irreducible dims over the closure)
EXPECTED = {
    "smooth": (9, (3,)),
    "degenerate": (9, (3,)),
    "cubic": (15, (1, 1, 1)),
    "origin": (17, (1,)),
}

# One cycle of (stratum, point maker) per fiber workload.  Points with
# f = 0, and cubic points on a coordinate axis, profile about twice as fast
# as the rest of their stratum; the mix keeps them in a fixed minority so
# each median is a time of the dominant class instead of jumping between
# classes from seed to seed.
FIBER_MIX = {
    "fibers_generic": (
        *[("smooth", smooth_point)] * 5,
        *[("degenerate", degenerate_point)] * 2,
        ("smooth", lambda r: smooth_point(r, f_zero=True)),
        *[("smooth", smooth_point)] * 5,
        *[("degenerate", degenerate_point)] * 2,
        ("degenerate", lambda r: degenerate_point(r, f_zero=True)),
    ),
    "fibers_singular": (
        *[("cubic", cubic_point)] * 4,
        ("cubic", lambda r: cubic_point(r, on_axis=True)),
        ("origin", origin_point),
    ),
}


def fiber_points(workload, seed, count):
    """(stratum, point, library seed) triples; the library seed drives the
    random central element and witness searches, so it varies per point."""
    r = rng(seed, workload)
    mix = FIBER_MIX[workload]
    out = []
    for i in range(count):
        stratum, make = mix[i % len(mix)]
        out.append((stratum, make(r), r.randrange(2 ** 16)))
    return out


def nf_corpus(seed, count=128, nterms=6, lo=16, hi=20):
    """Integer polynomials as {word: coeff}, words of degree lo..hi.

    The corpus is fixed and the seed only orders it: reduction cost per
    word is so heavy-tailed (the slowest 1 % of random words take about half
    the time) that a fresh sample per seed would make throughput a
    property of the sample.  A run cycles the corpus several times.
    """
    r = random.Random(POOL_SEED + ":normal_forms")
    out = []
    for _ in range(count):
        terms = {}
        while len(terms) < nterms:
            word = "".join(r.choice("xy") for _ in range(r.randint(lo, hi)))
            terms[word] = r.choice((-1, 1)) * r.randint(1, 9)
        out.append(terms)
    rng(seed, "normal_forms").shuffle(out)
    return out


# -- recorded CLI pools ----------------------------------------------------


def _poly_text(terms):
    return " + ".join(f"{c}*{w}" for w, c in terms.items())


def _pools():
    r = random.Random(POOL_SEED)
    polys = []
    for _ in range(40):
        terms = {}
        for _ in range(r.randint(1, 4)):
            terms["".join(r.choice("xy") for _ in range(r.randint(1, 13)))] = \
                r.choice((-1, 1)) * r.randint(1, 12)
        polys.append(_poly_text(terms))
    points = ([smooth_point(r) for _ in range(8)]
              + [degenerate_point(r) for _ in range(6)]
              + [cubic_point(r) for _ in range(9)] + [origin_point(r)])
    proj = [(1, b) for b in range(PRIME)] + [(0, 1)]
    triples = []
    for i in range(24):
        if i % 4 == 0:
            triples.append((r.choice(proj),) * 3)  # diagonal
        else:
            triples.append(tuple(r.choice(proj) for _ in range(3)))
    return polys, points, triples


def _csv(values):
    return ",".join(str(v) for v in values)


def cli_pool():
    """Every recorded CLI argument list, grouped by subcommand."""
    polys, points, triples = _pools()
    pr = ["--prime", str(PRIME)]
    return {
        # "--poly=" keeps a leading minus sign from reading as an option
        "nf": [["nf", *pr, f"--poly={t}"] for t in polys],
        "hilbert": [["hilbert", *pr]],
        "center-check": [["center-check", *pr]],
        "relation-check": [["relation-check", *pr]],
        "singular-check": [["singular-check", *pr, "--point", _csv(pt)]
                           for pt in points],
        "quotient": [["quotient", *pr, "--point", _csv(pt)] for pt in points],
        "point-module": [["point-module", *pr, "--triple",
                          ",".join(f"{x}:{y}" for x, y in tri)]
                         for tri in triples],
    }


def verify_all_argv(vseed):
    return ["verify-all", "--prime", str(PRIME), "--seed", str(vseed)]


def recorded_argvs():
    out = [verify_all_argv(s) for s in VERIFY_SEEDS]
    for group in cli_pool().values():
        out.extend(group)
    return out


def cli_script(seed, rounds):
    """Rounds of the seven subcommands, pool entries picked by the seed."""
    r = rng(seed, "cli")
    pool = cli_pool()
    return [r.choice(pool[name]) for _ in range(rounds) for name in pool]


def verify_all_script(seed):
    return [verify_all_argv(VERIFY_SEEDS[seed % len(VERIFY_SEEDS)])]


def key(argv):
    return " ".join(argv)
