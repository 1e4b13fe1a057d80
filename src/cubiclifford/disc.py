"""Discriminant-ideal zero sets, evaluated pointwise at central maximal
ideals, and the trichotomy over a stratified point sample.

Membership of a point in the zero set of the ell-th (modified)
discriminant ideal is decided two independent ways per verdict: the sum
of squared irreducible dimensions must be < ell, and ell must exceed the
full-basis Gram rank of the regular trace form.  The two criteria are
required to agree; disagreement is surfaced, never patched over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .commgeo import (CentralPoint, CubicForm, central_point,
                      discriminant_value, enumerate_center_fiber,
                      twisted_cubic_point)
from .errors import CriterionMismatch
from .findim import FinDimAlgebra, build_quotient
from .linalg import Matrix, det, rank
from .repthy import BlockStructure, full_gram, wedderburn_blocks


@dataclass
class LocusVerdict:
    point: CentralPoint
    ell: int
    member: bool
    gram_rank: int
    irrep_dims: tuple


@dataclass
class LocusProfile:
    """Per-point data shared by all ell: the quotient, its irreducible
    dimensions over the closure, the trace-form rank, and the Wedderburn
    blocks the dimensions come from."""
    point: CentralPoint
    algebra: FinDimAlgebra
    irrep_dims: tuple
    gram_rank: int
    sum_squares: int
    blocks: BlockStructure


def locus_profile(field, point: CentralPoint, seed: int = 0) -> LocusProfile:
    alg = build_quotient(field, point)
    blocks = wedderburn_blocks(alg, seed=seed)
    dims = tuple(blocks.irrep_dims())
    g_rank = rank(_cached_gram(alg))
    return LocusProfile(point, alg, dims, g_rank, sum(d * d for d in dims),
                        blocks)


def v_ell_membership(field, point: CentralPoint, ell: int,
                     profile: LocusProfile | None = None) -> LocusVerdict:
    if ell < 1:
        raise ValueError("ell must be positive")
    prof = profile or locus_profile(field, point)
    by_dims = prof.sum_squares < ell
    by_rank = ell > prof.gram_rank
    if by_dims != by_rank:
        raise CriterionMismatch(
            f"irrep-sum criterion ({by_dims}) disagrees with Gram-rank "
            f"criterion ({by_rank}) at {point} for ell={ell}")
    return LocusVerdict(point=point, ell=ell, member=by_dims,
                        gram_rank=prof.gram_rank, irrep_dims=prof.irrep_dims)


def modified_gram_check(alg: FinDimAlgebra, ell: int, trials: int = 50,
                        seed: int = 0) -> bool:
    """Search seeded random ell-tuples (y_i), (y_j') for a nonzero
    det[tr(y_i y_j')]; True iff one is found.  Agrees with the negation
    of membership when the sampling finds a witness (rank >= ell)."""
    F = alg.field
    p, dim = F.p, alg.dim
    rng = random.Random(seed)
    G = _cached_gram(alg)
    for _ in range(trials):
        # randrange(p) is already a residue in [0, p)
        Y = Matrix(F, [[rng.randrange(p) for _ in range(dim)]
                       for _ in range(ell)])
        Yp = Matrix(F, [[rng.randrange(p) for _ in range(dim)]
                        for _ in range(ell)])
        # tr(y y') is the Gram bilinear form, so the pair matrix is Y G Y'^T
        if det(Y.mul(G).mul(Yp.transpose())) != F.zero:
            return True
    return False


def _cached_gram(alg: FinDimAlgebra):
    g = getattr(alg, "_full_gram", None)
    if g is None:
        g = full_gram(alg)
        alg._full_gram = g
    return g


def sample_points(field, n_per_stratum: int = 20, seed: int = 0):
    """Stratified central points: twisted-cubic points with (e,f)=(0,0),
    smooth points with D != 0, and (when found) D = 0 points off the
    cubic, each with a fiber point."""
    F = field
    rng = random.Random(seed)
    cubic = []
    params = [(1, t) for t in range(n_per_stratum - 1)] + [(0, 1)]
    for x0, x1 in params[:n_per_stratum]:
        a, b, c, d = twisted_cubic_point(F, x0, x1)
        cubic.append(central_point(F, a, b, c, d, 0, 0))

    smooth = []
    guard = 0
    while len(smooth) < n_per_stratum and guard < 10000:
        guard += 1
        a, b, c, d = (rng.randrange(F.p) for _ in range(4))
        if discriminant_value(F, CubicForm(*(F.of(v) for v in (a, b, c, d)))) == F.zero:
            continue
        fiber = enumerate_center_fiber(F, a, b, c, d)
        if not fiber:
            continue
        smooth.append(fiber[0])

    degenerate = []  # D = 0 but off the twisted cubic
    guard = 0
    from .commgeo import on_twisted_cubic
    while len(degenerate) < n_per_stratum and guard < 20000:
        guard += 1
        a, b, c, d = (rng.randrange(F.p) for _ in range(4))
        if discriminant_value(F, CubicForm(*(F.of(v) for v in (a, b, c, d)))) != F.zero:
            continue
        if on_twisted_cubic(F, a, b, c, d):
            continue
        fiber = enumerate_center_fiber(F, a, b, c, d)
        if not fiber:
            continue
        degenerate.append(fiber[0])

    return {"cubic": cubic, "smooth": smooth, "degenerate": degenerate}


def sample_locus(field, ells, n_per_stratum: int = 10, seed: int = 0,
                 check_modified: bool = False, trials: int = 50):
    """Membership counts per stratum for each ell; optionally also runs
    the modified-Gram sampling and asserts agreement (with one reseed on
    a failed witness search before reporting a mismatch)."""
    strata = sample_points(field, n_per_stratum, seed)
    profiles = {
        name: [locus_profile(field, pt, seed=seed) for pt in pts]
        for name, pts in strata.items()
    }
    report = {}
    for ell in ells:
        per = {}
        for name, profs in profiles.items():
            members = 0
            for prof in profs:
                verdict = v_ell_membership(field, prof.point, ell, prof)
                if check_modified:
                    found = modified_gram_check(prof.algebra, ell,
                                                trials=trials, seed=seed)
                    if not found and not verdict.member:
                        found = modified_gram_check(prof.algebra, ell,
                                                    trials=trials,
                                                    seed=seed + 1)
                    if found != (not verdict.member):
                        raise CriterionMismatch(
                            f"modified-Gram sampling disagrees at "
                            f"{prof.point}, ell={ell}")
                members += verdict.member
            per[name] = {"members": members, "total": len(profs)}
        report[ell] = per
    return report
