"""Discriminant-ideal zero sets, evaluated pointwise at central maximal
ideals, and the trichotomy over a stratified point sample.

Membership of a point in the zero set of the ell-th modified
discriminant ideal MD_ell (Brown-Yakimov, Adv. Math. 340, 2018) is
decided three independent ways, and the routes are required to agree;
disagreement raises CriterionMismatch, it is never patched over:

- the sum of squared irreducible dimensions (Wedderburn) is < ell;
- ell exceeds the full-basis Gram rank of the regular trace form;
- no explicit witness exists: for ell <= rank G, ell basis elements
  y_i = b_r and y'_j = b_c at a nonsingular pivot minor of G give
  det[tr(y_i y'_j)] != 0, rebuilt from products and traces rather than
  read from G; for ell > rank G none can exist, since
  rank(Y G Y'^T) <= rank G.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from operator import mul

from .commgeo import (CentralPoint, central_point, discriminant_value,
                      enumerate_center_fiber, twisted_cubic_point)
from .errors import CriterionMismatch
from .findim import FinDimAlgebra, build_quotient
from .linalg import det, rank, rref
from .repthy import (BlockStructure, full_gram, trace_vector,
                     wedderburn_blocks)


@dataclass
class LocusVerdict:
    member: bool


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
    g_rank = rank(field, full_gram(alg))
    return LocusProfile(point, alg, dims, g_rank, blocks.sum_squares(),
                        blocks)


def v_ell_membership(field, point: CentralPoint, ell: int,
                     profile: LocusProfile) -> LocusVerdict:
    if ell < 1:
        raise ValueError("ell must be positive")
    by_dims = profile.sum_squares < ell
    by_rank = ell > profile.gram_rank
    if by_dims != by_rank:
        raise CriterionMismatch(
            f"irrep-sum criterion ({by_dims}) disagrees with Gram-rank "
            f"criterion ({by_rank}) at {point} for ell={ell}")
    return LocusVerdict(by_dims)


def modified_gram_check(alg: FinDimAlgebra, ell: int, seed: int = 0) -> bool:
    """True iff some ell-tuples (y_i), (y'_j) give det[tr(y_i y'_j)] != 0,
    i.e. the point is off the zero set of MD_ell.  Exact: False when ell
    exceeds the Gram rank (no witness can exist), otherwise the witness
    of basis elements at a nonsingular ell x ell minor of G, whose
    determinant is recomputed from alg.mul_vec and the trace; a zero
    determinant there raises CriterionMismatch.  ``seed`` is accepted for
    older callers and ignored: nothing is drawn."""
    F = alg.field
    G = full_gram(alg)
    rows = rref(F, list(zip(*G)))[1]  # independent rows of G
    if ell > len(rows):
        return False
    rows = rows[:ell]
    cols = rref(F, [G[r] for r in rows])[1]
    basis, tv = alg.basis_vectors(), trace_vector(alg)
    # tr(y y') is the coordinate vector of the product dotted with tv
    pairs = [F.reduce_row([sum(map(mul, alg.mul_vec(basis[r], basis[c]), tv))
                           for c in cols]) for r in rows]
    if det(F, pairs) == F.zero:
        raise CriterionMismatch(
            f"the Gram minor at rows {rows}, columns {cols} is singular when "
            f"rebuilt from products and traces (ell={ell})")
    return True


def sample_points(field, n_per_stratum: int = 20, seed: int = 0):
    """Stratified central points: twisted-cubic points with (e,f)=(0,0),
    smooth points with D != 0, each with a fiber point, and D = 0 points
    off the cubic with (e,f)=(0,0).  The last are the forms l^2 m, for
    independent linear forms l and m drawn at random: a double root and
    no triple root, at every p."""
    if n_per_stratum < 1:
        raise ValueError(f"n_per_stratum must be at least 1, not "
                         f"{n_per_stratum}")
    F = field
    rng = random.Random(seed)
    cubic = []
    params = [(1, t) for t in range(n_per_stratum - 1)] + [(0, 1)]
    for x0, x1 in params[:n_per_stratum]:
        a, b, c, d = twisted_cubic_point(F, x0, x1)
        cubic.append(central_point(F, a, b, c, d, 0, 0))

    smooth = []
    for _ in range(10000):
        if len(smooth) == n_per_stratum:
            break
        abcd = [rng.randrange(F.p) for _ in range(4)]
        if discriminant_value(F, *abcd) != F.zero:
            # e^2 = f^3 - 27 D has a point at every p >= 5 (Hasse)
            smooth.append(enumerate_center_fiber(F, *abcd)[0])

    degenerate = []
    third = F.inv(F.of(3))
    while len(degenerate) < n_per_stratum:
        l0, l1, m0, m1 = (rng.randrange(F.p) for _ in range(4))
        if F.of(l0 * m1 - l1 * m0) == F.zero:
            continue
        a, d = l0 * l0 * m0, l1 * l1 * m1
        b = (l0 * l0 * m1 + 2 * l0 * l1 * m0) * third
        c = (l1 * l1 * m0 + 2 * l0 * l1 * m1) * third
        degenerate.append(central_point(F, a, b, c, d, 0, 0))
    return {"cubic": cubic, "smooth": smooth, "degenerate": degenerate}


def sample_locus(field, ells, n_per_stratum: int = 10, seed: int = 0):
    """Membership counts per stratum for each ell.  Every verdict is also
    checked against the modified-Gram witness, and a disagreement raises
    CriterionMismatch."""
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
                if modified_gram_check(prof.algebra, ell) == verdict.member:
                    raise CriterionMismatch(
                        f"modified-Gram witness disagrees at "
                        f"{prof.point}, ell={ell}")
                members += verdict.member
            per[name] = {"members": members, "total": len(profs)}
        report[ell] = per
    return report


def trichotomy_holds(report, n_per_stratum: int) -> bool:
    """The trichotomy on a ``sample_locus`` report: no sampled point lies
    on the zero set of MD_ell for ell <= 3, exactly the twisted-cubic
    points do for 4 <= ell <= 9, and every point does for ell >= 10.
    False when a stratum holds fewer than ``n_per_stratum`` points, since
    "none" and "all" hold vacuously on an empty stratum."""
    for ell, per in report.items():
        for name, r in per.items():
            if r["total"] < n_per_stratum:
                return False
            everywhere = ell >= 10 or (ell > 3 and name == "cubic")
            if r["members"] != (r["total"] if everywhere else 0):
                return False
    return True
