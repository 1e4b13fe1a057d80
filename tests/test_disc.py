import random
from operator import mul

import pytest

from cubiclifford import disc
from cubiclifford.commgeo import (central_point, discriminant_value,
                                  enumerate_center_fiber, on_twisted_cubic)
from cubiclifford.disc import (locus_profile, modified_gram_check,
                               sample_locus, sample_points, trichotomy_holds,
                               v_ell_membership)
from cubiclifford.errors import CriterionMismatch
from cubiclifford.fields import make_field
from cubiclifford.findim import build_quotient
from cubiclifford.linalg import det
from cubiclifford.repthy import full_gram


def _randrange(rng, p, n):
    """n successive values of rng.randrange(p), drawn the way CPython's
    randrange draws them (rejection sampling on getrandbits of p's bit
    length) without its per-call argument handling; the pinned witness
    counts below fail if the sequence ever differs."""
    k, bits = p.bit_length(), rng.getrandbits
    out = []
    while len(out) < n:
        r = bits(k)
        if r < p:
            out.append(r)
    return out


def _extend_echelon(echelon, row, p):
    """Reduce row against the echelon rows (pivot column, row with a 1
    there) and append it; False, leaving echelon as it was, if it reduces
    to zero, i.e. depends on the rows before it."""
    for pc, e in echelon:
        f = row[pc]
        if f:
            row = [(a - f * b) % p for a, b in zip(row, e)]
    pc = next((j for j, a in enumerate(row) if a), None)
    if pc is None:
        return False
    inv = pow(row[pc], p - 2, p)
    echelon.append((pc, [a * inv % p for a in row]))
    return True


def random_gram_search(alg, ell, trials=50, seed=0):
    """Oracle, the library's former witness search: search seeded random
    ell-tuples (y_i), (y_j') for a nonzero det[tr(y_i y_j')]; True iff
    one is found within the trial budget.

    tr(y y') is the Gram bilinear form, so the pair matrix is Y G Y'^T.
    Its rank is at most that of Y G, so a trial stops at the first row of
    Y G that depends on the rows before it.  Every trial draws all of Y,
    then all of Y', wherever it stops."""
    F = alg.field
    p, dim = F.p, alg.dim
    rng = random.Random(seed)
    gcols = list(zip(*full_gram(alg)))
    for _ in range(trials):
        Y = [_randrange(rng, p, dim) for _ in range(ell)]
        Yp = [_randrange(rng, p, dim) for _ in range(ell)]
        YG, echelon = [], []
        for y in Y:
            YG.append([sum(map(mul, y, c)) % p for c in gcols])
            if not _extend_echelon(echelon, YG[-1], p):
                break
        else:
            pairs = [F.reduce_row([sum(map(mul, r, yp)) for yp in Yp])
                     for r in YG]
            if det(F, pairs) != F.zero:
                return True
    return False


@pytest.fixture(scope="module")
def smooth_profile(f13):
    return locus_profile(f13, enumerate_center_fiber(f13, 1, 0, 0, 1)[0])


@pytest.fixture(scope="module")
def cubic_profile(f13):
    return locus_profile(f13, central_point(f13, 1, 1, 1, 1, 0, 0))


def test_smooth_profile_numbers(smooth_profile):
    assert smooth_profile.irrep_dims == (3,)
    assert smooth_profile.sum_squares == 9
    assert smooth_profile.gram_rank == 9


def test_cubic_profile_numbers(cubic_profile):
    assert cubic_profile.irrep_dims == (1, 1, 1)
    assert cubic_profile.sum_squares == 3
    assert cubic_profile.gram_rank == 3


def test_membership_trichotomy_smooth(f13, smooth_profile):
    pt = smooth_profile.point
    for ell in range(1, 10):
        assert not v_ell_membership(f13, pt, ell, smooth_profile).member
    for ell in (10, 11, 12):
        assert v_ell_membership(f13, pt, ell, smooth_profile).member


def test_membership_trichotomy_cubic(f13, cubic_profile):
    pt = cubic_profile.point
    for ell in (1, 2, 3):
        assert not v_ell_membership(f13, pt, ell, cubic_profile).member
    for ell in (4, 6, 9, 12):
        assert v_ell_membership(f13, pt, ell, cubic_profile).member


def test_membership_rejects_bad_ell(f13, smooth_profile):
    with pytest.raises(ValueError):
        v_ell_membership(f13, smooth_profile.point, 0, smooth_profile)


def test_modified_gram_matches_rank(smooth_profile, cubic_profile):
    # witnesses exist exactly up to the Gram rank
    assert modified_gram_check(smooth_profile.algebra, 9)
    assert not modified_gram_check(smooth_profile.algebra, 10)
    assert modified_gram_check(cubic_profile.algebra, 3)
    assert not modified_gram_check(cubic_profile.algebra, 4)


def test_sample_points_strata(f13):
    strata = sample_points(f13, n_per_stratum=5, seed=0)
    assert len(strata["cubic"]) == 5
    assert len(strata["smooth"]) == 5
    assert len(strata["degenerate"]) == 5
    assert all(p.e == 0 and p.f == 0 for p in strata["cubic"])
    # the projective parametrization never yields the origin
    assert all(any(c != 0 for c in p.coords()) for p in strata["cubic"])


def test_sample_points_full_strata_at_large_prime():
    # a random form has D = 0 with probability about 1/p, so the
    # degenerate points are built as l^2 m rather than found by search
    F = make_field("prime", 100003)
    strata = sample_points(F, n_per_stratum=3, seed=0)
    assert [len(strata[k]) for k in ("cubic", "smooth", "degenerate")] \
        == [3, 3, 3]
    for pt in strata["degenerate"]:
        abcd = pt.coords()[:4]
        assert discriminant_value(F, *abcd) == F.zero
        assert not on_twisted_cubic(F, *abcd)
        assert pt.e == pt.f == F.zero
    assert all(discriminant_value(F, *pt.coords()[:4]) != F.zero
               for pt in strata["smooth"])


@pytest.mark.parametrize("n", [0, -1])
def test_sample_points_rejects_empty_strata(f7, n):
    # a count below 1 would make every stratum vacuous, and a negative one
    # never stops drawing smooth points
    with pytest.raises(ValueError, match="n_per_stratum"):
        sample_points(f7, n)
    with pytest.raises(ValueError, match="n_per_stratum"):
        sample_locus(f7, ells=[3], n_per_stratum=n)


def test_sample_locus_report(f13):
    report = sample_locus(f13, ells=[3, 6, 12], n_per_stratum=3, seed=0)
    assert report[3]["cubic"]["members"] == 0
    assert report[3]["smooth"]["members"] == 0
    assert report[6]["cubic"]["members"] == 3
    assert report[6]["smooth"]["members"] == 0
    assert report[12]["cubic"]["members"] == 3
    assert report[12]["smooth"]["members"] == 3


def _synthetic_report(cubic, smooth, degenerate):
    """A report for ell in {3, 5, 12} on strata of these sizes, with the
    members the trichotomy asks for: none at ell = 3, the cubic stratum
    alone at ell = 5, every point at ell = 12."""
    totals = {"cubic": cubic, "smooth": smooth, "degenerate": degenerate}
    members = {3: {"cubic": 0, "smooth": 0, "degenerate": 0},
               5: {"cubic": cubic, "smooth": 0, "degenerate": 0},
               12: totals}
    return {ell: {name: {"members": per[name], "total": totals[name]}
                  for name in totals}
            for ell, per in members.items()}


def test_trichotomy_verdict():
    full = _synthetic_report(3, 3, 3)
    assert trichotomy_holds(full, 3)
    full[5]["smooth"]["members"] = 1
    assert not trichotomy_holds(full, 3)


def test_trichotomy_fails_on_an_empty_stratum():
    # 0 of 0 degenerate points: "none" at ell = 3 and "all" at ell = 12
    # both hold vacuously
    report = _synthetic_report(3, 3, 0)
    assert not trichotomy_holds(report, 3)


def test_trichotomy_fails_on_a_short_stratum():
    report = _synthetic_report(3, 3, 2)
    assert not trichotomy_holds(report, 3)
    assert trichotomy_holds(report, 2)


def test_sample_locus_with_modified_gram(f13):
    report = sample_locus(f13, ells=[2, 5, 11], n_per_stratum=2, seed=0)
    assert report[2]["smooth"]["members"] == 0
    assert report[5]["cubic"]["members"] == 2
    assert report[11]["smooth"]["members"] == 2


def test_sample_locus_always_checks_the_witness(f13, monkeypatch):
    # every point is a member at ell = 12; a witness claimed there must
    # surface as a mismatch
    monkeypatch.setattr(disc, "modified_gram_check", lambda alg, ell: True)
    with pytest.raises(CriterionMismatch):
        sample_locus(f13, ells=[12], n_per_stratum=1, seed=0)


def test_degenerate_stratum_behaves_like_smooth(f13):
    strata = sample_points(f13, n_per_stratum=3, seed=1)
    for pt in strata["degenerate"]:
        prof = locus_profile(f13, pt)
        assert prof.sum_squares == prof.gram_rank


def test_criterion_mismatch_is_raised_on_inconsistent_profile(f13,
                                                             smooth_profile):
    from cubiclifford.disc import LocusProfile
    broken = LocusProfile(smooth_profile.point, smooth_profile.algebra,
                          (3,), 5, 9, smooth_profile.blocks)
    with pytest.raises(CriterionMismatch):
        v_ell_membership(f13, broken.point, 7, broken)


def _first_witness_trial(alg, ell, seed):
    """Smallest trial budget for which the witness search succeeds."""
    return next(t for t in range(1, 51)
                if random_gram_search(alg, ell, trials=t, seed=seed))


def test_modified_gram_witness_draws_pinned(smooth_profile, cubic_profile):
    # recorded before the matrices were built from plain residues; the
    # same seeded draws must find the same witnesses
    cases = [(smooth_profile, 3, [1] * 10),
             (smooth_profile, 9, [1, 1, 2, 1, 1, 2, 2, 1, 1, 2]),
             (cubic_profile, 3, [1, 1, 2, 1, 1, 1, 1, 1, 1, 1])]
    for prof, ell, expected in cases:
        assert [_first_witness_trial(prof.algebra, ell, seed)
                for seed in range(10)] == expected


def test_modified_gram_check_agrees_with_random_oracle(f13):
    # every (fiber, ell) pair of acceptance criterion 10: the random
    # search finds a witness wherever the exact check does, and none in
    # 40 trials plus one reseed wherever it reports none
    strata = sample_points(f13, n_per_stratum=5, seed=7)
    for pt in [pt for pts in strata.values() for pt in pts]:
        alg = build_quotient(f13, pt)
        for ell in range(1, 13):
            if modified_gram_check(alg, ell):
                assert random_gram_search(alg, ell, trials=40, seed=7)
            else:
                assert not random_gram_search(alg, ell, trials=40, seed=7)
                assert not random_gram_search(alg, ell, trials=40, seed=8)


def test_modified_gram_check_rejects_overstated_gram(cubic_profile,
                                                     monkeypatch):
    # the cubic fiber's G has rank 3; an identity in its place claims a
    # witness at ell = 4, and the rebuilt 4 x 4 determinant refutes it
    alg = cubic_profile.algebra
    monkeypatch.setattr(alg, "_full_gram", alg.basis_vectors())
    with pytest.raises(CriterionMismatch):
        modified_gram_check(alg, 4)
