"""End-to-end acceptance checks.

One test per headline claim; each prints a single PASS/FAIL line so the
run log doubles as a verification report.
"""

import json
import random

import pytest

from cubiclifford.center import (center_relation_residue, centrality_report)
from cubiclifford.cli import main as cli_main
from cubiclifford.commgeo import (central_point, delta_partials,
                                  on_twisted_cubic, twisted_cubic_point)
from cubiclifford.disc import sample_locus, sample_points, trichotomy_holds
from cubiclifford.freealg import NcPoly
from cubiclifford.pointmod import (PointTriple, abc_system_admits_solution,
                                   all_proj_points,
                                   central_character_diagonal,
                                   gamma_invariants,
                                   gamma_squared_identity_symbolic,
                                   predict_simple_quotient, solve_next)
from cubiclifford.commgeo import singular_locus_membership
from cubiclifford.repthy import (dim2_certificate, search_irreps_dim1,
                                 search_irreps_dim2)
from cubiclifford.rewrite import hilbert_oracle


def report(capsys, number, ok, text):
    with capsys.disabled():
        print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, text


def test_criterion_01_hilbert_series(capsys, system13):
    ok = all(system13.graded_dimension(n) == hilbert_oracle(n)
             for n in range(14))
    report(capsys, 1, ok,
           "graded dimensions 0..13 match 1/((1-t)^5 (1+t) (1+t+t^2)^2)")


def test_criterion_02_confluence(capsys, system13, f13):
    ok = True
    leads = [r.lead for r in system13.rules]
    for r1 in system13.rules:
        for r2 in system13.rules:
            l1, l2 = r1.lead, r2.lead
            for k in range(1, min(len(l1), len(l2))):
                if not l1.endswith(l2[:k]):
                    continue
                if len(l1) + len(l2) - k > 13:
                    continue
                via1 = r1.tail.mul(NcPoly.word(f13, l2[k:]))
                via2 = NcPoly.word(f13, l1[:len(l1) - k]).mul(r2.tail)
                ok = ok and system13.normal_form(via1.sub(via2)).is_zero()
    report(capsys, 2, ok,
           f"all overlap ambiguities of {len(leads)} rules resolve to 0 "
           "through degree 13")


def test_criterion_03_centrality(capsys, system11, system13, system31,
                                system_rational):
    systems = (system11, system13, system31, system_rational)
    reps = [centrality_report(s, s.field) for s in systems]
    ok = all(all(r.values()) for r in reps)
    report(capsys, 3, ok,
           "z0..z5 commute with both generators over F_11, F_13, F_31 and Q")


def test_criterion_04_center_relation(capsys, system11, system13, system31,
                                      system_rational):
    systems = (system11, system13, system31, system_rational)
    ok = all(center_relation_residue(s, s.field).is_zero() for s in systems)
    report(capsys, 4, ok,
           "z4^2 = z5^3 - 27*Delta holds over F_11, F_13, F_31 and Q")


def test_criterion_05_singular_locus(capsys, f13, f31):
    ok = True
    rng = random.Random(2024)
    for F in (f13, f31):
        parts = delta_partials(F)
        for _ in range(20):
            x0, x1 = rng.randrange(F.p), rng.randrange(F.p)
            if (x0, x1) == (0, 0):
                x0 = 1
            pt = twisted_cubic_point(F, x0, x1)
            ok = ok and all(p.evaluate(list(pt)) == F.zero for p in parts)
    # exhaustive converse over F_13^4: every common zero of the partials
    # lies on the cone over the twisted cubic
    p = 13
    inv2, th = pow(2, p - 2, p), 3 * pow(2, p - 2, p) % p
    for z0 in range(p):
        for z1 in range(p):
            for z2 in range(p):
                for z3 in range(p):
                    if ((-th * z1 * z2 * z3 + inv2 * z0 * z3 * z3 + z2 ** 3) % p
                            or (-th * z0 * z2 * z3 - th * z1 * z2 * z2
                                + 3 * z1 * z1 * z3) % p
                            or (-th * z0 * z1 * z3 - th * z1 * z1 * z2
                                + 3 * z0 * z2 * z2) % p
                            or (-th * z0 * z1 * z2 + inv2 * z0 * z0 * z3
                                + z1 ** 3) % p):
                        continue
                    ok = ok and on_twisted_cubic(f13, z0, z1, z2, z3)
    report(capsys, 5, ok,
           "partials vanish on 20 cubic points per field and, over F_13^4, "
           "only on the cone over the twisted cubic")


def test_criterion_06_no_dim2_irreps(capsys, f7, f11, f13, rationals):
    ok = dim2_certificate(rationals) and all(
        search_irreps_dim2(F)["irreducible_pairs"] == []
        for F in (f7, f11, f13))
    report(capsys, 6, ok,
           "no 2-dimensional irreducible representation, in every "
           "characteristic (certificate) and by exhaustive sweeps over F_7, "
           "F_11 and F_13")


def test_criterion_07_fiber_dimensions(capsys, f11, f13, f31):
    from cubiclifford.disc import locus_profile
    ok = True
    for F in (f11, f13, f31):
        smooth = sample_points(F, n_per_stratum=20, seed=7)["smooth"]
        for pt in smooth:
            prof = locus_profile(F, pt)
            ok = ok and prof.algebra.dim == 9
            ok = ok and prof.gram_rank == 9
            ok = ok and prof.irrep_dims == (3,)
    # over the closure three 1-dim irreducibles; gcd(3, p - 1) of them
    # are F_p-rational: 1 over F_11, 3 over F_13
    for F, rational in ((f11, 1), (f13, 3)):
        for pt in sample_points(F, n_per_stratum=10, seed=7)["cubic"]:
            prof = locus_profile(F, pt)
            ok = ok and prof.irrep_dims == (1, 1, 1)
            ok = ok and len(search_irreps_dim1(F, pt)) == rational
    origin = central_point(f13, 0, 0, 0, 0, 0, 0)
    ok = ok and search_irreps_dim1(f13, origin) == [(0, 0)]
    report(capsys, 7, ok,
           "smooth fibers: dim 9, trivial radical, one 3x3 block, Gram rank "
           "9; cubic points: three 1-dim irreducibles over the closure, of "
           "which gcd(3, p - 1) are rational (one at the origin)")


def test_criterion_08_point_sequences(capsys, f7, f13, f31):
    ok = gamma_squared_identity_symbolic()
    pts7 = all_proj_points(f7)
    for p0 in pts7:
        for p1 in pts7:
            for p2 in pts7:
                t = PointTriple(p0, p1, p2)
                ok = ok and solve_next(f7, t) == p0
    rng = random.Random(88)
    for F in (f13, f31):
        pts = all_proj_points(F)
        for _ in range(200):
            t = PointTriple(*(rng.choice(pts) for _ in range(3)))
            ok = ok and solve_next(F, t) == t.p0
            inv = gamma_invariants(F, t)
            ok = ok and F.of(inv["gamma"] * inv["gamma"]) == \
                F.of(inv["X"] * inv["Y"] * inv["Z"])
    report(capsys, 8, ok,
           "point sequences are 3-periodic (all 512 F_7 triples, 200 random "
           "each over F_13/F_31) and gamma^2 = XYZ symbolically and "
           "numerically")


def test_criterion_09_simple_quotients(capsys, f13):
    ok = True
    for p in all_proj_points(f13):
        t = PointTriple(p, p, p)
        ok = ok and predict_simple_quotient(f13, t) == {1}
        ok = ok and singular_locus_membership(
            f13, central_character_diagonal(f13, p))
    rng = random.Random(99)
    pts = all_proj_points(f13)
    checked = 0
    while checked < 50:
        t = PointTriple(*(rng.choice(pts) for _ in range(3)))
        if t.is_diagonal():
            continue
        ok = ok and predict_simple_quotient(f13, t) == {0, 3}
        ok = ok and not abc_system_admits_solution(f13, t)
        checked += 1
    report(capsys, 9, ok,
           "diagonal triples: simple quotient dim {1} with singular central "
           "character; 50 non-diagonal triples admit no 1-dim quotient")


def test_criterion_10_discriminant_trichotomy(capsys, f13):
    rep = sample_locus(f13, ells=list(range(1, 13)), n_per_stratum=5,
                       seed=7)
    ok = trichotomy_holds(rep, 5)
    report(capsys, 10, ok,
           "zero sets of the modified discriminant ideals: empty for ell<=3,"
           " the singular stratum for 4<=ell<=9, everything for ell>9; both "
           "membership criteria and the modified-Gram witness agree")


def test_criterion_11_cli_determinism(capsys):
    outs = []
    codes = []
    for _ in range(2):
        codes.append(cli_main(["verify-all", "--prime", "13", "--seed", "0"]))
        outs.append(capsys.readouterr().out)
    ok = (codes == [0, 0] and outs[0] == outs[1]
          and json.loads(outs[0])["ok"])
    report(capsys, 11, ok,
           "verify-all exits 0 and its JSON output is byte-identical across "
           "repeated runs")
