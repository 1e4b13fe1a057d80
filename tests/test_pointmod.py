import itertools
import random
from operator import mul

import pytest

from cubiclifford import pointmod
from cubiclifford.commgeo import CommPoly, singular_locus_membership
from cubiclifford.errors import KernelDimensionUnexpected, ZeroPoint
from cubiclifford.freealg import NcPoly, clifford_relations
from cubiclifford.linalg import det
from cubiclifford.pointmod import (PointTriple, ProjPoint,
                                   abc_system_admits_solution,
                                   all_proj_points, central_character_diagonal,
                                   gamma_invariants,
                                   gamma_squared_identity_symbolic,
                                   predict_simple_quotient, proj_point,
                                   solve_next)


def test_proj_point_canonical(f13):
    assert proj_point(f13, 2, 6) == proj_point(f13, 1, 3)
    assert proj_point(f13, 0, 5) == proj_point(f13, 0, 1)
    with pytest.raises(ZeroPoint):
        proj_point(f13, 0, 0)


def test_all_proj_points_count(f7, f13):
    assert len(all_proj_points(f7)) == 8
    assert len(set(all_proj_points(f13))) == 14


def random_triple(field, rng):
    pts = all_proj_points(field)
    return PointTriple(*(rng.choice(pts) for _ in range(3)))


def test_solve_next_exhaustive_f7(f7):
    pts = all_proj_points(f7)
    for p0 in pts:
        for p1 in pts:
            for p2 in pts:
                t = PointTriple(p0, p1, p2)
                assert solve_next(f7, t) == p0


def test_solve_next_random_f13_f31(f13, f31):
    rng = random.Random(8)
    for F in (f13, f31):
        for _ in range(100):
            t = random_triple(F, rng)
            assert solve_next(F, t) == t.p0


def _hand_rows(t):
    """The step rows written out by hand from the three relations: the
    oracle for the rows `step_matrix` derives."""
    x0, y0, x1, y1, x2, y2 = t.p0.x, t.p0.y, t.p1.x, t.p1.y, t.p2.x, t.p2.y
    return [[x1 * x2 * y0, -x0 * x1 * x2],
            [x2 * y0 * y1 + x1 * y0 * y2, -(x0 * x2 * y1 + x0 * x1 * y2)],
            [y0 * y1 * y2, -x0 * y1 * y2]]


def test_step_matrix_equals_the_hand_rows(f7, f13):
    # entry for entry, not only in row space, at every triple
    for F in (f7, f13):
        for t in itertools.product(all_proj_points(F), repeat=3):
            t = PointTriple(*t)
            assert pointmod.step_matrix(F, t) == [
                F.reduce_row(r) for r in _hand_rows(t)], t


def test_generic_step_rows_annihilate_p0(rationals):
    # over Q[x0, y0, x1, y1, x2, y2], every row times (x0, y0) is zero
    v = [CommPoly.var(rationals, 6, i) for i in range(6)]
    t = PointTriple(*(ProjPoint(v[i], v[i + 1]) for i in (0, 2, 4)))
    rows = pointmod._step_rows(clifford_relations(rationals), t)
    assert len(rows) == 3
    for row in rows:
        assert not row[0].is_zero()
        assert (row[0] * v[0] + row[1] * v[1]).is_zero()


def test_a_wrong_relation_reaches_the_step_system(f7, monkeypatch):
    # the mixed relation with the sign of yyxx flipped breaks the step
    # system at 294 of the 512 triples, so the rows come from the relations
    def mutant(field):
        rels = clifford_relations(field)
        rels[1] = NcPoly(field, {"xxyy": 1, "xyxy": 1, "yxyx": -1,
                                 "yyxx": 1})
        return rels

    monkeypatch.setattr(pointmod, "clifford_relations", mutant)
    failures = 0
    for t in itertools.product(all_proj_points(f7), repeat=3):
        try:
            solve_next(f7, PointTriple(*t))
        except KernelDimensionUnexpected:
            failures += 1
    assert failures == 294


@pytest.mark.parametrize("rows, message", [
    ([[0, 0], [0, 0], [0, 0]], "kernel dimension 2"),
    ([[1, 0], [1, 0], [1, 0]], "differs from p0"),
], ids=["dimension-2", "not-p0"])
def test_solve_next_rejects_an_unexpected_kernel(f13, monkeypatch, rows,
                                                 message):
    monkeypatch.setattr(pointmod, "step_matrix", lambda field, t: rows)
    p = proj_point(f13, 1, 0)
    with pytest.raises(KernelDimensionUnexpected, match=message):
        solve_next(f13, PointTriple(p, p, p))


def test_validate_point_sequence(f13):
    rng = random.Random(9)
    t = random_triple(f13, rng)
    seq = [t.p0, t.p1, t.p2]
    for _ in range(5):
        seq.append(solve_next(
            f13, PointTriple(seq[-3], seq[-2], seq[-1])))
    assert all(seq[i + 3] == seq[i] for i in range(len(seq) - 3))


def test_gamma_squared_symbolic():
    assert gamma_squared_identity_symbolic()


def test_gamma_squared_numeric(f13, f31):
    rng = random.Random(10)
    for F in (f13, f31):
        for _ in range(50):
            inv = gamma_invariants(F, random_triple(F, rng))
            lhs = F.of(inv["gamma"] * inv["gamma"])
            rhs = F.of(inv["X"] * inv["Y"] * inv["Z"])
            assert lhs == rhs


def test_diagonal_triple_invariants_vanish(f13):
    p = proj_point(f13, 1, 4)
    inv = gamma_invariants(f13, PointTriple(p, p, p))
    assert inv["X"] == inv["Y"] == inv["Z"] == 0
    assert inv["gamma"] == 0


def test_abc_system_no_solution_off_diagonal(f13):
    rng = random.Random(11)
    checked = 0
    while checked < 50:
        t = random_triple(f13, rng)
        if t.is_diagonal():
            continue
        assert not abc_system_admits_solution(f13, t)
        checked += 1


def test_abc_system_diagonal(f13):
    p = proj_point(f13, 1, 2)
    assert abc_system_admits_solution(f13, PointTriple(p, p, p))


def test_predict_simple_quotient(f13):
    p, q = proj_point(f13, 1, 0), proj_point(f13, 0, 1)
    assert predict_simple_quotient(f13, PointTriple(p, p, p)) == {1}
    assert predict_simple_quotient(f13, PointTriple(p, p, q)) == {0, 3}


def test_diagonal_central_character_is_singular(f13):
    for p in all_proj_points(f13):
        ch = central_character_diagonal(f13, p)
        assert singular_locus_membership(f13, ch)


def test_distinct_diagonal_points_have_distinct_characters(f13):
    pts = all_proj_points(f13)
    chars = {central_character_diagonal(f13, p).coords() for p in pts}
    assert len(chars) == len(pts)


def test_gamma_invariants_exhaustive_f7(f7):
    # independent oracle at all 512 triples: X, Y, Z and the system
    # matrix M written out in plain integers, (a, b, c) = M (X, Y, Z) and
    # gamma = det M by the library's elimination
    F = f7
    p = F.p
    pts = all_proj_points(F)
    for t in itertools.product(pts, repeat=3):
        (x0, y0), (x1, y1), (x2, y2) = ((q.x, q.y) for q in t)
        X = (x1 * y0 - x0 * y1) ** 2 % p
        Y = (x2 * y0 - x0 * y2) ** 2 % p
        Z = (x2 * y1 - x1 * y2) ** 2 % p
        M = [[x2 * y2 % p, x1 * y1 % p, x0 * y0 % p],
             [x2 * x2 % p, x1 * x1 % p, x0 * x0 % p],
             [y2 * y2 % p, y1 * y1 % p, y0 * y0 % p]]
        a, b, c = (sum(map(mul, row, (X, Y, Z))) % p for row in M)
        inv = gamma_invariants(F, PointTriple(*t))
        assert inv == {"a": a, "b": b, "c": c, "X": X, "Y": Y, "Z": Z,
                       "gamma": det(F, M)}
        # the system holds exactly on the diagonal
        assert abc_system_admits_solution(F, PointTriple(*t)) == (
            a == b == c == 0) == (t[0] == t[1] == t[2])
