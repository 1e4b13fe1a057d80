import itertools
import random
from fractions import Fraction

import pytest

from cubiclifford.commgeo import (CentralPoint, CommPoly, central_point,
                                  cube_map, delta_partials, delta_poly,
                                  discriminant, discriminant_value,
                                  enumerate_center_fiber, minors,
                                  on_twisted_cubic,
                                  singular_locus_membership,
                                  twisted_cubic_point)
from cubiclifford.errors import FieldMismatch, ZeroPoint
from cubiclifford.findim import quotient_relations
from cubiclifford.pointmod import proj_point


def test_discriminant_examples(f13, rationals):
    assert discriminant_value(rationals, *map(Fraction, (1, 0, 0, 1))) \
        == Fraction(1, 4)
    assert discriminant_value(f13, 1, 0, 0, 1) == 10
    assert discriminant_value(rationals, *map(Fraction, (1, 1, 1, 1))) == 0
    assert discriminant_value(f13, 0, 0, 0, 0) == 0


def test_partials_match_symbolic_derivatives(rationals):
    # delta_partials differentiates delta_poly; the closed forms they must
    # equal are transcribed in test_partials_equal_transcribed_closed_forms
    parts = delta_partials(rationals)
    assert len(parts) == 4


def transcribed_partials(F):
    """The four partials of delta written out from their closed forms."""
    z = [CommPoly.var(F, 4, i) for i in range(4)]
    half = F.inv(F.of(2))
    th = F.of(3 * half)  # 3/2
    three = F.of(3)
    p0 = (z[1].mul(z[2]).mul(z[3]).scale(-th)
          .add(z[0].mul(z[3]).mul(z[3]).scale(half))
          .add(z[2].pow(3)))
    p1 = (z[0].mul(z[2]).mul(z[3]).scale(-th)
          .add(z[1].mul(z[2]).mul(z[2]).scale(-th))
          .add(z[1].mul(z[1]).mul(z[3]).scale(three)))
    p2 = (z[0].mul(z[1]).mul(z[3]).scale(-th)
          .add(z[1].mul(z[1]).mul(z[2]).scale(-th))
          .add(z[0].mul(z[2]).mul(z[2]).scale(three)))
    p3 = (z[0].mul(z[1]).mul(z[2]).scale(-th)
          .add(z[0].mul(z[0]).mul(z[3]).scale(half))
          .add(z[1].pow(3)))
    return [p0, p1, p2, p3]


@pytest.mark.parametrize("field", ["rationals", "f13", "f31"])
def test_partials_equal_transcribed_closed_forms(field, request):
    F = request.getfixturevalue(field)
    assert delta_partials(F) == transcribed_partials(F)


def test_delta_poly_terms(rationals):
    # pinned expansion: a^2d^2/4 - 3abcd/2 + ac^3 + b^3d - 3b^2c^2/4
    assert delta_poly(rationals).terms == {
        (2, 0, 0, 2): Fraction(1, 4), (1, 1, 1, 1): Fraction(-3, 2),
        (1, 0, 3, 0): Fraction(1), (0, 3, 0, 1): Fraction(1),
        (0, 2, 2, 0): Fraction(-3, 4)}


def test_discriminant_exhaustive_f7(f7):
    # independent oracle: 4D = a^2d^2 - 6abcd + 4ac^3 + 4b^3d - 3b^2c^2,
    # and the affine cone over the twisted cubic as the set of t*(x^3,
    # x^2y, xy^2, y^3), built without the library's minors or cube map
    p = f7.p
    inv4 = pow(4, p - 2, p)
    cone = {tuple(t * v % p for v in (x ** 3, x * x * y, x * y * y, y ** 3))
            for t in range(p) for x in range(p) for y in range(p)}
    delta = delta_poly(f7)
    for a, b, c, d in itertools.product(range(p), repeat=4):
        want = (a * a * d * d - 6 * a * b * c * d + 4 * a * c ** 3
                + 4 * b ** 3 * d - 3 * b * b * c * c) * inv4 % p
        assert discriminant_value(f7, a, b, c, d) == want
        assert delta.evaluate([a, b, c, d]) == want
        assert on_twisted_cubic(f7, a, b, c, d) == ((a, b, c, d) in cone)
    assert len(cone) == 1 + (p - 1) * (p + 1)


def test_fraction_inputs_reduce_to_residues(f13):
    # 1/2 is the residue 7 in F_13; every entry point must store residues
    h = Fraction(1, 2)
    assert discriminant_value(f13, h, 0, 0, 1) == 9
    assert discriminant_value(f13, 7, 0, 0, 1) == 9
    assert twisted_cubic_point(f13, h, 1) == (5, 10, 7, 1)
    assert proj_point(f13, 2, h) == proj_point(f13, 2, 7)
    assert proj_point(f13, 2, h).y == 10
    assert central_point(f13, h, 0, 0, 0, 0, 0, check=False).a == 7
    assert on_twisted_cubic(f13, h, 0, 0, 0)
    from_half = quotient_relations(f13, CentralPoint(h, h, h, h, 0, 0))
    from_seven = quotient_relations(f13, CentralPoint(7, 7, 7, 7, 0, 0))
    assert [r.terms for r in from_half] == [r.terms for r in from_seven]
    assert [r.terms[""] for r in from_seven[:4]] == [6, 6, 6, 6]


def test_commpoly_stores_and_evaluates_residues(f13):
    # 20 and 7 are the same element of F_13, and 1/2 is the residue 7
    assert CommPoly(f13, 1, {(1,): 20}) == CommPoly(f13, 1, {(1,): 7})
    assert CommPoly(f13, 1, {(1,): 20}).terms == {(1,): 7}
    assert CommPoly.var(f13, 1, 0).evaluate([Fraction(1, 2)]) == 7


def test_commpoly_rejects_mixed_fields(f13, f31):
    z13, z31 = CommPoly.var(f13, 2, 0), CommPoly.var(f31, 2, 1)
    for op in (CommPoly.add, CommPoly.sub, CommPoly.mul):
        with pytest.raises(FieldMismatch):
            op(z13, z31)


def test_library_formulas_on_the_twisted_cubic_symbolically(rationals):
    # the library's own cube map, minors and discriminant, run on
    # polynomials in x0, x1: the cubic lies in all four hypersurfaces
    Q = rationals
    x0, x1 = CommPoly.var(Q, 2, 0), CommPoly.var(Q, 2, 1)
    pt = cube_map(x0, x1)
    assert pt[1] == x0.pow(2).mul(x1) and pt[3] == x1.pow(3)
    assert all(m.is_zero() for m in minors(*pt))
    assert discriminant(*pt, Fraction(1, 4)).is_zero()


def test_operators_alias_the_methods(f13):
    z = [CommPoly.var(f13, 3, i) for i in range(3)]
    assert z[0] + z[1] == z[0].add(z[1])
    assert z[0] - z[1] == z[0].sub(z[1])
    assert z[0] * z[2] == z[0].mul(z[2])
    assert 5 * z[1] == z[1].scale(5)


def test_partial_z0_at_0001(rationals):
    parts = delta_partials(rationals)
    vals = [Fraction(v) for v in (0, 0, 0, 1)]
    assert parts[0].evaluate(vals) == 0


def test_euler_identity(rationals):
    Q = rationals
    parts = delta_partials(Q)
    z = [CommPoly.var(Q, 4, i) for i in range(4)]
    acc = CommPoly.zero(Q, 4)
    for zi, pi in zip(z, parts):
        acc = acc.add(zi.mul(pi))
    assert acc == delta_poly(Q).scale(Fraction(4))


def test_twisted_cubic_points(f13):
    assert twisted_cubic_point(f13, 1, 2) == (1, 2, 4, 8)
    assert twisted_cubic_point(f13, 0, 1) == (0, 0, 0, 1)
    assert twisted_cubic_point(f13, 1, 0) == (1, 0, 0, 0)
    with pytest.raises(ZeroPoint):
        twisted_cubic_point(f13, 0, 0)


def test_on_twisted_cubic(f13):
    assert on_twisted_cubic(f13, 1, 1, 1, 1)
    assert not on_twisted_cubic(f13, 0, 1, 0, 0)
    assert on_twisted_cubic(f13, 0, 0, 0, 0)


def test_singular_locus_membership(f13):
    assert singular_locus_membership(f13, central_point(f13, 1, 1, 1, 1, 0, 0))
    assert singular_locus_membership(f13, central_point(f13, 0, 0, 0, 1, 0, 0))
    # off the cubic, D != 0: never singular
    pts = enumerate_center_fiber(f13, 1, 0, 0, 1)
    assert pts and all(not singular_locus_membership(f13, p) for p in pts)


def test_partials_vanish_on_cubic_samples(f13, f31):
    rng = random.Random(6)
    for F in (f13, f31):
        parts = delta_partials(F)
        for _ in range(20):
            x0, x1 = rng.randrange(F.p), rng.randrange(F.p)
            if (x0, x1) == (0, 0):
                x0 = 1
            pt = twisted_cubic_point(F, x0, x1)
            assert all(p.evaluate(list(pt)) == F.zero for p in parts)


def test_sweep_common_zeros_lie_on_cubic(f13):
    # brute-force oracle over all of F_13^4: every common zero of the four
    # partials satisfies the three minor equations
    F = f13
    parts = delta_partials(F)
    # evaluate fast via plain int arithmetic mod 13
    p = F.p
    inv2 = pow(2, p - 2, p)
    th = 3 * inv2 % p  # 3/2
    found = 0
    for z0 in range(p):
        for z1 in range(p):
            for z2 in range(p):
                for z3 in range(p):
                    d0 = (-th * z1 * z2 * z3 + inv2 * z0 * z3 * z3
                          + z2 ** 3) % p
                    if d0:
                        continue
                    d1 = (-th * z0 * z2 * z3 - th * z1 * z2 * z2
                          + 3 * z1 * z1 * z3) % p
                    if d1:
                        continue
                    d2 = (-th * z0 * z1 * z3 - th * z1 * z1 * z2
                          + 3 * z0 * z2 * z2) % p
                    if d2:
                        continue
                    d3 = (-th * z0 * z1 * z2 + inv2 * z0 * z0 * z3
                          + z1 ** 3) % p
                    if d3:
                        continue
                    found += 1
                    assert on_twisted_cubic(F, z0, z1, z2, z3), \
                        (z0, z1, z2, z3)
                    # cross-check the transcribed polynomials agree
                    vals = [F.of(v) for v in (z0, z1, z2, z3)]
                    assert all(q.evaluate(vals) == F.zero for q in parts)
    # the affine cone over the cubic has 1 + (p-1)(p+1) points
    assert found == 1 + (p - 1) * (p + 1)


def test_delta_vanishes_on_cubic_symbolically(rationals):
    Q = rationals
    x0 = CommPoly.var(Q, 2, 0)
    x1 = CommPoly.var(Q, 2, 1)
    sub = [x0.pow(3), x0.pow(2).mul(x1), x0.mul(x1.pow(2)), x1.pow(3)]
    acc = CommPoly.zero(Q, 2)
    for e, c in delta_poly(Q).terms.items():
        term = CommPoly.const(Q, 2, c)
        for i, exp in enumerate(e):
            for _ in range(exp):
                term = term.mul(sub[i])
        acc = acc.add(term)
    assert acc.is_zero()


def test_fiber_enumeration(f13):
    pts = enumerate_center_fiber(f13, 1, 0, 0, 1)
    D = discriminant_value(f13, 1, 0, 0, 1)
    brute = sum(1 for e in range(13) for f in range(13)
                if (e * e) % 13 == (f ** 3 - 27 * D) % 13)
    assert len(pts) == brute
    from cubiclifford.commgeo import point_on_fiber
    assert all(point_on_fiber(f13, p) for p in pts)
    assert len(pts) <= 2 * 13


def test_fiber_contains_origin_pair_when_d_zero(f13):
    pts = enumerate_center_fiber(f13, 1, 1, 1, 1)
    assert any(p.e == 0 and p.f == 0 for p in pts)


def test_central_point_invariant_enforced(f13):
    with pytest.raises(ValueError):
        central_point(f13, 1, 0, 0, 1, 5, 0)  # 25 != -27*10 mod 13
