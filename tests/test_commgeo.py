import random
from fractions import Fraction

import pytest

from cubiclifford.commgeo import (CommPoly, central_point,
                                  delta_partials, delta_poly,
                                  discriminant_value, enumerate_center_fiber,
                                  on_twisted_cubic, singular_locus_membership,
                                  twisted_cubic_point)
from cubiclifford.errors import ZeroPoint


def test_discriminant_examples(f13, rationals):
    assert discriminant_value(rationals, *map(Fraction, (1, 0, 0, 1))) \
        == Fraction(1, 4)
    assert discriminant_value(f13, 1, 0, 0, 1) == 10
    assert discriminant_value(rationals, *map(Fraction, (1, 1, 1, 1))) == 0
    assert discriminant_value(f13, 0, 0, 0, 0) == 0


def test_partials_match_symbolic_derivatives(rationals):
    # delta_partials raises internally if the transcription disagrees
    parts = delta_partials(rationals)
    assert len(parts) == 4


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
