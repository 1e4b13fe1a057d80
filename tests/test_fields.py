import random
from fractions import Fraction

import pytest

from cubiclifford.errors import CharTwoOrThree, NoOmega, NotPrime
from cubiclifford.fields import make_field


def test_make_prime_field_omega_flags():
    assert make_field("prime", 13).has_omega
    assert make_field("prime", 7).has_omega
    assert not make_field("prime", 5).has_omega


def test_excluded_characteristics():
    with pytest.raises(CharTwoOrThree):
        make_field("prime", 3)
    with pytest.raises(CharTwoOrThree):
        make_field("prime", 2)
    with pytest.raises(NotPrime):
        make_field("prime", 15)


def test_cube_root_of_unity_values():
    assert make_field("prime", 13).omega() == 3
    assert make_field("prime", 7).omega() == 2
    for p in (19, 31, 37, 43, 10009):
        assert make_field("prime", p).omega() == next(
            a for a in range(2, p) if pow(a, 3, p) == 1)


def test_omega_at_large_prime_needs_no_scan():
    # the smallest primitive cube root mod 10^9 + 9 is about 1.2e8, so a
    # scan of F_p would take minutes
    p = 1000000009
    w = make_field("prime", p).omega()
    assert pow(w, 3, p) == 1 and w != 1 and w < p - 1 - w


def test_no_omega():
    with pytest.raises(NoOmega):
        make_field("prime", 5).omega()
    with pytest.raises(NoOmega):
        make_field("rational").omega()


@pytest.mark.parametrize("p", [7, 13, 31, 10009])
def test_random_inverses(p):
    F = make_field("prime", p)
    rng = random.Random(p)
    for _ in range(50):
        a = rng.randrange(1, p)
        assert F.mul(a, F.inv(a)) == F.one


def test_rational_inverses():
    F = make_field("rational")
    rng = random.Random(0)
    for _ in range(50):
        a = F.of(rng.randrange(1, 100)) / F.of(rng.randrange(1, 100))
        assert F.mul(a, F.inv(a)) == F.one


@pytest.mark.parametrize("p", [7, 13, 31, 10009])
def test_omega_relations(p):
    F = make_field("prime", p)
    w = F.omega()
    assert w != F.one
    assert F.mul(F.mul(w, w), w) == F.one
    # 1 + w + w^2 = 0
    assert F.add(F.one, F.add(w, F.mul(w, w))) == F.zero


def test_of_keeps_fractions():
    # Q returns a Fraction unchanged; F_p still reduces one
    Q = make_field("rational")
    x = Fraction(-7, 3)
    assert Q.of(x) is x
    assert Q.of(4) == Fraction(4) and type(Q.of(4)) is Fraction
    F = make_field("prime", 13)
    assert F.of(Fraction(1, 2)) == 7
    assert F.of(Fraction(-7, 3)) == F.div(F.of(-7), 3)


def test_reduce_row():
    # linalg and repthy reach reduce_row only through field objects
    assert make_field("prime", 13).reduce_row([-1, 13, 27, 5]) == [12, 0, 1, 5]
    Q = make_field("rational")
    row = [Fraction(-1, 2), Fraction(7, 3), Fraction(0)]
    assert Q.reduce_row(row) == row
