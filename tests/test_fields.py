import math
import random
from fractions import Fraction

import pytest

from cubiclifford.errors import CharTwoOrThree, NotPrime
from cubiclifford.fields import make_field


def test_excluded_characteristics():
    with pytest.raises(CharTwoOrThree):
        make_field("prime", 3)
    with pytest.raises(CharTwoOrThree):
        make_field("prime", 2)
    with pytest.raises(NotPrime):
        make_field("prime", 15)


@pytest.mark.parametrize("p", [7, 13, 31, 10009])
def test_random_inverses(p):
    F = make_field("prime", p)
    rng = random.Random(p)
    for _ in range(50):
        a = rng.randrange(1, p)
        assert F.of(a * F.inv(a)) == F.one


def test_rational_inverses():
    F = make_field("rational")
    rng = random.Random(0)
    for _ in range(50):
        a = F.of(rng.randrange(1, 100)) / F.of(rng.randrange(1, 100))
        assert F.of(a * F.inv(a)) == F.one


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 31, 10009])
def test_omega_relations(p):
    # F_p holds gcd(3, p - 1) cube roots of unity (verify-all counts the
    # rational 1-dim characters at (1,1,1,1,0,0) by this); a primitive
    # one w, when there is one, satisfies 1 + w + w^2 = 0
    F = make_field("prime", p)
    roots = [a for a in F.elements() if F.of(a * a * a) == F.one]
    assert len(roots) == math.gcd(3, p - 1)
    for w in roots[1:]:
        assert F.of(F.one + w + w * w) == F.zero


def test_of_keeps_fractions():
    # Q returns a Fraction unchanged; F_p still reduces one
    Q = make_field("rational")
    x = Fraction(-7, 3)
    assert Q.of(x) is x
    assert Q.of(4) == Fraction(4) and type(Q.of(4)) is Fraction
    F = make_field("prime", 13)
    assert F.of(Fraction(1, 2)) == 7
    assert F.of(Fraction(-7, 3)) == F.of(-7 * F.inv(3))


def test_reduce_row():
    # linalg and repthy reach reduce_row only through field objects
    assert make_field("prime", 13).reduce_row([-1, 13, 27, 5]) == [12, 0, 1, 5]
    Q = make_field("rational")
    row = [Fraction(-1, 2), Fraction(7, 3), Fraction(0)]
    assert Q.reduce_row(row) == row
