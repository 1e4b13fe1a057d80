import random
from fractions import Fraction

import pytest

from cubiclifford.errors import FieldMismatch
from cubiclifford.fields import make_field
from cubiclifford.commgeo import central_point
from cubiclifford.findim import quotient_relations
from cubiclifford.freealg import (NcPoly, clifford_relations, commutator,
                                  parse_poly)


def x(F):
    return NcPoly.gen(F, "x")


def y(F):
    return NcPoly.gen(F, "y")


def test_word_product(f13):
    assert x(f13).mul(y(f13)).terms == {"xy": 1}


def test_square_of_sum_expands(f13):
    s = x(f13).add(y(f13))
    assert set(s.mul(s).terms) == {"xx", "xy", "yx", "yy"}


def test_cube_has_eight_words(f13):
    s = x(f13).scale(2).add(y(f13).scale(5))
    cube = s.pow(3)
    assert len(cube.terms) == 8
    assert all(len(w) == 3 for w in cube.terms)


def test_commutator_self_zero(f13):
    assert commutator(x(f13), x(f13)).is_zero()


def test_commutator_x3_y_is_first_relation(f13):
    x3 = x(f13).pow(3)
    assert commutator(x3, y(f13)) == clifford_relations(f13)[0]


def test_commutator_y3_x_is_negated_third_relation(f13):
    y3 = y(f13).pow(3)
    assert commutator(y3, x(f13)) == clifford_relations(f13)[2].neg()


def test_relations_shape(f13):
    rels = clifford_relations(f13)
    assert sorted(rels[1].terms.values()) == [1, 1, 12, 12]
    for r in rels:
        assert all(len(w) == 4 for w in r.terms)


def test_relation_collapses_under_substitution(f13):
    # y -> x sends x^3 y - y x^3 to 0
    r = clifford_relations(f13)[0]
    collapsed = {}
    F = f13
    for w, c in r.terms.items():
        ww = w.replace("y", "x")
        collapsed[ww] = F.of(collapsed.get(ww, F.zero) + c)
    assert all(v == F.zero for v in collapsed.values())


def test_cubic_form_relations_at_unit_form(f13):
    rels = quotient_relations(f13, central_point(f13, 1, 0, 0, 1, 0, 0,
                                                 check=False))
    assert rels[0].terms == {"xxx": 1, "": 12}
    assert rels[3].terms == {"yyy": 1, "": 12}
    assert set(rels[1].terms) == {"xxy", "xyx", "yxx"}
    assert set(rels[2].terms) == {"yyx", "yxy", "xyy"}


def test_zero_form_relations(f13):
    rels = quotient_relations(f13, central_point(f13, 0, 0, 0, 0, 0, 0))
    assert all("" not in r.terms for r in rels)


def test_field_mismatch(f13, f31):
    with pytest.raises(FieldMismatch):
        x(f13).mul(y(f31))


def test_fraction_coefficients_become_residues(f13):
    # 1/2 is the residue 7 in F_13
    h = Fraction(1, 2)
    assert NcPoly(f13, {"x": h}).terms == {"x": 7}
    assert x(f13).scale(h).terms == {"x": 7}
    assert NcPoly(f13, {"x": h}) == NcPoly(f13, {"x": 20})


def test_associativity_random(f13):
    rng = random.Random(3)

    def rand_poly():
        return NcPoly(f13, {
            "".join(rng.choice("xy") for _ in range(rng.randrange(4))):
                rng.randrange(13)
            for _ in range(3)})

    for _ in range(25):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_degree_additivity(f13):
    a = NcPoly(f13, {"xy": 2, "yx": 5})
    b = NcPoly(f13, {"xxy": 1, "yyy": 3})
    assert a.mul(b).degree() == 5


def test_serialize_parse_roundtrip(f13):
    rng = random.Random(4)
    for _ in range(20):
        p = NcPoly(f13, {
            "".join(rng.choice("xy") for _ in range(rng.randrange(5))):
                rng.randrange(1, 13)
            for _ in range(4)})
        assert parse_poly(f13, p.serialize()) == p


def test_serialize_zero_and_unit(f13):
    assert NcPoly.zero(f13).serialize() == "0"
    assert NcPoly.one(f13).serialize() == "1*1"


def test_operators_alias_the_methods(f13):
    X, Y = x(f13), y(f13)
    assert X * Y - Y * X == commutator(X, Y)
    assert (X + Y).terms == {"x": 1, "y": 1}
    assert 2 * (X * Y) == X.mul(Y).scale(2)
    with pytest.raises(FieldMismatch):
        X * NcPoly.gen(make_field("prime", 31), "y")
