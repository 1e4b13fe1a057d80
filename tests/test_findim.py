import dataclasses
import random
from fractions import Fraction
from operator import add, mul

import pytest

from cubiclifford import findim
from cubiclifford.center import central_elements
from cubiclifford.commgeo import central_point, enumerate_center_fiber
from cubiclifford.errors import NotFiniteDimensional, ZeroAlgebra
from cubiclifford.findim import (FinDimAlgebra, build_quotient,
                                 check_unit_and_associativity,
                                 quotient_relations, reduce_center_images)
from cubiclifford.freealg import NcPoly


@pytest.fixture(scope="module")
def smooth_point(f13):
    # a fiber point over the cubic form u^3 + v^3, whose discriminant is
    # nonzero
    pts = enumerate_center_fiber(f13, 1, 0, 0, 1)
    assert pts
    return pts[0]


@pytest.fixture(scope="module")
def smooth_alg(f13, smooth_point):
    return build_quotient(f13, smooth_point)


@pytest.fixture(scope="module")
def singular_alg(f13):
    return build_quotient(f13, central_point(f13, 1, 1, 1, 1, 0, 0))


@pytest.fixture(scope="module")
def origin_alg(f13):
    return build_quotient(f13, central_point(f13, 0, 0, 0, 0, 0, 0))


def test_quotient_relations_count(f13, smooth_point):
    rels = quotient_relations(f13, smooth_point)
    assert len(rels) == 6


def test_quotient_relations_are_central_elements_minus_coordinates(
        f13, smooth_point):
    one = NcPoly.one(f13)
    rels = quotient_relations(f13, smooth_point)
    for rel, z, c in zip(rels, central_elements(f13).as_list(),
                         smooth_point.coords()):
        assert rel.add(one.scale(c)) == z


def test_a_wrong_central_element_reaches_the_quotient(f13, monkeypatch):
    # z1 with the weight of yxx doubled: the fiber over (1, 2, 3, 4)
    # collapses, so the quotient presentation reads z1 from the center
    def mutant(field):
        third = field.inv(3)
        z1 = NcPoly(field, {"xxy": third, "xyx": third, "yxx": 2 * third})
        return dataclasses.replace(central_elements(field), z1=z1)

    pt = enumerate_center_fiber(f13, 1, 2, 3, 4)[0]
    monkeypatch.setattr(findim, "central_elements", mutant)
    with pytest.raises(ZeroAlgebra):
        build_quotient(f13, pt)


def test_smooth_quotient_dimension(smooth_alg):
    assert smooth_alg.dim == 9


def test_singular_quotient_dimension(singular_alg):
    assert singular_alg.dim == 15


def test_origin_quotient_dimension(origin_alg):
    assert origin_alg.dim == 17


def test_basis_starts_with_unit(smooth_alg):
    assert smooth_alg.basis[0] == ""
    assert smooth_alg.unit_index == 0


def test_unit_and_associativity(smooth_alg, singular_alg, origin_alg):
    assert check_unit_and_associativity(smooth_alg)
    assert check_unit_and_associativity(singular_alg)
    assert check_unit_and_associativity(origin_alg)


def test_associativity_catches_single_constant_corruptions(f13, origin_alg):
    # each corruption changes one structure constant of a product of two
    # non-unit basis elements, so only associativity can catch it
    alg = origin_alg
    rng = random.Random(0)
    for _ in range(20):
        i, j = rng.randrange(1, alg.dim), rng.randrange(1, alg.dim)
        k = rng.randrange(alg.dim)
        table = [[list(v) for v in row] for row in alg.table]
        table[i][j][k] = (table[i][j][k] + rng.randrange(1, 13)) % 13
        bad = FinDimAlgebra(f13, alg.system, alg.basis, table)
        assert not check_unit_and_associativity(bad), (i, j, k)


def reference_associativity(alg):
    """The former check, kept as the oracle: the unit law and every triple
    through 2 dim^3 ``mul_vec`` calls."""
    unit, basis = alg.unit_vector(), alg.basis_vectors()
    if any(alg.mul_vec(unit, v) != v or alg.mul_vec(v, unit) != v
           for v in basis):
        return False
    return all(alg.mul_vec(alg.table[i][j], basis[k])
               == alg.mul_vec(basis[i], alg.table[j][k])
               for i in range(alg.dim) for j in range(alg.dim)
               for k in range(alg.dim))


def test_associativity_matches_mul_vec_reference(f13, smooth_alg,
                                                 singular_alg, origin_alg):
    # corruptions anywhere, the unit's row and column included, on the
    # 9-, 15- and 17-dimensional quotients
    rng = random.Random("associativity-oracle")
    for alg in (smooth_alg, singular_alg, origin_alg):
        assert check_unit_and_associativity(alg) is reference_associativity(
            alg) is True
        for _ in range(15):
            i, j, k = (rng.randrange(alg.dim) for _ in range(3))
            table = [[list(v) for v in row] for row in alg.table]
            table[i][j][k] = (table[i][j][k] + rng.randrange(1, 13)) % 13
            bad = FinDimAlgebra(f13, alg.system, alg.basis, table)
            assert (check_unit_and_associativity(bad)
                    == reference_associativity(bad)), (alg.dim, i, j, k)


def test_associativity_over_the_rationals(rationals):
    # Q[t]/(t^3 - 3t - 1/2) on the words '', 't', 'tt'; then one corrupted
    # constant of t * t
    Q, half = rationals, Fraction(1, 2)
    powers = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [half, 3, 0], [0, half, 3]]
    table = [[[Q.of(c) for c in powers[i + j]] for j in range(3)]
             for i in range(3)]
    alg = FinDimAlgebra(Q, None, ["", "t", "tt"], table)
    assert check_unit_and_associativity(alg)
    table[1][1][0] = Fraction(1, 3)
    assert not check_unit_and_associativity(alg)
    assert not reference_associativity(alg)


def test_center_images_match_point(f13, smooth_alg, smooth_point):
    assert reduce_center_images(smooth_alg) == list(smooth_point.coords())


def test_center_images_singular(f13, singular_alg):
    assert reduce_center_images(singular_alg) == [1, 1, 1, 1, 0, 0]


def generator_matrices(alg):
    """Matrices L_x, L_y of left multiplication by x and y, as row lists:
    column j is the coordinate vector of x e_j (resp. y e_j)."""
    F = alg.field
    out = []
    for g in "xy":
        v = alg.coords(NcPoly.gen(F, g))
        cols = [alg.mul_vec(v, e) for e in alg.basis_vectors()]
        out.append([list(row) for row in zip(*cols)])
    return out


def _product(F, *ms):
    """Product of square matrices given as row lists."""
    out = ms[0]
    for m in ms[1:]:
        out = [F.reduce_row([sum(map(mul, row, col)) for col in zip(*m)])
               for row in out]
    return out


def _plus(F, a, b):
    return [F.reduce_row(list(map(add, r, s))) for r, s in zip(a, b)]


def test_generator_matrices_satisfy_relations(f13, smooth_alg):
    X, Y = generator_matrices(smooth_alg)
    F = f13
    assert _product(F, X, X, X, Y) == _product(F, Y, X, X, X)
    assert _product(F, X, Y, Y, Y) == _product(F, Y, Y, Y, X)
    # x^2 y^2 + xyxy = yxyx + y^2 x^2
    assert (_plus(F, _product(F, X, X, Y, Y), _product(F, X, Y, X, Y))
            == _plus(F, _product(F, Y, X, Y, X), _product(F, Y, Y, X, X)))


def test_generator_matrices_represent_the_point(f13, smooth_alg, smooth_point):
    # x^3 acts as the scalar a on the quotient
    X, _ = generator_matrices(smooth_alg)
    X3 = _product(f13, X, X, X)
    for i in range(smooth_alg.dim):
        for j in range(smooth_alg.dim):
            expect = smooth_point.a if i == j else f13.zero
            assert X3[i][j] == expect


def test_coords_of_central_elements_are_scalar(f13, origin_alg):
    z = central_elements(f13)
    v = origin_alg.coords(z.z4)
    assert all(c == f13.zero for c in v)


def test_zero_algebra_off_fiber(f13):
    bad = central_point(f13, 1, 0, 0, 1, 5, 0, check=False)
    with pytest.raises(ZeroAlgebra):
        build_quotient(f13, bad)


def test_words_past_the_bound_are_not_finite_dimensional(f13, smooth_point,
                                                         monkeypatch):
    # the smooth quotient has normal words up to degree 4
    monkeypatch.setattr(findim, "DEGREE_BOUND", 3)
    with pytest.raises(NotFiniteDimensional):
        build_quotient(f13, smooth_point)


def test_structure_table_consistent_with_normal_form(f13, smooth_alg):
    alg = smooth_alg
    for i, wi in enumerate(alg.basis[:5]):
        for j, wj in enumerate(alg.basis[:5]):
            ei = [f13.zero] * alg.dim
            ei[i] = f13.one
            ej = [f13.zero] * alg.dim
            ej[j] = f13.one
            assert alg.mul_vec(ei, ej) == alg.coords(
                NcPoly.word(f13, wi + wj))


def test_json_dict_shape(smooth_alg):
    d = smooth_alg.to_json_dict()
    assert d["dim"] == 9
    assert d["modulus"] == 13
    assert d["basis"][0] == "1"
    assert len(d["structure_constants"]) == 9


def test_quotient_over_f31(f31):
    pts = enumerate_center_fiber(f31, 1, 0, 0, 1)
    alg = build_quotient(f31, pts[0])
    assert alg.dim == 9
