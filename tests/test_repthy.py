import pytest

from cubiclifford import repthy
from cubiclifford.commgeo import central_point, enumerate_center_fiber
from cubiclifford.errors import FieldTooLarge, NotScalar
from cubiclifford.findim import build_quotient
from cubiclifford.fields import make_field
from cubiclifford.linalg import Matrix, rank
from cubiclifford.repthy import (DIM2_MAX_P, BlockStructure, dim2_x_forms,
                                 full_gram, radical, search_irreps_dim1,
                                 search_irreps_dim2, trace, trace_vector,
                                 wedderburn_blocks)


@pytest.fixture(scope="module")
def smooth_alg(f13):
    return build_quotient(f13, enumerate_center_fiber(f13, 1, 0, 0, 1)[0])


@pytest.fixture(scope="module")
def singular_alg(f13):
    return build_quotient(f13, central_point(f13, 1, 1, 1, 1, 0, 0))


@pytest.fixture(scope="module")
def origin_alg(f13):
    return build_quotient(f13, central_point(f13, 0, 0, 0, 0, 0, 0))


def test_block_structure_helpers():
    bs = BlockStructure(blocks=[(1, 2), (3, 1)], radical_dim=0)
    assert bs.irrep_dims() == [1, 1, 3]
    assert bs.sum_squares() == 11


def test_trace_of_unit(smooth_alg, f13):
    assert trace(smooth_alg, smooth_alg.unit_vector()) == f13.of(9)


def test_trace_vector_length(smooth_alg):
    assert len(trace_vector(smooth_alg)) == 9


def test_smooth_gram_nondegenerate(smooth_alg):
    assert rank(full_gram(smooth_alg)) == 9
    assert radical(smooth_alg) == []


def test_singular_gram_rank_three(singular_alg):
    assert rank(full_gram(singular_alg)) == 3
    assert len(radical(singular_alg)) == 12


def test_origin_gram_rank_one(origin_alg):
    assert rank(full_gram(origin_alg)) == 1
    assert len(radical(origin_alg)) == 16


def test_radical_elements_are_nilpotent(singular_alg):
    alg = singular_alg
    for v in radical(alg):
        w = list(v)
        for _ in range(alg.dim):
            w = alg.mul_vec(w, v)
        assert all(c == alg.field.zero for c in w)


def test_smooth_blocks_full_matrix_algebra(smooth_alg):
    bs = wedderburn_blocks(smooth_alg)
    assert bs.radical_dim == 0
    assert bs.blocks == [(3, 1)]
    assert bs.sum_squares() == 9


def test_singular_blocks_three_lines(singular_alg):
    bs = wedderburn_blocks(singular_alg)
    assert bs.radical_dim == 12
    assert bs.irrep_dims() == [1, 1, 1]
    assert bs.sum_squares() == 3


def test_origin_blocks_single_line(origin_alg):
    bs = wedderburn_blocks(origin_alg)
    assert bs.radical_dim == 16
    assert bs.irrep_dims() == [1]
    assert bs.sum_squares() == 1


def test_blocks_deterministic(smooth_alg):
    assert wedderburn_blocks(smooth_alg, seed=0).blocks == \
        wedderburn_blocks(smooth_alg, seed=1).blocks


def test_smooth_blocks_over_f31(f31):
    alg = build_quotient(f31, enumerate_center_fiber(f31, 1, 0, 0, 1)[0])
    bs = wedderburn_blocks(alg)
    assert bs.sum_squares() == 9
    assert bs.irrep_dims() == [3]


# -- reference dim-2 search: tuple-of-tuple matrices, all three relations
# tested per candidate, irreducibility by the Burnside span ---------------


def _m2_mul(A, B, p):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0]) % p,
            (A[0][0] * B[0][1] + A[0][1] * B[1][1]) % p,
            (A[1][0] * B[0][0] + A[1][1] * B[1][0]) % p,
            (A[1][0] * B[0][1] + A[1][1] * B[1][1]) % p)


def _satisfies_relations(X, Y, p):
    def mul(A, B):
        e = _m2_mul(A, B, p)
        return ((e[0], e[1]), (e[2], e[3]))

    def sub(A, B):
        return tuple(tuple((x - y) % p for x, y in zip(r1, r2))
                     for r1, r2 in zip(A, B))

    def is0(A):
        return all(v == 0 for r in A for v in r)

    X2 = mul(X, X)
    X3 = mul(X2, X)
    Y2 = mul(Y, Y)
    Y3 = mul(Y2, Y)
    # x^3 y = y x^3
    if not is0(sub(mul(X3, Y), mul(Y, X3))):
        return False
    # x^2y^2 + xyxy - yxyx - y^2x^2 = 0
    XY = mul(X, Y)
    YX = mul(Y, X)
    t = sub(mul(X2, Y2), mul(Y2, X2))
    t = tuple(tuple((v + w_) % p for v, w_ in zip(r1, r2))
              for r1, r2 in zip(t, sub(mul(XY, XY), mul(YX, YX))))
    if not is0(t):
        return False
    # x y^3 = y^3 x
    return is0(sub(mul(X, Y3), mul(Y3, X)))


def _burnside_span(X, Y, p):
    """Dimension of the algebra generated by X and Y: the pair acts
    irreducibly iff it is 4 (all of M_2)."""
    span = []  # rref rows over F_p of flattened matrices

    def insert(M):
        v = [M[0][0], M[0][1], M[1][0], M[1][1]]
        for row in span:
            lead = next(i for i, c in enumerate(row) if c)
            if v[lead]:
                f = v[lead]
                v = [(a - f * b) % p for a, b in zip(v, row)]
        if any(v):
            lead = next(i for i, c in enumerate(v) if c)
            inv = pow(v[lead], p - 2, p)
            span.append([c * inv % p for c in v])
            return True
        return False

    frontier = [g for g in (((1, 0), (0, 1)), X, Y) if insert(g)]
    while frontier and len(span) < 4:
        nxt = []
        for M in frontier:
            for G in (X, Y):
                e = _m2_mul(M, G, p)
                P = ((e[0], e[1]), (e[2], e[3]))
                if insert(P):
                    nxt.append(P)
        frontier = nxt
    return len(span)


def _reference_x_forms(field):
    p, w = field.p, field.omega()
    forms = [((a, 0), (0, a * w % p)) for a in range(1, p)]
    return forms + [((0, 1), (0, 0))]


def _all_y(p):
    r = range(p)
    return [((a, b), (c, d)) for a in r for b in r for c in r for d in r]


def _reference_sweep(X, p):
    irreducible, reducible = [], 0
    for Y in _all_y(p):
        if _satisfies_relations(X, Y, p):
            if _burnside_span(X, Y, p) == 4:
                irreducible.append((X, Y))
            else:
                reducible += 1
    return irreducible, reducible


def test_dim2_x_forms_match_reference(f7):
    assert [((x0, x1), (x2, x3)) for x0, x1, x2, x3 in dim2_x_forms(f7)] \
        == _reference_x_forms(f7)


def test_search_dim2_matches_reference_per_x(f7, monkeypatch):
    for X in _reference_x_forms(f7):
        (x0, x1), (x2, x3) = X
        monkeypatch.setattr(repthy, "dim2_x_forms",
                            lambda field: [(x0, x1, x2, x3)])
        res = search_irreps_dim2(f7)
        irreducible, reducible = _reference_sweep(X, 7)
        assert res["irreducible_pairs"] == irreducible
        assert res["reducible_solutions"] == reducible
        assert res["x_forms_tested"] == 1


def test_det_commutator_decides_burnside(f7):
    # two 2 x 2 matrices generate M_2 iff det[X, Y] != 0, checked on
    # every canonical X against every Y over F_7
    p = 7
    for X in _reference_x_forms(f7):
        for Y in _all_y(p):
            e, f = _m2_mul(X, Y, p), _m2_mul(Y, X, p)
            k = [u - v for u, v in zip(e, f)]
            det = (k[0] * k[3] - k[1] * k[2]) % p
            assert (det != 0) == (_burnside_span(X, Y, p) == 4), (X, Y)


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_dim2_x_cubes_are_scalar(p):
    F = make_field("prime", p)
    forms = dim2_x_forms(F)
    assert len(forms) == p
    for x0, x1, x2, x3 in forms:
        X = Matrix(F, [[x0, x1], [x2, x3]])
        (c0, c1), (c2, c3) = X.mul(X).mul(X).entries
        assert c1 == c2 == 0 and c0 == c3


def test_search_dim2_rejects_nonscalar_cube(f7, monkeypatch):
    # a Jordan block with eigenvalue 1 cubes to [[1, 3], [0, 1]]
    monkeypatch.setattr(repthy, "dim2_x_forms", lambda field: [(1, 1, 0, 1)])
    with pytest.raises(NotScalar):
        search_irreps_dim2(f7)


def test_search_dim2_empty(f7):
    res = search_irreps_dim2(f7)
    assert res["irreducible_pairs"] == []
    assert res["x_forms_tested"] == 7  # 6 split + 1 nilpotent
    assert res["reducible_solutions"] == 931


def test_search_dim2_counts_f13(f13):
    res = search_irreps_dim2(f13)
    assert res["irreducible_pairs"] == []
    assert res["x_forms_tested"] == 13
    assert res["reducible_solutions"] == 6253


def test_search_dim2_cap():
    assert DIM2_MAX_P == 31
    with pytest.raises(FieldTooLarge):
        search_irreps_dim2(make_field("prime", 10009))
    with pytest.raises(FieldTooLarge):
        search_irreps_dim2(make_field("prime", 37))


def test_search_dim1_at_singular_points(f13):
    # (1,1,1,1,0,0) comes from (a,b) = (1,1) and its omega-twists
    sols = search_irreps_dim1(f13, central_point(f13, 1, 1, 1, 1, 0, 0))
    assert len(sols) == 3
    assert (1, 1) in sols
    w = f13.omega()
    assert (w, w) in sols


def test_search_dim1_origin(f13):
    assert search_irreps_dim1(
        f13, central_point(f13, 0, 0, 0, 0, 0, 0)) == [(0, 0)]


def test_search_dim1_off_singular(f13):
    pt = enumerate_center_fiber(f13, 1, 0, 0, 1)[0]
    assert search_irreps_dim1(f13, pt) == []
