import itertools
import json
import random

import pytest

from cubiclifford import repthy
from cubiclifford.cli import main as cli_main
from cubiclifford.commgeo import (central_point, enumerate_center_fiber,
                                  twisted_cubic_point)
from cubiclifford.errors import (CharacteristicTooSmall, FieldTooLarge,
                                 NotScalar, SplitFailure)
from cubiclifford.disc import sample_points
from cubiclifford.findim import (FinDimAlgebra, build_quotient,
                                check_unit_and_associativity)
from cubiclifford.fields import make_field
from cubiclifford.freealg import NcPoly, clifford_relations
from cubiclifford.linalg import kernel, rank, rref
from cubiclifford.repthy import (DIM2_MAX_P, BlockStructure, center_basis,
                                 dim2_certificate, dim2_relation_scalars,
                                 dim2_x_forms, full_gram, radical,
                                 radical_quotient, search_irreps_dim1,
                                 search_irreps_dim2, trace_vector,
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
    assert trace_vector(smooth_alg)[smooth_alg.unit_index] == f13.of(9)


def test_trace_vector_length(smooth_alg):
    assert len(trace_vector(smooth_alg)) == 9


def test_smooth_gram_nondegenerate(smooth_alg):
    assert rank(smooth_alg.field, full_gram(smooth_alg)) == 9
    assert radical(smooth_alg) == []


def test_singular_gram_rank_three(singular_alg):
    assert rank(singular_alg.field, full_gram(singular_alg)) == 3
    assert len(radical(singular_alg)) == 12


def test_origin_gram_rank_one(origin_alg):
    assert rank(origin_alg.field, full_gram(origin_alg)) == 1
    assert len(radical(origin_alg)) == 16


def test_radical_elements_are_nilpotent(singular_alg):
    alg = singular_alg
    for v in radical(alg):
        w = list(v)
        for _ in range(alg.dim):
            w = alg.mul_vec(w, v)
        assert all(c == alg.field.zero for c in w)


def _brute_center_basis(alg):
    """Kernel of v -> (v e - e v)_e with each commutator formed by
    mul_vec on coordinate vectors, not read from the table."""
    F = alg.field
    es = alg.basis_vectors()
    # column i of the map is the image of e_i: all commutators, stacked
    cols = [[F.of(a - b) for e in es
             for a, b in zip(alg.mul_vec(ei, e), alg.mul_vec(e, ei))]
            for ei in es]
    return kernel(F, list(zip(*cols)))


def _is_central(alg, v):
    return all(alg.mul_vec(v, e) == alg.mul_vec(e, v)
               for e in alg.basis_vectors())


@pytest.mark.parametrize("name, quotient, zdim", [
    ("smooth", False, 1),
    ("singular", False, 1), ("singular", True, 3),
    ("origin", False, 6), ("origin", True, 1),
])
def test_center_basis_matches_commutator_reference(request, name, quotient,
                                                   zdim):
    alg = request.getfixturevalue(f"{name}_alg")
    if quotient:
        alg = radical_quotient(alg)
    zb = center_basis(alg)
    assert len(zb) == zdim
    assert all(_is_central(alg, v) for v in zb)
    assert zb == _brute_center_basis(alg)


def test_radical_quotient_keeps_unit_in_basis(f13, singular_alg):
    # the radical is reduced from the last column, so the empty word is
    # never a pivot; at (1,1,1,1,0,0) a left-to-right reduction pivots on it
    pts = sample_points(f13, 10)["cubic"] + [
        central_point(f13, 0, 0, 0, 0, 0, 0)]
    for pt in pts:
        alg = build_quotient(f13, pt)
        quot = radical_quotient(alg)
        assert "" in quot.basis, pt
        assert quot.unit_index == 0
        assert quot.system is None
        assert quot.dim == alg.dim - len(radical(alg))
    assert radical_quotient(singular_alg).basis == ["", "y", "yy"]


def test_radical_quotient_is_unital_associative(smooth_alg, singular_alg,
                                                origin_alg):
    for alg in (smooth_alg, singular_alg, origin_alg):
        assert check_unit_and_associativity(radical_quotient(alg))


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


def test_split_failure_when_no_draw_is_allowed(singular_alg, monkeypatch):
    # A/rad at (1,1,1,1,0,0) is three copies of F_13: the unit must split
    monkeypatch.setattr(repthy, "SPLIT_ATTEMPTS", 0)
    with pytest.raises(SplitFailure):
        wedderburn_blocks(singular_alg)


def test_smooth_blocks_over_f31(f31):
    alg = build_quotient(f31, enumerate_center_fiber(f31, 1, 0, 0, 1)[0])
    bs = wedderburn_blocks(alg)
    assert bs.sum_squares() == 9
    assert bs.irrep_dims() == [3]


def test_noncube_cone_point_is_one_cubic_field_block(f13):
    # 2 is not a cube mod 13, so the three characters (a, 0) with a^3 = 2
    # are conjugate over F_13: A/rad = F_{13^3}, one block of degree 3
    pt = central_point(f13, 2, 0, 0, 0, 0, 0)
    bs = wedderburn_blocks(build_quotient(f13, pt))
    assert bs.blocks == [(1, 3)]
    assert bs.irrep_dims() == [1, 1, 1]
    assert bs.radical_dim == 12
    assert search_irreps_dim1(f13, pt) == []


def test_noncube_cone_point_over_large_prime():
    # no step of the split may cost O(p): at p = 10^9 + 9 (1 mod 3, and 2
    # is not a cube) the same point is one block over F_{p^3}
    F = make_field("prime", 1000000009)
    assert pow(2, (F.p - 1) // 3, F.p) != 1
    alg = build_quotient(F, central_point(F, 2, 0, 0, 0, 0, 0))
    assert wedderburn_blocks(alg).blocks == [(1, 3)]


def _check_cone_blocks_match_dim1_search(F):
    # every point lambda * (x0^3, x0^2 x1, x0 x1^2, x1^3) of the cone over
    # the twisted cubic: three characters over the closure, all rational
    # (three (1, 1) blocks) or all conjugate (one (1, 3) block)
    lines = [(1, t) for t in range(F.p)] + [(0, 1)]
    seen = set()
    for lam in range(1, F.p):
        for x0, x1 in lines:
            coords = [lam * c for c in twisted_cubic_point(F, x0, x1)]
            pt = central_point(F, *coords, 0, 0)
            blocks = wedderburn_blocks(build_quotient(F, pt)).blocks
            rational = len(search_irreps_dim1(F, pt))
            assert blocks.count((1, 1)) == rational in (0, 3), pt
            assert sum(k for _, k in blocks) == 3, pt
            seen.add(tuple(blocks))
    assert seen == {((1, 1),) * 3, ((1, 3),)}


def test_cone_points_f7_blocks_match_dim1_search(f7):
    _check_cone_blocks_match_dim1_search(f7)


def test_cone_points_f13_blocks_match_dim1_search(f13):
    # verify-all counts the (1, 1) blocks in place of the search
    _check_cone_blocks_match_dim1_search(f13)


# -- factorization over F_p, read from the Wedderburn split of F_p[t]/(f)
# and checked against a table built by multiplication -----------------------


def _mul(a, b, p):
    """Product of low-to-high coefficient tuples over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _factorization_table(p, max_deg):
    """Every monic polynomial of degree 1..max_deg over F_p, mapped to
    the tuple of its monic irreducible factors with repetition.
    Irreducibles are sieved degree by degree (not a product of a lower
    irreducible and a monic), then every multiset of them within the
    degree budget is multiplied out; each product must be new, and each
    degree d must be covered by exactly p^d of them."""
    monics = {d: [low + (1,) for low in itertools.product(range(p),
                                                          repeat=d)]
              for d in range(1, max_deg + 1)}
    irreducibles = []
    for d in range(1, max_deg + 1):
        composite = {_mul(g, h, p) for g in irreducibles
                     if 2 * (len(g) - 1) <= d
                     for h in monics[d - len(g) + 1]}
        irreducibles += [f for f in monics[d] if f not in composite]
    table = {}

    def extend(start, prod, factors):
        for i in range(start, len(irreducibles)):
            g = irreducibles[i]
            if len(prod) + len(g) - 2 > max_deg:
                break  # irreducibles are sorted by degree
            f = _mul(prod, g, p)
            assert f not in table
            table[f] = factors + (g,)
            extend(i, f, factors + (g,))

    extend(0, (1,), ())
    for d in range(1, max_deg + 1):
        assert sum(len(f) - 1 == d for f in table) == p ** d
    return irreducibles, table


def _poly_algebra(F, f):
    """F_p[t]/(f) for a monic f (low-to-high tuple) as a FinDimAlgebra on
    the words '', 't', 'tt', ...: table[i][j] is t^(i+j) reduced mod f."""
    p, d = F.p, len(f) - 1
    powers = [[1] + [0] * (d - 1)]
    for _ in range(2 * d - 2):
        v = powers[-1]
        # t * v, with t^d replaced by -(f_0 + ... + f_(d-1) t^(d-1))
        powers.append([(a - v[-1] * c) % p for a, c in zip([0] + v[:-1], f)])
    return FinDimAlgebra(F, None, ["t" * i for i in range(d)],
                         [[powers[i + j] for j in range(d)]
                          for i in range(d)])


def _check_factorization(f, factors, p):
    """F_p[t]/(f) is the product of F_p[t]/(g^m) over the factors g^m of
    f: one block (1, deg g) per distinct g, and the rest is radical."""
    distinct = set(factors)
    bs = wedderburn_blocks(_poly_algebra(make_field("prime", p), f))
    assert bs.blocks == sorted((1, len(g) - 1) for g in distinct), f
    assert bs.radical_dim == len(f) - 1 - sum(len(g) - 1 for g in distinct), f


@pytest.fixture(scope="module")
def factor_tables():
    return {7: _factorization_table(7, 4), 13: _factorization_table(13, 4)}


@pytest.mark.parametrize("p, counts", [
    (7, [7, 21, 112, 588]), (13, [13, 78, 728, 7098])])
def test_irreducible_counts(factor_tables, p, counts):
    irreducibles, _ = factor_tables[p]
    assert [sum(len(g) - 1 == d for g in irreducibles)
            for d in range(1, 5)] == counts


def test_factor_modp_exhaustive(factor_tables):
    # every monic of degree <= 3 over F_7 and of degree <= 2 over F_13,
    # and every F_7 quartic with a repeated factor (a nonzero radical)
    for p, max_deg in ((7, 3), (13, 2)):
        for f, factors in factor_tables[p][1].items():
            if len(f) - 1 <= max_deg:
                _check_factorization(f, factors, p)
    repeated = [(f, factors) for f, factors in factor_tables[7][1].items()
                if len(f) == 5 and len(set(factors)) < len(factors)]
    assert len(repeated) == 7 ** 3  # p^4 - p^3 of the p^4 are squarefree
    for f, factors in repeated:
        _check_factorization(f, factors, 7)


def test_factor_modp_sampled_quartics_f13(factor_tables):
    table = factor_tables[13][1]
    quartics = sorted(f for f in table if len(f) == 5)
    for f in random.Random(7).sample(quartics, 300):
        _check_factorization(f, table[f], 13)


def test_factor_modp_rejects_zero_derivative(f7):
    # x^7 - 1 = (x - 1)^7 over F_7 has derivative 0; F_7[t]/(f) has
    # dimension p and an all-zero trace form, and its trace kernel (the
    # whole algebra) is no nilpotent ideal, so the radical is refused
    alg = _poly_algebra(f7, (6, 0, 0, 0, 0, 0, 0, 1))
    assert not any(map(any, full_gram(alg)))
    with pytest.raises(CharacteristicTooSmall):
        radical(alg)
    with pytest.raises(CharacteristicTooSmall):
        wedderburn_blocks(alg)


def test_factor_modp_two_quadratics_need_degree_two_split(f7):
    # 3 and 5 are non-squares mod 7: x^2 - 3 and x^2 - 5 are irreducible,
    # and F_7[t]/(f) = F_49 x F_49 has two blocks of center degree 2
    f = _mul((4, 0, 1), (2, 0, 1), 7)
    assert wedderburn_blocks(_poly_algebra(f7, f)).blocks == [(1, 2), (1, 2)]
    _check_factorization(f, ((4, 0, 1), (2, 0, 1)), 7)


def test_factor_modp_large_prime_products():
    # irreducibles over F_10009 certified by Euler's criterion:
    # (x - s)^2 - a with a a non-square, (x - s)^3 - a with a a non-cube
    # (10009 = 1 mod 3)
    p = 10009
    rng = random.Random(10009)
    for _ in range(6):
        factors = set()
        for deg in (1, 1, 2, 2, 3):
            s = rng.randrange(p)
            a = rng.randrange(1, p)
            if deg == 1:
                g = ((-s) % p, 1)
            elif deg == 2:
                while pow(a, (p - 1) // 2, p) == 1:
                    a = rng.randrange(1, p)
                g = ((s * s - a) % p, -2 * s % p, 1)
            else:
                while pow(a, (p - 1) // 3, p) == 1:
                    a = rng.randrange(1, p)
                g = ((-s ** 3 - a) % p, 3 * s * s % p, -3 * s % p, 1)
            factors.add(g)
        f = (1,)
        for g in factors:
            f = _mul(f, g, p)
        _check_factorization(f, tuple(factors), p)


# -- reference radical certificate: a full rank computation per product --


def _reference_span_rank(F, vectors):
    return rank(F, vectors)


def _reference_in_span(F, rows, v):
    if not rows:
        return all(c == F.zero for c in v)
    return _reference_span_rank(F, rows) == _reference_span_rank(F, rows + [v])


def _reference_is_nilpotent_ideal(alg, K):
    F = alg.field
    basis_vecs = []
    for i in range(alg.dim):
        e = [F.zero] * alg.dim
        e[i] = F.one
        basis_vecs.append(e)
    for k in K:
        for e in basis_vecs:
            if not _reference_in_span(F, K, alg.mul_vec(e, k)):
                return False
            if not _reference_in_span(F, K, alg.mul_vec(k, e)):
                return False
    current = list(K)
    prev_rank = _reference_span_rank(F, current)
    for _ in range(alg.dim + 1):
        products = [alg.mul_vec(u, v) for u in current for v in K]
        echelon, pivots = rref(F, products)
        rk = len(pivots)
        if rk == 0:
            return True
        if rk == prev_rank:
            return False
        current = echelon
        prev_rank = rk
    return False


def _basis(alg):
    F = alg.field
    return [[F.one if i == j else F.zero for j in range(alg.dim)]
            for i in range(alg.dim)]


def test_nilpotent_certificate_matches_reference(singular_alg, origin_alg):
    for alg in (singular_alg, origin_alg):
        F = alg.field
        K = kernel(F, full_gram(alg))
        not_ideal = K[:1]  # one radical vector does not span an ideal
        whole = _basis(alg)  # an ideal that contains the unit
        assert rank(F, not_ideal + [
            alg.mul_vec(e, not_ideal[0]) for e in whole]) > 1
        cases = [K, not_ideal, whole]
        if alg is origin_alg:
            # A x is a left ideal there, but not a right one
            x = alg.coords(NcPoly.gen(F, "x"))
            left = rref(F, [alg.mul_vec(e, x) for e in whole])[0]
            assert rank(F, left + [
                alg.mul_vec(e, k) for k in left for e in whole]) == len(left)
            assert rank(F, left + [
                alg.mul_vec(k, e) for k in left for e in whole]) > len(left)
            cases.append(left)
        verdicts = [repthy._is_nilpotent_ideal(alg, k) for k in cases]
        assert verdicts == [True] + [False] * (len(cases) - 1)
        assert verdicts == [_reference_is_nilpotent_ideal(alg, k)
                            for k in cases]

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


def _cube_root_of_unity(p):
    """The smallest primitive cube root of unity mod p (p = 1 mod 3)."""
    return next(a for a in range(2, p) if pow(a, 3, p) == 1)


def _reference_x_forms(field):
    """The canonical x-images as first written, with a cube root of unity
    w: diag(alpha, alpha*w) for alpha = 1..p-1, then the Jordan block."""
    p = field.p
    w = _cube_root_of_unity(p)
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


def _trace_det(X, p):
    (a, b), (c, d) = X
    return (a + d) % p, (a * d - b * c) % p


def test_dim2_x_forms_match_reference(f7, monkeypatch):
    # a non-scalar 2 x 2 matrix is conjugate to the companion matrix of
    # its characteristic polynomial, so each companion form is conjugate
    # to the diagonal form with its trace and determinant, and the sweep
    # finds as many solutions at it as the reference sweep there
    p = 7
    diagonal = {_trace_det(X, p): X for X in _reference_x_forms(f7)}
    forms = dim2_x_forms(f7)
    assert len(forms) == len(diagonal) == p
    for x0, x1, x2, x3 in forms:
        assert (x1, x2, x0) != (0, 0, x3)
        X = diagonal.pop(_trace_det(((x0, x1), (x2, x3)), p))
        monkeypatch.setattr(repthy, "dim2_x_forms",
                            lambda field: [(x0, x1, x2, x3)])
        res = search_irreps_dim2(f7)
        irreducible, reducible = _reference_sweep(X, p)
        assert res["irreducible_pairs"] == irreducible == []
        assert res["reducible_solutions"] == reducible
    assert diagonal == {}


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
    for x0, x1, x2, x3 in dim2_x_forms(f7):
        X = ((x0, x1), (x2, x3))
        for Y in _all_y(p):
            e, f = _m2_mul(X, Y, p), _m2_mul(Y, X, p)
            k = [u - v for u, v in zip(e, f)]
            det = (k[0] * k[3] - k[1] * k[2]) % p
            assert (det != 0) == (_burnside_span(X, Y, p) == 4), (X, Y)


def _mul2(a, b, p):
    """Product of two 2x2 matrices of residues mod p."""
    return [[sum(a[i][k] * b[k][j] for k in range(2)) % p for j in range(2)]
            for i in range(2)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 31])
def test_dim2_x_cubes_are_scalar(p):
    F = make_field("prime", p)
    forms = dim2_x_forms(F)
    assert len(forms) == p
    for x0, x1, x2, x3 in forms:
        X = [[x0, x1], [x2, x3]]
        (c0, c1), (c2, c3) = _mul2(_mul2(X, X, p), X, p)
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


@pytest.mark.parametrize("kind, p", [("rational", None), ("prime", 13),
                                     ("prime", 10009)])
def test_dim2_certificate_holds(kind, p):
    assert dim2_certificate(make_field(kind, p)) is True


def _flip_mixed_sign(field):
    rels = clifford_relations(field)
    rels[1] = rels[1].sub(NcPoly.word(field, "xyxy", 2))
    return rels


def _wrong_third_scalar(s, t, dx, dy, tau):
    return s * s - dx, s * t + tau, t * t + dy


@pytest.mark.parametrize("name, mutant", [
    ("clifford_relations", _flip_mixed_sign),
    ("dim2_relation_scalars", _wrong_third_scalar)])
def test_dim2_certificate_rejects_mutants(f13, capsys, monkeypatch, name,
                                          mutant):
    monkeypatch.setattr(repthy, name, mutant)
    assert dim2_certificate(f13) is False
    assert cli_main(["verify-all", "--prime", "13"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["results"]["no_dim2_irreps"] is False
    assert not payload["ok"]


@pytest.mark.parametrize("p, solutions", [(7, 931), (11, 1331), (13, 6253)])
def test_dim2_identities_predict_sweep_count(p, solutions):
    # the solutions the identities predict for each canonical X: the p^2
    # Y commuting with X, and the Y with K = [X, Y] != 0 at which every
    # relation scalar vanishes.  The sweep finds the same number
    # (test_search_dim2_empty, test_search_dim2_counts_f13).
    F = make_field("prime", p)
    total = 0
    for x0, x1, x2, x3 in dim2_x_forms(F):
        s, dx, dd = x0 + x3, x0 * x3 - x1 * x2, x0 - x3
        commuting = 0
        for y0, y1, y2, y3 in itertools.product(range(p), repeat=4):
            if not ((x1 * y2 - x2 * y1) % p or (dd * y1 - x1 * (y0 - y3)) % p
                    or (x2 * (y0 - y3) - dd * y2) % p):
                commuting += 1
                continue
            tau = x0 * y0 + x1 * y2 + x2 * y1 + x3 * y3
            g = dim2_relation_scalars(s, y0 + y3, dx, y0 * y3 - y1 * y2, tau)
            total += not any(v % p for v in g)
        assert commuting == p * p
        total += commuting
    assert total == solutions


def test_search_dim1_at_singular_points(f13):
    # (1,1,1,1,0,0) comes from (a,b) = (1,1) and its twists by cube
    # roots of unity
    sols = search_irreps_dim1(f13, central_point(f13, 1, 1, 1, 1, 0, 0))
    assert len(sols) == 3
    assert (1, 1) in sols
    w = _cube_root_of_unity(13)
    assert (w, w) in sols


def test_search_dim1_origin(f13):
    assert search_irreps_dim1(
        f13, central_point(f13, 0, 0, 0, 0, 0, 0)) == [(0, 0)]


def test_search_dim1_off_singular(f13):
    pt = enumerate_center_fiber(f13, 1, 0, 0, 1)[0]
    assert search_irreps_dim1(f13, pt) == []


def test_search_dim1_brute_force_f7(f7):
    # every (a, b) whose plain-integer cube image is the point, at all
    # 2,401 points with e = f = 0; each (a, b) is found exactly once
    p = f7.p
    brute = {}
    for a, b in itertools.product(range(p), repeat=2):
        key = (a ** 3 % p, a * a * b % p, a * b * b % p, b ** 3 % p)
        brute.setdefault(key, []).append((a, b))
    found = 0
    for coords in itertools.product(range(p), repeat=4):
        pt = central_point(f7, *coords, 0, 0, check=False)
        sols = search_irreps_dim1(f7, pt)
        assert sols == brute.get(coords, [])
        found += len(sols)
    assert found == p * p
