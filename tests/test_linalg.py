import random

import pytest

from cubiclifford.errors import NotSquare
from cubiclifford.fields import make_field
from cubiclifford.linalg import det, kernel, rank, rref
from cubiclifford.pointmod import PointTriple, proj_point, step_matrix


def _zero(F, rows, cols):
    return [[F.zero] * cols for _ in range(rows)]


def _identity(F, n):
    return [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]


def test_rref_identity(f13):
    echelon, piv = rref(f13, _identity(f13, 3))
    assert echelon == _identity(f13, 3) and piv == [0, 1, 2]


def test_rref_zero(f13):
    assert rank(f13, _zero(f13, 3, 2)) == 0


def test_step_matrix_rank_one(f13):
    # next-point system at p0=(1,0), p1=(1,1), p2=(0,1) drops to rank 1
    t = PointTriple(proj_point(f13, 1, 0), proj_point(f13, 1, 1),
                    proj_point(f13, 0, 1))
    assert rank(f13, step_matrix(f13, t)) == 1


def test_kernel_identity_empty(f13):
    assert kernel(f13, _identity(f13, 3)) == []


def test_kernel_zero_full(f13):
    assert len(kernel(f13, _zero(f13, 2, 2))) == 2


def test_kernel_symmetric(f13):
    assert kernel(f13, [[1, f13.of(-1)]]) == [[1, 1]]


def test_det_identity(f13):
    assert det(f13, _identity(f13, 4)) == f13.one


def test_det_abc_matrix_repeated_point_vanishes(f13):
    # gamma = det of the 3x3 system matrix; gamma^2 = XYZ and X = 0 when
    # the first two points coincide
    F = f13
    x0, y0 = x1, y1 = 1, 5
    x2, y2 = 1, 7
    m = [
        [F.of(x2 * y2), F.of(x1 * y1), F.of(x0 * y0)],
        [F.of(x2 * x2), F.of(x1 * x1), F.of(x0 * x0)],
        [F.of(y2 * y2), F.of(y1 * y1), F.of(y0 * y0)],
    ]
    assert det(F, m) == F.zero


def test_det_diagonal(f13):
    assert det(f13, [[2, 0], [0, 3]]) == 6


def test_det_requires_square(f13):
    with pytest.raises(NotSquare):
        det(f13, _zero(f13, 2, 3))


def test_rank_equals_transpose_rank(f13):
    rng = random.Random(1)
    for _ in range(20):
        m = [[rng.randrange(13) for _ in range(4)] for _ in range(3)]
        assert rank(f13, m) == rank(f13, list(zip(*m)))


def test_kernel_vectors_annihilate(f13):
    rng = random.Random(2)
    for _ in range(20):
        m = [[rng.randrange(13) for _ in range(5)] for _ in range(3)]
        for v in kernel(f13, m):
            assert all(sum(a * b for a, b in zip(row, v)) % 13 == 0
                       for row in m)


# -- reference: every entry reduced with F.of, as before the row form --


def _reference_mul(F, a, b):
    cols = len(b[0])
    out = _zero(F, len(a), cols)
    for row, orow in zip(a, out):
        for x, brow in zip(row, b):
            if x == F.zero:
                continue
            for j in range(cols):
                orow[j] = F.of(orow[j] + x * brow[j])
    return out


def _cols(m):
    return len(m[0]) if m else 0


def _reference_rref(F, m):
    """(all rows of the reduced form, rank, pivot columns)."""
    a = [list(row) for row in m]
    rows, cols = len(m), _cols(m)
    pivots = []
    r = 0
    for c in range(cols):
        pr = None
        for i in range(r, rows):
            if a[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = F.inv(a[r][c])
        a[r] = [F.of(inv * e) for e in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != F.zero:
                f = a[i][c]
                a[i] = [F.of(e - f * pe) for e, pe in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a, r, pivots


def _reference_det(F, m):
    a = [list(row) for row in m]
    n = len(m)
    d = F.one
    for c in range(n):
        pr = None
        for i in range(c, n):
            if a[i][c] != F.zero:
                pr = i
                break
        if pr is None:
            return F.zero
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            d = F.of(-d)
        d = F.of(d * a[c][c])
        inv = F.inv(a[c][c])
        for i in range(c + 1, n):
            if a[i][c] != F.zero:
                f = F.of(a[i][c] * inv)
                a[i] = [F.of(e - f * pe) for e, pe in zip(a[i], a[c])]
    return d


def _scalar(F, rng):
    if F.p:
        return rng.randrange(F.p)
    return F.of(rng.randint(-6, 6)) * F.inv(rng.randint(1, 5))


def _random_matrix(F, rng, rows, cols, rank_cap=None):
    """Random rows x cols matrix; with rank_cap, a product of random
    rows x rank_cap and rank_cap x cols factors, so rank <= rank_cap."""
    if rank_cap is None:
        return [[_scalar(F, rng) for _ in range(cols)] for _ in range(rows)]
    return _reference_mul(F, _random_matrix(F, rng, rows, rank_cap),
                          _random_matrix(F, rng, rank_cap, cols))


def _oracle_cases(F, seed):
    rng = random.Random(seed)
    cases = [[], [[], [], []], _zero(F, 3, 4), _zero(F, 4, 4),
             _identity(F, 5)]
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        cap = rng.choice([None, None, 1, 2, 3])
        cases.append(_random_matrix(F, rng, rows, cols, cap))
    # a repeated row and a zero column
    m = _random_matrix(F, rng, 4, 5)
    m[2] = list(m[0])
    for row in m:
        row[1] = F.zero
    cases.append(m)
    return cases


@pytest.fixture(params=[13, 10009, "Q"], ids=["F13", "F10009", "Q"])
def oracle_field(request, f13, rationals):
    if request.param == "Q":
        return rationals
    return f13 if request.param == 13 else make_field("prime", 10009)


def test_rref_matches_reference(oracle_field):
    F = oracle_field
    for m in _oracle_cases(F, 11):
        before = [list(row) for row in m]
        echelon, piv = rref(F, m)
        R0, rk0, piv0 = _reference_rref(F, m)
        assert (echelon, piv) == (R0[:rk0], piv0), m
        # the rows rref drops are the reference's zero rows
        assert len(R0) == len(m) and not any(map(any, R0[rk0:])), m
        assert m == before


def test_det_matches_reference(oracle_field):
    F = oracle_field
    rng = random.Random(12)
    squares = [m for m in _oracle_cases(F, 13) if len(m) == _cols(m)]
    squares += [_random_matrix(F, rng, n, n, cap)
                for n in range(1, 8) for cap in (None, n - 1 or None)]
    assert len(squares) > 15
    for m in squares:
        before = [list(row) for row in m]
        assert det(F, m) == _reference_det(F, m), m
        assert m == before
