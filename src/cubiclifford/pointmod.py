"""Point modules: the step linear system, three-periodicity, central
characters of diagonal point modules, and predicted simple-quotient
dimensions for a triple of P^1 points.

The step rows, read off `freealg.clifford_relations`, X, Y, Z, the rows
of the a = b = c system and gamma are written once, with ``+ - *``, and
run on field elements and on commutative polynomials alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commgeo import CentralPoint, CommPoly, central_point, cube_map
from .errors import KernelDimensionUnexpected, ZeroPoint
from .fields import RationalField
from .freealg import clifford_relations
from .linalg import kernel


@dataclass(frozen=True)
class ProjPoint:
    """A point of P^1 in canonical form: first nonzero coordinate is 1."""
    x: object
    y: object


def proj_point(field, x, y) -> ProjPoint:
    F = field
    x, y = F.of(x), F.of(y)
    if x == F.zero and y == F.zero:
        raise ZeroPoint("(0,0) does not define a point of P^1")
    if x != F.zero:
        return ProjPoint(F.one, F.of(F.inv(x) * y))
    return ProjPoint(F.zero, F.one)


def all_proj_points(field):
    """The p+1 points of P^1(F_p), in canonical order."""
    pts = [proj_point(field, 1, b) for b in field.elements()]
    pts.append(proj_point(field, 0, 1))
    return pts


@dataclass(frozen=True)
class PointTriple:
    p0: ProjPoint
    p1: ProjPoint
    p2: ProjPoint

    def is_diagonal(self):
        return self.p0 == self.p1 == self.p2


def _step_rows(relations, t: PointTriple):
    """Row (x3, y3 coefficients) of each degree-4 relation, over any ring:
    a1a2a3a4 sends m0 to p0(a4) p1(a3) p2(a2) p3(a1) m4, and a point's
    coordinate attributes are named by the letters."""
    rows = []
    for rel in relations:
        row = {}
        for (a1, a2, a3, a4), c in rel.terms.items():
            v = c * getattr(t.p0, a4) * getattr(t.p1, a3) * getattr(t.p2, a2)
            row[a1] = row[a1] + v if a1 in row else v
        rows.append([row["x"], row["y"]])
    return rows


def step_matrix(field, t: PointTriple) -> list:
    """The 3x2 system whose kernel determines the next point (x3, y3), as
    a list of rows, one per defining relation."""
    return [field.reduce_row(row)
            for row in _step_rows(clifford_relations(field), t)]


def solve_next(field, t: PointTriple) -> ProjPoint:
    """Unique projective solution of the step system; asserted (not
    assumed) to equal p0, so three-periodicity is checked on every call."""
    ker = kernel(field, step_matrix(field, t))
    if len(ker) != 1:
        raise KernelDimensionUnexpected(
            f"step system has kernel dimension {len(ker)}, expected 1")
    nxt = proj_point(field, ker[0][0], ker[0][1])
    if nxt != t.p0:
        raise KernelDimensionUnexpected(
            f"next point {nxt} differs from p0 {t.p0}")
    return nxt


def central_character_diagonal(field, p: ProjPoint) -> CentralPoint:
    """Central character of the diagonal point module at p = (a, b):
    (a^3, a^2 b, a b^2, b^3, 0, 0), always on the singular locus."""
    F = field
    return central_point(F, *cube_map(p.x, p.y), F.zero, F.zero, check=False)


def _invariants(x0, y0, x1, y1, x2, y2):
    """X, Y, Z of a triple and the rows of the 3x3 system whose product
    with (X, Y, Z) is (a, b, c), over any ring with ``+ - *``."""
    X, Y, Z = (v * v for v in (x1 * y0 - x0 * y1, x2 * y0 - x0 * y2,
                               x2 * y1 - x1 * y2))
    rows = ((x2 * y2, x1 * y1, x0 * y0),
            (x2 * x2, x1 * x1, x0 * x0),
            (y2 * y2, y1 * y1, y0 * y0))
    return X, Y, Z, rows


def _det3(rows):
    """Cofactor expansion of a 3x3 determinant along the first row."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def gamma_invariants(field, t: PointTriple):
    """The proof quantities (a, b, c, X, Y, Z, gamma) for a triple:
    (a, b, c) is the system's rows times (X, Y, Z), gamma its determinant."""
    X, Y, Z, rows = _invariants(t.p0.x, t.p0.y, t.p1.x, t.p1.y,
                                t.p2.x, t.p2.y)
    a, b, c = (r0 * X + r1 * Y + r2 * Z for r0, r1, r2 in rows)
    values = {"a": a, "b": b, "c": c, "X": X, "Y": Y, "Z": Z,
              "gamma": _det3(rows)}
    return {k: field.of(v) for k, v in values.items()}


def abc_system_admits_solution(field, t: PointTriple) -> bool:
    """Whether the actual (X, Y, Z) of the triple solves a = b = c = 0.

    For non-diagonal triples this must be False (the proof's
    contradiction), so a 1-dimensional simple quotient cannot exist."""
    inv = gamma_invariants(field, t)
    return inv["a"] == inv["b"] == inv["c"] == field.zero


def predict_simple_quotient(field, t: PointTriple):
    """Possible dimensions of a simple quotient of the point module:
    {1} on the diagonal, {0, 3} off it (0 encodes the trivial quotient)."""
    return {1} if t.is_diagonal() else {0, 3}


def gamma_squared_identity_symbolic() -> bool:
    """gamma^2 = X*Y*Z as a polynomial identity in x0,y0,x1,y1,x2,y2
    over the rationals: `_invariants` and `_det3` run on commutative
    polynomials."""
    Q = RationalField()
    X, Y, Z, rows = _invariants(*(CommPoly.var(Q, 6, i) for i in range(6)))
    gamma = _det3(rows)
    return gamma * gamma == X * Y * Z
