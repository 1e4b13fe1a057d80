"""Commutative side: binary-cubic discriminant, the discriminant
hypersurface in z0..z3 with its partials, the twisted cubic, and
singular-locus membership for central points.

The minors, the discriminant and the cube map are each written once, with
``+ - *``, and run on residues, ``Fraction``s, CommPoly and NcPoly alike:
the symbolic checks exercise the code behind the numeric verdicts.
CommPoly takes its arithmetic from ``freealg.SparsePoly``, as NcPoly does;
it adds only how exponent tuples multiply, ``diff`` and ``evaluate``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ZeroPoint
from .freealg import SparsePoly


class CommPoly(SparsePoly):
    """Sparse commutative polynomial in ``nvars`` variables: exponent
    tuple -> scalar."""

    __slots__ = ("nvars",)

    def __init__(self, field, nvars, terms=None):
        super().__init__(field, terms)
        self.nvars = nvars

    @staticmethod
    def _mono_mul(e1, e2):
        return tuple(map(operator.add, e1, e2))  # exponents add

    def _unit(self):
        return (0,) * self.nvars

    def _like(self, terms):
        return CommPoly(self.field, self.nvars, terms)

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def const(cls, field, nvars, c):
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def var(cls, field, nvars, i):
        e = [0] * nvars
        e[i] = 1
        return cls(field, nvars, {tuple(e): field.one})

    def diff(self, i):
        """Partial derivative in variable i."""
        return CommPoly(self.field, self.nvars, {
            e[:i] + (e[i] - 1,) + e[i + 1:]: e[i] * c
            for e, c in self.terms.items() if e[i]})

    def evaluate(self, values):
        F = self.field
        values = [F.of(v) for v in values]
        total = F.zero
        for e, c in self.terms.items():
            for exp, v in zip(e, values):
                c *= v ** exp
            total += c
        return F.of(total)

    def __repr__(self):
        return f"CommPoly({self.nvars} vars, {len(self.terms)} terms)"


@dataclass(frozen=True)
class CentralPoint:
    """A maximal ideal of the center: coordinates (a,b,c,d,e,f) of
    (z0,...,z5), subject to e^2 = f^3 - 27 D(a,b,c,d)."""
    a: object
    b: object
    c: object
    d: object
    e: object
    f: object

    def coords(self):
        return (self.a, self.b, self.c, self.d, self.e, self.f)


def central_point(field, a, b, c, d, e, f, check=True) -> CentralPoint:
    pt = CentralPoint(*map(field.of, (a, b, c, d, e, f)))
    if check and not point_on_fiber(field, pt):
        raise ValueError(
            f"({a},{b},{c},{d},{e},{f}) violates e^2 = f^3 - 27 D(a,b,c,d)")
    return pt


def _fiber_rhs(field, f, d_val):
    """f^3 - 27 D, the value e^2 must take over a base point."""
    return field.of(f * f * f - 27 * d_val)


def point_on_fiber(field, pt: CentralPoint) -> bool:
    d_val = discriminant_value(field, pt.a, pt.b, pt.c, pt.d)
    return field.of(pt.e * pt.e) == _fiber_rhs(field, pt.f, d_val)


def minors(a, b, c, d):
    """The three 2x2 catalecticant minors (ad - bc, ac - b^2, bd - c^2),
    over any ring with ``+ - *``."""
    return a * d - b * c, a * c - b * b, b * d - c * c


def discriminant(a, b, c, d, quarter):
    """quarter*(ad - bc)^2 - (ac - b^2)(bd - c^2), products in the written
    order, over any ring with ``+ - *``; ``quarter`` is 1/4 of its field."""
    s, t, u = minors(a, b, c, d)
    return quarter * (s * s) - t * u


def discriminant_value(field, a, b, c, d):
    """D = (1/4)(ad - bc)^2 - (ac - b^2)(bd - c^2) of the binary cubic form
    f = a u^3 + 3b u^2 v + 3c u v^2 + d v^3."""
    F = field
    return F.of(discriminant(*map(F.of, (a, b, c, d)), F.inv(F.of(4))))


def delta_poly(field) -> CommPoly:
    """The discriminant hypersurface polynomial in z0..z3."""
    F = field
    z = [CommPoly.var(F, 4, i) for i in range(4)]
    return discriminant(*z, F.inv(F.of(4)))


def delta_partials(field):
    """The four partials of delta, by symbolic differentiation."""
    delta = delta_poly(field)
    return [delta.diff(i) for i in range(4)]


def cube_map(x0, x1):
    """(x0^3, x0^2 x1, x0 x1^2, x1^3), over any ring with ``*``."""
    return x0 * x0 * x0, x0 * x0 * x1, x0 * x1 * x1, x1 * x1 * x1


def twisted_cubic_point(field, x0, x1):
    """(x0^3, x0^2 x1, x0 x1^2, x1^3); rejects (0, 0)."""
    F = field
    x0, x1 = F.of(x0), F.of(x1)
    if x0 == F.zero and x1 == F.zero:
        raise ZeroPoint("(0,0) is not a point of P^1")
    return tuple(map(F.of, cube_map(x0, x1)))


def on_twisted_cubic(field, a, b, c, d) -> bool:
    """Vanishing of the three 2x2 catalecticant minors (reduced variety)."""
    F = field
    return all(F.of(m) == F.zero for m in minors(*map(F.of, (a, b, c, d))))


def singular_locus_membership(field, pt: CentralPoint) -> bool:
    """True iff the point lies on the singular locus of the center:
    e = f = 0 and (a,b,c,d) on the (affine) twisted cubic."""
    F = field
    return (pt.e == F.zero and pt.f == F.zero
            and on_twisted_cubic(F, pt.a, pt.b, pt.c, pt.d))


def enumerate_center_fiber(field, a, b, c, d):
    """All (e, f) in F_p^2 over a base point of A^4, as CentralPoints."""
    F = field
    d_val = discriminant_value(F, a, b, c, d)
    # square roots table of F_p
    roots = {}
    for e in F.elements():
        roots.setdefault(F.of(e * e), []).append(e)
    out = []
    for f in F.elements():
        for e in roots.get(_fiber_rhs(F, f, d_val), ()):
            out.append(central_point(F, a, b, c, d, e, f, check=False))
    return out
