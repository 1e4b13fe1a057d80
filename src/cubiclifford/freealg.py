"""The free algebra k<x,y>: words, noncommutative polynomials, relations.

Words are plain strings over the alphabet ``xy`` ("" is the empty word,
printed as "1"), ordered by degree and then by x > y at the first
differing letter (:func:`word_key`).  Under this order the normal words
of the generic Clifford system are y^i (xy^2)^j (xy)^k (x^2y)^l x^m.
Polynomials are zero-free dicts word -> scalar, wrapped in
:class:`NcPoly` together with their field.  NcPoly and
``commgeo.CommPoly`` share one arithmetic, :class:`SparsePoly`; its term
accumulation ``add_term`` also builds completion's S-polynomials.
Coefficients are combined with ``+ - *`` and put in canonical form by
``field.of``, which the constructor applies to every term, so a result
built from a dict of plain expressions needs no reduction of its own.
"""

from __future__ import annotations

import operator
import re

from .errors import FieldMismatch


def word_key(word: str):
    """Sort key that lists words from the largest down.  As characters,
    'x' < 'y': within one length the order is string order reversed, so
    ``(-len(w), w)`` realizes it with no translation."""
    return (-len(word), word)


def add_term(terms, m, c, field):
    """Add c to the coefficient of m in a zero-free dict, dropping zeros."""
    s = field.of(terms.get(m, field.zero) + c)
    if s != field.zero:
        terms[m] = s
    else:
        terms.pop(m, None)


class SparsePoly:
    """Zero-free map monomial -> scalar, every scalar in canonical form
    (``field.of``).  A subclass says how its monomials multiply
    (``_mono_mul(m1, m2)``, and the monomial 1, ``_unit()``) and how to
    build a result of its own kind (``_like(terms)``)."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        self.terms = {}
        if terms:
            of, z = field.of, field.zero
            for m, c in terms.items():
                c = of(c)
                if c != z:
                    self.terms[m] = c

    @staticmethod
    def _mono_mul(m1, m2):
        raise NotImplementedError

    def _unit(self):
        raise NotImplementedError

    def _like(self, terms):
        raise NotImplementedError

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.field != other.field:
            raise FieldMismatch("operands live over different fields")

    def add(self, other):
        self._check(other)
        F = self.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c, F)
        return self._like(out)

    def neg(self):
        return self._like({m: -c for m, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        return self._like({m: c * a for m, a in self.terms.items()})

    def mul(self, other):
        self._check(other)
        F, mono = self.field, self._mono_mul
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                add_term(out, mono(m1, m2), c1 * c2, F)
        return self._like(out)

    __add__ = add
    __sub__ = sub
    __mul__ = mul
    __rmul__ = scale

    def pow(self, n: int):
        out = self._like({self._unit(): self.field.one})
        for _ in range(n):
            out = out.mul(self)
        return out

    def __eq__(self, other):
        return (type(other) is type(self) and self.field == other.field
                and self.terms == other.terms)


class NcPoly(SparsePoly):
    """Noncommutative polynomial: zero-free map word -> scalar."""

    __slots__ = ()

    _mono_mul = staticmethod(operator.add)  # words concatenate

    def _unit(self):
        return ""

    def _like(self, terms):
        return NcPoly(self.field, terms)

    @classmethod
    def zero(cls, field):
        return cls(field)

    @classmethod
    def one(cls, field):
        return cls(field, {"": field.one})

    @classmethod
    def gen(cls, field, letter):
        return cls(field, {letter: field.one})

    @classmethod
    def word(cls, field, w, coeff=None):
        return cls(field, {w: field.one if coeff is None else coeff})

    def degree(self):
        """Length of the longest word; -1 for the zero polynomial."""
        return max(map(len, self.terms), default=-1)

    def serialize(self) -> str:
        """Canonical text form "c1*w1 + c2*w2 + ..." (words as letters, 1
        for the empty word), largest word first."""
        terms = sorted(self.terms.items(), key=lambda wc: word_key(wc[0]))
        return " + ".join(f"{c}*{w or '1'}" for w, c in terms) or "0"

    def __repr__(self):
        return f"NcPoly({self.serialize()})"


_TERM_RE = re.compile(r"^\s*(?:(-?\d+(?:/\d+)?)\s*\*\s*)?([xy]+|1)\s*$")


def parse_poly(field, text: str) -> NcPoly:
    """Parse the serialize() format back into a polynomial."""
    text = text.strip()
    if text == "0":
        return NcPoly.zero(field)
    F = field
    out = NcPoly.zero(field)
    for chunk in re.split(r"\+(?![^(]*\))", text.replace("- ", "+ -")):
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        coeff_s, word = m.groups()
        num, _, den = (coeff_s or "1").partition("/")
        try:
            c = int(num) * F.inv(int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        w = "" if word == "1" else word
        out = out.add(NcPoly.word(F, w, c))
    return out


def commutator(p: NcPoly, q: NcPoly) -> NcPoly:
    return p.mul(q).sub(q.mul(p))


def clifford_relations(field):
    """The three defining relations of the generic Clifford algebra:
    x^3 commutes with y, the mixed degree-4 relation, y^3 commutes with x.
    """
    F = field
    return [
        NcPoly(F, {"xxxy": 1, "yxxx": -1}),
        NcPoly(F, {"xxyy": 1, "xyxy": 1, "yxyx": -1, "yyxx": -1}),
        NcPoly(F, {"xyyy": 1, "yyyx": -1}),
    ]
