"""The six central elements of the generic Clifford algebra and the
noncommutative formal discriminant (`commgeo.discriminant` on z0..z3),
with computational verification of centrality and of the single center
relation z4^2 = z5^3 - 27*Delta.

All constants are transcribed literally and then *checked* by normal-form
computation; a failed check reports the offending normal form instead of
silently adjusting anything.
"""

from __future__ import annotations

from dataclasses import dataclass

from .commgeo import discriminant
from .errors import DegreeOutOfRange
from .freealg import NcPoly, commutator


@dataclass
class CenterElements:
    z0: NcPoly
    z1: NcPoly
    z2: NcPoly
    z3: NcPoly
    z4: NcPoly
    z5: NcPoly
    #: alternate expansion (yx)^2 - x^2y^2 of z5, for cross-checking
    z5_alt: NcPoly

    def as_list(self):
        return [self.z0, self.z1, self.z2, self.z3, self.z4, self.z5]


def central_elements(field) -> CenterElements:
    """Fully expanded central elements, over any field of characteristic
    not 2 or 3.  z4 is written without a cube root of unity:

        z4 = (yx)^3 - (xy)^3 - xyxyyx - xyyxxy - yxxyxy
             - (3/2) x^3 y^3 + (9/2) z1 z2,

    12 words once z1 z2 is expanded."""
    F = field
    third = F.inv(F.of(3))
    half = F.inv(F.of(2))

    z0 = NcPoly.word(F, "xxx")
    z1 = NcPoly(F, {"xxy": third, "xyx": third, "yxx": third})
    z2 = NcPoly(F, {"yyx": third, "yxy": third, "xyy": third})
    z3 = NcPoly.word(F, "yyy")
    words = NcPoly(F, {"yxyxyx": 1, "xyxyxy": -1, "xyxyyx": -1,
                       "xyyxxy": -1, "yxxyxy": -1, "xxxyyy": -3 * half})
    z4 = words.add(z1.mul(z2).scale(9 * half))

    z5 = NcPoly(F, {"xyxy": 1, "yyxx": -1})
    z5_alt = NcPoly(F, {"yxyx": 1, "xxyy": -1})

    return CenterElements(z0, z1, z2, z3, z4, z5, z5_alt)


def formal_discriminant_nc(field) -> NcPoly:
    """Degree-12 expansion of
    (1/4)(z0 z3 - z1 z2)^2 - (z0 z2 - z1^2)(z1 z3 - z2^2)
    in the free algebra: `commgeo.discriminant` on z0..z3, products taken
    in the written order."""
    z = central_elements(field)
    return discriminant(z.z0, z.z1, z.z2, z.z3, field.inv(field.of(4)))


def verify_centrality(system, p: NcPoly) -> bool:
    """True iff p commutes with both generators modulo the relations."""
    if p.degree() + 1 > system.confluent_to:
        raise DegreeOutOfRange("commutators would exceed the certified bound")
    F = system.field
    for letter in ("x", "y"):
        g = NcPoly.gen(F, letter)
        if not system.normal_form(commutator(p, g)).is_zero():
            return False
    return True


def centrality_report(system, field) -> dict:
    """Per-element centrality verdicts plus the z5 cross-check."""
    z = central_elements(field)
    verdicts = {
        f"z{i}": verify_centrality(system, zi)
        for i, zi in enumerate(z.as_list())
    }
    verdicts["z5_two_expansions_agree"] = (
        system.normal_form(z.z5) == system.normal_form(z.z5_alt)
    )
    return verdicts


def center_relation_residue(system, field) -> NcPoly:
    """Normal form of z4^2 - z5^3 + 27*Delta (zero iff the relation holds)."""
    if system.confluent_to < 12:
        raise DegreeOutOfRange("center relation lives in degree 12")
    z = central_elements(field)
    delta = formal_discriminant_nc(field)
    expr = (z.z4.mul(z.z4)
            .sub(z.z5.mul(z.z5).mul(z.z5))
            .add(delta.scale(27)))
    return system.normal_form(expr)
