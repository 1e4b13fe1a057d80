import hashlib

import pytest

from cubiclifford.center import (center_relation_residue, central_elements,
                                 centrality_report, formal_discriminant_nc,
                                 verify_centrality)
from cubiclifford.fields import make_field
from cubiclifford.freealg import NcPoly, clifford_relations
from cubiclifford.rewrite import complete


def test_z0_and_z3_are_single_words(f13):
    z = central_elements(f13)
    assert z.z0.terms == {"xxx": 1}
    assert z.z3.terms == {"yyy": 1}


def test_z1_z2_have_three_terms_with_third_coefficients(f13):
    z = central_elements(f13)
    third = f13.inv(f13.of(3))
    assert z.z1.terms == {"xxy": third, "xyx": third, "yxx": third}
    assert z.z2.terms == {"yyx": third, "yxy": third, "xyy": third}


def test_z4_is_homogeneous_degree_six(f13):
    z = central_elements(f13)
    assert all(len(w) == 6 for w in z.z4.terms)


def test_z5_two_expansions_agree_mod_relations(system13, f13):
    z = central_elements(f13)
    assert z.z5 != z.z5_alt  # distinct in the free algebra
    assert system13.normal_form(z.z5) == system13.normal_form(z.z5_alt)


def _system(field):
    return complete(clifford_relations(field), degree_bound=13)


@pytest.mark.parametrize("kind, p", [("prime", 5), ("prime", 11),
                                     ("prime", 17), ("rational", None)])
def test_z4_needs_no_cube_root_of_unity(kind, p):
    # F_5, F_11, F_17 and Q hold no primitive cube root of unity
    F = make_field(kind, p)
    system = _system(F)
    assert len(central_elements(F).z4.terms) == 12
    assert all(centrality_report(system, F).values())
    assert center_relation_residue(system, F).is_zero()


def _omega_z4(F, w):
    """z4 as first transcribed, with a primitive cube root of unity w:
    (yx - w xy)^3 - (3/2) w (1 - w) x^3 y^3 - (9/2)(1 + 2 w^2) z1 z2."""
    z = central_elements(F)
    half = F.inv(2)
    u = NcPoly.word(F, "yx").sub(NcPoly.word(F, "xy", w))
    return (u.pow(3)
            .sub(NcPoly.word(F, "xxxyyy", 3 * half * w * (1 - w)))
            .sub(z.z1.mul(z.z2).scale(9 * half * (1 + 2 * w * w))))


@pytest.mark.parametrize("p", [7, 13, 31, 10009])
def test_omega_form_of_z4_agrees(p):
    F = make_field("prime", p)
    w = next(a for a in range(2, p) if pow(a, 3, p) == 1)
    old, z4 = _omega_z4(F, w), central_elements(F).z4
    assert len(old.terms) == 14 and old != z4
    assert _system(F).normal_form(old.sub(z4)).is_zero()


@pytest.mark.parametrize("fixture", ["system13", "system31"])
def test_all_six_central(fixture, request):
    system = request.getfixturevalue(fixture)
    rep = centrality_report(system, system.field)
    assert all(rep.values()), rep


def test_x_is_not_central(system13, f13):
    assert not verify_centrality(system13, NcPoly.gen(f13, "x"))


def test_unit_is_central(system13, f13):
    assert verify_centrality(system13, NcPoly.one(f13))


def test_zero_is_central(system13, f13):
    assert verify_centrality(system13, NcPoly.zero(f13))


def test_formal_discriminant_degree_12(f13):
    delta = formal_discriminant_nc(f13)
    assert all(len(w) == 12 for w in delta.terms)


def test_formal_discriminant_pinned(f13):
    # sha256 of the serialized expansion, recorded before the discriminant
    # was shared with commgeo; the product order must not change
    text = formal_discriminant_nc(f13).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "bbd0e4e060fc70e7238bbcfb151511731ea63eefab087da6a060a68a60b2d3a9")


def test_formal_discriminant_commutes_with_x(system13, f13):
    delta = formal_discriminant_nc(f13)
    x = NcPoly.gen(f13, "x")
    assert system13.normal_form(delta.mul(x).sub(x.mul(delta))).is_zero()


@pytest.mark.parametrize("fixture", ["system13", "system31"])
def test_center_relation(fixture, request):
    system = request.getfixturevalue(fixture)
    assert center_relation_residue(system, system.field).is_zero()


def test_center_relation_needs_the_discriminant_term(system13, f13):
    # z4^2 - z5^3 alone is NOT zero; the 27*Delta term is essential
    z = central_elements(f13)
    pert = system13.normal_form(z.z4.mul(z.z4).sub(z.z5.pow(3)))
    assert not pert.is_zero()


def test_relation_residue_is_reported(system13, f13):
    assert center_relation_residue(system13, f13).is_zero()
