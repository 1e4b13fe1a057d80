import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from cubiclifford import rewrite
from cubiclifford.commgeo import central_point
from cubiclifford.errors import BudgetExceeded, DegreeOutOfRange
from cubiclifford.fields import make_field
from cubiclifford.findim import (DEGREE_BOUND, build_quotient,
                                 quotient_relations)
from cubiclifford.freealg import (NcPoly, clifford_relations, commutator,
                                  word_key)
from cubiclifford.rewrite import (RewriteSystem, _reduce_generic, complete,
                                  hilbert_oracle)

# first coefficients of 1/((1-t)^5 (1+t) (1+t+t^2)^2), frozen from the
# composition-counting oracle itself at build time
HILBERT_PREFIX = [1, 2, 4, 8, 13, 20, 31, 44, 61, 84, 111, 144, 186, 234]


def test_hilbert_oracle_prefix():
    assert [hilbert_oracle(n) for n in range(14)] == HILBERT_PREFIX


def test_hilbert_oracle_brute_force_crosscheck():
    # independent re-count: direct 5-fold loop over (i,j,k,l,m)
    for n in range(10):
        count = 0
        for i in range(n + 1):
            for j in range(n + 1):
                for k in range(n + 1):
                    for l in range(n + 1):
                        m = n - i - 3 * j - 2 * k - 3 * l
                        if m >= 0:
                            count += 1
        assert count == hilbert_oracle(n)


def test_graded_dimensions_match_oracle(system13):
    for n in range(14):
        assert system13.graded_dimension(n) == hilbert_oracle(n)


def test_completed_system_has_five_rules(system13):
    leads = sorted(r.lead for r in system13.rules)
    assert leads == sorted(["xxxy", "xxyy", "xyyy", "xyxyy", "xxyxy"])


def test_commutative_toy_system(f13):
    rel = NcPoly(f13, {"xy": 1, "yx": 12})
    system = complete([rel], degree_bound=6)
    assert len(system.rules) == 1
    for n in range(7):
        assert system.graded_dimension(n) == n + 1
        assert all(w == "y" * w.count("y") + "x" * w.count("x")
                   for w in system.basis_words(n))


def test_empty_system(f13):
    system = complete([NcPoly.zero(f13)], degree_bound=5)
    assert system.rules == []
    for n in range(6):
        assert system.graded_dimension(n) == 2 ** n


def test_normal_form_of_first_relation(system13, f13):
    x3 = NcPoly.gen(f13, "x").pow(3)
    y1 = NcPoly.gen(f13, "y")
    assert system13.normal_form(commutator(x3, y1)).is_zero()
    assert system13.normal_form(NcPoly.word(f13, "xxxy")).terms == {"yxxx": 1}


def basis_monomials(n):
    """The paper's normal monomials y^i (xy^2)^j (xy)^k (x^2y)^l x^m of
    total degree n."""
    out = set()
    for i in range(n + 1):
        for j in range((n - i) // 3 + 1):
            for k in range((n - i - 3 * j) // 2 + 1):
                for l in range((n - i - 3 * j - 2 * k) // 3 + 1):
                    m = n - i - 3 * j - 2 * k - 3 * l
                    if m >= 0:
                        out.add("y" * i + "xyy" * j + "xy" * k
                                + "xxy" * l + "x" * m)
    return out


def test_normal_words_are_the_stated_monomial_basis(system13):
    # with the default order the normal words literally equal the
    # y^i (xy^2)^j (xy)^k (x^2y)^l x^m monomials
    for n in range(11):
        assert set(system13.basis_words(n)) == basis_monomials(n)


def test_basis_words_fixed_under_normal_form(system13, f13):
    for n in range(9):
        for w in system13.basis_words(n):
            assert system13.normal_form(NcPoly.word(f13, w)).terms == {w: 1}


def test_normal_form_zero(system13, f13):
    assert system13.normal_form(NcPoly.zero(f13)).is_zero()


def test_normal_form_idempotent_and_linear(system13, f13):
    rng = random.Random(5)

    def rand_poly():
        return NcPoly(f13, {
            "".join(rng.choice("xy") for _ in range(rng.randrange(8))):
                rng.randrange(13)
            for _ in range(5)})

    for _ in range(20):
        p, q = rand_poly(), rand_poly()
        nf = system13.normal_form
        assert nf(nf(p)) == nf(p)
        assert nf(p.add(q)) == nf(p).add(nf(q))
        assert nf(p.scale(7)) == nf(p).scale(7)


def test_overlap_confluence(system13, f13):
    # all S-polynomials of lead overlaps up to the bound reduce to zero:
    # equivalently nf(lead) == nf(tail) composed into any ambiguity word
    leads = [r.lead for r in system13.rules]
    for l1 in leads:
        for l2 in leads:
            for k in range(1, min(len(l1), len(l2))):
                if not l1.endswith(l2[:k]):
                    continue
                w = l1 + l2[k:]
                if len(w) > 13:
                    continue
                nf = system13.normal_form(NcPoly.word(f13, w))
                # reduce via the two different first steps by hand
                r1 = next(r for r in system13.rules if r.lead == l1)
                r2 = next(r for r in system13.rules if r.lead == l2)
                via1 = r1.tail.mul(NcPoly.word(f13, l2[k:]))
                via2 = NcPoly.word(f13, l1[:len(l1) - k]).mul(r2.tail)
                assert system13.normal_form(via1) == nf
                assert system13.normal_form(via2) == nf


def test_degree_out_of_range(system13, f13):
    with pytest.raises(DegreeOutOfRange):
        system13.normal_form(NcPoly.word(f13, "xy" * 7))
    with pytest.raises(DegreeOutOfRange):
        system13.graded_dimension(14)


def test_rational_coefficients_supported(rationals):
    rels = clifford_relations(rationals)
    system = complete(rels, degree_bound=6)
    for n in range(7):
        assert system.graded_dimension(n) == hilbert_oracle(n)


def with_large(terms, large):
    """``terms`` with x and y swapped when y is to be the large letter:
    reducing the swapped words under x > y is reducing the words with y as
    the large letter, up to renaming the letters."""
    if large == "x":
        return dict(terms)
    swap = str.maketrans("xy", "yx")
    return {w.translate(swap): c for w, c in terms.items()}


def relations_with_large(relations, large):
    return [NcPoly(rel.field, with_large(rel.terms, large))
            for rel in relations]


def test_alternate_order_still_matches_hilbert(f13):
    # with y as the large letter the basis words differ but the graded
    # dimensions must still match the series
    system = complete(relations_with_large(clifford_relations(f13), "y"),
                      degree_bound=8)
    for n in range(9):
        assert system.graded_dimension(n) == hilbert_oracle(n)
    # the Clifford relations are swap-invariant up to sign, a quotient's
    # are not: its graded dimensions must not depend on the order either
    rels = quotient_relations(f13, central_point(f13, 7, 2, 5, 7, 3, 12))
    dims = [[complete(relations_with_large(rels, large),
                      degree_bound=DEGREE_BOUND).graded_dimension(n)
             for n in range(DEGREE_BOUND + 1)] for large in "xy"]
    assert dims[0] == dims[1] and sum(dims[0]) == 9


def greater(u, v):
    """u > v in the word order, decided without freealg.word_key: the
    longer word, or at one length the word with x at the first difference."""
    if len(u) != len(v):
        return len(u) > len(v)
    for a, b in zip(u, v):
        if a != b:
            return a == "x"
    return False


def test_word_key_realizes_the_order(system13, f13):
    words = ["".join(t) for n in range(7)
             for t in itertools.product("xy", repeat=n)]
    for u in words:
        for v in words:
            assert (word_key(u) < word_key(v)) == greater(u, v)
    for n in range(9):
        ws = system13.basis_words(n)
        assert all(greater(b, a) for a, b in zip(ws, ws[1:]))
    text = NcPoly(f13, {w: 1 for w in words if len(w) <= 4}).serialize()
    printed = [t.split("*")[1] for t in text.split(" + ")]
    printed = ["" if w == "1" else w for w in printed]
    assert len(printed) == 31
    assert all(greater(a, b) for a, b in zip(printed, printed[1:]))


def test_dump_format(system13):
    lines = system13.dump().splitlines()
    assert len(lines) == 5
    assert all(" -> " in line for line in lines)


def reference_reduce_terms(terms, rules, field, recreated=None):
    """The former reduction loop, kept as the oracle for
    ``_reduce_generic``: same rules (``RewriteSystem._rules``, pairs of a
    lead and a tail dict, in order), same rewriting strategy, but the
    largest pending word found by a scan, graded max by a key function,
    the leftmost lead by a ``find`` per rule, and every sum put in
    canonical form at once.  Words that are cancelled to zero and later
    written again are appended to ``recreated`` when it is given."""
    F = field
    work = dict(terms)
    cancelled = set()
    result = {}
    while work:
        w = min(work, key=lambda u: (-len(u), u))
        c = work.pop(w)
        best_pos = -1
        best_rule = None
        for lead, tail in rules:
            pos = w.find(lead)
            if pos != -1 and (best_pos == -1 or pos < best_pos):
                best_pos = pos
                best_rule = (lead, tail)
                if pos == 0:
                    break
        if best_rule is None:
            result[w] = c
            continue
        lead, tail = best_rule
        prefix = w[:best_pos]
        suffix = w[best_pos + len(lead):]
        for tw, tc in tail.items():
            nw = prefix + tw + suffix
            if nw in cancelled and nw not in work and recreated is not None:
                recreated.append(nw)
            s = F.of(work.get(nw, F.zero) + c * tc)
            if s != F.zero:
                work[nw] = s
            elif nw in work:
                del work[nw]
                cancelled.add(nw)
    return result


def assert_canonical(field, terms):
    """Every coefficient nonzero and canonical with its exact type: a
    ``Fraction`` over Q, an ``int`` in [0, p) over F_p.  Comparing with
    the reference alone would not see a slip here: 3 == Fraction(3)."""
    for c in terms.values():
        if field.kind == "rational":
            assert type(c) is Fraction and c != 0
        else:
            assert type(c) is int and 0 < c < field.p


def matches_reference(system, terms, recreated=None):
    """``_reduce_generic`` on the system's reducer form agrees with the
    reference on its rules and returns canonical scalars."""
    got = _reduce_generic(terms, system._reducer_rules, system.field)
    assert got == reference_reduce_terms(terms, system._rules, system.field,
                                         recreated)
    assert_canonical(system.field, got)
    return got


def random_int_terms(rng, count, lo, hi, coeffs):
    """``count`` seeded term dicts of 1-5 words of degree lo..hi."""
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            word = "".join(rng.choice("xy")
                           for _ in range(rng.randint(lo, hi)))
            terms[word] = rng.choice(coeffs)
        out.append(terms)
    return out


@pytest.mark.parametrize("large", ["x", "y"])
@pytest.mark.parametrize("bound,lo", [(13, 0), (20, 14)])
def test_reducer_matches_prime_field_reference(f13, large, bound, lo):
    system = complete(relations_with_large(clifford_relations(f13), large),
                      degree_bound=bound)
    rng = random.Random(f"reducer:{large}:{bound}")
    for terms in random_int_terms(rng, 100, lo, bound, range(1, 13)):
        matches_reference(system, with_large(terms, large))


@pytest.mark.parametrize("large", ["x", "y"])
def test_reducer_matches_rational_reference(rationals, large):
    system = complete(
        relations_with_large(clifford_relations(rationals), large),
        degree_bound=16)
    rng = random.Random(f"reducer-q:{large}")
    coeffs = [Fraction(n, d) for n in range(-4, 5) if n for d in (1, 2, 3)]
    for terms in random_int_terms(rng, 60, 0, 16, coeffs):
        matches_reference(system, with_large(terms, large))


def test_reducer_skips_cancelled_words(f13, system13):
    # xx -> yy: rewriting xxy cancels the pending yyy, rewriting yxx
    # writes it again; without yxx yyy stays pending with a zero sum and
    # is skipped when it is popped
    toy = RewriteSystem(f13)
    toy._rules = [("xx", {"yy": 1})]
    toy._rebuild()
    for terms, expected in [({"xxy": 1, "yxx": 1, "yyy": 12}, {"yyy": 1}),
                            ({"xxy": 1, "yyy": 12}, {})]:
        assert matches_reference(toy, terms) == expected
    # seeded words of C whose reduction cancels a pending word to zero and
    # re-creates it before it is popped
    rng = random.Random("cancel-recreate")
    hits = 0
    for terms in random_int_terms(rng, 40, 0, 13, range(1, 13)):
        recreated = []
        matches_reference(system13, terms, recreated)
        hits += bool(recreated)
    assert hits >= 3


def test_rational_normal_forms_reduce_to_prime_field_ones(f13, rationals):
    # the Fraction path of the reducer, checked against the F_13 path
    sys13 = complete(clifford_relations(f13), degree_bound=20)
    sysq = complete(clifford_relations(rationals), degree_bound=20)
    rng = random.Random("rational-vs-f13")
    coeffs = [c for c in range(-9, 10) if c]
    for terms in random_int_terms(rng, 100, 14, 20, coeffs):
        nf13 = sys13.normal_form(NcPoly(f13, terms))
        nfq = sysq.normal_form(NcPoly(rationals, terms))
        mod13 = {w: c.numerator * pow(c.denominator, -1, 13) % 13
                 for w, c in nfq.terms.items()}
        assert {w: c for w, c in mod13.items() if c} == nf13.terms


def toy_relations(field):
    # completion leaves xxx -> 10*xxy + 9*xyy (over F_13), which only the
    # canonical pass reduces by xy -> 8*yx; the Clifford rules come out of
    # completion already canonical
    return [NcPoly(field, {"xxx": 9, "xxy": 1, "xyy": 10}),
            NcPoly(field, {"xy": 1, "yx": 5})]


# complete(relations(F), degree_bound=bound).dump(), recorded before the
# prime-field reduction loop was folded into _reduce_generic
PINNED_DUMPS = [
    ("prime", 13, clifford_relations, 20, """\
xyyy -> 1*yyyx
xxyy -> 12*xyxy + 1*yxyx + 1*yyxx
xxxy -> 1*yxxx
xyxyy -> 1*yxyxy + 1*yyxxy + 12*yyyxx
xxyxy -> 1*xyxyx + 1*xyyxx + 12*yyxxx"""),
    ("rational", None, clifford_relations, 20, """\
xyyy -> 1*yyyx
xxyy -> -1*xyxy + 1*yxyx + 1*yyxx
xxxy -> 1*yxxx
xyxyy -> 1*yxyxy + 1*yyxxy + -1*yyyxx
xxyxy -> 1*xyxyx + 1*xyyxx + -1*yyxxx"""),
    ("prime", 13, toy_relations, 5, """\
xy -> 8*yx
xxx -> 3*yxx + 4*yyx
yyyx -> 0
yyxx -> 0"""),
    ("rational", None, toy_relations, 5, """\
xy -> -5*yx
xxx -> -25/9*yxx + -250/9*yyx
yyyx -> 0
yyxx -> 0"""),
]


@pytest.mark.parametrize("kind,p,relations,bound,dump", PINNED_DUMPS)
def test_completion_dump_is_pinned(kind, p, relations, bound, dump):
    field = make_field(kind, p)
    system = complete(relations(field), degree_bound=bound)
    assert system.dump() == dump


# build_quotient(F_13, point): the completed quotient presentation's dump
# and the sha256 of its structure table as compact sorted-key JSON, recorded
# before completion moved to a single degree-ordered queue
PINNED_QUOTIENTS = [
    ((7, 2, 5, 7, 3, 12), 9, "cb65a04c8067c3336e447f8fd56fc7c1"
     "067b66d0532fa111fad21285e8520f4b", """\
yyy -> 7*1
yxx -> 2*yxy + 2*yyx + 2*xx + 4*xy + 4*yx + 8*yy + 2*x + 9*y + 8*1
xyy -> 12*yxy + 12*yyx + 2*1
xyx -> 11*yxy + 9*yyx + 1*xx + 3*xy + 3*yx + 4*yy + 8*y + 6*1
xxy -> 2*yyx + 10*xx + 6*xy + 6*yx + 1*yy + 11*x + 9*y + 5*1
xxx -> 7*1
yyxy -> 11*yxy + 1*yyx + 8*xx + 6*xy + 12*yx + 9*yy + 5*x + 6*y + 5*1"""),
    ((0, 12, 3, 3, 12, 9), 9, "8dc74387cd1c2d352f1a0b25ac963d42"
     "1f4c174190a7bb05288599ebeb477051", """\
yyy -> 3*1
yxx -> 3*yxy + 11*yyx + 11*xx + 4*xy + 4*yx + 12*yy + 8*x + 3*y + 9*1
xyy -> 12*yxy + 12*yyx + 9*1
xyx -> 2*yxy + 7*yyx + 9*xx + 4*xy + 4*yx + 10*yy + 9*y + 11*1
xxy -> 8*yxy + 8*yyx + 6*xx + 5*xy + 5*yx + 4*yy + 5*x + 1*y + 3*1
xxx -> 0
yyxy -> 2*yxy + 9*yyx + 1*xx + 6*xy + 10*yx + 6*yy + 2*x + 2*y + 6*1"""),
    ((1, 1, 1, 1, 0, 0), 15, "18c2de2a9f1b426ba62753c04b40021c"
     "accbffc55f233f639590c10e8c6cc473", """\
yyy -> 1*1
xyy -> 12*yxy + 12*yyx + 3*1
xxy -> 12*xyx + 12*yxx + 3*1
xxx -> 1*1
xyxy -> 1*yyxx
xyxx -> 12*yxyx + 1*yyxx + 12*yyxy + 1*x + 1*y"""),
    ((0, 0, 0, 0, 0, 0), 17, "c7f746320134a39d88e614b52f082f12"
     "f99da728847bf09b583b088041ea0870", """\
yyy -> 0
xyy -> 12*yxy + 12*yyx
xxy -> 12*xyx + 12*yxx
xxx -> 0
xyxy -> 1*yyxx
yyxyxx -> 0"""),
]


@pytest.mark.parametrize("coords,dim,digest,dump", PINNED_QUOTIENTS,
                         ids=["smooth", "degenerate", "cubic", "origin"])
def test_quotient_completion_is_pinned(f13, coords, dim, digest, dump):
    alg = build_quotient(f13, central_point(f13, *coords))
    table = json.dumps(alg.to_json_dict(), sort_keys=True,
                       separators=(",", ":"))
    assert alg.dim == dim
    assert alg.system.dump() == dump
    assert hashlib.sha256(table.encode()).hexdigest() == digest


@pytest.mark.parametrize("coords,dump", [(c, d) for c, _, _, d
                                         in PINNED_QUOTIENTS],
                         ids=["smooth", "degenerate", "cubic", "origin"])
def test_quotient_completion_ignores_relation_order(f13, coords, dump):
    rels = quotient_relations(f13, central_point(f13, *coords))
    for seed in range(10):
        random.Random(seed).shuffle(rels)
        assert complete(rels, degree_bound=DEGREE_BOUND).dump() == dump


@pytest.mark.parametrize("coords", [c for c, _, _, _ in PINNED_QUOTIENTS],
                         ids=["smooth", "degenerate", "cubic", "origin"])
def test_reducer_matches_reference_on_quotient_systems(f13, coords):
    # inhomogeneous rules: tails reach down to the empty word
    system = complete(quotient_relations(f13, central_point(f13, *coords)),
                      degree_bound=DEGREE_BOUND)
    rng = random.Random(f"reducer-quotient:{coords}")
    for terms in random_int_terms(rng, 40, 0, DEGREE_BOUND, range(1, 13)):
        matches_reference(system, terms)


def test_smooth_quotient_build_reduces_less(f13, monkeypatch):
    # every overlap queued once: 185 reductions (104 in completion, 81 for
    # the structure table) where queueing overlaps with the new rule twice
    # and its self-overlaps four times took 241
    calls = []

    def counting(*args):
        calls.append(None)
        return _reduce_generic(*args)

    monkeypatch.setattr(rewrite, "_reduce_generic", counting)
    build_quotient(f13, central_point(f13, *PINNED_QUOTIENTS[0][0]))
    assert len(calls) < 241


def test_completion_pop_guard_raises(f13, monkeypatch):
    # with a budget of 1 the queue may be popped 10 times; the 11th copy
    # of the relation is one pop too many
    monkeypatch.setattr(rewrite, "RULE_BUDGET", 1)
    rel = NcPoly(f13, {"xy": 1, "yx": 12})
    complete([rel] * 10, degree_bound=4)
    with pytest.raises(BudgetExceeded, match="did not settle"):
        complete([rel] * 11, degree_bound=4)


def test_completion_rule_budget_raises(f13, monkeypatch):
    monkeypatch.setattr(rewrite, "RULE_BUDGET", 1)
    with pytest.raises(BudgetExceeded, match="rule budget"):
        complete([NcPoly.word(f13, "xx"), NcPoly.word(f13, "yy")],
                 degree_bound=4)


def quotient_at(coords):
    """Relations of the central quotient at ``coords``, for any field."""
    return lambda field: quotient_relations(field,
                                            central_point(field, *coords))


# over Q the quotient at (1,2,3,5; 11/2, 4) completes to rules with
# fractional tail coefficients; C's completed rules have only +-1
FRACTIONAL_POINT = (1, 2, 3, 5, Fraction(11, 2), 4)

COMPLETED_SYSTEMS = (
    [(f"C-{kind}-{bound}", kind, clifford_relations, bound)
     for kind in ("prime", "rational") for bound in (13, 20)]
    + [(f"toy-{kind}", kind, toy_relations, 5)
       for kind in ("prime", "rational")]
    + [(f"quotient-{name}", "prime", quotient_at(coords), DEGREE_BOUND)
       for name, (coords, _, _, _) in zip(
           ["smooth", "degenerate", "cubic", "origin"], PINNED_QUOTIENTS)]
    + [("quotient-fractional", "rational", quotient_at(FRACTIONAL_POINT),
        DEGREE_BOUND)])


@pytest.mark.parametrize("kind,relations,bound",
                         [case[1:] for case in COMPLETED_SYSTEMS],
                         ids=[case[0] for case in COMPLETED_SYSTEMS])
def test_completed_leads_are_inter_reduced(kind, relations, bound):
    # no lead is a subword of another, so at most one lead matches at any
    # position and the reducer's leftmost pattern match is the leftmost
    # position's only rule
    field = make_field(kind, 13 if kind == "prime" else None)
    leads = [lead for lead, _ in
             complete(relations(field), degree_bound=bound)._rules]
    assert leads
    for i, a in enumerate(leads):
        for j, b in enumerate(leads):
            assert i == j or a not in b, (a, b)


def test_reducer_matches_reference_with_fractional_tails(rationals):
    system = complete(quotient_at(FRACTIONAL_POINT)(rationals),
                      degree_bound=DEGREE_BOUND)
    tails = [c for _, tail in system._rules for c in tail.values()]
    assert sum(c.denominator != 1 for c in tails) == 30
    rng = random.Random("reducer-fractional-tails")
    coeffs = [Fraction(n, d) for n in range(-6, 7) if n for d in (1, 2, 5)]
    inputs = random_int_terms(rng, 60, 0, DEGREE_BOUND, coeffs)
    used = [c for terms in inputs for c in terms.values()]
    assert any(c.denominator == 1 for c in used)
    assert any(c.denominator != 1 for c in used)
    nonzero = 0
    for terms in inputs:
        nonzero += bool(matches_reference(system, terms))
    assert nonzero >= 30


@pytest.mark.parametrize("kind,relations,bound", [
    ("prime", clifford_relations, 16),
    ("rational", clifford_relations, 16),
    ("prime", quotient_at(PINNED_QUOTIENTS[0][0]), DEGREE_BOUND),
    ("rational", quotient_at(FRACTIONAL_POINT), DEGREE_BOUND),
], ids=["C-prime", "C-rational", "quotient-prime", "quotient-rational"])
def test_normal_form_scalars_have_the_field_type(kind, relations, bound):
    # a Fraction over Q even when every tail and input is integral, an int
    # in [0, p) over F_p
    field = make_field(kind, 13 if kind == "prime" else None)
    system = complete(relations(field), degree_bound=bound)
    rng = random.Random(f"scalar-types:{kind}:{bound}")
    nonzero = 0
    for terms in random_int_terms(rng, 40, 0, bound,
                                  [c for c in range(-9, 10) if c]):
        nf = system.normal_form(NcPoly(field, terms))
        assert_canonical(field, nf.terms)
        nonzero += bool(nf.terms)
    assert nonzero >= 30
