"""Degree-bounded diamond-lemma completion for 2-generator presentations.

A :class:`RewriteSystem` holds oriented rules ``lead -> tail`` (the
polynomial lead - tail lies in the ideal) with every tail word strictly
smaller than the lead.  The order is graded, and x > y decides at the
first differing letter.  Completion resolves all overlap ambiguities among
leads up to a total-degree bound, adjoining irreducible S-polynomials as
new rules, so normal forms are unique for inputs within the bound.
Nothing is ever claimed beyond the bound.

Words stay x/y strings throughout.  As characters, 'x' < 'y': within
one length the order is plain string order reversed, so the key
``freealg.word_key(w) = (-len(w), w)`` lists words from the largest down,
and the reducer's min-heaps of plain strings, one per length, pop the
largest pending word of a length first with no custom comparator and no
translation.  Each rule set keeps a reducer form, built once by
``_rebuild``: one compiled pattern of the leads, so a word costs one
``search``, and the tails indexed by match group (see
``_reduce_generic``).
"""

from __future__ import annotations

import heapq
import itertools
import re

from .errors import BudgetExceeded, DegreeOutOfRange
from .freealg import NcPoly, add_term, word_key


class RewriteRule:
    """lead -> tail, a word and a polynomial."""

    def __init__(self, lead: str, tail: NcPoly):
        self.lead = lead
        self.tail = tail

    def __repr__(self):
        return f"RewriteRule({self.lead!r} -> {self.tail.serialize()})"


class RewriteSystem:
    def __init__(self, field):
        self.field = field
        self.confluent_to = 0
        self.inconsistent = False  # a nonzero scalar entered the ideal
        self._rules = []  # list of (lead, tail dict word -> scalar)
        self._rebuild()

    # -- rule bookkeeping -------------------------------------------------

    def _rebuild(self):
        # smallest lead first: shorter, then larger string
        self._rules.sort(key=lambda r: word_key(r[0]), reverse=True)
        # reducer form: group k of the pattern is rule k ((?!) never
        # matches), integral rationals become ints
        pattern = "|".join(f"({lead})" for lead, _ in self._rules)
        tails = (None,) + tuple(
            tuple((w, _integral(c)) for w, c in tail.items())
            for _, tail in self._rules)
        canon = self.field.of if self.field.kind == "prime" else _integral
        self._reducer_rules = (re.compile(pattern or "(?!)").search, tails,
                               canon)

    @property
    def rules(self):
        return [RewriteRule(lead, NcPoly(self.field, tail))
                for lead, tail in self._rules]

    def dump(self) -> str:
        """One rule per line: "lead -> tail" in text serialization."""
        return "\n".join(f"{rule.lead or '1'} -> {rule.tail.serialize()}"
                         for rule in self.rules)

    # -- reduction --------------------------------------------------------

    def normal_form(self, p: NcPoly) -> NcPoly:
        deg = p.degree()
        if deg > self.confluent_to:
            raise DegreeOutOfRange(
                f"degree {deg} exceeds certified bound {self.confluent_to}")
        return NcPoly(self.field, _reduce_generic(p.terms, self._reducer_rules,
                                                  self.field))

    # -- normal-word enumeration -----------------------------------------

    def basis_words(self, n: int):
        """All normal words of degree n, in ascending order."""
        if n > self.confluent_to:
            raise DegreeOutOfRange(
                f"degree {n} exceeds certified bound {self.confluent_to}")
        if n == 0:
            return [] if self.inconsistent else [""]
        leads = tuple(lead for lead, _ in self._rules)
        level = [""]
        for _ in range(n):
            level = [nw for w in level for nw in (w + "y", w + "x")
                     if not nw.endswith(leads)]
        return level

    def graded_dimension(self, n: int) -> int:
        return len(self.basis_words(n))


def _integral(c):
    """c, or c as an ``int`` when it is an integral ``Fraction``."""
    return c.numerator if c.denominator == 1 else c


def _reduce_generic(terms, rules, field):
    """Reduce a term dict {word: coeff} modulo the rules.

    Coefficients are nonzero elements of ``field``, as in ``NcPoly.terms``;
    so are the result's.  ``rules`` is ``RewriteSystem._reducer_rules``,
    built by ``_rebuild`` once per rule set: the ``search`` of one pattern
    that alternates the leads, the tails indexed by match group, and the
    canonical form ``canon`` of a popped coefficient.  Every tail word is
    strictly smaller than its lead, which guarantees termination.
    Deterministic: always rewrites the largest pending word at its
    leftmost reducible position, by the first matching rule (the
    pattern's leftmost match; completion keeps the leads inter-reduced,
    so at most one lead matches at a position anyway).

    Pending words sit in a dict of coefficients and one min-heap of plain
    strings per length, popped from the longest length down: within one
    length the smallest string is the largest word, and a rewrite of w
    writes only words smaller than w (tails are smaller than leads and the
    order is a monomial order), so a popped word is never written again
    and one that no rule matches is final.  Coefficients are summed with
    ``+ *`` and put in canonical form once, when the word is popped; a
    word whose sum cancelled is skipped there.  Over Q, integral scalars
    are ``int``s while the loop runs (``_integral``: C's completed tails
    are all +-1), so only fractional tails or inputs cost ``Fraction``
    arithmetic; the result goes back through ``field.of``.
    """
    search, tails, canon = rules
    of, pop, push = field.of, heapq.heappop, heapq.heappush
    work = {w: _integral(c) for w, c in terms.items()}
    heaps = [[] for _ in range(max(map(len, work), default=0) + 1)]
    for w in work:
        heaps[len(w)].append(w)
    for heap in heaps:
        heapq.heapify(heap)
    result = {}
    for heap in reversed(heaps):
        while heap:
            w = pop(heap)
            c = canon(work.pop(w))
            if not c:
                continue
            m = search(w)
            if m is None:
                result[w] = of(c)
                continue
            start, end = m.span()
            prefix, suffix = w[:start], w[end:]
            # this loop runs for every rewrite step of every normal form
            for tw, tc in tails[m.lastindex]:
                nw = prefix + tw + suffix
                old = work.get(nw)
                if old is None:
                    work[nw] = c * tc
                    push(heaps[len(nw)], nw)
                else:
                    work[nw] = old + c * tc
    return result


def _orient(system: RewriteSystem, red: dict):
    """Turn a reduced, nonzero term dict into (lead, tail)."""
    F = system.field
    lead = min(red, key=word_key)
    inv = F.inv(red[lead])
    tail = {w: F.of(-inv * c) for w, c in red.items() if w != lead}
    return lead, tail


#: Completion raises BudgetExceeded when it holds more rules than this, or
#: after ten times as many queue pops.
RULE_BUDGET = 20000


def complete(relations, degree_bound: int = 13) -> RewriteSystem:
    """Complete a list of NcPoly relations up to ``degree_bound``.

    One heap, ordered by (degree, insertion), holds every polynomial still
    to be reduced: the input relations, the rules a new lead retires (as
    lead - tail), and the S-polynomial of each lead overlap of degree
    <= bound.  A popped polynomial that does not reduce to zero becomes a
    rule; its overlaps with every rule are queued once each, and its
    overlap with itself in one orientation.  When the heap is empty every
    overlap ambiguity within the bound resolves, so the system is
    confluent there (Bergman's diamond lemma) and each tail has a unique
    normal form: a single reduction of every tail against the final rules
    makes the system canonical.  Returns the system with
    ``confluent_to = degree_bound``.  If a nonzero scalar enters the ideal
    the system is flagged ``inconsistent`` (the quotient is the zero ring)
    and completion stops.  The field is that of the first relation.
    """
    F = relations[0].field
    system = RewriteSystem(F)
    tiebreak = itertools.count()
    # heap of (degree, tiebreak, term dict); a zero relation reduces to {}
    queue = [(rel.degree(), next(tiebreak), rel.terms) for rel in relations]
    heapq.heapify(queue)

    pops = 0
    while queue:
        pops += 1
        if pops > RULE_BUDGET * 10:
            raise BudgetExceeded("completion did not settle within budget")
        red = _reduce_generic(heapq.heappop(queue)[2], system._reducer_rules,
                              F)
        if not red:
            continue
        lead, tail = _orient(system, red)
        if lead == "":
            system.inconsistent = True
            break
        retired = [rule for rule in system._rules if lead in rule[0]]
        system._rules = [rule for rule in system._rules
                         if lead not in rule[0]] + [(lead, tail)]
        system._rebuild()
        if len(system._rules) > RULE_BUDGET:
            raise BudgetExceeded("rule budget exhausted")
        for l2, t2 in system._rules:
            orientations = [(lead, tail, l2, t2), (l2, t2, lead, tail)]
            for pair in orientations[: 1 if l2 == lead else 2]:
                for deg, spoly in _overlaps(*pair, degree_bound, F):
                    heapq.heappush(queue, (deg, next(tiebreak), spoly))
        for l2, t2 in retired:
            poly = {w: F.of(-c) for w, c in t2.items()}
            poly[l2] = F.one
            heapq.heappush(queue, (len(l2), next(tiebreak), poly))

    if not system.inconsistent:
        rules = system._reducer_rules
        system._rules = [(lead, _reduce_generic(tail, rules, F))
                         for lead, tail in system._rules]
        system._rebuild()
    system.confluent_to = degree_bound
    return system


def _overlaps(l1, t1, l2, t2, degree_bound, F):
    """(degree, S-polynomial) for each proper overlap w = l1 + l2[k:] of
    the rules l1 -> t1 and l2 -> t2 with len(w) <= degree_bound: the
    difference t1 l2[k:] - l1[:-k] t2 of the two one-step rewrites of w,
    skipped when it is zero."""
    for k in range(1, min(len(l1), len(l2))):
        if not l1.endswith(l2[:k]):
            continue
        suffix, prefix = l2[k:], l1[: len(l1) - k]
        if len(l1) + len(suffix) > degree_bound:
            continue
        spoly = {}
        for tw, tc in t1.items():
            add_term(spoly, tw + suffix, tc, F)
        for tw, tc in t2.items():
            add_term(spoly, prefix + tw, -tc, F)
        if spoly:
            yield len(l1) + len(suffix), spoly


def hilbert_oracle(n: int) -> int:
    """Coefficient of t^n in 1/((1-t)^5 (1+t) (1+t+t^2)^2), counted
    independently of the rewrite engine as the number of (i,j,k,l,m) in
    N^5 with i + 3j + 2k + 3l + m = n (generator degrees 1,3,2,3,1).
    """
    count = 0
    for j in range(n // 3 + 1):
        for l in range((n - 3 * j) // 3 + 1):
            for k in range((n - 3 * j - 3 * l) // 2 + 1):
                # i + m = rest: rest + 1 choices
                count += n - 3 * j - 3 * l - 2 * k + 1
    return count
