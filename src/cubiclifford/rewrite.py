"""Degree-bounded diamond-lemma completion for 2-generator presentations.

A :class:`RewriteSystem` holds oriented rules ``lead -> tail`` (the
polynomial lead - tail lies in the ideal) with every tail word strictly
smaller than the lead under a graded-lex order.  Completion resolves all
overlap ambiguities among leads up to a total-degree bound, adjoining
irreducible S-polynomials as new rules, so normal forms are unique for
inputs within the bound.  Nothing is ever claimed beyond the bound.

Internally words are re-encoded into an alphabet where plain (len, str)
comparison realizes the order, which lets the reducer avoid custom
comparators.
"""

from __future__ import annotations

import heapq
import itertools

from .errors import BudgetExceeded, DegreeOutOfRange
from .freealg import NcPoly, WordOrder


class RewriteRule:
    """lead -> tail, both in the x/y alphabet."""

    def __init__(self, lead: str, tail: NcPoly):
        self.lead = lead
        self.tail = tail

    def __repr__(self):
        return f"RewriteRule({self.lead!r} -> {self.tail.serialize()})"


class RewriteSystem:
    def __init__(self, field, order: WordOrder, degree_bound: int):
        self.field = field
        self.order = order
        self.degree_bound = degree_bound
        self.confluent_to = 0
        self.inconsistent = False  # a nonzero scalar entered the ideal
        self._rules = []  # list of (lead_enc, tail_dict enc-word -> scalar)
        self._enc_rules = ()  # reducer form, rebuilt on change

    # -- rule bookkeeping -------------------------------------------------

    def _rebuild(self):
        self._rules.sort(key=lambda r: (len(r[0]), r[0]))
        self._enc_rules = tuple(
            (lead, tuple(sorted(tail.items()))) for lead, tail in self._rules
        )

    @property
    def rules(self):
        dec = self.order.decode
        out = []
        for lead, tail in self._rules:
            poly = NcPoly(self.field, {dec(w): c for w, c in tail.items()})
            out.append(RewriteRule(dec(lead), poly))
        return out

    def dump(self) -> str:
        """One rule per line: "lead -> tail" in text serialization."""
        lines = []
        for rule in self.rules:
            lines.append(f"{rule.lead or '1'} -> {rule.tail.serialize(self.order)}")
        return "\n".join(lines)

    # -- reduction --------------------------------------------------------

    def _reduce_enc(self, terms: dict) -> dict:
        """Reduce encoded terms to (bound-certified) normal form."""
        return _reduce_generic(terms, self._enc_rules, self.field)

    def normal_form(self, p: NcPoly) -> NcPoly:
        deg = p.degree()
        if p.is_zero():
            return p
        if deg > self.confluent_to:
            raise DegreeOutOfRange(
                f"degree {deg} exceeds certified bound {self.confluent_to}")
        enc = self.order.encode
        terms = {enc(w): c for w, c in p.terms.items()}
        red = self._reduce_enc(terms)
        dec = self.order.decode
        return NcPoly(self.field, {dec(w): c for w, c in red.items()})

    # -- normal-word enumeration -----------------------------------------

    def _leads(self):
        return [lead for lead, _ in self._rules]

    def basis_words_enc(self, n: int):
        if n > self.confluent_to:
            raise DegreeOutOfRange(
                f"degree {n} exceeds certified bound {self.confluent_to}")
        leads = self._leads()
        maxlead = max((len(l) for l in leads), default=0)
        if n == 0:
            return [] if self.inconsistent else [""]
        level = [""]
        for _ in range(n):
            nxt = []
            for w in level:
                for letter in "ab":
                    nw = w + letter
                    tailpiece = nw[-maxlead:] if maxlead else nw
                    if any(tailpiece.endswith(l) for l in leads if l):
                        continue
                    nxt.append(nw)
            level = nxt
        return level

    def basis_words(self, n: int):
        """All normal words of degree n, in ascending order."""
        dec = self.order.decode
        return [dec(w) for w in self.basis_words_enc(n)]

    def graded_dimension(self, n: int) -> int:
        return len(self.basis_words_enc(n))


def _reduce_generic(terms, rules, field):
    """Reduce an encoded term dict {word: coeff} modulo the rules.

    Coefficients are nonzero elements of ``field``, as in ``NcPoly.terms``.
    Rules are ``(lead, ((word, coeff), ...))`` with every tail word
    strictly smaller than the lead, which guarantees termination.
    Deterministic: always rewrites the largest reducible word, at its
    leftmost reducible position, by the first matching rule.
    """
    add, mul, zero = field.add, field.mul, field.zero
    # keyed by (len, word) so that plain max() is the graded order
    work = {(len(w), w): c for w, c in terms.items()}
    result = {}
    while work:
        key = max(work)
        c = work.pop(key)
        w = key[1]
        hit = None
        best = -1
        for lead, tail in rules:
            pos = w.find(lead)
            if pos != -1 and (best == -1 or pos < best):
                best = pos
                hit = (lead, tail)
                if pos == 0:
                    break
        if hit is None:
            # every word queued after w is smaller, so w is final
            result[w] = c
            continue
        lead, tail = hit
        prefix, suffix = w[:best], w[best + len(lead):]
        for tw, tc in tail:
            nw = prefix + tw + suffix
            nkey = (len(nw), nw)
            s = add(work.get(nkey, zero), mul(c, tc))
            if s != zero:
                work[nkey] = s
            else:
                work.pop(nkey, None)
    return result


def _orient(system: RewriteSystem, red: dict):
    """Turn a reduced, nonzero encoded term dict into (lead, tail)."""
    F = system.field
    lead = max(red, key=lambda u: (len(u), u))
    inv = F.inv(red[lead])
    tail = {w: F.neg(F.mul(inv, c)) for w, c in red.items() if w != lead}
    return lead, tail


def complete(relations, order: WordOrder | None = None, degree_bound: int = 13,
             rule_budget: int = 20000, field=None) -> RewriteSystem:
    """Complete a list of NcPoly relations up to ``degree_bound``.

    All overlap ambiguities among rule leads of total degree <= bound are
    resolved; irreducible S-polynomials become new rules.  Returns the
    system with ``confluent_to = degree_bound``.  If a nonzero scalar
    enters the ideal the system is flagged ``inconsistent`` (the quotient
    is the zero ring) and completion stops.
    """
    order = order or WordOrder()
    if field is None:
        if not relations:
            raise ValueError("need a field when no relations are given")
        field = relations[0].field
    system = RewriteSystem(field, order, degree_bound)
    enc = order.encode

    pending = []  # polynomials (encoded dicts) awaiting orientation
    counter = itertools.count()
    for rel in relations:
        if rel.is_zero():
            continue
        pending.append({enc(w): c for w, c in rel.terms.items()})

    overlaps = []  # heap of (degree, tiebreak, spoly encoded dict)

    def queue_overlaps(new_lead, new_tail):
        for lead2, tail2 in list(system._rules) + [(new_lead, new_tail)]:
            for l1, t1, l2, t2 in ((new_lead, new_tail, lead2, tail2),
                                   (lead2, tail2, new_lead, new_tail)):
                # w = l1 + l2[k:] with proper overlap of length k
                for k in range(1, min(len(l1), len(l2))):
                    if not l1.endswith(l2[:k]):
                        continue
                    w = l1 + l2[k:]
                    if len(w) > degree_bound:
                        continue
                    suffix = l2[k:]
                    prefix = l1[: len(l1) - k]
                    spoly = {}
                    F = system.field
                    for tw, tc in t1.items():
                        _acc(spoly, tw + suffix, tc, F)
                    for tw, tc in t2.items():
                        _acc(spoly, prefix + tw, F.neg(tc), F)
                    if spoly:
                        heapq.heappush(overlaps, (len(w), next(counter), spoly))

    def add_rule_from(red: dict) -> bool:
        """Orient a reduced dict into a rule; returns False on scalar hit."""
        if not red:
            return True
        lead, tail = _orient(system, red)
        if lead == "":
            system.inconsistent = True
            return False
        # retire rules whose lead contains the new lead; reprocess them
        retired = []
        kept = []
        for l2, t2 in system._rules:
            if lead in l2:
                retired.append((l2, t2))
            else:
                kept.append((l2, t2))
        system._rules = kept
        system._rules.append((lead, tail))
        system._rebuild()
        if len(system._rules) > rule_budget:
            raise BudgetExceeded("rule budget exhausted")
        queue_overlaps(lead, tail)
        F = system.field
        for l2, t2 in retired:
            poly = dict(t2)
            _acc(poly, l2, F.neg(F.one), F)
            # l2 - t2... rule poly is l2 - tail; rebuild with sign: lead coeff 1
            poly = {w: F.neg(c) for w, c in poly.items()}
            pending.append(poly)
        return True

    guard = 0
    while pending or overlaps:
        guard += 1
        if guard > rule_budget * 10:
            raise BudgetExceeded("completion did not settle within budget")
        if pending:
            raw = pending.pop(0)
        else:
            _, _, raw = heapq.heappop(overlaps)
        red = system._reduce_enc(raw)
        if not red:
            continue
        if not add_rule_from(red):
            break

    # canonical pass: reduce every tail against the final rule set
    if not system.inconsistent:
        changed = True
        while changed:
            changed = False
            for i, (lead, tail) in enumerate(list(system._rules)):
                others = tuple(r for r in system._enc_rules if r[0] != lead)
                red = _reduce_generic(tail, others, system.field)
                if red != tail:
                    system._rules[i] = (lead, red)
                    changed = True
            if changed:
                system._rebuild()

    system.confluent_to = degree_bound
    return system


def _acc(d, w, c, field):
    s = field.add(d.get(w, field.zero), c)
    if s != field.zero:
        d[w] = s
    else:
        d.pop(w, None)


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
