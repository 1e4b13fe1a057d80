"""Exact base fields: prime fields F_p (p != 2, 3) and the rationals.

Scalars are plain Python objects: residues ``int`` in ``[0, p)`` for prime
fields, ``fractions.Fraction`` for the rationals.  No formula of the
package needs a root of unity: all are written over Z[1/6], so every such
field serves every check.

The one rule: scalars are combined with the plain ``+ - *`` operators,
which are exact on ``int`` and ``Fraction`` alike, and a result is put
back in canonical form once, by ``of`` for a single scalar or by
``reduce_row`` for a row.  For F_p that maps into ``[0, p)``; for Q it
keeps a ``Fraction`` as it is.  Division never happens inside an
expression: a divisor is inverted with ``inv`` first.  So a field
supplies only canonical form and inversion, and the code that uses it is
the same for F_p and Q.

The reducer applies the rule per word, not per term: it sums with
``+ *``, puts a coefficient in canonical form when its word is popped
(``of`` over F_p; over Q integral scalars stay ``int`` meanwhile), and
applies ``of`` to each term of its result.  ``of`` still runs for every
term of every polynomial built, so it tests the exact type,
``type(n) is Fraction``: ``isinstance`` goes through the
``__instancecheck__`` of ``Fraction``'s ABC metaclass and costs several
times more on an ``int``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CharTwoOrThree, NotPrime


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # deterministic Miller-Rabin, valid far beyond the primes used here
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if a % n == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p, with p prime and p not 2 or 3: residues in ``[0, p)``."""

    kind = "prime"

    def __init__(self, p: int):
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
        if p in (2, 3):
            raise CharTwoOrThree("characteristic 2 and 3 are excluded")
        self.p = p
        self.zero = 0
        self.one = 1

    def of(self, n) -> int:
        if type(n) is Fraction:
            return n.numerator * self.inv(n.denominator) % self.p
        return n % self.p

    def reduce_row(self, xs):
        """Residues of a row of unreduced integers."""
        p = self.p
        return [x % p for x in xs]

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return range(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Q as ``fractions.Fraction``, which is always canonical."""

    kind = "rational"
    p = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def of(self, n) -> Fraction:
        """n as a Fraction; a Fraction is returned as it is (immutable)."""
        return n if type(n) is Fraction else Fraction(n)

    def reduce_row(self, xs):
        """Rationals are always canonical: the row itself."""
        return xs

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


def make_field(kind: str, p: int | None = None):
    """Build a field: make_field("prime", p) or make_field("rational")."""
    if kind == "prime":
        if p is None:
            raise NotPrime("prime field needs a modulus")
        return PrimeField(p)
    if kind == "rational":
        return RationalField()
    raise ValueError(f"unknown field kind {kind!r}")
