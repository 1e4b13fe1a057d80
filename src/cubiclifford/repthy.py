"""Structure theory of the finite-dimensional quotients: trace forms,
Jacobson radical, Wedderburn block decomposition, the brute-force
representation searches in dimensions one and two, and the
Cayley-Hamilton certificate that C has no 2-dimensional irreducible
representation in any characteristic.  The certificate is what
``verify-all`` runs; the exhaustive dim-2 sweep, capped at
``DIM2_MAX_P``, is the independent second route behind ``search-dim2``.

A/rad is itself a `FinDimAlgebra` (`radical_quotient`).  Its basis is
the low-degree normal words of A: those at the columns that are not
pivots of the radical, which is row-reduced from the last column so that
each pivot is the highest nonzero entry of its row.  The empty word
(column 0) could then only be the pivot of the row 1, and 1 is not in
the radical, so the unit stays a basis element.  Its table is A's table
reduced modulo the radical.  The center of any `FinDimAlgebra`
(`center_basis`) is read from its table.

The Wedderburn split needs no polynomial: the elements z of the center
of A/rad with z^p = z form F_p x ... x F_p, one factor per block
(Berlekamp), found by linear algebra.  Cantor-Zassenhaus splitting, run
on powers inside the algebra, turns them into the primitive central
idempotents, and each one cuts out a block.

The trace used throughout is the regular trace.  On a 9-dimensional
Azumaya quotient it is 3 times the reduced trace; since the
characteristic is never 3, every vanishing or rank statement is
unaffected by the factor.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import mul

from .commgeo import CentralPoint, CommPoly, cube_map
from .errors import (CharacteristicTooSmall, FieldTooLarge, NotScalar,
                     SplitFailure)
from .findim import FinDimAlgebra
from .freealg import clifford_relations
from .linalg import kernel, rank, rref


@dataclass
class BlockStructure:
    """Wedderburn data: blocks (n, k) mean an n x n matrix block over the
    degree-k extension of the prime field; over the algebraic closure the
    block contributes k irreducibles of dimension n."""
    blocks: list
    radical_dim: int

    def irrep_dims(self):
        dims = []
        for n, k in self.blocks:
            dims.extend([n] * k)
        return sorted(dims)

    def sum_squares(self):
        return sum(n * n for n in self.irrep_dims())


def trace_vector(alg: FinDimAlgebra):
    """trace of left multiplication by each basis element."""
    F = alg.field
    return F.reduce_row([sum((prod[j] for j, prod in enumerate(row)), F.zero)
                         for row in alg.table])


def full_gram(alg: FinDimAlgebra) -> list:
    """Gram matrix [tr(e_i e_j)] of the whole basis as a list of rows,
    each entry the table product e_i e_j dotted with the trace vector;
    built once per algebra and kept on it as ``alg._full_gram``."""
    g = getattr(alg, "_full_gram", None)
    if g is None:
        F = alg.field
        tv = trace_vector(alg)
        g = alg._full_gram = [
            F.reduce_row([sum(map(mul, prod, tv)) for prod in row])
            for row in alg.table]
    return g


def radical(alg: FinDimAlgebra):
    """Basis of the Jacobson radical via the trace-form kernel.

    The kernel always contains the radical (nilpotents have zero trace).
    When p > dim the converse is automatic; otherwise the kernel is
    certified to be a nilpotent two-sided ideal, which forces equality.
    A failed certificate raises CharacteristicTooSmall.
    """
    F = alg.field
    K = kernel(F, full_gram(alg))
    if F.kind == "prime" and F.p <= alg.dim and K:
        if not _is_nilpotent_ideal(alg, K):
            raise CharacteristicTooSmall(
                f"trace kernel is not certified nilpotent at p = {F.p}, "
                f"dim = {alg.dim}")
    return K


def _reduce_mod(F, rows, pivots, v):
    """Residue of v modulo the span of reduced echelon rows (unit pivots,
    zeros in the other rows' pivot columns); zero iff v is in the span."""
    red = F.reduce_row
    for row, pc in zip(rows, pivots):
        c = v[pc]
        if c:
            v = red([a - c * b for a, b in zip(v, row)])
    return v


def _is_nilpotent_ideal(alg: FinDimAlgebra, K):
    """K is a two-sided ideal and some power of it is zero.  K is
    row-reduced once; each product e_i k and k e_i must reduce to zero
    against it."""
    F = alg.field
    rows, pivots = rref(F, K)
    basis_vecs = alg.basis_vectors()
    for k in K:
        for e in basis_vecs:
            if any(_reduce_mod(F, rows, pivots, alg.mul_vec(e, k))):
                return False
            if any(_reduce_mod(F, rows, pivots, alg.mul_vec(k, e))):
                return False
    # nilpotency: successive powers K, K^2, ... must reach zero
    current = rows
    for _ in range(alg.dim + 1):
        products = [alg.mul_vec(u, v) for u in current for v in K]
        power = rref(F, products)[0]
        if not power:
            return True
        if len(power) == len(current):
            return False  # stabilized at a nonzero power
        current = power
    return False


def radical_quotient(alg: FinDimAlgebra) -> FinDimAlgebra:
    """A/rad on the normal words of A at the columns that are not pivots
    of the radical, row-reduced from the last column; its table is A's
    table reduced modulo the radical and read at those columns.  A/rad
    has no presentation, so ``system`` is None."""
    F = alg.field
    rows, rev = rref(F, [v[::-1] for v in radical(alg)])
    rows = [r[::-1] for r in rows]
    pivots = [alg.dim - 1 - c for c in rev]
    free = [i for i in range(alg.dim) if i not in pivots]
    table = []
    for i in free:
        row = []
        for j in free:
            v = _reduce_mod(F, rows, pivots, alg.table[i][j])
            row.append([v[k] for k in free])
        table.append(row)
    return FinDimAlgebra(F, None, [alg.basis[i] for i in free], table)


def center_basis(alg: FinDimAlgebra):
    """Basis of the center: the kernel of v -> (v e_k - e_k v)_k, whose
    matrix has entry table[i][k][m] - table[k][i][m] in row (k, m) and
    column i."""
    F = alg.field
    table = alg.table
    rows = [F.reduce_row([table[i][k][m] - table[k][i][m]
                          for i in range(alg.dim)])
            for k in range(alg.dim) for m in range(alg.dim)]
    return kernel(F, rows)


def _power(alg: FinDimAlgebra, v, e):
    """v^e, by square-and-multiply."""
    out = alg.unit_vector()
    while e:
        if e & 1:
            out = alg.mul_vec(out, v)
        e >>= 1
        if e:
            v = alg.mul_vec(v, v)
    return out


def _combine(F, coeffs, vectors):
    """sum_i coeffs[i] * vectors[i]."""
    return F.reduce_row([sum(map(mul, coeffs, col)) for col in zip(*vectors)])


#: Random draws ``wedderburn_blocks`` tries on one idempotent before it
#: gives up on splitting it.
SPLIT_ATTEMPTS = 40


def wedderburn_blocks(alg: FinDimAlgebra, seed: int = 0) -> BlockStructure:
    """Radical, then split A/rad into its blocks by the primitive
    idempotents of its center Z, with no polynomial arithmetic.

    Frobenius z -> z^p is additive on the commutative Z, so its fixed
    part B = {z : z^p = z} is a kernel; it is F_p x ... x F_p with one
    factor per block (Berlekamp, Math. Comp. 24, 1970).  Starting from
    the idempotent 1, an idempotent e with dim(B e) > 1 is split by a
    seeded random b in B e: u = b^((p-1)/2) is 0 or +-1 on each block, so
    f = (u^2 + u)/2 is a sub-idempotent of e, proper unless the draw is
    unlucky (Cantor-Zassenhaus run inside the algebra, Math. Comp. 36,
    1981).  A primitive e is one block M_n(F_{p^k}), with k = dim(Z e)
    and n^2 k = dim((A/rad) e).
    """
    F = alg.field
    p = F.p
    quot = radical_quotient(alg)
    zbasis = center_basis(quot)
    frob = [F.reduce_row([a - b for a, b in zip(_power(quot, z, p), z)])
            for z in zbasis]
    fixed = [_combine(F, c, zbasis)
             for c in kernel(F, list(zip(*frob)))]
    half = F.inv(2)
    rng = random.Random(seed)
    blocks = []
    todo = [quot.unit_vector()]
    while todo:
        e = todo.pop()
        fixed_e = rref(F, [quot.mul_vec(b, e) for b in fixed])[0]
        if len(fixed_e) == 1:
            k = rank(F, [quot.mul_vec(z, e) for z in zbasis])
            bdim = rank(F, [quot.mul_vec(b, e) for b in quot.basis_vectors()])
            n = math.isqrt(bdim // k)
            if n * n * k != bdim:
                raise SplitFailure(
                    f"block of dim {bdim} incompatible with center degree {k}")
            blocks.append((n, k))
            continue
        for _ in range(SPLIT_ATTEMPTS):
            b = _combine(F, [rng.randrange(p) for _ in fixed_e], fixed_e)
            u = _power(quot, b, (p - 1) // 2)
            f = F.reduce_row([half * (s + t)
                              for s, t in zip(quot.mul_vec(u, u), u)])
            if any(f) and f != e:
                break
        else:
            raise SplitFailure(
                f"no splitting draw found within {SPLIT_ATTEMPTS} attempts")
        todo += [f, F.reduce_row([a - c for a, c in zip(e, f)])]
    blocks.sort()
    return BlockStructure(blocks=blocks, radical_dim=alg.dim - quot.dim)


# -- dimension two: the Cayley-Hamilton certificate ----------------------


def dim2_relation_scalars(s, t, dx, dy, tau):
    """The scalars g with rel(X, Y) = g [X, Y] for 2 x 2 matrices, one per
    defining relation in the order of ``clifford_relations``, in s = tr X,
    t = tr Y, dx = det X, dy = det Y and tau = tr XY, over any ring with
    ``+ - *``."""
    return s * s - dx, s * t + tau, t * t - dy


def dim2_det_bracket(s, t, dx, dy, tau):
    """-det [X, Y] for 2 x 2 matrices, in the invariants of
    ``dim2_relation_scalars``, over any ring with ``+ - *``."""
    return tau * tau - s * t * tau + s * s * dy + t * t * dx - 4 * dx * dy


def _m2_mul(a, b):
    """Product of two 2 x 2 matrices, as row-major 4-tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 + a1 * b2, a0 * b1 + a1 * b3,
            a2 * b0 + a3 * b2, a2 * b1 + a3 * b3)


def dim2_certificate(field) -> bool:
    """True iff the identities below hold over ``field``, which proves
    that C has no 2-dimensional irreducible representation over the
    algebraic closure of ``field``.

    For 2 x 2 matrices Cayley-Hamilton gives X^2 = s X - dx, so each
    defining relation at (X, Y) is g K for K = [X, Y] and the scalar g of
    ``dim2_relation_scalars``; and det K = -``dim2_det_bracket``.  Two
    2 x 2 matrices share an eigenvector iff det K = 0, and otherwise they
    generate M_2 (Burnside).  So an irreducible representation has
    K != 0, hence every g = 0, that is dx = s^2, tau = -s t and dy = t^2
    (each g is its own invariant, up to sign, plus a polynomial in s and
    t); there the bracket vanishes, so det K = 0 after all.

    Checked as polynomial identities: the relations from
    ``clifford_relations`` evaluated at generic X, Y with CommPoly entries
    in 8 variables; det K against the bracket; and, in the 2 variables
    s, t, that the scalars and the bracket vanish at dx = s^2, dy = t^2,
    tau = -s t.  Every identity has integer coefficients, so it holds over
    Q and in every characteristic p alike.
    """
    F = field
    xs = [CommPoly.var(F, 8, i) for i in range(8)]
    X, Y = tuple(xs[:4]), tuple(xs[4:])
    mats = {"x": X, "y": Y}
    XY = _m2_mul(X, Y)
    K = [a - b for a, b in zip(XY, _m2_mul(Y, X))]
    inv = (X[0] + X[3], Y[0] + Y[3], X[0] * X[3] - X[1] * X[2],
           Y[0] * Y[3] - Y[1] * Y[2], XY[0] + XY[3])
    zero = CommPoly.zero(F, 8)
    for rel, g in zip(clifford_relations(F), dim2_relation_scalars(*inv)):
        value = [zero] * 4
        for word, c in rel.terms.items():
            m = reduce(_m2_mul, (mats[a] for a in word))
            value = [v + e.scale(c) for v, e in zip(value, m)]
        if value != [g * k for k in K]:
            return False
    if not (K[0] * K[3] - K[1] * K[2] + dim2_det_bracket(*inv)).is_zero():
        return False
    s, t = (CommPoly.var(F, 2, i) for i in range(2))
    at = (s, t, s * s, t * t, (s * t).neg())
    return all(g.is_zero()
               for g in (*dim2_relation_scalars(*at), dim2_det_bracket(*at)))


# -- brute-force representation searches ---------------------------------


#: Largest prime the dim-2 sweep ``search_irreps_dim2`` accepts: it
#: sweeps p^4 matrices Y for each of the p canonical X, about 2.9e7
#: candidates at p = 31.  The cap bounds only that sweep (``search-dim2``);
#: ``dim2_certificate`` answers the same question at every prime.
DIM2_MAX_P = 31


def dim2_x_forms(field):
    """Canonical x-images of the dim-2 search, as row-major int 4-tuples:
    the companion matrices [[0, -s^2], [1, s]] of t^2 - s t + s^2 for
    s = 1..p-1, then the nilpotent Jordan block.  Up to conjugacy these
    are all non-scalar X with X^3 scalar, over every F_p: if X^3 = c != 0,
    the minimal polynomial of X is a quadratic factor of t^3 - c, which
    is t^2 - s t + s^2 with s = tr X and c = -s^3; if X^3 = 0, X is
    nilpotent."""
    p = field.p
    return [(0, -s * s % p, 1, s) for s in range(1, p)] + [(0, 1, 0, 0)]


def search_irreps_dim2(field):
    """Exhaustive search for 2-dimensional irreducible representations.

    x-images are the canonical forms of ``dim2_x_forms``: one companion
    matrix per trace s in F_p^* (x^3 a nonzero scalar) and the nilpotent
    Jordan block (x^3 = 0); scalar images force reducibility and are
    excluded.  X^3 is checked to be scalar once per canonical X, which
    proves x^3 y = y x^3 for every Y.  Then all p^4 matrices Y are tested
    against the other two defining relations, x y^3 = y^3 x first.  A
    solution is irreducible iff det[X, Y] != 0: two 2 x 2 matrices share
    an eigenvector over the algebraic closure iff their commutator is
    singular, and otherwise they generate all of M_2 (Burnside).  Also
    counts the reducible solutions seen, as a diagnostic.
    """
    p = field.p
    if p > DIM2_MAX_P:
        raise FieldTooLarge(
            f"the dim-2 search sweeps p * p^4 candidates and is capped at "
            f"p <= {DIM2_MAX_P}; got p = {p}")
    xforms = dim2_x_forms(field)
    irreducible = []
    reducible_count = 0
    rng = range(p)
    # 2 x 2 matrices are row-major ints, reduced mod p only where they
    # are compared with 0
    for x0, x1, x2, x3 in xforms:
        u0, u1 = x0 * x0 + x1 * x2, x1 * (x0 + x3)  # X^2
        u2, u3 = x2 * (x0 + x3), x3 * x3 + x1 * x2
        c0, c1 = u0 * x0 + u1 * x2, u0 * x1 + u1 * x3  # X^3
        c2, c3 = u2 * x0 + u3 * x2, u2 * x1 + u3 * x3
        if c1 % p or c2 % p or (c0 - c3) % p:
            raise NotScalar(f"x^3 is not scalar at X = {(x0, x1, x2, x3)}")
        dx = x0 - x3
        for a in rng:
            for b in rng:
                for c in rng:
                    bc = b * c
                    y0 = a * a + bc  # Y^2 = (y0, y1, y2, y3)
                    for d in rng:
                        t = a + d
                        y1, y2, y3 = b * t, c * t, d * d + bc
                        z0, z1 = y0 * a + y1 * c, y0 * b + y1 * d  # Y^3
                        z2, z3 = y2 * a + y3 * c, y2 * b + y3 * d
                        # x y^3 = y^3 x; entry (1,1) of [X, Y^3] is minus
                        # entry (0,0)
                        if ((x1 * z2 - x2 * z1) % p
                                or (dx * z1 + x1 * (z3 - z0)) % p
                                or (x2 * (z0 - z3) - dx * z2) % p):
                            continue
                        m0, m1 = x0 * a + x1 * c, x0 * b + x1 * d  # XY
                        m2, m3 = x2 * a + x3 * c, x2 * b + x3 * d
                        n0, n1 = a * x0 + b * x2, a * x1 + b * x3  # YX
                        n2, n3 = c * x0 + d * x2, c * x1 + d * x3
                        # x^2y^2 + xyxy - yxyx - y^2x^2 = 0
                        if ((u0 * y0 + u1 * y2 - y0 * u0 - y1 * u2
                             + m0 * m0 + m1 * m2 - n0 * n0 - n1 * n2) % p
                                or (u0 * y1 + u1 * y3 - y0 * u1 - y1 * u3
                                    + m0 * m1 + m1 * m3
                                    - n0 * n1 - n1 * n3) % p
                                or (u2 * y0 + u3 * y2 - y2 * u0 - y3 * u2
                                    + m2 * m0 + m3 * m2
                                    - n2 * n0 - n3 * n2) % p
                                or (u2 * y1 + u3 * y3 - y2 * u1 - y3 * u3
                                    + m2 * m1 + m3 * m3
                                    - n2 * n1 - n3 * n3) % p):
                            continue
                        # [X, Y] = (k0, k1, k2, -k0)
                        k0, k1, k2 = m0 - n0, m1 - n1, m2 - n2
                        if (k0 * k0 + k1 * k2) % p:
                            irreducible.append((((x0, x1), (x2, x3)),
                                                ((a, b), (c, d))))
                        else:
                            reducible_count += 1
    return {"irreducible_pairs": irreducible,
            "reducible_solutions": reducible_count,
            "x_forms_tested": len(xforms)}


def search_irreps_dim1(field, point: CentralPoint):
    """All (a, b) in F_p^2 whose central character matches the point:
    (a^3, a^2 b, a b^2, b^3, 0, 0) = (coordinates of the point)."""
    F = field
    p = F.p
    out = []
    if point.e != F.zero or point.f != F.zero:
        return out
    target = point.coords()[:4]
    for a in range(p):
        if pow(a, 3, p) != point.a:
            continue
        for b in range(p):
            if tuple(v % p for v in cube_map(a, b)) == target:
                out.append((a, b))
    return out
