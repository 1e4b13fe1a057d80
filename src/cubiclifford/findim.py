"""Finite-dimensional central quotients C/mC as explicit algebras.

The quotient at a central point (c0, ..., c5) is presented by the six
z_i - c_i, completed with the same (now inhomogeneous) rewriting engine.
The basis is the set of normal words; multiplication is normal-form
reduction of concatenated basis words, materialized as a table.
"""

from __future__ import annotations

from .center import central_elements
from .commgeo import CentralPoint
from .errors import NotFiniteDimensional, NotScalar, ZeroAlgebra
from .freealg import NcPoly
from .rewrite import complete


class FinDimAlgebra:
    """Basis labels (normal words), structure constants, field.

    ``table[i][j]`` is the coordinate vector of basis_i * basis_j.
    ``system`` is the completed presentation ``coords`` reduces with; it
    is None for an algebra built from another's table, such as A/rad.
    """

    def __init__(self, field, system, basis, table):
        self.field = field
        self.system = system
        self.basis = basis  # list of words, index 0 is the empty word
        self.index = {w: i for i, w in enumerate(basis)}
        self.table = table
        self.dim = len(basis)
        self.unit_index = self.index[""]

    def coords(self, p: NcPoly):
        """Coordinate vector of the normal form of p."""
        nf = self.system.normal_form(p)
        v = [self.field.zero] * self.dim
        for w, c in nf.terms.items():
            if w not in self.index:
                raise NotScalar(f"word {w!r} escaped the basis")
            v[self.index[w]] = c
        return v

    def mul_vec(self, u, v):
        """Product of two coordinate vectors, summed with ``+ *`` and
        reduced once."""
        F = self.field
        out = [F.zero] * self.dim
        for i, a in enumerate(u):
            if a == F.zero:
                continue
            for j, b in enumerate(v):
                if b == F.zero:
                    continue
                c = a * b
                for k, s in enumerate(self.table[i][j]):
                    if s != F.zero:
                        out[k] += c * s
        return F.reduce_row(out)

    def basis_vectors(self):
        """Coordinate vectors of the basis elements (the identity rows)."""
        F = self.field
        return [[F.one if i == j else F.zero for j in range(self.dim)]
                for i in range(self.dim)]

    def unit_vector(self):
        F = self.field
        v = [F.zero] * self.dim
        v[self.unit_index] = F.one
        return v

    def to_json_dict(self):
        return {
            "modulus": self.field.p,
            "dim": self.dim,
            "basis": [w or "1" for w in self.basis],
            "structure_constants": [
                [[int(c) for c in self.table[i][j]] for j in range(self.dim)]
                for i in range(self.dim)
            ],
        }


def quotient_relations(field, point: CentralPoint):
    """z0 - a, ..., z5 - f: each central element minus its coordinate."""
    one = NcPoly.one(field)
    return [z.sub(one.scale(c)) for z, c in
            zip(central_elements(field).as_list(), point.coords())]


#: Completion bound for the quotient presentations.
DEGREE_BOUND = 16


def build_quotient(field, point: CentralPoint) -> FinDimAlgebra:
    """Complete the quotient presentation and materialize the algebra.

    Raises ZeroAlgebra when 1 reduces to 0 (the point violates the fiber
    equation) and NotFiniteDimensional when normal words persist at every
    degree up to ``DEGREE_BOUND``.
    """
    rels = quotient_relations(field, point)
    system = complete(rels, degree_bound=DEGREE_BOUND)
    if system.inconsistent:
        raise ZeroAlgebra("1 lies in the ideal: inconsistent central point")

    basis = []
    for n in range(DEGREE_BOUND + 1):
        words = system.basis_words(n)
        if not words:
            break
        basis.extend(words)
    else:
        raise NotFiniteDimensional(
            f"normal words persist at degree {DEGREE_BOUND}")

    alg = FinDimAlgebra(field, system, basis, None)
    alg.table = [[alg.coords(NcPoly.word(field, wi + wj)) for wj in basis]
                 for wi in basis]
    return alg


def reduce_center_images(alg: FinDimAlgebra):
    """Scalars to which z0..z5 reduce in the quotient; raises NotScalar
    if any image fails to be a multiple of the unit."""
    z = central_elements(alg.field)
    F = alg.field
    out = []
    for i, zi in enumerate(z.as_list()):
        v = alg.coords(zi)
        for k, c in enumerate(v):
            if k != alg.unit_index and c != F.zero:
                raise NotScalar(f"z{i} is not scalar in the quotient")
        out.append(v[alg.unit_index])
    return out


def check_unit_and_associativity(alg: FinDimAlgebra):
    """Unit law, and associativity (e_i e_j) e_k = e_i (e_j e_k) on every
    triple of basis elements, with e_i e_j read from the table.

    For each j, row i of the left side holds (e_i e_j) e_k for every k:
    the combination, with the coefficients of e_i e_j, of the flattened
    table rows T[m] = (e_m e_0, e_m e_1, ...).  Row k of the right side
    holds e_i (e_j e_k) for every i: the combination, with the
    coefficients of e_j e_k, of the flattened table columns.  Each
    combination is computed with plain ``+ *`` and one ``reduce_row``, as
    in ``linalg``; a product that is a single basis element with
    coefficient 1 picks its row or column with no arithmetic.
    """
    F = alg.field
    dim = alg.dim
    table = alg.table
    u = alg.unit_index
    basis_vecs = alg.basis_vectors()
    if any(table[u][k] != v or table[k][u] != v
           for k, v in enumerate(basis_vecs)):
        return False
    rows = [[c for v in table[m] for c in v] for m in range(dim)]
    cols = [[c for i in range(dim) for c in table[i][m]] for m in range(dim)]
    single = {tuple(v): m for m, v in enumerate(basis_vecs)}

    def combine(coeffs, flat):
        m = single.get(tuple(coeffs))
        if m is not None:
            return flat[m]
        acc = None
        for m, c in enumerate(coeffs):
            if c:
                acc = ([c * e for e in flat[m]] if acc is None else
                       [a + c * e for a, e in zip(acc, flat[m])])
        return F.reduce_row(acc) if acc is not None else [F.zero] * dim * dim

    for j in range(dim):
        left = [combine(table[i][j], rows) for i in range(dim)]
        right = [combine(table[j][k], cols) for k in range(dim)]
        for i in range(dim):
            for k in range(dim):
                if (left[i][k * dim:(k + 1) * dim]
                        != right[k][i * dim:(i + 1) * dim]):
                    return False
    return True
