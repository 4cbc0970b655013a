"""Independent oracle for the graded pieces of a presented module.

A second code path, kept apart from `grtor.resolution.GradedModulePieces`
(which reads the pieces off the standard terms of one Groebner basis):
every relation multiple in every degree is row-reduced in a dense
echelon on the free cover's strand basis.  Slow; tests only.
"""

from grtor.groebner import normal_form, quotient_groebner, quotient_table

from poly_oracle import monomial_multiple
from spectral_oracle import ColumnEchelon


def relation_degrees(module):
    """The degree of each relation of a graded presentation (0 for a zero
    relation): the degree of its first nonzero entry plus that entry's
    column degree."""
    out = []
    for rel in module.relations:
        degs = [p.degree() + module.column_degrees[a] for a, p in enumerate(rel) if not p.is_zero()]
        out.append(degs[0] if degs else 0)
    return out


class EchelonPieces:
    """Degreewise k-bases of a presented graded module with multiplication.

    Elements of the degree-D piece are coordinate vectors on the free
    cover's strand basis, reduced modulo the span of the relations; the
    reduced representatives are supported on non-pivot basis elements.
    """

    def __init__(self, module, j_max):
        self.module = module
        self.ring = module.ring
        self.j_max = j_max
        self.field = self.ring.field
        self.gb = quotient_groebner(self.ring)
        pieces = quotient_table(self.ring)
        self._free = {}
        self._free_index = {}
        self._echelon = {}
        self._quotient_index = {}
        for d in range(0, j_max + 1):
            basis = [(col, mono) for col, s in enumerate(module.column_degrees)
                     for mono in pieces.terms(0, d - s)]
            self._free[d] = basis
            self._free_index[d] = {key: n for n, key in enumerate(basis)}
            ech = ColumnEchelon(self.field, range(len(basis)))
            for rel, rdeg in zip(module.relations, relation_degrees(module)):
                for mono in pieces.terms(0, d - rdeg):
                    vec = [self.field.zero] * len(basis)
                    for col, p in enumerate(rel):
                        if p.is_zero():
                            continue
                        prod = monomial_multiple(p, mono)
                        if self.gb:
                            prod = normal_form(prod, self.gb)
                        for e, c in prod.terms.items():
                            n = self._free_index[d][(col, e)]
                            vec[n] = self.field.add(vec[n], c)
                    ech.add(vec)
            self._echelon[d] = ech
            pivots = {ech.row_order[p] for p in sorted(ech.columns)}
            quot = [n for n in range(len(basis)) if n not in pivots]
            self._quotient_index[d] = quot

    def dim(self, d):
        if d < 0 or d > self.j_max:
            return 0
        return len(self._quotient_index[d])

    def reduce(self, d, coords):
        """Reduce a free-cover strand vector modulo the relation span and
        return coordinates on the quotient basis."""
        ech = self._echelon[d]
        field = self.field
        vec = list(coords)
        for piv in sorted(ech.columns):
            r = ech.row_order[piv]
            if vec[r]:
                f = vec[r]
                other = ech.columns[piv]
                vec = [field.sub(x, field.mul(f, y)) for x, y in zip(vec, other)]
        return [vec[n] for n in self._quotient_index[d]]

    def multiply_matrix(self, p, d_src):
        """Matrix of multiplication by the homogeneous polynomial p from the
        degree-d_src piece to the degree-(d_src + deg p) piece."""
        d_dst = d_src + p.degree()
        if p.is_zero() or d_src < 0 or d_src > self.j_max or d_dst > self.j_max:
            return [[self.field.zero] * self.dim(d_src) for _ in range(self.dim(d_dst))]
        cols = []
        for n in self._quotient_index[d_src]:
            col, mono = self._free[d_src][n]
            prod = monomial_multiple(p, mono)
            if self.gb:
                prod = normal_form(prod, self.gb)
            vec = [self.field.zero] * len(self._free[d_dst])
            for e, c in prod.terms.items():
                m = self._free_index[d_dst][(col, e)]
                vec[m] = self.field.add(vec[m], c)
            cols.append(self.reduce(d_dst, vec))
        return [[cols[j][i] for j in range(len(cols))] for i in range(self.dim(d_dst))]
