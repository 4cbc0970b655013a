"""Minimal graded free resolutions over G = k[x]/J, bigraded Betti
numbers, Tor Hilbert series by degreewise linear algebra, and the
closed-form series for stable monomial ideals.

A graded module is presented as a cokernel (ModulePresentation); all
homology is computed strand by strand: a fixed internal degree of
everything in sight is a finite-dimensional vector space over k with a
monomial basis, and kernels/images are rank computations there.

A differential of a free complex is held as columns, one term dict
{(row, exponents): c} per basis vector of its source: the entry of row
`row` is the polynomial of the terms keyed by that row.  Resolutions,
the lift and `filtered.tensor_complex` all read this one format.
"""

import operator
from math import comb

from .groebner import (NormalFormTable, _buchberger, _submul, as_column,
                       as_vector, quotient_table, syzygies)
from .fields import GrtorError
from .linalg import ColumnEchelon
from .poly import GRADED
from .series import BigradedSeries


# --- strand bases -------------------------------------------------------------
#
# A strand of ⊕ G(-shifts) is its piece of one internal degree: the keys
# (col, (0, e)) for e a standard monomial of G = k[x]/J of degree
# degree - shift, in descending ring order, read off `nf`, the normal-form
# table of J (`quotient_table`).  `nf.column` scatters a column times a
# monomial, mod J, into a strand index.  The lift's solution depends on
# the order of the source strand, so it stays the ring order.


def free_basis(nf, shifts, degree):
    """Basis [(col, (0, monomial))] of the degree-`degree` piece of
    ⊕ G(-shifts): the keys of the tensor complex of ⊕ G(-shifts) with G."""
    return [(col, (0, mono)) for col, s in enumerate(shifts) for mono in nf.terms(0, degree - s)]


def strand_solve(nf, d, src_shifts, dst_shifts, target, degree):
    """Solve d * u = target in one internal degree, or return None: d is a
    differential as columns, target a term dict {(dst row, exponents): c}
    of that degree in normal form, and u one {(src column, exponents): c}.
    The strand's columns go into one echelon in `free_basis` order, each
    with the combination {its key of u: 1}, then the target with {}: so
    every column is tagged, and the target, in their span iff it takes no
    pivot, ends with minus its expression on them, which is u."""
    field = nf.ring.field
    dst_index = {key: n for n, key in enumerate(free_basis(nf, dst_shifts, degree))}
    ech = ColumnEchelon(field, len(dst_index))
    for col, key in free_basis(nf, src_shifts, degree):
        ech.add(nf.column(d[col], key, dst_index), {(col, key[1]): field.one})
    combo = {}
    if ech.add({dst_index[(a, (0, e))]: c for (a, e), c in target.items()}, combo) is not None:
        return None
    return {key: field.neg(x) for key, x in combo.items()}


# --- presented modules, degreewise ---------------------------------------------


class GradedModulePieces(NormalFormTable):
    """The table of normal forms of a presented graded module.

    Over the polynomial cover F = ⊕ k[x](-shift), the module is F modulo
    the relations and the quotient multiples q·e_a.  One Groebner basis of
    that submodule, truncated at degree j_max (exact in every degree <=
    j_max, since the input is homogeneous), gives a k-basis of each piece
    (Macaulay): the standard terms (col, mono), those that no lead term of
    the same row divides, which `basis(j_max)` lists.  The table reduces
    monomials against that Groebner basis; `tor_from_resolution` hands it
    to the tensor builder.
    """

    __slots__ = ()

    def __init__(self, module, j_max):
        ring = module.ring
        shifts = module.column_degrees
        cols = [as_column(rel) for rel in module.relations]
        cols += [{(a, e): c for e, c in q.terms.items()}
                 for q in ring.quotient for a in range(len(shifts))]
        gb, _ = _buchberger(ring, cols, shifts, j_max, False)
        super().__init__(ring, [g.col for g in gb], shifts)


# --- minimal generators -------------------------------------------------------


def minimal_generators(nf, columns, row_shifts):
    """A minimal generating subset of homogeneous module generators, given
    as columns {(row, exponents): c}, by graded Nakayama (Eisenbud,
    Commutative Algebra, 19.1), as [(index in `columns`, internal
    degree)].  The nonzero columns are taken in ascending internal
    degree, in list order within a degree, and each is kept unless the
    span of the kept ones reaches it, on the strand bases of the
    quotient table `nf`."""
    items = []
    for k, col in enumerate(columns):
        degs = {sum(e) + row_shifts[a] for a, e in col}
        if not degs:
            continue
        if len(degs) > 1:
            raise GrtorError("generator is not homogeneous for the row shifts")
        items.append((k, degs.pop()))
    items.sort(key=operator.itemgetter(1))
    one = (0, (0,) * nf.ring.nvars)  # the table's key of 1 * e_0
    chosen = []
    d = ech = free_index = None
    for k, vdeg in items:
        if vdeg != d:
            # the degree-d span of the submodule the kept columns generate
            d = vdeg
            free_index = {key: n for n, key in enumerate(free_basis(nf, row_shifts, d))}
            ech = ColumnEchelon(nf.ring.field, len(free_index))
            for c, e in chosen:
                for mono in nf.terms(0, d - e):
                    ech.add(nf.column(columns[c], (0, mono), free_index))
        if ech.add(nf.column(columns[k], one, free_index)) is not None:
            chosen.append((k, vdeg))
    return chosen


# --- resolutions ----------------------------------------------------------------


class GradedFreeResolution:
    """Complex of free graded modules with degree shifts and homogeneous
    differentials; diffs[i] maps term i to term i-1 (i >= 1), as one
    column {(row, exponents): c} per basis vector of term i (diffs[0] is
    None).  `kept_relations`, when known, lists the relations of the
    resolved presentation that are the columns of d_1, in order."""

    def __init__(self, ring, shifts_per_term, diffs, i_max, kept_relations=None):
        self.ring = ring
        self.shifts = [tuple(s) for s in shifts_per_term]
        self.diffs = diffs
        self.i_max = i_max
        self.kept_relations = kept_relations
        self._validate()

    @property
    def length(self):
        return len(self.shifts) - 1

    def rank(self, i):
        if 0 <= i < len(self.shifts):
            return len(self.shifts[i])
        return 0

    def _validate(self):
        for i in range(1, len(self.shifts)):
            src, dst = self.shifts[i], self.shifts[i - 1]
            for b, col in enumerate(self.diffs[i]):
                for a, e in col:
                    if sum(e) != src[b] - dst[a]:
                        raise GrtorError(
                            "differential entry (%d,%d) at level %d is not homogeneous "
                            "of degree %d" % (a, b, i, src[b] - dst[a]))
                    if src[b] == dst[a]:
                        raise GrtorError("minimal resolution has a unit entry")
        nf = quotient_table(self.ring)
        key = (0, (0,) * self.ring.nvars)  # the key of 1 * e_0
        for i in range(2, len(self.diffs)):
            if any(nf(compose(self.ring.field, self.diffs[i - 1], col, nf.cap), key)
                   for col in self.diffs[i]):
                raise GrtorError("d o d is nonzero at homological degree %d" % i)


def compose(field, d, col, cap=None, shifts=None):
    """The column d * col of a differential d (as columns) times a column
    over its source, with the product terms whose degree (plus its row's
    shift in the target, given `shifts`) passes the cap dropped."""
    out = {}
    for (t, e), x in col.items():
        _submul(field, out, d[t], e, field.neg(x), cap, shifts)
    return out


def _strip_units(ring, shifts, cols):
    """Strip the unit entries of a presentation by Gaussian elimination, so
    that its free cover is minimal.  `cols` are the relation columns:
    while one has a unit entry, the first such in list order and its first
    such row a, its multiples clear row a of the others, and the relation
    and row a go.  Returns (shifts, columns) with the zero columns dropped."""
    fld = ring.field
    one = (0,) * ring.nvars
    shifts = list(shifts)
    while True:
        hit = next(((k, a) for k, col in enumerate(cols)
                    for a in range(len(shifts)) if (a, one) in col), None)
        if hit is None:
            return shifts, [col for col in cols if col]
        k, a = hit
        pivot = cols.pop(k)
        inv = fld.inv(pivot[(a, one)])
        stripped = []
        for col in cols:
            col = dict(col)
            for e, c in [(e, c) for (b, e), c in col.items() if b == a]:
                _submul(fld, col, pivot, e, fld.mul(c, inv), None)
            stripped.append({(b - (b > a), e): c for (b, e), c in col.items()})
        cols = stripped
        del shifts[a]


def minimal_resolution(module, i_max):
    """Minimal graded free resolution of a presented module over G = k[x]/J,
    to homological degree i_max, by iterated syzygies with degreewise
    minimal-generator selection.

    Syzygies over G are computed over the polynomial cover with the
    quotient relations adjoined as extra columns, then reduced mod J.
    Unit entries are stripped from the presentation first
    (`_strip_units`); the result's `kept_relations` indexes the relations
    left after that, which are the module's own when it has no unit entry
    and no zero relation.
    """
    ring = module.ring
    if ring.setting != GRADED:
        raise GrtorError("minimal_resolution needs a graded ring")
    nf = quotient_table(ring)

    def reduced(col):
        """A column in normal form mod J."""
        if not ring.quotient:
            return col
        return {(a, e): c for (a, (_, e)), c in nf(col, (0, (0,) * ring.nvars)).items()}

    shifts, cols = _strip_units(ring, module.column_degrees,
                                [as_column(rel) for rel in module.relations])
    candidates = [reduced(col) for col in cols]
    shifts_per_term = [tuple(shifts)]
    diffs = [None]

    chosen = minimal_generators(nf, candidates, shifts_per_term[0])
    kept_relations = [k for k, _deg in chosen]

    for i in range(1, i_max + 1):
        if not chosen:
            break
        row_shifts = shifts_per_term[i - 1]
        current = [candidates[k] for k, _deg in chosen]
        col_degs = tuple(deg for _k, deg in chosen)
        shifts_per_term.append(col_degs)
        diffs.append(current)
        if i == i_max:
            break
        # syzygies over G, computed over the polynomial cover: `syzygies`
        # takes vectors of polynomials, and the quotient multiples of the
        # free basis vectors are adjoined
        aug_cols = [as_vector(ring, col, len(row_shifts)) for col in current]
        aug_cols += [[q if b == a else ring.zero() for b in range(len(row_shifts))]
                     for q in ring.quotient for a in range(len(row_shifts))]
        raw = syzygies(ring, aug_cols, row_shifts)
        candidates = [reduced(as_column(u[:len(current)])) for u in raw]
        chosen = minimal_generators(nf, candidates, col_degs)

    return GradedFreeResolution(ring, shifts_per_term, diffs, i_max,
                                kept_relations=kept_relations)


def betti_series(res, i_max=None, j_max=None):
    """Betti table: beta_{i,j} = number of shift-j columns in homological
    degree i of a minimal resolution."""
    if i_max is None:
        i_max = max(res.i_max, res.length)
    all_shifts = [s for term in res.shifts for s in term] or [0]
    if j_max is None:
        j_max = max(all_shifts)
    table = BigradedSeries(i_max, j_max)
    for i, term in enumerate(res.shifts):
        if i > i_max:
            break
        for s in term:
            if s <= j_max:
                table._set(i, s, table.get(i, s) + 1)
    return table


# --- Tor by strandwise tensor-and-homology --------------------------------------


def tor_series(mM, mN, i_max, j_max):
    """Bigraded Hilbert series of Tor^G(M, N): resolve M minimally to
    homological degree i_max + 1, then `tor_from_resolution`."""
    if not mM.ring.compatible(mN.ring) or tuple(
            str(q) for q in mM.ring.quotient) != tuple(str(q) for q in mN.ring.quotient):
        raise GrtorError("modules must be presented over the same ring")
    low = min(mM.column_degrees + mN.column_degrees, default=0)
    if low < 0:  # the pieces of N are read in degrees 0..j_max only
        raise GrtorError("column degree %d is negative; shift the modules to "
                         "degrees >= 0" % low)
    return tor_from_resolution(minimal_resolution(mM, i_max + 1), mN, i_max, j_max)


def tor_from_resolution(res, mN, i_max, j_max):
    """Tor^G(M, N) for i <= i_max off a minimal graded free resolution F of
    M to homological degree i_max + 1 or further (later terms are not
    read): the strand homology of F (x) N from `tensor_complex`, with level
    = internal degree, which every differential preserves, so it is page 1
    of the spectral sequence of that complex."""
    from .filtered import FilteredComplex, tensor_complex
    from .spectral import page
    nf = GradedModulePieces(mN, j_max)
    top = min(res.length, i_max + 1) + 1
    levels, diffs = tensor_complex(res.shifts[:top], res.diffs[:top], nf, j_max)
    homology = page(FilteredComplex(mN.ring.field, levels, diffs, j_max), 1).dims
    return BigradedSeries(i_max, j_max, {c: h for c, h in homology.coefficients.items()
                                         if c[0] <= i_max})


# --- stable monomial ideals ------------------------------------------------------


def closed_form_tor_series(n, m, d, e, i_max, j_max):
    """Tor series of M = k[x_1..x_n]/(x_1^d, x_1^{d-1}x_2, .., x_1^{d-1}x_m)
    against k over the hypersurface ring G = k[x]/(x_1^e), truncated:

        (1 + sum_{i=1..m} C(m, i) z^i t^{d+i-1}) * sum_{k>=0} z^{2k} t^{ke}.

    The left factor is the Betti polynomial of M over the polynomial ring
    (Eliahou-Kervaire); the right factor is the standard hypersurface
    periodicity.  For m <= 2 the left factor is 1 + m z t^d +
    (m-1) z^2 t^{d+1}."""
    if not (2 <= d < e):
        raise GrtorError("need 2 <= d < e")
    if e < 3:
        raise GrtorError("need e >= 3")
    if not (1 <= m <= n):
        raise GrtorError("need 1 <= m <= n")
    out = BigradedSeries(i_max, j_max)

    def bump(i, j, c):
        if c and 0 <= i <= i_max and 0 <= j <= j_max:
            out._set(i, j, out.get(i, j) + c)

    k = 0
    while 2 * k <= i_max and k * e <= j_max:
        bump(2 * k, k * e, 1)
        for i in range(1, m + 1):
            bump(2 * k + i, k * e + d + i - 1, comb(m, i))
        k += 1
    return out
