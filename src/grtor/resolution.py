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

from .groebner import (GroebnerError, ModulePresentation, NormalFormTable, _buchberger,
                       _submul, as_column, as_vector, basis_leads, quotient_groebner,
                       standard_monomial_layers, syzygies)
from .fields import GrtorError
from .linalg import ColumnEchelon, solve
from .poly import GRADED
from .series import BigradedSeries


class ResolutionError(GrtorError):
    pass


# --- strand bases -------------------------------------------------------------


class Strands:
    """Strand bases and coordinates over G = k[x]/J for one computation:
    the monomial basis of each G_j, read off the layers of J's standard
    monomials as far as a caller asks, and `nf`, the table of monomial
    normal forms mod J.  Make one per call; nothing keeps it past the
    call."""

    def __init__(self, ring):
        self.ring = ring
        self.nf = NormalFormTable(ring, [as_column([g]) for g in quotient_groebner(ring)])
        self.one = (0, (0,) * ring.nvars)  # the table's key of 1 * e_0
        self._layers = standard_monomial_layers(basis_leads(quotient_groebner(ring)), ring.nvars)
        self._pieces = []

    def piece(self, j):
        """The monomial basis of G_j, descending in the ring order, as
        `graded_piece_basis` gives it; each layer is built once."""
        while len(self._pieces) <= j:
            layer = next(self._layers, None)
            if layer is None:
                return []
            self._pieces.append(sorted(layer, key=self.ring.order.key, reverse=True))
        return self._pieces[j] if j >= 0 else []

    def free_basis(self, shifts, degree):
        """Basis [(col, (0, monomial))] of the degree-`degree` piece of
        ⊕ G(-shifts): the keys of the tensor complex of ⊕ G(-shifts) with G."""
        return [(col, (0, mono)) for col, s in enumerate(shifts)
                for mono in self.piece(degree - s)]

    def column(self, col, index, mono=None):
        """The sparse column {index[key]: c} of x^mono * col, a homogeneous
        column {(row, exponents): c}, modulo the quotient.  A term outside
        `index` raises."""
        return self.nf.column(col, self.one if mono is None else (0, mono), index)


def strand_solve(strands, d, src_shifts, dst_shifts, target, degree):
    """Solve d * u = target in one internal degree, or return None: d is a
    differential as columns, target a term dict {(dst row, exponents): c}
    of that degree in normal form, and u one {(src column, exponents): c}."""
    src = strands.free_basis(src_shifts, degree)
    dst_index = {key: n for n, key in enumerate(strands.free_basis(dst_shifts, degree))}
    cols = [strands.column(d[col], dst_index, mono) for col, (_, mono) in src]
    rhs = {dst_index[(a, (0, e))]: c for (a, e), c in target.items()}
    sol = solve(strands.ring.field, cols, rhs, len(dst_index))
    if sol is None:
        return None
    return {(col, mono): c for c, (col, (_, mono)) in zip(sol, src) if c}


# --- presented modules, degreewise ---------------------------------------------


class GradedModulePieces:
    """The standard terms of a presented graded module, and its table of
    normal forms.

    Over the polynomial cover F = ⊕ k[x](-shift), the module is F modulo
    the relations and the quotient multiples q·e_a.  One Groebner basis of
    that submodule, truncated at degree j_max (exact in every degree <=
    j_max, since the input is homogeneous), gives a k-basis of each piece
    (Macaulay): the standard terms (col, mono), those that no lead term of
    the same row divides.  `basis` lists them up to degree j_max, by
    degree, then column, then layer order; it ends where the module does,
    whatever j_max.  `nf` is the table of monomial normal forms against
    that Groebner basis; `tor_series` hands both to the tensor builder.
    """

    def __init__(self, module, j_max):
        ring = module.ring
        shifts = module.column_degrees
        cols = [as_column(rel) for rel in module.relations]
        cols += [{(a, e): c for e, c in q.terms.items()}
                 for q in ring.quotient for a in range(len(shifts))]
        gb, _ = _buchberger(ring, cols, shifts, j_max, False)
        self.nf = NormalFormTable(ring, [g.col for g in gb], shifts)
        terms = []
        for col, s in enumerate(shifts):
            lm = [e for e, _g in self.nf.leads.get(col, ())]
            for d, layer in enumerate(standard_monomial_layers(lm, ring.nvars, j_max - s), s):
                terms += [(d, col, mono) for mono in layer]
        terms.sort(key=operator.itemgetter(0))
        self.basis = [(col, mono) for _d, col, mono in terms]


# --- minimal generators -------------------------------------------------------


def minimal_generators(strands, columns, row_shifts):
    """A minimal generating subset of homogeneous module generators, given
    as columns {(row, exponents): c}, by graded Nakayama (Eisenbud,
    Commutative Algebra, 19.1), as [(index in `columns`, internal
    degree)].  The nonzero columns are taken in ascending internal
    degree, in list order within a degree, and each is kept unless the
    span of the kept ones reaches it, on the strand bases of `strands`."""
    items = []
    for k, col in enumerate(columns):
        degs = {sum(e) + row_shifts[a] for a, e in col}
        if not degs:
            continue
        if len(degs) > 1:
            raise ResolutionError("generator is not homogeneous for the row shifts")
        items.append((k, degs.pop()))
    items.sort(key=operator.itemgetter(1))
    chosen = []
    d = ech = free_index = None
    for k, vdeg in items:
        if vdeg != d:
            # the degree-d span of the submodule the kept columns generate
            d = vdeg
            free_index = {key: n for n, key in enumerate(strands.free_basis(row_shifts, d))}
            ech = ColumnEchelon(strands.ring.field, len(free_index))
            for c, e in chosen:
                for mono in strands.piece(d - e):
                    ech.add(strands.column(columns[c], free_index, mono))
        if ech.add(strands.column(columns[k], free_index)) is not None:
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
                        raise ResolutionError(
                            "differential entry (%d,%d) at level %d is not homogeneous "
                            "of degree %d" % (a, b, i, src[b] - dst[a]))
                    if src[b] == dst[a]:
                        raise ResolutionError("minimal resolution has a unit entry")
        check_composes_to_zero(Strands(self.ring).nf, self.diffs, lambda i: ResolutionError(
            "d o d is nonzero at homological degree %d" % i))


def compose(field, d, col, cap=None):
    """The column d * col of a differential d (as columns) times a column
    over its source, with the product terms past the cap dropped."""
    out = {}
    for (t, e), x in col.items():
        _submul(field, out, d[t], e, field.neg(x), cap)
    return out


def check_composes_to_zero(nf, diffs, error):
    """Raise error(i) for the first i >= 2 with d_{i-1} d_i nonzero modulo
    the basis of the rank-1 table `nf`, below its cap, at the first
    nonzero column."""
    key = (0, (0,) * nf.ring.nvars)  # the key of 1 * e_0
    for i in range(2, len(diffs)):
        if any(nf(compose(nf.ring.field, diffs[i - 1], col, nf.cap), key) for col in diffs[i]):
            raise error(i)


def _minimize_presentation(module):
    """Strip unit entries from a presentation (Gaussian reduction), so that
    the free cover is minimal."""
    ring = module.ring
    field = ring.field
    degs = list(module.column_degrees)
    rels = [list(r) for r in module.relations]
    changed = True
    while changed:
        changed = False
        for ri, rel in enumerate(rels):
            unit_col = None
            for a, p in enumerate(rel):
                if not p.is_zero() and p.degree() == 0:
                    unit_col = a
                    break
            if unit_col is None:
                continue
            pivot = rel[unit_col]
            inv = field.inv(pivot.coefficient((0,) * ring.nvars))
            new_rels = []
            for rj, other in enumerate(rels):
                if rj == ri:
                    continue
                q = other[unit_col]
                if q.is_zero():
                    new_rels.append([p for a, p in enumerate(other) if a != unit_col])
                    continue
                factor = q.scale(inv)
                adjusted = [other[a] - factor * rel[a] for a in range(len(rel))]
                new_rels.append([p for a, p in enumerate(adjusted) if a != unit_col])
            rels = new_rels
            degs = [dg for a, dg in enumerate(degs) if a != unit_col]
            changed = True
            break
    rels = [r for r in rels if any(not p.is_zero() for p in r)]
    return ModulePresentation(ring, len(degs), degs, rels)


def minimal_resolution(module, i_max):
    """Minimal graded free resolution of a presented module over G = k[x]/J,
    to homological degree i_max, by iterated syzygies with degreewise
    minimal-generator selection.

    Syzygies over G are computed over the polynomial cover with the
    quotient relations adjoined as extra columns, then reduced mod J.
    Unit entries are stripped from the presentation first; the result's
    `kept_relations` indexes the relations left after that, which are the
    module's own when it has no unit entry and no zero relation.
    """
    ring = module.ring
    if ring.setting != GRADED:
        raise ResolutionError("minimal_resolution needs a graded ring")
    module = _minimize_presentation(module)
    strands = Strands(ring)

    def column(vec):
        """A vector of polynomials as a column, in normal form mod J."""
        col = as_column(vec)
        if not ring.quotient:
            return col
        return {(a, e): c for (a, (_, e)), c in strands.nf(col, strands.one).items()}

    shifts_per_term = [tuple(module.column_degrees)]
    diffs = [None]

    candidates = [column(rel) for rel in module.relations]
    chosen = minimal_generators(strands, candidates, shifts_per_term[0])
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
        candidates = [column(u[:len(current)]) for u in raw]
        chosen = minimal_generators(strands, candidates, col_degs)

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
        raise ResolutionError("modules must be presented over the same ring")
    low = min(mM.column_degrees + mN.column_degrees, default=0)
    if low < 0:  # the pieces of N are read in degrees 0..j_max only
        raise ResolutionError("column degree %d is negative; shift the modules to "
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
    pieces = GradedModulePieces(mN, j_max)
    top = min(res.length, i_max + 1) + 1
    levels, diffs = tensor_complex(res.shifts[:top], res.diffs[:top], pieces.nf, pieces.basis,
                                   j_max)
    homology = page(FilteredComplex(mN.ring.field, levels, diffs, j_max), 1).dims
    return BigradedSeries(i_max, j_max, {c: h for c, h in homology.coefficients.items()
                                         if c[0] <= i_max})


def tor_symmetry_check(mM, mN, i_max, j_max):
    """Balancing of Tor: both argument orders give the same series."""
    return tor_series(mM, mN, i_max, j_max) == tor_series(mN, mM, i_max, j_max)


# --- stable monomial ideals ------------------------------------------------------


def _monomial_exponents(p):
    if len(p.terms) != 1:
        raise GroebnerError("generator %s is not a monomial" % p)
    return next(iter(p.terms))


def _max_var(e):
    """1-based index of the largest variable dividing x^e (0 for 1)."""
    for i in range(len(e) - 1, -1, -1):
        if e[i]:
            return i + 1
    return 0


def ek_betti_stable(I, i_max=None, j_max=None):
    """Betti table of a stable monomial ideal from the closed formula
    beta_{i, deg(u)+i} = C(max(u)-1, i) summed over minimal generators u.

    Stability (for every generator u and i < max(u), x_i * u / x_max(u)
    stays in the ideal) is checked and a violating monomial reported.
    """
    ring = I.ring
    gens = [_monomial_exponents(g) for g in I.generators]
    minimal = []
    for e in sorted(gens, key=sum):
        if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
            minimal.append(e)

    def member(e):
        return any(all(a <= b for a, b in zip(f, e)) for f in minimal)

    for e in minimal:
        mv = _max_var(e)
        for i in range(0, mv - 1):
            swapped = list(e)
            swapped[mv - 1] -= 1
            swapped[i] += 1
            if not member(tuple(swapped)):
                from .poly import format_monomial
                raise GroebnerError(
                    "ideal is not stable: x_%d * %s / x_%d leaves the ideal"
                    % (i + 1, format_monomial(ring, e), mv))

    if i_max is None:
        i_max = max((_max_var(e) - 1 for e in minimal), default=0)
    if j_max is None:
        j_max = max((sum(e) + _max_var(e) - 1 for e in minimal), default=0)
    table = BigradedSeries(i_max, j_max)
    for e in minimal:
        mv = _max_var(e)
        for i in range(0, mv):
            if i > i_max or sum(e) + i > j_max:
                continue
            c = comb(mv - 1, i)
            if c:
                table._set(i, sum(e) + i, table.get(i, sum(e) + i) + c)
    return table


def closed_form_tor_series(n, m, d, e, i_max, j_max):
    """Tor series of M = k[x_1..x_n]/(x_1^d, x_1^{d-1}x_2, .., x_1^{d-1}x_m)
    against k over the hypersurface ring G = k[x]/(x_1^e), truncated:

        (1 + sum_{i=1..m} C(m, i) z^i t^{d+i-1}) * sum_{k>=0} z^{2k} t^{ke}.

    The left factor is the Betti polynomial of M over the polynomial ring
    (Eliahou-Kervaire); the right factor is the standard hypersurface
    periodicity.  For m <= 2 the left factor is 1 + m z t^d +
    (m-1) z^2 t^{d+1}."""
    if not (2 <= d < e):
        raise GroebnerError("need 2 <= d < e")
    if e < 3:
        raise GroebnerError("need e >= 3")
    if not (1 <= m <= n):
        raise GroebnerError("need 1 <= m <= n")
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
