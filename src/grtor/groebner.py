"""Groebner bases (graded orders), standard bases (local orders),
syzygies, initial ideals and ideal arithmetic.

One normal form serves both settings: full reduction of the lead and
every tail term.  Local computations carry a degree cap and drop every
term of degree > cap, so they run in the finite-dimensional algebra
k[x]/m^{cap+1}, where full reduction terminates and is unique (the
"highest corner" of Greuel-Pfister, A Singular Introduction to
Commutative Algebra, 1.7 and 6.4); Mora's ecart-driven weak normal form
is needed only without a cap.  Results are certified in total degrees
<= cap and the cap is part of every output's validity window.
Module elements live in a free module with per-row degree shifts; the
internal degree of a term x^e in row r is |e| + shift[r].  Inside this
module an element is a column {(row, exponents): c}, the format of the
resolutions, the lift and the tensor complex; `as_column` and
`as_vector` convert at the public functions that take or return vectors
of polynomials.
"""

import heapq
import math
import operator

from .fields import CapExceededError, GrtorError
from .poly import GRADED, LOCAL, Polynomial, Ring


def _divides(e1, e2):
    return all(map(operator.le, e1, e2))


def _sub(big, small):
    """Componentwise difference big - small (big must dominate small)."""
    return tuple(b - s for b, s in zip(big, small))


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def _lead(ring, col):
    """Lead key (row, exponents) of a nonzero column under
    term-over-position (ties: lower row wins)."""
    key = ring.order.key
    return max(col, key=lambda k: (key(k[1]), -k[0]))


def _truncate(col, shifts, cap):
    """The terms of a column of internal degree <= cap."""
    return {k: c for k, c in col.items() if sum(k[1]) + shifts[k[0]] <= cap}


def as_column(vec):
    """The column {(row, exponents): c} of a vector of polynomials."""
    return {(row, e): c for row, p in enumerate(vec) for e, c in p.terms.items()}


def as_vector(ring, col, rank):
    """The vector of `rank` polynomials of a column."""
    rows = [{} for _ in range(rank)]
    for (row, e), c in col.items():
        rows[row][e] = c
    return [Polynomial(ring, t) for t in rows]


def _submul(fld, terms, other, exps, coeff, cap, shifts=None):
    """terms -= coeff * x^exps * other, in place, on term dicts
    {(row, exponents): c}; a product term whose degree (plus its row's
    shift, given `shifts`) passes the cap is dropped."""
    submul, zero = fld.submul, fld.zero
    for (row, e), c in other.items():
        ee = tuple(map(operator.add, e, exps))
        if cap is not None and sum(ee) + (shifts[row] if shifts else 0) > cap:
            continue
        key = (row, ee)
        v = submul(terms.get(key, zero), coeff, c)
        if v:
            terms[key] = v
        else:
            terms.pop(key, None)


class _Tracked:
    """A column together with its expression over the input columns."""

    __slots__ = ("col", "expr")

    def __init__(self, col, expr=None):
        self.col = col
        self.expr = expr  # {(input column, exponents): coefficient}; None: untracked


def _leads(ring, reducers):
    """{row: [(lead exponents, element)]} of the nonzero tracked elements,
    each row's list in the given order, for `_reduce`."""
    rows = {}
    for g in reducers:
        if g.col:
            row, e = _lead(ring, g.col)
            rows.setdefault(row, []).append((e, g))
    return rows


def _reduce(ring, shifts, f, leads, cap):
    """Full normal form of a tracked element in a free module with row
    shifts `shifts`: the lead and every tail term are reduced until no
    term is divisible by a reducer's lead term.  Terms of internal degree
    > cap (None: the ring's cap) are dropped, those of the input
    included; so are cofactor terms of degree > cap (or the ring's cap,
    if lower), whose input expression must already be below it.  An
    untracked element (expression None) gets no cofactors.

    Returns the tracked remainder.  Each term goes to the first reducer of
    its row, in `leads` order, whose lead divides it (`leads` comes from
    `_leads`).  Terms are taken in descending order from a heap, since a
    step removes the largest remaining term and adds only smaller ones;
    copies of the column and its expression are updated in place.  This
    terminates for global orders, and for the local order below a cap:
    only finitely many monomials have degree <= cap.
    """
    cap = cap if cap is not None else ring.cap
    terms = _truncate(f.col, shifts, cap) if cap is not None else dict(f.col)
    if not leads:
        return _Tracked(terms, f.expr)
    ecap = cap if ring.cap is None else min(cap, ring.cap)
    fld = ring.field
    submul, zero = fld.submul, fld.zero
    desc = ring.order.descending_key
    heap = [(desc(e), row, (row, e)) for row, e in terms]
    heapq.heapify(heap)
    expr = None if f.expr is None else dict(f.expr)
    rem = {}
    while heap:
        _, row, lead = heapq.heappop(heap)
        c = terms.get(lead)
        if c is None:
            continue  # cancelled after it was pushed
        e = lead[1]
        hit = next((r for r in leads.get(row, ()) if _divides(r[0], e)), None)
        if hit is None:
            rem[lead] = terms.pop(lead)
            continue
        ge, g = hit
        coeff = fld.div(c, g.col[(row, ge)])
        exps = _sub(e, ge)
        for (grow, gexp), gc in g.col.items():
            ee = tuple(map(operator.add, gexp, exps))
            if cap is not None and sum(ee) + shifts[grow] > cap:
                continue
            key = (grow, ee)
            old = terms.get(key)
            v = submul(zero if old is None else old, coeff, gc)
            if v:
                if old is None:
                    heapq.heappush(heap, (desc(ee), grow, key))
                terms[key] = v
            elif old is not None:
                del terms[key]
        if expr is not None:
            _submul(fld, expr, g.expr, exps, coeff, ecap)
    return _Tracked(rem, expr)


def _buchberger(ring, columns, shifts, cap, collect_syzygies):
    """Buchberger's loop over columns in a free module with row shifts
    `shifts`, with full reduction below the cap (local rings: the cap
    defaults to the ring's).

    Returns (basis, syzygies): basis as tracked elements, syzygies as
    expression term dicts over the input columns (zero reductions of
    every S-pair).  Expressions are tracked only when syzygies are
    collected; otherwise every `expr` is None.  Below a cap the basis is a
    standard basis of the module plus everything of degree > cap, since
    an S-pair whose lcm passes the cap vanishes there.  The product
    criterion skips pairs with coprime lead terms only for ideals (rank
    1) and only when syzygies are not requested: the skipped pairs'
    syzygies are needed for completeness, and the S-vector of two vectors
    with coprime lead terms need not reduce to 0.
    """
    cap = cap if cap is not None else ring.cap
    ecap = cap if ring.cap is None else min(cap, ring.cap)
    fld = ring.field
    one = (0,) * ring.nvars
    syzygies = []
    basis = []
    for b, col in enumerate(columns):
        expr = {(b, one): fld.one} if collect_syzygies else None
        col = _truncate(col, shifts, cap) if cap is not None else col
        if col:
            basis.append(_Tracked(col, expr))
        elif collect_syzygies:
            syzygies.append(expr)
    leads = [_lead(ring, g.col) for g in basis]
    reducers = _leads(ring, basis)

    # S-pairs (lcm degree, i, k, lcm) with i < k, taken lowest first
    pairs = []

    def add_pairs(new_index):
        grow, ge = leads[new_index]
        for k in range(new_index):
            krow, ke = leads[k]
            if krow != grow:
                continue
            if (not collect_syzygies and len(shifts) == 1
                    and all(min(a, b) == 0 for a, b in zip(ge, ke))):
                continue  # product criterion
            lcm = _lcm(ke, ge)
            heapq.heappush(pairs, (sum(lcm) + shifts[grow], k, new_index, lcm))

    for t in range(len(basis)):
        add_pairs(t)

    while pairs:
        degree, i, k, lcm = heapq.heappop(pairs)
        if cap is not None and degree > cap:
            break  # every pair left lies past the cap too
        gi, gk = basis[i], basis[k]
        row, ie = leads[i]
        _, ke = leads[k]
        # x^(lcm - ie) g_i / lc(g_i) - x^(lcm - ke) g_k / lc(g_k), terms
        # past the cap dropped
        spair = _Tracked({}, {} if collect_syzygies else None)
        for g, e, c in ((gi, ie, fld.neg(fld.inv(gi.col[(row, ie)]))),
                        (gk, ke, fld.inv(gk.col[(row, ke)]))):
            exps = _sub(lcm, e)
            _submul(fld, spair.col, g.col, exps, c, cap, shifts)
            if collect_syzygies:
                _submul(fld, spair.expr, g.expr, exps, c, ecap)
        red = _reduce(ring, shifts, spair, reducers, cap)
        if not red.col:
            if red.expr:
                syzygies.append(red.expr)
        else:
            row, e = _lead(ring, red.col)
            basis.append(red)
            leads.append((row, e))
            reducers.setdefault(row, []).append((e, red))
            add_pairs(len(basis) - 1)
    return basis, syzygies


# --- public polynomial-level operations --------------------------------------


class IdealPresentation:
    """An ideal given by a finite list of nonzero generators."""

    def __init__(self, ring, generators):
        gens = []
        for g in generators:
            if isinstance(g, str):
                g = ring.parse(g)
            if g.is_zero():
                raise GrtorError("ideal generators must be nonzero")
            gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(str(g) for g in self.generators)


class ModulePresentation:
    """Cokernel presentation of a graded module over G = k[x]/quotient.

    free_rank generators with column degrees, and relation vectors
    (length free_rank) of polynomials; in the graded setting every
    relation is homogeneous for the column degrees.
    """

    def __init__(self, ring, free_rank, column_degrees=None, relations=()):
        self.ring = ring
        self.free_rank = free_rank
        self.column_degrees = tuple(column_degrees) if column_degrees else (0,) * free_rank
        if len(self.column_degrees) != free_rank:
            raise GrtorError("column_degrees length must equal free_rank")
        rels = []
        for rel in relations:
            vec = [ring.parse(p) if isinstance(p, str) else p for p in rel]
            if len(vec) != free_rank:
                raise GrtorError("relation vector length must equal free_rank")
            rels.append(tuple(vec))
        self.relations = tuple(rels)
        if ring.setting == GRADED:
            for rel in self.relations:
                degs = set()
                for a, p in enumerate(rel):
                    if not p.is_zero():
                        if not p.is_homogeneous():
                            raise GrtorError("graded relation entries must be homogeneous")
                        degs.add(p.degree() + self.column_degrees[a])
                if len(degs) > 1:
                    raise GrtorError("relation is not homogeneous for the column degrees")

    @classmethod
    def cyclic(cls, ring, ideal_gens):
        gens = [ring.parse(g) if isinstance(g, str) else g for g in ideal_gens]
        return cls(ring, 1, (0,), [(g,) for g in gens])


def groebner_basis(ideal):
    """Reduced Groebner basis of an ideal over a graded ring."""
    ring = ideal.ring
    if ring.setting != GRADED:
        raise GrtorError("groebner_basis needs a graded ring; use standard_basis for local")
    return _interreduce(ring, [v[0] for v in module_groebner_basis(
        ring, [[g] for g in ideal.generators])])


def module_groebner_basis(ring, columns, shifts=None, cap=None):
    """Groebner basis (graded) or standard basis (local, valid to cap) of
    the submodule generated by the given column vectors."""
    if not columns:
        return []
    rank = len(columns[0])
    shifts = tuple(shifts) if shifts is not None else (0,) * rank
    basis, _ = _buchberger(ring, [as_column(c) for c in columns], shifts, cap, False)
    return [as_vector(ring, g.col, rank) for g in basis]


def module_normal_form(vec, basis, shifts=None, cap=None):
    """Fully reduced normal form of a vector of polynomials against module
    basis vectors, below the cap as in `normal_form`."""
    ring = vec[0].ring
    shifts = tuple(shifts) if shifts is not None else (0,) * len(vec)
    leads = _leads(ring, [_Tracked(as_column(b)) for b in basis])
    return as_vector(ring, _reduce(ring, shifts, _Tracked(as_column(vec)), leads, cap).col,
                     len(vec))


class NormalFormTable:
    """The normal-form map against fixed module basis columns
    {(row, exponents): c} with row shifts `shifts`, read off a table of
    monomial normal forms.

    Below the cap the full normal form is k-linear (see `normal_form`), so
    NF(sum c x^e e_row) = sum c NF(x^e e_row): the table keeps the nonzero
    terms of NF(x^e e_row) under the key (row, e) and computes each on
    first use.  Calling the table on a column {(a, e'): c} and a key
    (row, e) gives, component by component, NF of the column times
    x^e e_row by linearity; `column` scatters that into a tensor basis
    index.  This is the multiplication table of a finite-dimensional
    quotient (Faugere-Gianni-Lazard-Mora, 1993).  `leads` holds the lead
    terms of the basis by row, as `_leads` gives them.  The standard
    terms (row, e), those no lead of their row divides, are the k-basis
    the table reduces onto (Macaulay); `terms` and `basis` list them.
    Make one per call, or per object that reduces many vectors, and let
    it go with them: nothing else holds a table.
    """

    __slots__ = ("ring", "shifts", "cap", "leads", "_nf", "_layers")

    def __init__(self, ring, basis, shifts=(0,), cap=None):
        self.ring = ring
        self.shifts = tuple(shifts)
        self.cap = cap if cap is not None else ring.cap
        self.leads = _leads(ring, [_Tracked(col) for col in basis])
        self._nf = {}
        self._layers = {}

    def _built(self, row, m):
        """The layers 0..m of the standard monomials of row `row`, fewer
        if the row ends before m, each in descending ring order; a layer
        is built once, on first use."""
        if row not in self._layers:
            lm = [e for e, _g in self.leads.get(row, ())]
            self._layers[row] = (standard_monomial_layers(lm, self.ring.nvars), [])
        walk, built = self._layers[row]
        while len(built) <= m:
            layer = next(walk, None)
            if layer is None:
                break
            built.append(sorted(layer, key=self.ring.order.key, reverse=True))
        return built

    def terms(self, row, degree):
        """The standard monomials e of row `row` whose term x^e e_row has
        internal degree `degree`, in descending ring order."""
        m = degree - self.shifts[row]
        built = self._built(row, m)
        return built[m] if 0 <= m < len(built) else []

    def basis(self, top):
        """The standard terms (row, e) of internal degree <= top: by degree,
        then row, then `terms` order.  Each row stops at its last layer,
        so a finite quotient costs nothing past its end, whatever `top`."""
        rows = range(len(self.shifts))
        end = max((s + len(self._built(row, top - s)) - 1
                   for row, s in zip(rows, self.shifts)), default=-1)
        return [(row, e) for d in range(min(self.shifts, default=0), min(top, end) + 1)
                for row in rows for e in self.terms(row, d)]

    def monomial(self, row, e):
        """The nonzero terms [((row', e'), c)] of NF(x^e e_row)."""
        key = (row, e)
        nf = self._nf.get(key)
        if nf is None:
            unit = _Tracked({key: self.ring.field.one})
            nf = list(_reduce(self.ring, self.shifts, unit, self.leads, self.cap).col.items())
            self._nf[key] = nf
        return nf

    def __call__(self, col, key):
        """NF of a column {(a, e'): c} times x^e e_row, for key = (row, e),
        as {(a, k): nonzero c}: the term k of NF(x^(e' + e) e_row), summed
        in component a."""
        fld = self.ring.field
        neg, submul, zero = fld.neg, fld.submul, fld.zero
        monomial = self.monomial
        row, mono = key
        out = {}
        for (a, e), c in col.items():
            e = tuple(map(operator.add, e, mono))
            c = neg(c)
            for k, x in monomial(row, e):
                ak = (a, k)
                v = submul(out.get(ak, zero), c, x)
                if v:
                    out[ak] = v
                else:
                    del out[ak]
        return out

    def column(self, col, key, index, shifts=None, top=None):
        """The sparse column {index[(a, k)]: c} of the table's normal form
        of col times x^e e_row, for key = (row, e): the term k in
        component a sits at level shifts[a] + deg k.  Given `top`, a term
        whose level passes it is dropped (past a truncation); every other
        term must be in `index`."""
        row_shifts = self.shifts
        out = {}
        for (a, k), c in self(col, key).items():
            if top is not None and shifts[a] + row_shifts[k[0]] + sum(k[1]) > top:
                continue
            n = index.get((a, k))
            if n is None:
                raise GrtorError("term %r of component %d lies outside the basis" % (k, a))
            out[n] = c
        return out


def _minimal_leads(items, lead):
    """The items, in order, whose lead monomial is divisible by the lead of
    no item kept before them.  Callers sort so that divisors come first."""
    kept, leads = [], []
    for x in items:
        e = lead(x)
        if not any(_divides(d, e) for d in leads):
            kept.append(x)
            leads.append(e)
    return kept


def _interreduce(ring, polys):
    order = ring.order
    polys = [p for p in polys if not p.is_zero()]
    polys.sort(key=lambda p: order.key(p.leading_monomial()))
    kept = _minimal_leads(polys, Polynomial.leading_monomial)
    out = []
    for i, p in enumerate(kept):
        others = kept[:i] + kept[i + 1:]
        r = normal_form(p, others)
        if not r.is_zero():
            out.append(r.monic())
    out.sort(key=lambda p: order.key(p.leading_monomial()))
    return out


def normal_form(p, basis, cap=None):
    """Fully reduced normal form of p against a list of polynomials: no
    term of the result is divisible by a leading monomial of the basis.

    Terms of degree > cap are dropped; the cap defaults to the ring's (so
    local rings are truncated, graded ones are not).  Against a standard
    basis of I valid up to the cap the result is the unique normal form
    in k[x]/(I + m^{cap+1}), and the map is k-linear.  Against an empty
    basis it is the truncation at the cap.
    """
    return module_normal_form([p], [[g] for g in basis], (0,), cap)[0]


def standard_basis(ideal, cap=None):
    """Standard basis for the local-degree order, valid up to the cap.

    With the monomials of degree cap + 1 it is a standard basis of
    I + m^{cap+1}, so initial forms of the result generate the initial
    ideal in all total degrees <= cap.
    """
    ring = ideal.ring
    if ring.setting != LOCAL:
        raise GrtorError("standard_basis needs a local ring")
    cap = cap if cap is not None else ring.cap
    for g in ideal.generators:
        if g.truncate(cap).is_zero() or g.order_degree() > cap:
            raise CapExceededError(
                "generator %s has order beyond the cap %d" % (g, cap))
    polys = [v[0] for v in module_groebner_basis(ring, [[g] for g in ideal.generators],
                                                 (0,), cap)]
    # head-interreduce: drop members whose leading monomial another divides
    order = ring.order
    polys.sort(key=lambda p: order.key(p.leading_monomial()), reverse=True)
    return [p.monic() for p in _minimal_leads(polys, Polynomial.leading_monomial)]


def graded_twin(ring):
    """The standard graded ring on the same variables and field."""
    return Ring(ring.variables, ring.field, GRADED)


def initial_ideal(ideal, cap=None):
    """The ideal of initial forms, presented over the graded twin ring.

    For a local ideal I this presents gr(R/I) = k[x]/in(I); valid up to
    the cap.  A homogeneous ideal comes back as a minimal subset of its
    reduced Groebner basis.
    """
    ring = ideal.ring
    if ring.setting == LOCAL:
        gr, basis = graded_twin(ring), standard_basis(ideal, cap)
    else:
        gr, basis = ring, groebner_basis(ideal)
        if not all(p.is_homogeneous() for p in basis):
            raise GrtorError("initial_ideal over a graded ring needs a homogeneous ideal")
    return IdealPresentation(gr, minimal_initial_forms(gr, basis))


def initial_forms(gr, basis):
    """The initial forms of the elements of `basis`, over the graded ring `gr`."""
    return [Polynomial(gr, dict(p.initial_form().terms)) for p in basis]


def minimal_initial_forms(gr, basis):
    """Minimal generators of the ideal of initial forms over the graded
    ring `gr`, for a local standard basis of I, so that gr(R/I) =
    gr/in(I), or for a Groebner basis of a homogeneous ideal.  Any
    quotient of `gr` is not read."""
    forms = initial_forms(gr, basis)
    return [forms[k] for k in minimal_generator_indices(gr, forms)]


def minimal_generator_indices(ring, forms):
    """Indices of a minimal generating subset of nonzero homogeneous forms,
    by graded Nakayama and Groebner membership: forms are taken by degree,
    in list order within a degree, and each is kept unless the ones kept
    before it generate it.  No strand basis is enumerated, so a form of
    high degree costs one normal form, where `resolution.minimal_generators`
    would eliminate over every monomial of that degree."""
    chosen = []
    for k in sorted(range(len(forms)), key=lambda k: forms[k].degree()):
        if chosen:
            gb = groebner_basis(IdealPresentation(ring, [forms[c] for c in chosen]))
            if normal_form(forms[k], gb).is_zero():
                continue
        chosen.append(k)
    return chosen


def syzygies(ring, columns, shifts=None, cap=None):
    """Generators of the first syzygy module of the given column vectors.

    Columns are vectors of polynomials in a free module with the given
    degree shifts; the result is a list of vectors u (length =
    #columns) with sum_b columns[b] * u[b] = 0 (up to the cap in the
    local setting).
    """
    if not columns:
        return []
    rank = len(columns[0])
    shifts = tuple(shifts) if shifts is not None else (0,) * rank
    _, syz = _buchberger(ring, [as_column(c) for c in columns], shifts, cap, True)
    return [as_vector(ring, expr, len(columns)) for expr in syz]


def ideal_sum(I, J):
    return IdealPresentation(I.ring, list(I.generators) + list(J.generators))


def ideal_product(I, J, cap=None):
    """I*J; with a cap, each generator is cut at that degree, since a term
    of higher order is zero in R/m^{cap+1}."""
    gens = []
    for f in I.generators:
        for g in J.generators:
            fg = f * g if cap is None else (f * g).truncate(cap)
            if not fg.is_zero():
                gens.append(fg)
    if not gens:
        raise CapExceededError("ideal product truncated to zero; raise the cap")
    return IdealPresentation(I.ring, gens)


def ideal_intersection(I, J, cap=None):
    """I \\cap J by the syzygy method: syzygies of the row [f_1..f_s, -g_1..-g_t]
    project to coefficient vectors whose I-halves generate the intersection.
    With a cap, the syzygies are valid to it and each generator is cut there."""
    ring = I.ring
    fs, gs = list(I.generators), list(J.generators)
    cols = [[f] for f in fs] + [[-g] for g in gs]
    syz = syzygies(ring, cols, (0,), cap)
    gens = []
    for u in syz:
        h = ring.zero()
        for b, f in enumerate(fs):
            h = h + u[b] * f
        if cap is not None:
            h = h.truncate(cap)
        if not h.is_zero():
            gens.append(h)
    if not gens:
        # intersection may genuinely be zero only for zero ideals; with
        # nonzero gens over a domain it never is, so report cap trouble
        raise CapExceededError("intersection generators all truncated to zero; raise the cap")
    return IdealPresentation(ring, gens)


def leading_monomial_ideal(ideal, cap=None):
    """Exponent tuples generating the leading monomial ideal (minimalized)."""
    if ideal.ring.setting == LOCAL:
        return basis_leads(standard_basis(ideal, cap))
    return basis_leads(groebner_basis(ideal))


def basis_leads(basis):
    """Minimal exponent tuples generating the leading monomials of a
    standard or Groebner basis: its leading monomial ideal."""
    return _minimal_leads(sorted((p.leading_monomial() for p in basis), key=sum),
                          lambda e: e)


def standard_monomial_layers(lm, nvars, top=None):
    """The monomials that no exponent vector in `lm` divides, one layer per
    degree 0, 1, .., top (no bound if None), each in descending lex order.

    They form an order ideal: every divisor of a standard monomial is
    standard.  So layer d is x_i * (layer d - 1) less the terms a lead
    divides, and the layers stop at the first empty one."""
    layer = [(0,) * nvars]
    degree = 0
    while top is None or degree <= top:
        layer = [e for e in layer if not any(_divides(g, e) for g in lm)]
        if not layer:
            return
        yield layer
        layer = sorted({e[:i] + (e[i] + 1,) + e[i + 1:] for e in layer for i in range(nvars)},
                       reverse=True)
        degree += 1


def colength(ideal, cap=None):
    """dim_k R/I when finite; math.inf otherwise.

    Counted as standard monomials of the leading monomial ideal.  In the
    local setting 'infinite' means: not finite within the cap's validity
    window.
    """
    return colength_from_leads(ideal.ring, leading_monomial_ideal(ideal, cap), cap)


def colength_from_leads(ring, lm, cap=None):
    """`colength` of an ideal of `ring` off its leading monomial ideal lm."""
    if any(sum(e) == 0 for e in lm):
        return 0  # unit ideal
    n = ring.nvars
    if ring.setting == GRADED:
        pure = [None] * n
        for e in lm:
            support = [i for i, a in enumerate(e) if a]
            if len(support) == 1:
                i = support[0]
                if pure[i] is None or e[i] < pure[i]:
                    pure[i] = e[i]
        if any(p is None for p in pure):
            return math.inf
        bound = sum(p - 1 for p in pure) + 1
    else:
        bound = (cap if cap is not None else ring.cap)
    layers = list(standard_monomial_layers(lm, n, bound))
    if len(layers) <= bound or ring.setting == GRADED:
        return sum(map(len, layers))
    return math.inf


def quotient_table(ring):
    """The normal-form table of G = k[x]/quotient against the quotient's
    Groebner basis: its `terms(0, j)` is the monomial basis of G_j."""
    return NormalFormTable(ring, [as_column([g]) for g in quotient_groebner(ring)])


def quotient_groebner(ring):
    """Reduced Groebner basis of the ring's quotient ideal, memoised on the
    ring at first use."""
    if ring._quotient_gb_cache is None:
        ring._quotient_gb_cache = (groebner_basis(IdealPresentation(ring, ring.quotient))
                                   if ring.quotient else [])
    return ring._quotient_gb_cache
