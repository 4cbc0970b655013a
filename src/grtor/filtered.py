"""The local side: lift a minimal graded free resolution to a filtered
free resolution over the localized polynomial ring, tensor with a
filtered module, and truncate to a finite-dimensional filtered complex
over the residue field.

Filtrations are m-adic on modules and shifted-m-adic on free modules
(F^j = ⊕ m^{j - a_k}); these are the two families the worked examples
use.  The local ring carries a degree cap; the associated graded
statements below hold in degrees <= cap.  On a free module the cap
bounds filtration degree: x^e in row k has degree |e| + a_k.
"""

from .groebner import (IdealPresentation, ModulePresentation, NormalFormTable, as_column,
                       as_vector, colength_from_leads, graded_twin, ideal_intersection,
                       ideal_product, ideal_sum, initial_forms, leading_monomial_ideal,
                       quotient_table, standard_basis, standard_monomial_layers, _submul,
                       _truncate)
from .fields import CapExceededError, GrtorError
from .poly import LOCAL, Ring
from .resolution import compose, minimal_resolution, strand_solve
from .series import BigradedSeries


class FilteredResolution:
    """Free resolution over the local ring with shifted-m-adic filtrations
    whose associated graded complex is the graded resolution `graded`,
    inside the window of filtration degree <= the ring's cap: a term x^e
    of row a of F_i has filtration degree |e| + shifts[i][a], and the
    terms past the window are dropped.  diffs[i] maps F_i to F_{i-1} as
    one column {(row, exponents): c} per basis vector of F_i, as the
    graded resolution holds its own (diffs[0] is None)."""

    def __init__(self, ring, shifts_per_term, diffs, graded):
        self.ring = ring
        self.shifts = [tuple(s) for s in shifts_per_term]
        self.diffs = diffs
        self.cap = ring.cap
        self.graded = graded

    @property
    def length(self):
        return len(self.shifts) - 1

    def check_postconditions(self):
        """Inside the window: d o d = 0, entries filtered, and gr(d) equals
        the input graded differentials (a graded column past the window
        has no lift).  Raises on violation."""
        fld, cap = self.ring.field, self.cap
        for i in range(1, len(self.shifts)):
            src, dst = self.shifts[i], self.shifts[i - 1]
            prev = self.diffs[i - 1]
            for b, (col, g) in enumerate(zip(self.diffs[i], self.graded.diffs[i])):
                if i >= 2 and compose(fld, prev, col, cap, self.shifts[i - 2]):
                    raise GrtorError("lifted differentials do not compose to zero")
                g = g if src[b] <= cap else {}
                lost = {a for a, _ in g} - {a for a, _ in col}
                if lost:
                    raise GrtorError("lift lost a graded entry at (%d,%d,%d)" % (i, min(lost), b))
                low = [a for a, e in col if sum(e) + dst[a] < src[b]]
                if low:
                    raise GrtorError("lift entry (%d,%d,%d) breaks the filtration" % (i, min(low), b))
                gr = {(a, e): c for (a, e), c in col.items() if sum(e) + dst[a] == src[b]}
                if gr != g:
                    a = min(a for a, e in gr.keys() | g.keys() if gr.get((a, e)) != g.get((a, e)))
                    raise GrtorError("gr of the lift differs from the graded "
                                     "resolution at (%d,%d,%d)" % (i, a, b))


def lift_resolution(gres, generators):
    """Lift a minimal graded free resolution of gr(M) = k[x]/in(I) over the
    polynomial ring to a filtered free resolution over the local ring.

    `generators` are local polynomials, one per column of the first
    graded differential, with matching initial forms (a standard basis
    subset).  The lift starts from the graded columns and kills the
    components of d o d order by order using exactness of the graded
    resolution.  The window is filtration degree <= the local ring's cap.
    Every column, product and correction is cut there, so each residual
    term lies in the window, and every correction strictly raises its
    order.
    """
    if not generators:
        raise GrtorError("need the local generators lifting the first differential")
    local_ring = generators[0].ring
    if local_ring.setting != LOCAL:
        raise GrtorError("generators must live in a local ring")
    gring = gres.ring
    if gring.quotient:
        raise GrtorError("lifting is implemented over the regular case only")
    if len(generators) != gres.rank(1):
        raise GrtorError("need one local generator per first-differential column")
    for b, g in enumerate(generators):
        expected = gres.diffs[1][b]
        if as_column([g.initial_form()]) != expected:
            raise GrtorError("generator %d has initial form %s, expected %s"
                             % (b, g.initial_form(),
                                as_vector(gring, expected, 1)[0]))

    cap = local_ring.cap
    shifts = [tuple(s) for s in gres.shifts]
    diffs = [None, [_truncate(as_column([g]), shifts[0], cap) for g in generators]]
    nf = quotient_table(gring)
    fld = local_ring.field
    one = (0,) * local_ring.nvars

    for i in range(2, len(shifts)):
        prev, src, dst = diffs[i - 1], shifts[i - 1], shifts[i - 2]
        cols = []
        for c, gcol in enumerate(gres.diffs[i]):
            col = _truncate(gcol, src, cap)
            # prev * col; a correction u updates it by -prev * u, since
            # truncation is linear and prev never lowers a degree
            residual = compose(fld, prev, col, cap, dst)
            last_order = -1
            while residual:
                target_deg = min(sum(e) + dst[a] for a, e in residual)
                if target_deg <= last_order:
                    raise CapExceededError(
                        "correction order did not increase at column %d of d_%d" % (c, i))
                last_order = target_deg
                low = {(a, e): x for (a, e), x in residual.items()
                       if sum(e) + dst[a] == target_deg}
                u = strand_solve(nf, gres.diffs[i - 1], src, dst, low, target_deg)
                if u is None:
                    raise CapExceededError(
                        "no graded correction in degree %d at column %d of d_%d"
                        % (target_deg, c, i))
                _submul(fld, col, u, one, fld.one, cap, src)  # col -= u, in the window
                for (t, e), x in u.items():
                    _submul(fld, residual, prev[t], e, x, cap, dst)
            cols.append(col)
        diffs.append(cols)

    out = FilteredResolution(local_ring, shifts, diffs, gres)
    out.check_postconditions()
    return out


def resolve_local_cyclic(ideal):
    """Lifted filtered resolution of R/I over the regular local ring: the
    complete minimal graded resolution of k[x]/in(I) (the result's
    `graded`), then the order-by-order lift."""
    ring = ideal.ring
    if not ideal.generators:
        raise GrtorError("R/I is R: the ideal has no generators")
    gring = graded_twin(ring)
    basis = standard_basis(ideal)
    forms = initial_forms(gring, basis)
    if any(f.degree() == 0 for f in forms):
        raise GrtorError("R/I is zero: the ideal contains a unit of the local ring")
    # d_1 keeps a minimal subset of the initial forms; the lift starts from
    # the standard basis elements they come from
    gres = minimal_resolution(ModulePresentation.cyclic(gring, forms), ring.nvars + 1)
    return lift_resolution(gres, [basis[k] for k in gres.kept_relations])


# --- the truncated filtered complex ---------------------------------------------


class FilteredComplex:
    """Finite complex of finite-dimensional vector spaces over k with a
    descending filtration given by one level per basis vector
    (L_i^j = span of basis vectors of level >= j).

    diffs[i] is d: L_i -> L_{i-1} as sparse columns, one {row: nonzero
    scalar} per basis vector of L_i, rows indexing the basis of L_{i-1}
    (diffs[0] is None); d is filtered and squares to zero.  truncated_at
    = T marks the complex as the degree-<= T slice of an infinite complex
    (page data then carries a reliability window); None means exact.
    """

    def __init__(self, field, levels, diffs, j_max, truncated_at=None):
        self.field = field
        self.levels = [tuple(lv) for lv in levels]
        self.diffs = diffs
        self.j_max = j_max
        self.truncated_at = truncated_at
        self._validate()

    @property
    def i_max(self):
        return len(self.levels) - 1

    def dim(self, i):
        if 0 <= i <= self.i_max:
            return len(self.levels[i])
        return 0

    def _validate(self):
        for lv in self.levels:
            for l in lv:
                if not 0 <= l <= self.j_max:
                    raise GrtorError("basis level %d outside 0..%d" % (l, self.j_max))
        for i in range(1, len(self.levels)):
            d, src, tgt = self.diffs[i], self.levels[i], self.levels[i - 1]
            if len(d) != len(src) or any(not 0 <= r < len(tgt) or not x
                                         for col in d for r, x in col.items()):
                raise GrtorError("differential %d has the wrong shape" % i)
            bad = [(r, c) for c, col in enumerate(d) for r in col if tgt[r] < src[c]]
            if bad:
                raise GrtorError("differential %d is not filtered at (%d,%d)" % ((i,) + min(bad)))
        fld, zero = self.field, self.field.zero
        for i in range(2, len(self.levels)):
            a = self.diffs[i - 1]
            for col in self.diffs[i]:
                s = {}
                for t, x in col.items():
                    x = fld.neg(x)
                    for r, y in a[t].items():
                        s[r] = fld.submul(s.get(r, zero), x, y)
                if any(s.values()):
                    raise GrtorError("d o d nonzero in the filtered complex at degree %d" % i)

    # serialization: header, per-term level vectors, sparse triples ------------

    def to_text(self):
        lines = ["filtered-complex"]
        lines.append("field %s" % ("QQ" if self.field.char == 0 else "Fp %d" % self.field.char))
        lines.append("imax %d" % self.i_max)
        lines.append("jmax %d" % self.j_max)
        lines.append("truncated %d" % (1 if self.truncated_at is not None else 0))
        for i, lv in enumerate(self.levels):
            lines.append("term %d dim %d levels %s" % (i, len(lv), " ".join(str(l) for l in lv)))
        for i in range(1, len(self.levels)):
            d = self.diffs[i]
            entries = sorted((r, c) for c, col in enumerate(d) for r in col)
            lines.append("diff %d nnz %d" % (i, len(entries)))
            for (r, c) in entries:
                lines.append("%d %d %s" % (r, c, self.field.format(d[c][r])))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        from .fields import field_from_name
        rows = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
        if not rows or rows[0] != "filtered-complex":
            raise GrtorError("not a filtered-complex serialization")
        field = None
        i_max = j_max = None
        truncated = 0
        levels = {}
        diffs = {}
        pending = 0  # triples still due in the current diff block
        for line in rows[1:]:
            parts = line.split()
            try:
                if pending > 0:
                    r, c, v = parts
                    r, c = int(r), int(c)
                    if not (0 <= r < nrows and 0 <= c < len(cols)):
                        raise IndexError(line)
                    x = field.parse(v)
                    if x:
                        cols[c][r] = x
                    else:
                        cols[c].pop(r, None)
                    pending -= 1
                elif parts[0] == "field":
                    field = field_from_name(" ".join(parts[1:]))
                elif parts[0] == "imax" and len(parts) == 2:
                    i_max = int(parts[1])
                elif parts[0] == "jmax" and len(parts) == 2:
                    j_max = int(parts[1])
                elif parts[0] == "truncated" and parts[1:] in (["0"], ["1"]):
                    truncated = parts[1] == "1"
                elif parts[0] == "term" and parts[2:3] == ["dim"] and parts[4:5] == ["levels"]:
                    lv = [int(x) for x in parts[5:]]
                    if len(lv) != int(parts[3]):
                        raise ValueError(line)
                    levels[int(parts[1])] = lv
                elif parts[0] == "diff" and len(parts) == 4 and parts[2] == "nnz":
                    if field is None:
                        raise ValueError(line)  # the field line comes first
                    i = int(parts[1])
                    pending = int(parts[3])
                    if pending < 0:
                        raise ValueError(line)
                    nrows = len(levels[i - 1])
                    cols = [{} for _ in levels[i]]
                    diffs[i] = cols
                else:
                    raise ValueError(line)
            except (ValueError, IndexError, KeyError, ZeroDivisionError):
                raise GrtorError("bad line in filtered-complex text: %r" % line) from None
        if pending > 0:
            raise GrtorError("filtered-complex text ends inside a diff block")
        if field is None or i_max is None or j_max is None:
            raise GrtorError("incomplete filtered-complex header")
        # the terms, not the header, size the complex; a diff i line needs
        # the terms i - 1 and i, so with every term in range it is too
        bad = next((i for i in sorted(levels) if not 0 <= i <= i_max), None)
        if bad is not None:
            raise GrtorError("filtered-complex text has a 'term %d' line outside 0..%d"
                             % (bad, i_max))
        missing = next((i for i in range(i_max + 1) if i not in levels), None)
        if missing is not None:
            raise GrtorError("filtered-complex text has no 'term %d' line" % missing)
        level_list = [levels[i] for i in range(i_max + 1)]
        diff_list = [None] + [diffs.get(i, [{} for _ in level_list[i]])
                              for i in range(1, i_max + 1)]
        return cls(field, level_list, diff_list, j_max,
                   truncated_at=(j_max if truncated else None))


def tensor_complex(shifts, diffs, nf, j_max):
    """Levels and sparse columns of F (x) N cut at level j_max.

    F is a complex of free modules: shifts[i] are the shifts of F_i and
    diffs[i] the columns {(row, exponents): c} of F_i -> F_{i-1}, one per
    basis vector of F_i (diffs[0] unused).  N is given by its table of
    normal forms `nf`, whose standard terms (row, e) are N's basis.  The
    basis of each L_i is (b, key) at level shift_b + deg key, kept within
    0..j_max; the differential reads each column off `nf.column`, which
    drops the terms past j_max.
    """
    basis_n = nf.basis(j_max)
    degree = {key: nf.shifts[key[0]] + sum(key[1]) for key in basis_n}
    bases = [[(b, key) for b, s in enumerate(term) for key in basis_n
              if 0 <= s + degree[key] <= j_max] for term in shifts]
    levels = [[shifts[i][b] + degree[key] for b, key in basis]
              for i, basis in enumerate(bases)]
    cols = [None]
    for i in range(1, len(shifts)):
        index = {key: n for n, key in enumerate(bases[i - 1])}
        d = diffs[i]
        cols.append([nf.column(d[b], key, index, shifts[i - 1], j_max) for b, key in bases[i]])
    return levels, cols


def filtered_tensor(fres, n_ideal, j_max):
    """L = F (x)_R R/n_ideal truncated at internal degree j_max (n_ideal
    None means N = R): its standard basis, then `tensor_over_basis`."""
    basis = standard_basis(n_ideal) if n_ideal is not None else []
    return tensor_over_basis(fres, basis, j_max)


def tensor_over_basis(fres, basis, j_max):
    """L = F (x)_R N truncated at internal degree j_max, N = R/I m-adically
    filtered, for `basis` a standard basis of I to the cap (empty: N = R).

    Basis of each L_i: (free generator b, standard monomial u of N) with
    level = shift_b + deg u <= j_max.  The differential applies the lifted
    columns, then the full normal form in N/m^{j_max+1}N against
    the standard basis (k-linear, since that basis is valid to the cap
    >= j_max; read off one table of monomial normal forms), and drops the
    terms whose level passes j_max (`tensor_complex`).
    """
    ring = fres.ring
    if j_max > fres.cap:
        raise CapExceededError("tensor truncation %d exceeds the resolution cap %d"
                               % (j_max, fres.cap))
    nf = NormalFormTable(ring, [as_column([g]) for g in basis], cap=j_max)
    levels, diffs = tensor_complex(fres.shifts, fres.diffs, nf, j_max)
    bound = max((max(s, default=0) for s in fres.shifts), default=0)
    # when N is finite dimensional (its top degree is below j_max) and
    # everything fits under j_max, nothing was cut: the complex is exact,
    # not a truncation
    top_n = max((sum(e) for _row, e in nf.basis(j_max)), default=-1)
    truncated_at = j_max
    if top_n < j_max and bound + top_n <= j_max:
        truncated_at = None
    return FilteredComplex(ring.field, levels, diffs, j_max, truncated_at=truncated_at)


# --- exact low-degree local Tor --------------------------------------------------


class LowTor:
    """The associated graded Hilbert series of Tor_0 = R/(I+J) and Tor_1 =
    (I cap J)/(I*J) for cyclic local modules, via initial ideals, and the
    colength of Tor_0."""

    def __init__(self, series, tor0_colength):
        self.series = series  # BigradedSeries, layers 0 and 1
        self.tor0_colength = tor0_colength


def tor_local_low(I, J, j_max, cap=None):
    """Exact ideal-arithmetic Tor_0, Tor_1 of (R/I, R/J) with gr series.

    Tor_1's series is the degreewise difference of the standard-monomial
    counts of R/(I*J) and R/(I cap J) (the subquotient filtration,
    computed via initial ideals); an independent oracle for the spectral
    pipeline in homological degrees <= 1.  Given a `cap`, I and J are
    first moved onto a ring of that cap.
    """
    ring = I.ring
    if cap is not None and cap != ring.cap:
        ring = Ring(ring.variables, ring.field, LOCAL, cap=cap)
        I, J = IdealPresentation(ring, I.generators), IdealPresentation(ring, J.generators)
    if j_max > ring.cap:
        raise CapExceededError("series truncation %d exceeds the cap %d" % (j_max, ring.cap))
    total = ideal_sum(I, J)
    inter = ideal_intersection(I, J)
    prod = ideal_product(I, J)

    lm_sum = leading_monomial_ideal(total)
    lm_inter = leading_monomial_ideal(inter)
    lm_prod = leading_monomial_ideal(prod)

    def hilbert(lm):
        sizes = [len(layer) for layer in standard_monomial_layers(lm, ring.nvars, j_max)]
        return sizes + [0] * (j_max + 1 - len(sizes))

    series = BigradedSeries(1, j_max)
    for j, (h0, h_prod, h_inter) in enumerate(zip(hilbert(lm_sum), hilbert(lm_prod),
                                                  hilbert(lm_inter))):
        if h0:
            series._set(0, j, h0)
        h1 = h_prod - h_inter
        if h1 < 0:
            raise CapExceededError("intersection is smaller than the product; cap too small")
        if h1:
            series._set(1, j, h1)
    return LowTor(series, colength_from_leads(ring, lm_sum))
