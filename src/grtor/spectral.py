"""Spectral sequence of a filtered complex, read off one persistence pairing.

Each differential d_i: L_i -> L_{i-1} is reduced once as a sparse column
matrix: columns by level, highest first; the pivot of a column is its
nonzero row of lowest level, ties broken by index.  A pivot pairs a
column at level a with a row at level b >= a.  The units z^i t^a and
z^{i-1} t^b then live on pages 1..b-a and die together: one negative
consecutive cancellation on page b - a (a pair with b = a never reaches
page 1).  The basis vectors left unpaired make up the limit page
(Zomorodian-Carlsson, Computing Persistent Homology, 2005; Basu-Parida,
Spectral sequences, exact couples and persistent homology of
filtrations, 2017).  Pages, per-page cancellations and the limit page
are all arithmetic on that pair list, read in one pass.  When every d
preserves level, page 1 is graded Tor (`resolution.tor_from_resolution`).

For a complex marked as a degree truncation, entries and cancellations
outside the reliability window are flagged, never reported as numbers.
"""

import random
from collections import namedtuple

from .fields import Field, GrtorError
from .filtered import FilteredComplex
from .linalg import sparse_pivots
from .series import (BigradedSeries, Cancellation, CancellationCertificate,
                     verify_certificate)


# the most page cells a run lists as flagged past a truncation
MAX_FLAGGED_CELLS = 10 ** 6


class PageCancellation(namedtuple("PageCancellation", "r i j")):
    """One unit removed at (i, j) on page r, paired with one at (i-1, j+r)."""


class SpectralPage:
    def __init__(self, r, dims, indeterminate=frozenset()):
        self.r = r  # page index, or None for the infinity page
        self.dims = dims
        self.indeterminate = frozenset(indeterminate)

    def __repr__(self):
        label = "inf" if self.r is None else str(self.r)
        return "SpectralPage(r=%s, %r)" % (label, self.dims.coefficients)


def _pairing(L):
    """The persistence pairing of L as counts: ({(i, a, b): n}, {(i, level): n}).

    (i, a, b) pairs a column of d_i at level a with its pivot row, a basis
    vector of L_{i-1} at level b.  The second table counts the basis
    vectors in no pair.  It is kept per level, not per basis index: the
    order of a term's basis as rows of d_{i+1} and as columns of d_i
    differ within a level, and only the counts per level are invariants.
    """
    field = L.field
    pairs = {}
    free = {}
    for i, lv in enumerate(L.levels):
        for level in lv:
            free[(i, level)] = free.get((i, level), 0) + 1
    for i in range(1, L.i_max + 1):
        d, src, tgt = L.diffs[i], L.levels[i], L.levels[i - 1]
        order = sorted(range(len(src)), key=lambda c: (-src[c], c))
        pivots = sparse_pivots(field, (d[c] for c in order), key=lambda r: (tgt[r], r))
        for c, p in zip(order, pivots):
            if p is not None:
                key = (i, src[c], tgt[p])
                pairs[key] = pairs.get(key, 0) + 1
                free[(i, src[c])] -= 1
                free[(i - 1, tgt[p])] -= 1
    return pairs, free


def _alive(bars, r):
    """{(i, j): units} on page r: the unpaired units and both ends of every
    pair that dies on page r or later."""
    pairs, free = bars
    alive = dict(free)
    for (i, a, b), n in pairs.items():
        if b - a >= r:
            alive[(i, a)] = alive.get((i, a), 0) + n
            alive[(i - 1, b)] = alive.get((i - 1, b), 0) + n
    return alive


def _page(L, bars, r):
    """Page r, with the cells past the reliability window flagged.

    Truncation keeps levels <= T; the cycle condition dz in L^{j+r} only
    probes levels up to j+r, and the discarded part of any differential
    lives in levels >= T+1, so entries with j + r <= T + 1 agree with the
    untruncated complex.
    """
    T = L.truncated_at
    flagged = set() if T is None else _cells_above(L, T + 1 - r)
    kept = {k: n for k, n in _alive(bars, r).items() if k not in flagged}
    return SpectralPage(r, BigradedSeries(L.i_max, L.j_max, kept), flagged)


def _cells_above(L, j0):
    """The cells (i, j) of L's grid with j > j0, listed without a scan of
    the whole grid; counted first, and refused past MAX_FLAGGED_CELLS."""
    lo = max(j0 + 1, 0)
    count = (L.i_max + 1) * max(L.j_max + 1 - lo, 0)
    if count > MAX_FLAGGED_CELLS:
        raise GrtorError("%d cells with j > %d lie past the truncation, more than the "
                         "%d that can be flagged" % (count, j0, MAX_FLAGGED_CELLS))
    return {(i, j) for i in range(L.i_max + 1) for j in range(lo, L.j_max + 1)}


def _boundary(L, bars):
    """{r: {(i, j): units}}: for a truncated L, the units at (i, j), i >= 1,
    alive on page r = T + 1 - j, whose partner degree j + r is the first
    one past the truncation: the free units, the source ends of pairs
    with b - a >= T + 1 - a (so b > T), and the target ends of pairs with
    b - a >= T + 1 - b."""
    T = L.truncated_at
    out = {}
    if T is None:
        return out
    pairs, free = bars
    units = dict(free)
    for (i, a, b), n in pairs.items():
        if b > T:
            units[(i, a)] = units.get((i, a), 0) + n
        if b - a >= T + 1 - b:
            units[(i - 1, b)] = units.get((i - 1, b), 0) + n
    for (i, j), n in sorted(units.items(), key=lambda cell: (-cell[0][1], cell[0][0])):
        if i >= 1 and j <= T and n:
            out.setdefault(T + 1 - j, {})[(i, j)] = n
    return out


def page(L, r):
    """Page r (r >= 1) of the spectral sequence.

    For truncated complexes, entries with j + r > truncation + 1 are
    flagged indeterminate instead of reported.
    """
    if r < 1:
        raise GrtorError("pages are indexed from r = 1")
    return _page(L, _pairing(L), r)


def cancellations_at_page(L, r):
    """Multiset of cancellations dying between pages r and r+1, plus the
    boundary-indeterminate units (truncated complexes only).

    Each pair (i, a, b) of the pairing with b - a = r is one unit removed
    at (i, a) together with one at (i-1, b).  A cancellation is exact
    when its partner degree b stays within the truncation; units still
    alive at cells with j + r beyond it would pair with degrees the
    truncation cannot see, so their fate is reported, not decided."""
    if r < 1:
        raise GrtorError("pages are indexed from r = 1")
    bars = _pairing(L)
    T = L.truncated_at
    out = sorted(PageCancellation(r, i, a)
                 for (i, a, b), n in bars[0].items()
                 if b - a == r and (T is None or b <= T)
                 for _ in range(n))
    return out, _boundary(L, bars).get(r, {})


class RunResult:
    def __init__(self, page1, page_infinity, certificate, r_stab, window_j,
                 boundary, verified):
        self.page1 = page1
        self.page_infinity = page_infinity
        self.certificate = certificate
        self.r_stab = r_stab
        self.window_j = window_j
        self.boundary = boundary  # {page r: {(i, j): units}}
        self.verified = verified


def run_to_stability(L):
    """Read the certificate from page 1 to the limit off one pass over the
    pairing: r_stab is one past the last page that closes a pair.

    Exact complexes stabilize by page span+1 and the bookkeeping identity
    page1 - sum(certificate) = page_infinity holds on the whole grid.  For
    truncated complexes the certificate keeps only reliable cancellations
    (partner degree within the truncation); the identity is verified on
    the window j <= truncation - r_stab minus cells touched by boundary-
    indeterminate units.
    """
    bars = _pairing(L)
    T = L.truncated_at
    # a pair that dies on page b - a >= 1, its partner degree b within the
    # truncation, is one certificate step
    cert = CancellationCertificate([Cancellation(i - 1, a, b) for (i, a, b), n in bars[0].items()
                                    if b > a and (T is None or b <= T) for _ in range(n)]).sorted()
    r_stab = 1 + max((step.page for step in cert), default=0)
    window_j = L.j_max if T is None else T - r_stab
    boundary = _boundary(L, bars)

    # page 1 is always full-grid exact (j + 1 <= T + 1 for every cell)
    p1 = _page(L, bars, 1)
    flagged = frozenset()
    if T is not None:
        flagged = _cells_above(L, window_j).union(*boundary.values())
    kept = {k: n for k, n in bars[1].items() if k not in flagged}
    pinf = SpectralPage(None, BigradedSeries(L.i_max, L.j_max, kept), flagged)
    # the certificate only lowers page 1, so cells in neither support agree
    cells = [c for c in p1.dims.coefficients.keys() | pinf.dims.coefficients.keys()
             if c not in flagged]
    verified = verify_certificate(p1.dims, cert, pinf.dims, cells=cells)
    return RunResult(p1, pinf, cert, r_stab, window_j, boundary, verified)


# --- reproducible random filtered complexes ---------------------------------------


class RandomModel:
    """The generating data of a random complex: free basis vectors and
    matched source->target pairs, from which the expected page 1, page
    infinity and cancellation multiset can be read off."""

    def __init__(self, i_max, j_max, free, pairs):
        self.i_max = i_max
        self.j_max = j_max
        self.free = free    # list of (i, level)
        self.pairs = pairs  # list of (i, src_level, tgt_level), d: L_i -> L_{i-1}

    def expected_page1(self):
        s = BigradedSeries(self.i_max, self.j_max)
        for (i, lv) in self.free:
            s._set(i, lv, s.get(i, lv) + 1)
        for (i, a, b) in self.pairs:
            if b > a:
                s._set(i, a, s.get(i, a) + 1)
                s._set(i - 1, b, s.get(i - 1, b) + 1)
        return s

    def expected_infinity(self):
        s = BigradedSeries(self.i_max, self.j_max)
        for (i, lv) in self.free:
            s._set(i, lv, s.get(i, lv) + 1)
        return s

    def expected_certificate(self):
        steps = [Cancellation(i - 1, a, b) for (i, a, b) in self.pairs if b > a]
        return CancellationCertificate(steps).sorted()


def random_filtered_complex(seed, i_max=3, max_dim=8, max_level=6,
                            field=None, strictly_graded=False, with_model=False):
    """Reproducible random filtered complex with d^2 = 0 by construction:
    a direct sum of matched pairs and free vectors, under a random
    filtered change of basis of each term."""
    if field is None:
        field = Field(32003)
    rng = random.Random(seed)
    dims = [rng.randint(1, max_dim) for _ in range(i_max + 1)]
    levels = [[rng.randint(0, max_level) for _ in range(dims[i])] for i in range(i_max + 1)]

    target_flags = [set() for _ in range(i_max + 1)]
    source_flags = [set() for _ in range(i_max + 1)]
    pairs_idx = []  # (i, src index in term i, tgt index in term i-1)
    for i in range(i_max, 0, -1):
        sources = [v for v in range(dims[i]) if v not in target_flags[i]]
        targets = [v for v in range(dims[i - 1])]
        rng.shuffle(sources)
        rng.shuffle(targets)
        want = rng.randint(0, min(len(sources), len(targets)))
        taken = set()
        made = 0
        for s in sources:
            if made >= want:
                break
            for t in targets:
                if t in taken:
                    continue
                if strictly_graded:
                    okay = levels[i - 1][t] == levels[i][s]
                else:
                    okay = levels[i - 1][t] >= levels[i][s]
                if okay:
                    taken.add(t)
                    pairs_idx.append((i, s, t))
                    source_flags[i].add(s)
                    target_flags[i - 1].add(t)
                    made += 1
                    break

    # d[i] is d_i as sparse columns (d_0 = 0 on L_0, and no d_{i_max+1})
    d = [[{} for _ in range(dims[i])] for i in range(i_max + 1)] + [[]]
    for (i, s, t) in pairs_idx:
        d[i][s][t] = field.one

    def addmul(col, k, f, x):
        v = field.submul(col.get(k, field.zero), f, x)
        if v:
            col[k] = v
        else:
            del col[k]

    # the change of basis of L_i is a product of elementary filtered maps E:
    # e_s -> c*e_s, or e_s -> e_s + c*e_r with level r >= level s.  Each
    # replaces d_i by d_i E^-1 (column s divided by c, or column s minus c
    # times column r) and d_{i+1} by E d_{i+1} (row s times c, or row r plus
    # c times row s), which keeps d o d = 0 and the filtration.
    top = field.char or 97
    for i in range(i_max + 1):
        lv, cols, rows = levels[i], d[i], d[i + 1]
        for r in range(dims[i]):
            for s in range(dims[i]):
                if r == s:
                    c = field.of(rng.randrange(1, top))
                    cols[s] = {t: field.div(x, c) for t, x in cols[s].items()}
                    for col in rows:
                        if s in col:
                            col[s] = field.mul(col[s], c)
                elif ((lv[r] > lv[s] and rng.random() < 0.5)
                      or (lv[r] == lv[s] and rng.random() < 0.4)):
                    c = field.of(rng.randrange(1, top))
                    for t, x in cols[r].items():
                        addmul(cols[s], t, c, x)
                    c = field.neg(c)
                    for col in rows:
                        if s in col:
                            addmul(col, r, c, col[s])

    j_max = max((max(lv) for lv in levels if lv), default=0)
    L = FilteredComplex(field, levels, [None] + d[1:-1], j_max, truncated_at=None)
    if not with_model:
        return L
    free = [(i, levels[i][v]) for i in range(i_max + 1) for v in range(dims[i])
            if v not in source_flags[i] and v not in target_flags[i]]
    pairs = [(i, levels[i][s], levels[i - 1][t]) for (i, s, t) in pairs_idx]
    return L, RandomModel(i_max, j_max, free, pairs)
