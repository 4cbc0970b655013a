"""Independent oracle for the spectral sequence of a filtered complex.

A second code path, kept apart from `grtor.spectral` (which reads
everything off one persistence pairing): pages from rank tables of
level-sorted dense echelons, and the limit page directly as gr of
homology with the induced filtration.  Slow; tests only.  Its dense
`kernel_basis` also serves the syzygy tests, and its dense `rank` every
test that counts a rank independently.  `ColumnEchelon` (dense
columns, any row priority order) and the dense `solve` are reference
kernels: the echelon serves `Engine` and `pieces_oracle`, and both are
the oracles of the sparse-input kernels of `grtor.linalg`.  `rank`,
`solve` and `kernel_basis` reduce with this module's own dense `rref`
(`grtor.linalg` keeps its copy inside `solve`), so no oracle shares its
elimination with the code it checks.  `run_by_pages` and
`cancellations_by_page` read a run off the same pairing as
`grtor.spectral`, but page by page: the reference for the one-pass
bookkeeping of `run_to_stability`; `to_cancellation` turns each page
cancellation into its certificate step.
"""

from grtor.series import (BigradedSeries, Cancellation, CancellationCertificate,
                          verify_certificate)
from grtor.spectral import (PageCancellation, RunResult, SpectralPage, _alive,
                            _cells_above, _page, _pairing)


def rref(field, rows):
    """Reduced row echelon form; returns (new rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        m[r] = field.scale(field.inv(m[r][c]), m[r])
        for i in range(nrows):
            if i != r and m[i][c]:
                m[i] = field.axpy(m[i], m[i][c], m[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(field, rows):
    """The rank of a dense matrix; no code in `src/grtor` needs one."""
    if not rows:
        return 0
    return len(rref(field, rows)[1])


def solve(field, rows, rhs):
    """One solution of rows*x = rhs, or None if inconsistent."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(field, aug)
    for r in range(len(pivots), nrows):
        if red[r][ncols]:
            return None
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return x


class ColumnEchelon:
    """Incremental column echelon form with a fixed row priority order.

    Columns are added one at a time and reduced against the stored
    echelon; each stored column has a unique pivot row (the first
    nonzero row in the given priority order).  Supports rank queries of
    the span's projection onto row prefixes, which is what the spectral
    engine's filtration bookkeeping needs.
    """

    def __init__(self, field, row_order):
        self.field = field
        self.row_order = list(row_order)  # row indices, highest priority first
        self.row_pos = {r: k for k, r in enumerate(self.row_order)}
        self.columns = {}  # pivot position (in priority order) -> column vector

    def add(self, col):
        """Reduce col against the echelon and insert if independent.

        Returns the pivot position (priority index) or None if col lies
        in the current span.
        """
        field = self.field
        col = list(col)
        while True:
            piv = None
            for k, r in enumerate(self.row_order):
                if col[r]:
                    piv = k
                    break
            if piv is None:
                return None
            if piv not in self.columns:
                self.columns[piv] = field.scale(field.inv(col[self.row_order[piv]]), col)
                return piv
            col = field.axpy(col, col[self.row_order[piv]], self.columns[piv])


def dense(L, i):
    """d_i of L as a dense row list, rows indexing the basis of L_{i-1}."""
    cols = L.diffs[i]
    return [[cols[c].get(r, L.field.zero) for c in range(L.dim(i))]
            for r in range(L.dim(i - 1))]


def kernel_basis(field, rows, ncols):
    """Basis of the right kernel {v : rows*v = 0}; vectors of length ncols."""
    if ncols == 0:
        return []
    if not rows:
        return [[field.one if i == j else field.zero for i in range(ncols)] for j in range(ncols)]
    red, pivots = rref(field, rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for fc in free:
        v = [field.zero] * ncols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            if red[r][fc]:
                v[pc] = field.neg(red[r][fc])
        basis.append(v)
    return basis


class Engine:
    """Rank tables for one filtered complex.

    ker2[i][a][b] = dim {z in L_i^a : dz in L_{i-1}^b}
    img2[i][s][c] = dim (d(L_{i+1}^s) cap L_i^c)

    with levels clamped to 0..j_max+1 (j_max+1 plays the role of the zero
    subspace).
    """

    def __init__(self, L):
        self.L = L
        self.field = L.field
        self.T = L.j_max
        self.ker2 = []
        self.img2 = []
        hi = self.T + 2
        for i in range(L.i_max + 1):
            levels = L.levels[i]
            ncols = len(levels)
            ker_i = [[0] * hi for _ in range(hi)]
            d = dense(L, i) if i else None
            for a in range(hi):
                cols = [c for c in range(ncols) if levels[c] >= a]
                if i == 0:
                    for b in range(hi):
                        ker_i[a][b] = len(cols)
                    continue
                tgt_levels = L.levels[i - 1]
                row_order = sorted(range(len(tgt_levels)), key=lambda r: (tgt_levels[r], r))
                ech = ColumnEchelon(self.field, row_order)
                pivot_levels = []
                for c in cols:
                    col = [d[r][c] for r in range(len(tgt_levels))]
                    piv = ech.add(col)
                    if piv is not None:
                        pivot_levels.append(tgt_levels[row_order[piv]])
                pivot_levels.sort()
                for b in range(hi):
                    below = sum(1 for pl in pivot_levels if pl < b)
                    ker_i[a][b] = len(cols) - below
            self.ker2.append(ker_i)

            img_i = [[0] * hi for _ in range(hi)]
            if i < L.i_max:
                d = dense(L, i + 1)
                src_levels = L.levels[i + 1]
                tgt_levels = L.levels[i]
                row_order = sorted(range(len(tgt_levels)), key=lambda r: (tgt_levels[r], r))
                for s in range(hi):
                    ech = ColumnEchelon(self.field, row_order)
                    pivot_levels = []
                    for c in range(len(src_levels)):
                        if src_levels[c] < s:
                            continue
                        col = [d[r][c] for r in range(len(tgt_levels))]
                        piv = ech.add(col)
                        if piv is not None:
                            pivot_levels.append(tgt_levels[row_order[piv]])
                    pivot_levels.sort()
                    for c in range(hi):
                        img_i[s][c] = sum(1 for pl in pivot_levels if pl >= c)
            self.img2.append(img_i)

    def _clamp(self, x):
        return max(0, min(x, self.T + 1))

    def zrank(self, r, i, j):
        """dim of the level-j graded piece of {z in L_i^j : dz in L^{j+r}}."""
        b = self._clamp(j + r)
        return self.ker2[i][j][b] - self.ker2[i][j + 1][b]

    def brank(self, r, i, j):
        """dim of the level-j graded piece of L_i^j cap d(L_{i+1}^{j-r+1})."""
        s = self._clamp(j - r + 1)
        return self.img2[i][s][j] - self.img2[i][s][j + 1]

    def page_dim(self, r, i, j):
        return self.zrank(r, i, j) - self.brank(r, i, j)

    def coker_count(self, r, i, j):
        """dim coker(iota_{i,j}) from page r to page r+1."""
        return self.zrank(r, i, j) - self.zrank(r + 1, i, j)

    def ker_count(self, r, i, j):
        """dim ker(pi_{i,j}) from page r to page r+1."""
        return self.brank(r + 1, i, j) - self.brank(r, i, j)

    def page_dims(self, r):
        """Page r on the whole grid, as a series (no truncation flags)."""
        L = self.L
        dims = BigradedSeries(L.i_max, L.j_max)
        for i in range(L.i_max + 1):
            for j in range(L.j_max + 1):
                d = self.page_dim(r, i, j)
                assert d >= 0, (r, i, j)
                if d:
                    dims._set(i, j, d)
        return dims


def delta_counts(engine, r):
    """Independent coker(iota) and ker(pi) count tables for page r."""
    L = engine.L
    coker = {}
    ker = {}
    for i in range(L.i_max + 1):
        for j in range(L.j_max + 1):
            c = engine.coker_count(r, i, j)
            if c:
                coker[(i, j)] = c
            k = engine.ker_count(r, i, j)
            if k:
                ker[(i, j)] = k
    return coker, ker


def infinity_dims_direct(L):
    """gr of homology with the induced filtration (Z_i cap L^j + B_i) / B_i."""
    field = L.field
    dims = BigradedSeries(L.i_max, L.j_max)
    for i in range(L.i_max + 1):
        n = L.dim(i)
        if n == 0:
            continue
        if i == 0:
            zbasis = [[field.one if a == b else field.zero for a in range(n)] for b in range(n)]
        else:
            zbasis = kernel_basis(field, dense(L, i), n)
        bcols = []
        if i < L.i_max:
            d = dense(L, i + 1)
            for c in range(L.dim(i + 1)):
                bcols.append([d[r][c] for r in range(n)])

        def dim_zj_plus_b(j):
            if j > L.j_max:
                zj = []
            else:
                bad = [r for r, lv in enumerate(L.levels[i]) if lv < j]
                if bad and zbasis:
                    mat = [[z[r] for z in zbasis] for r in bad]
                    combos = kernel_basis(field, mat, len(zbasis))
                else:
                    combos = [[field.one if a == b else field.zero
                               for a in range(len(zbasis))] for b in range(len(zbasis))]
                zj = []
                for combo in combos:
                    v = [field.zero] * n
                    for coef, z in zip(combo, zbasis):
                        if coef:
                            for r in range(n):
                                v[r] = field.add(v[r], field.mul(coef, z[r]))
                    zj.append(v)
            stacked = zj + [list(b) for b in bcols]
            if not stacked:
                return 0
            return rank(field, [[col[r] for col in stacked] for r in range(n)])

        prev = dim_zj_plus_b(0)
        for j in range(0, L.j_max + 1):
            nxt = dim_zj_plus_b(j + 1)
            h = prev - nxt
            assert h >= 0, (i, j)
            if h:
                dims._set(i, j, h)
            prev = nxt
    return dims


# --- the page-by-page bookkeeping of a run ---------------------------------------


def to_cancellation(pc):
    """The `Cancellation` of a `PageCancellation`: the unit at (i, j) on
    page r dies with the one at (i - 1, j + r)."""
    return Cancellation(pc.i - 1, pc.j, pc.j + pc.r)


def cancellations_by_page(L, bars, r):
    """Cancellations dying between pages r and r+1, and the units alive on
    page r whose partner degree j + r is the first one past the truncation."""
    T = L.truncated_at
    out = sorted(PageCancellation(r, i, a)
                 for (i, a, b), n in bars[0].items()
                 if b - a == r and (T is None or b <= T)
                 for _ in range(n))
    boundary = {}
    if T is not None and 0 <= T + 1 - r <= L.j_max:
        j = T + 1 - r
        alive = _alive(bars, r)
        boundary = {(i, j): alive[(i, j)] for i in range(1, L.i_max + 1)
                    if alive.get((i, j), 0) > 0}
    return out, boundary


def run_by_pages(L):
    """`run_to_stability` as a loop over the pages 1..r_hi that close a
    pair or hold units at the boundary degree T + 1 - r."""
    bars = _pairing(L)
    T = L.truncated_at
    span = max((max(lv) for lv in L.levels if lv), default=0)
    r_hi = span + 1 if T is None else T + 1
    pages = {b - a for (_i, a, b) in bars[0]}
    if T is not None:
        pages.update(T + 1 - j for lv in L.levels[1:] for j in lv)
    steps = []
    boundary = {}
    excluded_cells = set()
    last_active = 0
    for r in sorted(r for r in pages if 1 <= r <= r_hi):
        cancels, bd = cancellations_by_page(L, bars, r)
        if cancels:
            last_active = r
            steps.extend(map(to_cancellation, cancels))
        if bd:
            boundary[r] = bd
            excluded_cells.update(bd)
    cert = CancellationCertificate(steps).sorted()
    r_stab = last_active + 1
    window_j = L.j_max if T is None else T - r_stab
    p1 = _page(L, bars, 1)
    flagged = frozenset()
    if T is not None:
        flagged = _cells_above(L, window_j) | excluded_cells
    kept = {k: n for k, n in bars[1].items() if k not in flagged}
    pinf = SpectralPage(None, BigradedSeries(L.i_max, L.j_max, kept), flagged)
    cells = [c for c in p1.dims.coefficients.keys() | pinf.dims.coefficients.keys()
             if c not in flagged]
    verified = verify_certificate(p1.dims, cert, pinf.dims, cells=cells)
    return RunResult(p1, pinf, cert, r_stab, window_j, boundary, verified)
