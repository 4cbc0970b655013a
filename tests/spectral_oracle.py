"""Independent oracle for the spectral sequence of a filtered complex.

A second code path, kept apart from `grtor.spectral` (which reads
everything off one persistence pairing): pages from rank tables of
level-sorted dense echelons, and the limit page directly as gr of
homology with the induced filtration.  Slow; tests only.  Its dense
`kernel_basis` also serves the syzygy tests, and its dense `rank` every
test that counts a rank independently.
"""

from grtor.linalg import ColumnEchelon, rref
from grtor.series import BigradedSeries


def rank(field, rows):
    """The rank of a dense matrix; no code in `src/grtor` needs one."""
    if not rows:
        return 0
    return len(rref(field, rows)[1])


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
