"""Dense exact linear algebra over a coefficient field.

Matrices are lists of rows (lists of field elements).  Everything is
small and desk-scale; clarity over asymptotics.
"""


def mat_zero(field, nrows, ncols):
    z = field.zero
    return [[z] * ncols for _ in range(nrows)]


def mat_identity(field, n):
    m = mat_zero(field, n, n)
    one = field.one
    for i in range(n):
        m[i][i] = one
    return m


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


def invert(field, rows):
    """Inverse of a square matrix (raises on singular input)."""
    n = len(rows)
    aug = [list(r) + row for r, row in zip(rows, mat_identity(field, n))]
    red, pivots = rref(field, aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [r[n:] for r in red[:n]]


def sparse_pivots(field, columns, key=None):
    """Reduce sparse columns {row: nonzero x}, in the given order, each
    against the reduced earlier ones, and yield each one's pivot: its
    nonzero row that minimises `key` (default: the lowest row), or None
    for a column in the span of the earlier ones."""
    reduced = {}  # pivot row -> the reduced column that owns it
    for col in columns:
        col = dict(col)
        while col:
            p = min(col, key=key)
            other = reduced.get(p)
            if other is None:
                reduced[p] = col
                break
            f = field.div(col[p], other[p])
            for r, x in other.items():
                v = field.submul(col.get(r, field.zero), f, x)
                if v:
                    col[r] = v
                else:
                    del col[r]
        yield p if col else None


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

    def pivot_positions(self):
        return sorted(self.columns)
