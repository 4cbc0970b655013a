"""Exact linear algebra over a coefficient field.  Columns come in sparse,
{row: nonzero x}; `solve` and `ColumnEchelon` build dense rows (lists of
field elements) inside and reduce those.
"""


def solve(field, columns, rhs, nrows):
    """One solution x of sum_c x[c] * columns[c] = rhs, or None if there is
    none; the columns and rhs are sparse {row: x} over `nrows` rows, and x
    is a dense list, one entry per column.  The augmented matrix is brought
    to reduced row echelon form; rhs is in the span exactly when its
    column takes no pivot."""
    ncols = len(columns)
    m = [[field.zero] * (ncols + 1) for _ in range(nrows)]
    for c, col in enumerate((*columns, rhs)):
        for r, x in col.items():
            m[r][c] = x
    pivots = []
    r = 0
    for c in range(ncols + 1):
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
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return x


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
    """Incremental column echelon form over `nrows` rows.

    Sparse columns {row: x} are added one at a time, made dense and
    reduced against the stored echelon; each stored column has a unique
    pivot row, its first nonzero row.
    """

    def __init__(self, field, nrows):
        self.field = field
        self.nrows = nrows
        self.columns = {}  # pivot row -> column vector

    def add(self, column):
        """Reduce column against the echelon and insert if independent.

        Returns the pivot row, or None if column lies in the current span.
        """
        field = self.field
        col = [field.zero] * self.nrows
        for r, x in column.items():
            col[r] = x
        while True:
            piv = None
            for r in range(self.nrows):
                if col[r]:
                    piv = r
                    break
            if piv is None:
                return None
            if piv not in self.columns:
                self.columns[piv] = field.scale(field.inv(col[piv]), col)
                return piv
            col = field.axpy(col, col[piv], self.columns[piv])
