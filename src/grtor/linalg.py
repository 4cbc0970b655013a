"""Exact linear algebra over a coefficient field.  Columns come in sparse,
{row: nonzero x}.  `ColumnEchelon`, the one dense elimination, makes
them dense rows (lists of field elements) inside; given a combination
{tag: x} with every column (or with none), it reduces that beside the
column, so the column minus its combination never changes.
"""


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
    pivot row, its first nonzero row.  Either every column carries a
    combination {tag: x} of the tagged columns, or none does.  Each step
    is made on it too, so a column added with {its tag: 1} is stored with
    a combination equal to it (`combos`), and one added with {} that lies
    in the span is left with minus its expression on the stored columns.
    """

    def __init__(self, field, nrows):
        self.field = field
        self.nrows = nrows
        self.columns = {}  # pivot row -> column vector
        self.combos = {}  # pivot row -> its combination, if columns are tagged

    def add(self, column, combo=None):
        """Reduce column against the echelon and insert if independent.

        Returns the pivot row, or None if column lies in the current span.
        `combo`, the column's combination, is reduced in place beside it.
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
                inv = field.inv(col[piv])
                self.columns[piv] = field.scale(inv, col)
                if combo is not None:
                    self.combos[piv] = {t: field.mul(inv, x) for t, x in combo.items()}
                return piv
            f = col[piv]
            col = field.axpy(col, f, self.columns[piv])
            if combo is not None:
                for t, x in self.combos[piv].items():
                    v = field.submul(combo.get(t, field.zero), f, x)
                    if v:
                        combo[t] = v
                    else:
                        del combo[t]
