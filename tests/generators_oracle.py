"""Second code path for `grtor.resolution.minimal_generators`.

The program chooses minimal generators with a dense echelon
(`linalg.ColumnEchelon`).  This oracle makes the same graded-Nakayama
choice on sparse strand columns with `linalg.sparse_pivots`, the
elimination the strand ranks and the spectral pairing run on: in
ascending internal degree d, the columns of every monomial multiple of
the generators kept so far, then the candidates of degree d in order,
and a candidate is kept when its pivot is not None.  The rank decision
is the dense echelon's, so both must keep the same candidates.  Tests
only.
"""

import itertools
import operator

from grtor.linalg import sparse_pivots
from grtor.resolution import free_basis


def sparse_minimal_generators(nf, columns, row_shifts):
    """[(index in `columns`, internal degree)] as `minimal_generators`
    returns them, for columns {(row, exponents): c}."""
    items = []
    for k, col in enumerate(columns):
        degs = {sum(e) + row_shifts[a] for a, e in col}
        if degs:
            items.append((k, degs.pop()))
    items.sort(key=operator.itemgetter(1))
    chosen = []
    for d, group in itertools.groupby(items, key=operator.itemgetter(1)):
        group = list(group)
        index = {key: n for n, key in enumerate(free_basis(nf, row_shifts, d))}
        span = (nf.column(columns[k], (0, mono), index)
                for k, e in chosen for mono in nf.terms(0, d - e))
        fresh = (nf.column(columns[k], (0, (0,) * nf.ring.nvars), index) for k, _ in group)
        pivots = list(sparse_pivots(nf.ring.field, itertools.chain(span, fresh)))
        chosen += [item for item, p in zip(group, pivots[-len(group):]) if p is not None]
    return chosen

