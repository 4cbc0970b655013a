"""Polynomial helpers that only tests read.

`monomial_multiple` multiplies by one term with no table and no
reduction, a second path to the products of `grtor.groebner`.  `column`
and `entries` turn a vector of polynomials into the column format of
the resolutions, {(row, exponents): c}, and back, so that a test can
state a differential by its entries.  Tests only.
"""

from grtor.poly import Polynomial


def monomial_multiple(p, exps, coeff=None):
    """p * coeff*x^exps, re-truncating in the local setting."""
    fld = p.ring.field
    coeff = fld.one if coeff is None else fld.of(coeff)
    cap = p.ring.cap
    terms = {}
    for e, c in p.terms.items():
        ee = tuple(a + b for a, b in zip(e, exps))
        if cap is not None and sum(ee) > cap:
            continue
        v = fld.mul(c, coeff)
        if v:
            terms[ee] = v
    return Polynomial(p.ring, terms)


def column(vec):
    """The column {(row, exponents): c} of a vector of polynomials."""
    return {(a, e): c for a, p in enumerate(vec) for e, c in p.terms.items()}


def entries(ring, col, rank):
    """The vector of `rank` polynomials of a column."""
    rows = [{} for _ in range(rank)]
    for (a, e), c in col.items():
        rows[a][e] = c
    return [Polynomial(ring, t) for t in rows]


def matrix(ring, cols, nrows):
    """The row-major matrix of polynomials of a differential held as columns."""
    vecs = [entries(ring, col, nrows) for col in cols]
    return [[vec[a] for vec in vecs] for a in range(nrows)]
