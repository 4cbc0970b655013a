"""The normal-form loop that `grtor.groebner._reduce` replaced, kept as a
test oracle: each step recomputes the lead by a scan of every term and
rebuilds the column and its cofactor expression as new term dicts, and
reducers are scanned in list order.

`leads` is a list of (lead key, tracked element), the lead key being
(row, exponents), in reducer order.  Columns and expressions are term
dicts, {(row, exponents): coefficient} and {(input column, exponents):
coefficient}; an expression is None when untracked.
"""

from grtor.groebner import _divides, _sub, _Tracked


def _scan_lead(ring, terms):
    """The lead key under term-over-position (ties: lower row wins)."""
    order = ring.order
    return max(terms, key=lambda k: (order.key(k[1]), -k[0]))


def oracle_leads(ring, reducers):
    return [(_scan_lead(ring, g.col), g) for g in reducers if g.col]


def _minus_multiple(fld, terms, other, exps, coeff, degree, cap):
    """A new dict: terms - coeff * x^exps * other, without the product
    terms whose degree(key) passes the cap."""
    out = dict(terms)
    for (row, e), c in other.items():
        key = (row, tuple(a + b for a, b in zip(e, exps)))
        if cap is not None and degree(key) > cap:
            continue
        v = fld.sub(out.get(key, fld.zero), fld.mul(coeff, c))
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def _combine(ring, shifts, f, g, exps, coeff, cap):
    """f - coeff * x^exps * g, on the column and the expression."""
    fld = ring.field
    col = _minus_multiple(fld, f.col, g.col, exps, coeff,
                          lambda k: sum(k[1]) + shifts[k[0]], cap)
    expr = f.expr
    if expr is not None:
        ecap = cap if ring.cap is None else min(cap, ring.cap)
        expr = _minus_multiple(fld, expr, g.expr, exps, coeff, lambda k: sum(k[1]), ecap)
    return _Tracked(col, expr)


def reduce_oracle(ring, shifts, f, leads, cap=None):
    cap = cap if cap is not None else ring.cap
    col = f.col
    if cap is not None:
        col = {k: c for k, c in col.items() if sum(k[1]) + shifts[k[0]] <= cap}
    if not leads:
        return _Tracked(col, f.expr)
    fld = ring.field
    work = _Tracked(dict(col), f.expr)
    rem = {}
    while work.col:
        lead = _scan_lead(ring, work.col)
        row, e = lead
        hit = next(((gl, g) for gl, g in leads if gl[0] == row and _divides(gl[1], e)), None)
        if hit is None:
            rem[lead] = work.col.pop(lead)
            continue
        glead, g = hit
        coeff = fld.div(work.col[lead], g.col[glead])
        work = _combine(ring, shifts, work, g, _sub(e, glead[1]), coeff, cap)
    return _Tracked(rem, work.expr)
