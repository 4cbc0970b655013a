"""The normal-form loop that `grtor.groebner._reduce` replaced, kept as a
test oracle: each step recomputes the lead by a scan of every term and
rebuilds the vector and its cofactor expression as new term dicts, and
reducers are scanned in list order.

`leads` is a list of (lead key, tracked element), the lead key being
(row, exponents), in reducer order.  Expressions are term dicts
{(input column, exponents): coefficient}, or None when untracked.
"""

from grtor.groebner import VecPoly, _divides, _sub, _Tracked


def oracle_leads(reducers):
    return [(g.vec.lead(), g) for g in reducers if not g.vec.is_zero()]


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


def _combine(f, g, exps, coeff, cap):
    """f - coeff * x^exps * g, on the vector and the expression."""
    vec = f.vec
    ring, fld = vec.ring, vec.ring.field
    terms = _minus_multiple(fld, vec.terms, g.vec.terms, exps, coeff,
                            lambda k: sum(k[1]) + vec.shifts[k[0]], cap)
    expr = f.expr
    if expr is not None:
        ecap = cap if ring.cap is None else min(cap, ring.cap)
        expr = _minus_multiple(fld, expr, g.expr, exps, coeff, lambda k: sum(k[1]), ecap)
    return _Tracked(VecPoly(ring, vec.rank, terms, vec.shifts), expr)


def reduce_oracle(f, leads, cap=None):
    cap = cap if cap is not None else f.vec.ring.cap
    vec = f.vec.truncate(cap) if cap is not None else f.vec
    if not leads:
        return _Tracked(vec, f.expr)
    fld = vec.ring.field
    work = _Tracked(VecPoly(vec.ring, vec.rank, dict(vec.terms), vec.shifts), f.expr)
    rem = {}
    while work.vec.terms:
        lead = work.vec.lead()
        row, e = lead
        hit = next(((gl, g) for gl, g in leads if gl[0] == row and _divides(gl[1], e)), None)
        if hit is None:
            rem[lead] = work.vec.terms.pop(lead)
            continue
        glead, g = hit
        coeff = fld.div(work.vec.terms[lead], g.vec.terms[glead])
        work = _combine(work, g, _sub(e, glead[1]), coeff, cap)
    return _Tracked(VecPoly(vec.ring, vec.rank, rem, vec.shifts), work.expr)
