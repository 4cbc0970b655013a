"""The normal-form loop that `grtor.groebner._reduce` replaced, kept as a
test oracle: each step recomputes the lead by a scan of every term and
builds a new vector and expression (`_Tracked.combine`), and reducers are
scanned in list order.

`leads` is a list of (lead key, tracked element), the lead key being
(row, exponents), in reducer order.
"""

from grtor.groebner import VecPoly, _divides, _sub, _Tracked


def oracle_leads(reducers):
    return [(g.vec.lead(), g) for g in reducers if not g.vec.is_zero()]


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
        work = work.combine(g, _sub(e, glead[1]), coeff, cap)
    return _Tracked(VecPoly(vec.ring, vec.rank, rem, vec.shifts), work.expr)
