"""The polynomial matrix product that the d o d checks of
`GradedFreeResolution` and `FilteredResolution` used before they read
their entries off a table of monomial normal forms, kept as a test
oracle: `Polynomial` arithmetic, then one full reduction per entry."""

from grtor.groebner import normal_form, quotient_groebner


def matmul_poly(ring, a, b, gb=None, cap=None):
    """Product of polynomial matrices, each entry in normal form against
    gb (default: the Groebner basis of the ring's quotient) below the cap
    (default: the ring's; for a local ring the product is then truncated)."""
    if gb is None:
        gb = quotient_groebner(ring)
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    out = [[ring.zero() for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = ring.zero()
            for t in range(k):
                if a[i][t].is_zero() or b[t][j].is_zero():
                    continue
                s = s + a[i][t] * b[t][j]
            out[i][j] = normal_form(s, gb, cap)
    return out
