"""Brute-force oracle for the standard monomials of a monomial ideal.

A second code path, kept apart from `grtor.groebner.standard_monomial_layers`
(which grows each degree out of the one below): every monomial of a
degree is enumerated and tested against every generator.  Tests only.
"""


def monomials_of_degree(nvars, degree):
    """Every exponent vector of the given degree, in descending lex order."""
    if nvars == 0:
        if degree == 0:
            yield ()
        return
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


def standard_monomials(lm_gens, nvars, degree):
    """Monomials of the given degree not divisible by any generator."""
    return [e for e in monomials_of_degree(nvars, degree)
            if not any(all(a <= b for a, b in zip(g, e)) for g in lm_gens)]


def hilbert_function(lm_gens, nvars, degree):
    return len(standard_monomials(lm_gens, nvars, degree))
