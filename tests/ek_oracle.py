"""The Eliahou-Kervaire Betti table of a stable monomial ideal, from its
closed formula: a second path to the Betti numbers that
`grtor.resolution.minimal_resolution` computes.  Tests only."""

from math import comb

from grtor.groebner import GroebnerError
from grtor.poly import format_monomial
from grtor.series import BigradedSeries


def _monomial_exponents(p):
    if len(p.terms) != 1:
        raise GroebnerError("generator %s is not a monomial" % p)
    return next(iter(p.terms))


def _max_var(e):
    """1-based index of the largest variable dividing x^e (0 for 1)."""
    for i in range(len(e) - 1, -1, -1):
        if e[i]:
            return i + 1
    return 0


def ek_betti_stable(I, i_max=None, j_max=None):
    """Betti table of a stable monomial ideal from the closed formula
    beta_{i, deg(u)+i} = C(max(u)-1, i) summed over minimal generators u.

    Stability (for every generator u and i < max(u), x_i * u / x_max(u)
    stays in the ideal) is checked and a violating monomial reported.
    """
    gens = [_monomial_exponents(g) for g in I.generators]
    minimal = []
    for e in sorted(gens, key=sum):
        if not any(all(a <= b for a, b in zip(f, e)) for f in minimal):
            minimal.append(e)

    def member(e):
        return any(all(a <= b for a, b in zip(f, e)) for f in minimal)

    for e in minimal:
        mv = _max_var(e)
        for i in range(0, mv - 1):
            swapped = list(e)
            swapped[mv - 1] -= 1
            swapped[i] += 1
            if not member(tuple(swapped)):
                raise GroebnerError(
                    "ideal is not stable: x_%d * %s / x_%d leaves the ideal"
                    % (i + 1, format_monomial(I.ring, e), mv))

    if i_max is None:
        i_max = max((_max_var(e) - 1 for e in minimal), default=0)
    if j_max is None:
        j_max = max((sum(e) + _max_var(e) - 1 for e in minimal), default=0)
    table = BigradedSeries(i_max, j_max)
    for e in minimal:
        mv = _max_var(e)
        for i in range(0, mv):
            if i > i_max or sum(e) + i > j_max:
                continue
            c = comb(mv - 1, i)
            if c:
                table._set(i, sum(e) + i, table.get(i, sum(e) + i) + c)
    return table
