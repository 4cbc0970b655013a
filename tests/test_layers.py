"""The layer builder of standard monomials (`standard_monomial_layers`)
against brute-force filtering of every monomial of each degree, and the
strand bases that read it."""

import random

import pytest

from grtor.fields import Field
from grtor.groebner import (IdealPresentation, graded_piece_basis, leading_monomial_ideal,
                            standard_monomial_layers)
from grtor.poly import Ring
from grtor.resolution import Strands

from layers_oracle import standard_monomials


def brute_layers(lm, nvars, top):
    """Layers 0..top by brute force, cut before the first empty one."""
    out = []
    for d in range(top + 1):
        layer = standard_monomials(lm, nvars, d)
        if not layer:
            # an order ideal: nothing above an empty layer either
            assert all(not standard_monomials(lm, nvars, e) for e in range(d, top + 1))
            break
        out.append(layer)
    return out


def random_leads(rng, nvars, finite):
    """A seeded lead set; `finite` adds a pure power of every variable, so
    the quotient has finite length and the layers stop early."""
    lm = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 5))]
    lm = [e for e in lm if any(e)]
    if finite:
        lm += [tuple(rng.randint(1, 4) if k == v else 0 for k in range(nvars))
               for v in range(nvars)]
    return lm


@pytest.mark.parametrize("nvars", [1, 2, 3, 4, 5])
def test_layers_match_brute_force(nvars):
    rng = random.Random(nvars)
    stopped_early = 0
    for top in range(13):
        cases = [[], [(0,) * nvars]]
        cases += [random_leads(rng, nvars, finite) for finite in (False, True)
                  for _ in range(2 if nvars < 5 else 1)]
        for lm in cases:
            got = list(standard_monomial_layers(lm, nvars, top))
            assert got == brute_layers(lm, nvars, top), (lm, top)
            stopped_early += len(got) <= top
    assert stopped_early > 13  # finite-length ideals end before the top


def test_layers_edge_cases():
    assert list(standard_monomial_layers([], 2, 2)) == [[(0, 0)], [(1, 0), (0, 1)],
                                                        [(2, 0), (1, 1), (0, 2)]]
    assert list(standard_monomial_layers([(0, 0)], 2, 5)) == []  # the unit ideal
    assert list(standard_monomial_layers([], 2, -1)) == []
    assert list(standard_monomial_layers([], 0, 3)) == [[()]]
    # no top: the layers stop at the first empty one
    assert list(standard_monomial_layers([(2, 0), (0, 3)], 2)) == [
        [(0, 0)], [(1, 0), (0, 1)], [(1, 1), (0, 2)], [(1, 2)]]


def test_strand_pieces_match_graded_piece_basis():
    for quotient in ([], ["x^2 - y*z", "y^3"], ["x^2", "y^2", "z^2"], ["1"]):
        ring = Ring(["x", "y", "z"], Field(32003), quotient=quotient)
        lm = leading_monomial_ideal(IdealPresentation(ring, ring.quotient)) if quotient else []
        strands = Strands(ring)
        # out of order, and past the end of a finite quotient
        for j in (3, -1, 0, 7, 2, 9, 1):
            want = sorted(standard_monomials(lm, 3, j), key=ring.order.key, reverse=True)
            assert graded_piece_basis(ring, j) == want, (quotient, j)
            assert strands.piece(j) == want, (quotient, j)
