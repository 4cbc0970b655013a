"""The layer builder of standard monomials (`standard_monomial_layers`)
against brute-force filtering of every monomial of each degree, and the
normal-form table's `terms` and `basis` that read it."""

import random
import time

import pytest

from grtor.fields import Field
from grtor.groebner import (IdealPresentation, ModulePresentation, NormalFormTable,
                            graded_piece_basis, leading_monomial_ideal, quotient_table,
                            standard_basis, standard_monomial_layers)
from grtor.poly import LOCAL, Ring
from grtor.resolution import GradedModulePieces

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
        table = quotient_table(ring)
        # out of order, and past the end of a finite quotient
        for j in (3, -1, 0, 7, 2, 9, 1):
            want = sorted(standard_monomials(lm, 3, j), key=ring.order.key, reverse=True)
            assert graded_piece_basis(ring, j) == want, (quotient, j)
            assert table.terms(0, j) == want, (quotient, j)


def brute_terms(ring, lms, shifts, row, degree):
    """The standard monomials of one row in one internal degree, by brute
    force, in descending ring order."""
    m = degree - shifts[row]
    if m < 0:
        return []
    return sorted(standard_monomials(lms[row], ring.nvars, m), key=ring.order.key, reverse=True)


def brute_basis(ring, lms, shifts, top):
    return [(row, e) for d in range(min(shifts), top + 1) for row in range(len(shifts))
            for e in brute_terms(ring, lms, shifts, row, d)]


def table_leads(table):
    return [[e for e, _g in table.leads.get(row, ())] for row in range(len(table.shifts))]


def check_table(table, degrees, tops):
    ring, shifts = table.ring, table.shifts
    lms = table_leads(table)
    for d in degrees:
        for row in range(len(shifts)):
            assert table.terms(row, d) == brute_terms(ring, lms, shifts, row, d), (row, d)
    for top in tops:
        assert table.basis(top) == brute_basis(ring, lms, shifts, top), top


@pytest.mark.parametrize("quotient", [[], ["x^2 - y*z", "y^3"], ["x^2", "y^2", "z^2"],
                                      ["x*y", "z^2"], ["1"]])
def test_table_terms_and_basis_of_quotient_rings(quotient):
    ring = Ring(["x", "y", "z"], Field(32003), quotient=quotient)
    # degrees asked out of order, negative and past the end; then a basis
    # read off layers that are partly built already
    check_table(quotient_table(ring), (4, -2, 0, 9, 2, 1, 12, 3), (-1, 0, 5, 8))
    check_table(quotient_table(ring), (), (6, 3))  # a basis from scratch


def test_table_terms_and_basis_of_a_local_standard_basis():
    # the table the local tensor reads N off: descending in the local order
    ring = Ring(["X", "Y", "Z"], Field(0), LOCAL, cap=10)
    basis = standard_basis(IdealPresentation(ring, ["X^2 - Y^3", "Y*Z + Z^4"]))
    table = NormalFormTable(ring, [{(0, e): c for e, c in g.terms.items()} for g in basis],
                            cap=8)
    check_table(table, (3, 0, -1, 7, 5), (8, 2))


def test_table_terms_and_basis_of_a_module():
    # row 0 holds a quotient by two relations, row 1 is killed by a unit,
    # and the shift of row 2 lies above the top of the smaller windows
    ring = Ring(["x", "y", "z"], Field(32003), quotient=["x^3 - y*z^2"])
    module = ModulePresentation(ring, 3, (1, 0, 7), [["x", "0", "0"], ["y^2", "0", "0"],
                                                     ["0", "1", "0"], ["0", "0", "z"]])
    table = GradedModulePieces(module, 9).nf
    assert table.terms(1, 0) == [] and table.terms(2, 7) == [(0, 0, 0)]
    check_table(table, (8, -1, 1, 0, 30, 7, 2, 9), (-1, 0, 3, 6, 9))
    assert all(row != 1 for row, _e in table.basis(9))
    assert max(sum(e) + table.shifts[row] for row, e in table.basis(6)) <= 6


def test_table_basis_of_a_finite_quotient_ends_where_the_quotient_ends():
    ring = Ring(["x", "y", "z"], Field(32003), quotient=["x^2", "y^3", "z^2"])
    table = quotient_table(ring)
    start = time.perf_counter()
    got = table.basis(10**8)
    assert time.perf_counter() - start < 5  # no loop over the degrees up to the top
    assert got == brute_basis(ring, table_leads(table), (0,), 5) and len(got) == 12
    assert table.basis(10**8) == got and table.terms(0, 10**8) == []
