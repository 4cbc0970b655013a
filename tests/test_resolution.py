"""Minimal resolutions, Betti tables, Tor series, stable-ideal closed forms."""

import random

import pytest

from grtor.fields import Field, GrtorError
from grtor.filtered import FilteredResolution, resolve_local_cyclic
from grtor.groebner import (IdealPresentation, ModulePresentation,
                            NormalFormTable, groebner_basis, minimal_generator_indices,
                            quotient_groebner, quotient_table)
from grtor.poly import LOCAL, Ring
from grtor.resolution import (GradedFreeResolution, free_basis,
                              betti_series, closed_form_tor_series,
                              compose, minimal_generators, minimal_resolution,
                              tor_series)

from ek_oracle import ek_betti_stable
from generators_oracle import sparse_minimal_generators
from layers_oracle import monomials_of_degree
from matmul_oracle import matmul_poly
from poly_oracle import column, matrix
from presentation_oracle import minimize_presentation
from series_oracle import series_from_layers


def test_resolution_principal_quadric():
    R = Ring(["x", "y"])
    res = minimal_resolution(ModulePresentation.cyclic(R, ["x^2"]), 4)
    assert res.shifts == [(0,), (2,)]
    assert betti_series(res).coefficients == {(0, 0): 1, (1, 2): 1}


def test_resolution_free_module():
    R = Ring(["x", "y"])
    res = minimal_resolution(ModulePresentation(R, 2, (0, 1), []), 4)
    assert res.length == 0
    assert betti_series(res).coefficients == {(0, 0): 1, (0, 1): 1}


def test_resolution_koszul():
    R = Ring(["x", "y"])
    res = minimal_resolution(ModulePresentation.cyclic(R, ["x", "y"]), 4)
    assert betti_series(res).coefficients == {(0, 0): 1, (1, 1): 2, (2, 2): 1}


def test_resolution_periodic_hypersurface():
    R = Ring(["x"], quotient=["x^3"])
    res = minimal_resolution(ModulePresentation.cyclic(R, ["x"]), 6)
    assert [s[0] for s in res.shifts] == [0, 1, 3, 4, 6, 7, 9]


def test_resolution_differentials_compose_to_zero():
    R = Ring(["x", "y"], quotient=["x^3"])
    res = minimal_resolution(ModulePresentation.cyclic(R, ["x^2", "x*y^2"]), 4)
    for i in range(2, res.length + 1):
        prod = matmul_poly(R, matrix(R, res.diffs[i - 1], res.rank(i - 2)),
                           matrix(R, res.diffs[i], res.rank(i - 1)))
        assert all(p.is_zero() for row in prod for p in row)


def test_betti_zero_module():
    R = Ring(["x", "y"])
    # presentation of the zero module: generator killed by a unit
    res = minimal_resolution(ModulePresentation(R, 1, (0,), [["1"]]), 3)
    assert betti_series(res).coefficients == {}


def test_minimality_means_tor_of_k_equals_betti():
    R = Ring(["x", "y"], quotient=["x^3"])
    m = ModulePresentation.cyclic(R, ["x^2", "x*y"])
    res = minimal_resolution(m, 4)
    k = ModulePresentation.cyclic(R, ["x", "y"])
    tor = tor_series(m, k, 4, 10)
    betti = betti_series(res, 4, 10)
    assert tor == betti


def test_tor_series_pair_of_quadric_quotients():
    R = Ring(["x", "y"])
    m = ModulePresentation.cyclic(R, ["x^2"])
    t = tor_series(m, m, 2, 10)
    layer1 = {j: 2 for j in range(3, 11)}
    layer1[2] = 1
    expected = series_from_layers(2, 10, {
        0: {j: (1 if j == 0 else 2) for j in range(11)},
        1: layer1,
    })
    assert t == expected


def test_tor_free_first_argument():
    R = Ring(["x", "y"])
    free = ModulePresentation(R, 1, (0,), [])
    n = ModulePresentation.cyclic(R, ["x^2"])
    t = tor_series(free, n, 3, 6)
    assert all(i == 0 for (i, _j) in t.coefficients)
    t2 = tor_series(n, free, 3, 6)
    assert t == t2


def test_tor_k_over_quadric_hypersurface():
    R = Ring(["x"], quotient=["x^2"])
    k = ModulePresentation.cyclic(R, ["x"])
    t = tor_series(k, k, 6, 8)
    assert t.coefficients == {(i, i): 1 for i in range(7)}


def test_tor_symmetry():
    R = Ring(["x", "y"])
    a = ModulePresentation.cyclic(R, ["x^2"])
    b = ModulePresentation.cyclic(R, ["y^3"])
    c = ModulePresentation.cyclic(R, ["x*y", "y^2"])
    # balance of Tor: both argument orders give the same series
    assert tor_series(a, b, 3, 8) == tor_series(b, a, 3, 8)
    assert tor_series(a, c, 2, 6) == tor_series(c, a, 2, 6)


def test_ek_stable_family_strand():
    R = Ring(["x1", "x2", "x3"])
    I = IdealPresentation(R, ["x1^3", "x1^2*x2", "x1^2*x3"])
    ek = ek_betti_stable(I)
    # m = 3 generators in degree d = 3; first syzygies C(m,2) = 3 in degree d+1
    assert ek.get(0, 3) == 3
    assert ek.get(1, 4) == 3
    assert ek.get(2, 5) == 1


def test_ek_principal_power():
    R = Ring(["x1", "x2"])
    ek = ek_betti_stable(IdealPresentation(R, ["x1^4"]))
    assert ek.coefficients == {(0, 4): 1}


def test_ek_two_generator_strand():
    # m = 2: the low strand is m generators in degree d and (m-1) first
    # syzygies in degree d+1
    R = Ring(["x1", "x2"])
    ek = ek_betti_stable(IdealPresentation(R, ["x1^2", "x1*x2"]))
    assert ek.coefficients == {(0, 2): 2, (1, 3): 1}


def test_ek_cross_checked_against_resolution():
    R = Ring(["x1", "x2"])
    I = IdealPresentation(R, ["x1^2", "x1*x2", "x2^2"])
    ek = ek_betti_stable(I)
    res = minimal_resolution(ModulePresentation.cyclic(R, list(I.generators)), 3)
    betti = betti_series(res)
    # module Betti numbers are the ideal's shifted by one homological degree
    for (i, j), c in ek.coefficients.items():
        assert betti.get(i + 1, j) == c
    assert betti.get(0, 0) == 1


def test_ek_rejects_unstable():
    R = Ring(["x1", "x2"])
    with pytest.raises(GrtorError, match=r"ideal is not stable: x_1 \* x2\^2 / x_2 leaves"):
        ek_betti_stable(IdealPresentation(R, ["x2^2"]))


def test_closed_form_degenerate_m1():
    s = closed_form_tor_series(1, 1, 2, 3, 4, 8)
    # middle factor 1 + z t^2; periodicity z^{2k} t^{3k}
    assert s.get(0, 0) == 1 and s.get(1, 2) == 1
    assert s.get(2, 3) == 1 and s.get(3, 5) == 1 and s.get(4, 6) == 1
    assert s.get(2, 4) == 0


def test_closed_form_validation():
    with pytest.raises(GrtorError, match="need 2 <= d < e"):
        closed_form_tor_series(2, 2, 3, 3, 4, 8)
    with pytest.raises(GrtorError, match="need 1 <= m <= n"):
        closed_form_tor_series(1, 2, 2, 3, 4, 8)


def test_closed_form_matches_engine_small():
    G = Ring(["x1", "x2"], quotient=["x1^3"])
    mM = ModulePresentation.cyclic(G, ["x1^2", "x1*x2"])
    k = ModulePresentation.cyclic(G, ["x1", "x2"])
    assert tor_series(mM, k, 6, 12) == closed_form_tor_series(2, 2, 2, 3, 6, 12)


def test_tor_series_of_a_rank_two_module_is_balanced_and_its_betti_table():
    # the one case whose N has more than one row: tensor keys (row, e) with row != 0
    R = Ring(["x", "y", "z"], Field(32003), quotient=["x^3 - y*z^2"])
    P = ModulePresentation(R, 2, (0, 1), [["x^2", "y"], ["y*z", "x"], ["0", "z^2"]])
    k = ModulePresentation.cyclic(R, ["x", "y", "z"])
    betti = betti_series(minimal_resolution(P, 4), 4, 9)
    assert tor_series(P, k, 4, 9) == tor_series(k, P, 4, 9) == betti
    assert betti.get(0, 1) == 1 and betti.total_units() > 10


def test_strand_coords_reject_a_term_outside_the_strand():
    R = Ring(["x", "y"], quotient=("x^2",))
    nf = quotient_table(R)
    index = {key: n for n, key in enumerate(free_basis(nf, (0, 1), 2))}
    vec = column([R.parse("x*y"), R.parse("x")])
    got = nf.column(vec, (0, (0, 0)), index)
    assert got == {index[(0, (0, (1, 1)))]: 1, index[(1, (0, (1, 0)))]: 1}
    # x * (x + y, 1) = (xy, x) mod x^2
    assert nf.column(column([R.parse("x + y"), R.one()]), (0, (1, 0)), index) == got
    # a term above the strand, from the vector or from the monomial, is an error
    with pytest.raises(GrtorError, match="outside the basis"):
        nf.column(column([R.parse("y^3"), R.zero()]), (0, (0, 0)), index)
    with pytest.raises(GrtorError, match="outside the basis"):
        nf.column(vec, (0, (0, 1)), index)


def _random_form(rng, ring, degree):
    """A form of the given degree with small random coefficients; often 0."""
    p = ring.zero()
    for e in monomials_of_degree(ring.nvars, degree) if degree >= 0 else ():
        if rng.random() < 0.4:
            p = p + ring.monomial(e, rng.randint(-2, 2))
    return p


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("quotient", [(), ("x^2 - y*z", "y^3")])
def test_minimal_generators_match_sparse_pivots(char, quotient):
    # the dense echelon keeps exactly the candidates sparse pivots keep, on
    # random homogeneous vectors mixed with zero vectors, combinations of
    # candidates of the same degree and monomial multiples of candidates
    rng = random.Random(7 * char + len(quotient))
    ring = Ring(["x", "y", "z"], Field(char), quotient=quotient)
    x = ring.gens()
    kept = dropped = 0
    for _ in range(15):
        shifts = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        items = []
        for _ in range(rng.randint(2, 6)):
            d = rng.randint(max(shifts), max(shifts) + 2)
            items.append(([_random_form(rng, ring, d - s) for s in shifts], d))
        for _ in range(rng.randint(2, 5)):
            (u, d), (v, e) = rng.sample(items, 2)
            if d == e:
                c = ring.const(rng.randint(1, 5))
                items.append(([c * p + q for p, q in zip(u, v)], d))
            else:
                xi = rng.choice(x)
                items.append(([xi * p for p in u], d + 1))
        items.append(([ring.zero()] * len(shifts), None))
        rng.shuffle(items)
        cols = [column(vec) for vec, _ in items]
        got = minimal_generators(quotient_table(ring), cols, shifts)
        assert got == sparse_minimal_generators(quotient_table(ring), cols, shifts)
        kept += len(got)
        dropped += len(cols) - len(got)
    assert kept > 20 and dropped > 20


def _random_presentation(rng, ring):
    """A seeded homogeneous presentation of rank 1-4 with column degrees
    0-2, and whether a relation was given a unit entry on purpose; zero
    entries, zero relations and constant entries also come by chance."""
    rank = rng.randint(1, 4)
    shifts = [rng.randint(0, 2) for _ in range(rank)]
    rels = []
    for _ in range(rng.randint(1, 5)):
        d = rng.randint(min(shifts), max(shifts) + 2)
        rels.append([_random_form(rng, ring, d - s) for s in shifts])
    unit = rng.random() < 0.5
    if unit:
        a = rng.randrange(rank)
        rel = [_random_form(rng, ring, shifts[a] - s) for s in shifts]
        rel[a] = ring.const(rng.choice([-2, -1, 1, 3]))
        rels.insert(rng.randrange(len(rels) + 1), rel)
    return ModulePresentation(ring, rank, shifts, rels), unit


@pytest.mark.parametrize("char", [0, 32003])
@pytest.mark.parametrize("quotient", [(), ("x^3",), ("x*y", "z^2")])
def test_unit_stripping_matches_the_polynomial_oracle(char, quotient):
    # the columns stripped in normal form mod J give the resolution of the
    # presentation that the polynomial Gaussian elimination strips
    rng = random.Random(101 * char + len(quotient))
    ring = Ring(["x", "y", "z"], Field(char), quotient=quotient)
    units = stripped_rank_two = 0
    for _ in range(67):
        module, unit = _random_presentation(rng, ring)
        oracle = minimize_presentation(module)
        got, want = minimal_resolution(module, 2), minimal_resolution(oracle, 2)
        assert got.shifts == want.shifts and got.diffs == want.diffs
        assert got.kept_relations == want.kept_relations
        units += unit
        stripped_rank_two += module.free_rank >= 2 and oracle.free_rank < module.free_rank
    assert 20 < units < 47 and stripped_rank_two > 10


def _form_lists(rng, field):
    """Seeded (ring, forms) cases in 2-4 variables: fresh forms, same-degree
    combinations and monomial multiples of earlier forms, in list order,
    and now and then a unit."""
    for t in range(30):
        ring = Ring(["x", "y", "z", "w"][:rng.randint(2, 4)], field)
        forms = []
        while len(forms) < 7:
            kind = rng.random()
            if not forms or kind < 0.4:
                p = _random_form(rng, ring, rng.randint(1, 3))
            elif kind < 0.7:
                f = rng.choice(forms)
                g = rng.choice([g for g in forms if g.degree() == f.degree()])
                p = ring.const(rng.randint(1, 5)) * f + g
            else:
                p = rng.choice(ring.gens()) * rng.choice(forms)
            if not p.is_zero():
                forms.append(p)
        if t % 10 == 0:
            forms.insert(rng.randrange(len(forms) + 1), ring.one())
        yield ring, forms


@pytest.mark.parametrize("char", [0, 32003])
def test_groebner_membership_matches_the_strand_echelon(char):
    # ideals choose minimal generators by Groebner membership, modules by
    # the strand echelon; both keep the same forms: by degree, in list
    # order within a degree
    rng = random.Random(11 + char)
    R = Ring(["x", "y", "z"], Field(char))
    # a minimal Groebner basis is not a minimal generating set: under
    # degrevlex, (xy, y^2 + xz) adds x^2 z = y * xy - x * (y^2 + xz)
    gb = groebner_basis(IdealPresentation(R, ["x*y", "y^2 + x*z"]))
    assert sorted(map(str, gb)) == ["x*y", "x^2*z", "y^2 + x*z"]
    kept = dropped = 0
    for ring, forms in [(R, gb)] + list(_form_lists(rng, Field(char))):
        got = minimal_generator_indices(ring, forms)
        want = minimal_generators(quotient_table(ring), [column([f]) for f in forms], (0,))
        assert got == [k for k, _deg in want]
        kept += len(got)
        dropped += len(forms) - len(got)
    assert kept > 20 and dropped > 20


def test_resolution_validates_dd_zero():
    R = Ring(["x", "y"])
    z, o = R.zero(), R.one()
    with pytest.raises(GrtorError, match="d o d is nonzero at homological degree 2"):
        GradedFreeResolution(
            R, [(0,), (1,), (2,)],
            [None, [column([R.parse("x")])], [column([R.parse("y")])]], 2)


G4_QUADRICS = ["a^2 + b*c", "b^2 - c*d", "c^2 + a*d", "a*b + c*d"]


def _stable_pair(n, m, d, e, field):
    xs = ["x%d" % (k + 1) for k in range(n)]
    G = Ring(xs, field, quotient=["x1^%d" % e])
    gens = ["x1^%d" % d] + ["x1^%d*%s" % (d - 1, xs[k]) for k in range(1, m)]
    return ModulePresentation.cyclic(G, gens), ModulePresentation.cyclic(G, xs)


def _g4_pair(field, swap):
    R = Ring(["a", "b", "c", "d"], field)
    quadrics = ModulePresentation.cyclic(R, G4_QUADRICS)
    k = ModulePresentation.cyclic(R, ["a", "b", "c", "d"])
    return (k, quadrics) if swap else (quadrics, k)


@pytest.mark.parametrize("pair, j_max", [
    (lambda F: _g4_pair(F, False), 8), (lambda F: _g4_pair(F, True), 8),
    (lambda F: _stable_pair(3, 3, 2, 4, F), 10), (lambda F: _stable_pair(4, 3, 2, 3, F), 8)],
    ids=["g4", "g4-swap", "stable-3324", "stable-4323"])
def test_tor_series_agrees_over_qq_and_fp(pair, j_max):
    # small integer inputs whose Tor is the same in characteristic 0 and 32003:
    # a slip in either field's arithmetic splits the two
    series = [tor_series(*pair(F), 6, j_max) for F in (Field(0), Field(32003))]
    assert series[0] == series[1] and series[0].coefficients


@pytest.mark.parametrize("m_degree, n_degree", [(-1, 0), (0, -1)])
def test_tor_series_refuses_a_negative_column_degree(m_degree, n_degree):
    # M = G(1)/(x) against N = G printed a spurious (1, 4): 5, and M = G/(x)
    # against N = G(1) printed (0, 0): 2 where Tor_0 = k[y](1) has 1
    R = Ring(["x", "y"])
    mM = ModulePresentation(R, 1, (m_degree,), [["x"]])
    mN = ModulePresentation(R, 1, (n_degree,), [])
    with pytest.raises(GrtorError, match="column degree -1 is negative"):
        tor_series(mM, mN, 3, 4)


# --- d o d through the normal-form table, against the polynomial product ----------

P = Field(32003)
L4_GENS = ["a^2 + b^3", "b^2 - c^3 + d^4", "c*d - a^3"]


def _l4_lift(cap=10):
    L = Ring(["a", "b", "c", "d"], Field(32003), LOCAL, cap=cap)
    return resolve_local_cyclic(IdealPresentation(L, L4_GENS))


def _changed(diffs, i, factor=2):
    """A copy of diffs whose d_i has one coefficient multiplied by factor:
    the lowest term of its first nonzero entry, rows first."""
    out = [None] + [[dict(col) for col in d] for d in diffs[1:]]
    a, b = min((a, b) for b, col in enumerate(out[i]) for a, _ in col)
    col = out[i][b]
    key = min(((r, e) for r, e in col if r == a), key=lambda k: (sum(k[1]), k))
    col[key] = P.mul(col[key], P.of(factor))
    return out


def _scaled(d):
    """d with entry (t, c) scaled by t + 2c + 1, so that products no longer cancel."""
    return [{(t, e): P.mul(x, P.of(t + 2 * c + 1)) for (t, e), x in col.items()}
            for c, col in enumerate(d)]


def test_changing_one_coefficient_of_d2_breaks_d_squared():
    res = minimal_resolution(_g4_pair(P, False)[0], 4)
    assert len(res.shifts) > 3
    with pytest.raises(GrtorError, match="d o d is nonzero at homological degree 2"):
        GradedFreeResolution(res.ring, res.shifts, _changed(res.diffs, 2), res.i_max)
    fres = _l4_lift()
    fres.check_postconditions()
    broken = FilteredResolution(fres.ring, fres.shifts, _changed(fres.diffs, 2), fres.graded)
    with pytest.raises(GrtorError, match="do not compose to zero"):
        broken.check_postconditions()


def test_graded_resolution_rejects_an_inhomogeneous_column_and_a_unit_entry():
    res = minimal_resolution(_g4_pair(P, False)[0], 3)
    diffs = [None] + [list(d) for d in res.diffs[1:]]
    diffs[1][0] = dict(diffs[1][0])
    diffs[1][0][(0, (1, 0, 0, 0))] = P.one  # + a in a column of degree 2
    with pytest.raises(GrtorError,
                       match=r"entry \(0,0\) at level 1 is not homogeneous of degree 2"):
        GradedFreeResolution(res.ring, res.shifts, diffs, res.i_max)
    # (x, 1) from G(-1) to G + G(-1): the second entry is a unit
    R = Ring(["x", "y"], P)
    with pytest.raises(GrtorError, match="minimal resolution has a unit entry"):
        GradedFreeResolution(R, [(0, 1), (1,)], [None, [column([R.parse("x"), R.one()])]], 1)


def _unit_cusp_lift():
    # d_2 has columns of shifts 3 and 5 into F_1 of shifts (2, 2, 4)
    L = Ring(["X", "Y"], P, LOCAL, cap=20)
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 + Y^3", "X*Y"]))
    assert fres.shifts[1:] == [(2, 2, 4), (3, 5)] and fres.length == 2
    return fres


def _plus(a, b):
    out = dict(a)
    for k, x in b.items():
        v = P.add(out.get(k, P.zero), x)
        if v:
            out[k] = v
        else:
            del out[k]
    return out


@pytest.mark.parametrize("change, message", [
    (lambda d: [d[0], {}], r"lift lost a graded entry at \(2,\d,1\)"),
    (lambda d: [d[0], _plus(d[1], d[0])], r"lift entry \(2,\d,1\) breaks the filtration"),
    (lambda d: [_plus(d[0], d[0]), d[1]],
     r"gr of the lift differs from the graded resolution at \(2,\d,0\)")],
    ids=["lost", "filtration", "gr"])
def test_lift_postconditions_reject_each_changed_column(change, message):
    # every change keeps d o d = 0, since d_2 is the top differential and
    # its new columns are combinations of the old ones
    fres = _unit_cusp_lift()
    fres.check_postconditions()
    broken = FilteredResolution(fres.ring, fres.shifts, [None, fres.diffs[1], change(fres.diffs[2])],
                                fres.graded)
    with pytest.raises(GrtorError, match=message):
        broken.check_postconditions()


@pytest.mark.parametrize("case", ["g4", "g4-swap", "stable-3324", "l4"])
def test_product_normal_forms_match_the_polynomial_product(case):
    # the d o d checks' column products d_{i-1} * col, read off one table,
    # against `Polynomial` matrix products reduced entry by entry
    if case == "l4":
        res = _l4_lift()
        ring, gb, cap = res.ring, [], res.cap
    else:
        M = _stable_pair(3, 3, 2, 4, P)[0] if case == "stable-3324" else \
            _g4_pair(P, case == "g4-swap")[0]
        res = minimal_resolution(M, 4)
        ring, gb, cap = res.ring, quotient_groebner(res.ring), None
    nf = NormalFormTable(ring, [column([g]) for g in gb], cap=cap)
    key = (0, (0,) * ring.nvars)
    nonzero = 0
    for i in range(2, len(res.diffs)):
        left, rows = res.diffs[i - 1], len(res.shifts[i - 2])
        for right in (res.diffs[i], _scaled(res.diffs[i])):
            want = matmul_poly(ring, matrix(ring, left, rows),
                               matrix(ring, right, len(res.shifts[i - 1])), gb)
            got = [nf(compose(ring.field, left, col, cap), key) for col in right]
            assert got == [{(a, (0, e)): c for a in range(rows) for e, c in want[a][b].terms.items()}
                           for b in range(len(right))]
            nonzero += sum(map(bool, got))
    assert nonzero > 0
