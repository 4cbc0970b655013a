"""Groebner bases, local standard bases, syzygies, ideal arithmetic."""

import math
import random

import pytest

from grtor.fields import CapExceededError, Field, GrtorError
from grtor.groebner import (IdealPresentation, colength,
                            groebner_basis, ideal_intersection, ideal_product,
                            initial_ideal, leading_monomial_ideal, module_groebner_basis,
                            normal_form, quotient_table, standard_basis, syzygies)
from grtor.poly import LOCAL, Ring
from grtor.resolution import free_basis

from layers_oracle import hilbert_function, monomials_of_degree
from poly_oracle import column, monomial_multiple
from spectral_oracle import kernel_basis, rank


def test_groebner_basis_reduced():
    R = Ring(["x", "y"])
    gb = groebner_basis(IdealPresentation(R, ["x^2 - y^2", "x^2"]))
    assert [str(g) for g in gb] == ["y^2", "x^2"]


def test_groebner_principal_monic():
    R = Ring(["x", "y"])
    gb = groebner_basis(IdealPresentation(R, ["2x^2 - 2y^2"]))
    assert [str(g) for g in gb] == ["x^2 - y^2"]


def test_groebner_coprime_leads():
    R = Ring(["x", "y"])
    gb = groebner_basis(IdealPresentation(R, ["x^2", "y^3"]))
    assert [str(g) for g in gb] == ["x^2", "y^3"]


def test_normal_form_linear_and_membership():
    R = Ring(["x", "y"])
    gb = groebner_basis(IdealPresentation(R, ["x^2 - y^2", "x*y"]))
    f = R.parse("x^3 + y^3")
    g = R.parse("x^2*y - 1")
    assert normal_form(f + g, gb) == normal_form(f, gb) + normal_form(g, gb)
    member = R.parse("x^3 - x*y^2")  # = x(x^2 - y^2)
    assert normal_form(member, gb).is_zero()
    assert not normal_form(R.parse("x"), gb).is_zero()


def test_local_normal_form_is_linear():
    # the tail X^2*Y^5 of Y^7 + X^2*Y^5 is reduced too, as it is on its own
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    sb = standard_basis(IdealPresentation(L, ["X^2 + Y^3"]))
    f, g = L.parse("Y^7"), L.parse("X^2*Y^5")
    assert normal_form(f + g, sb) == normal_form(f, sb) + normal_form(g, sb)
    assert normal_form(f + g, sb) == L.parse("Y^7 - Y^8")


def _truncated_colength(ring, gens, j):
    """dim k[x]/(I + m^{j+1}) by dense linear algebra: the image of I in
    k[x]/m^{j+1} is spanned by the truncated multiples x^a*g."""
    n = ring.nvars
    monos = [e for d in range(j + 1) for e in monomials_of_degree(n, d)]
    col = {e: k for k, e in enumerate(monos)}
    rows = []
    for g in gens:
        for a in monos:
            row = [ring.field.zero] * len(monos)
            for e, c in g.terms.items():
                ae = tuple(x + y for x, y in zip(a, e))
                if sum(ae) <= j:
                    row[col[ae]] = c
            rows.append(row)
    return math.comb(n + j, n) - rank(ring.field, rows)


def test_standard_basis_matches_truncated_rank_oracle():
    # sum_{d <= j} H(lm(standard_basis(I)), d) equals dim k[x]/(I + m^{j+1})
    # for every j <= cap, computed with no normal form at all
    rng = random.Random(5)
    for trial in range(30):
        nvars = 2 if trial < 20 else 3
        cap = 10 if nvars == 2 else 7
        ring = Ring(["X", "Y", "Z"][:nvars], Field(32003), LOCAL, cap=cap)
        gens = []
        for _ in range(rng.randint(1, 3)):
            g = ring.zero()
            while g.is_zero():
                for _ in range(rng.randint(1, 4)):
                    d = rng.randint(1, 5)
                    mono = rng.choice(list(monomials_of_degree(nvars, d)))
                    g = g + ring.monomial(mono, rng.randint(1, 32002))
            gens.append(g)
        lm = leading_monomial_ideal(IdealPresentation(ring, gens))
        for j in range(cap + 1):
            got = sum(hilbert_function(lm, nvars, d) for d in range(j + 1))
            assert got == _truncated_colength(ring, gens, j), (trial, j)


def test_standard_basis_pair_of_cusps():
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    I = IdealPresentation(L, ["X^2 - Y^3", "X^2 - Y^5"])
    ini = initial_ideal(I)
    assert sorted(str(g) for g in ini.generators) == ["X^2", "Y^3"]
    assert colength(I) == 6


def test_standard_basis_homogeneous_matches_groebner():
    # for homogeneous input the filtration is degenerate: the local and
    # graded computations give the same quotient Hilbert function
    L = Ring(["X", "Y"], setting=LOCAL, cap=12)
    I = IdealPresentation(L, ["X^2 - Y^2", "X*Y"])
    lm_local = leading_monomial_ideal(I)
    R = Ring(["X", "Y"])
    lm_graded = leading_monomial_ideal(IdealPresentation(R, ["X^2 - Y^2", "X*Y"]))
    for j in range(10):
        assert hilbert_function(lm_local, 2, j) == hilbert_function(lm_graded, 2, j)
    assert colength(I) == 4


def test_standard_basis_single_generator():
    L = Ring(["X", "Y"], setting=LOCAL, cap=10)
    ini = initial_ideal(IdealPresentation(L, ["X - Y^2"]))
    assert [str(g) for g in ini.generators] == ["X"]


def test_standard_basis_cap_exceeded():
    # moved onto a ring of cap 1, the generator is zero there
    L = Ring(["X", "Y"], setting=LOCAL, cap=10)
    I = IdealPresentation(L, ["X^2 - Y^3"])
    with pytest.raises(CapExceededError, match="generator X\\^2 - Y\\^3 has order beyond the cap 1"):
        standard_basis(IdealPresentation(Ring(["X", "Y"], setting=LOCAL, cap=1), I.generators))


def test_initial_ideal_homogeneous_identity():
    L = Ring(["X", "Y"], setting=LOCAL, cap=10)
    I = IdealPresentation(L, ["X^2 + Y^2"])
    ini = initial_ideal(I)
    assert [str(g) for g in ini.generators] == ["X^2 + Y^2"]


def test_initial_ideal_of_a_graded_ideal():
    # a homogeneous ideal comes back as a minimal subset of its reduced
    # Groebner basis, which here adds x^2*z = y*(x*y) - x*(y^2 + x*z)
    R = Ring(["x", "y", "z"])
    ini = initial_ideal(IdealPresentation(R, ["x*y", "y^2 + x*z"]))
    assert ini.ring is R and sorted(map(str, ini.generators)) == ["x*y", "y^2 + x*z"]
    with pytest.raises(GrtorError, match="initial_ideal over a graded ring needs a homogeneous ideal"):
        initial_ideal(IdealPresentation(R, ["x*y - z"]))


def test_initial_ideal_needs_standard_basis_completion():
    # in(I) strictly larger than the ideal of the generators' initial forms
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    I = IdealPresentation(L, ["X^2 + Y^3", "X*Y"])
    ini = initial_ideal(I)
    assert sorted(str(g) for g in ini.generators) == ["X*Y", "X^2", "Y^4"]


def test_syzygies_koszul():
    R = Ring(["x", "y"])
    syz = syzygies(R, [[R.parse("x^2")], [R.parse("y^3")]])
    assert len(syz) == 1
    assert [str(p) for p in syz[0]] == ["y^3", "-x^2"]


def test_syzygies_single_nonzerodivisor():
    R = Ring(["x", "y"])
    assert syzygies(R, [[R.parse("x^2")]]) == []


def test_syzygies_three_quadrics():
    R = Ring(["x", "y"])
    cols = [[R.parse("x^2")], [R.parse("x*y")], [R.parse("y^2")]]
    syz = syzygies(R, cols)
    # every syzygy composes to zero with the input columns
    for u in syz:
        total = R.zero()
        for p, col in zip(u, cols):
            total = total + p * col[0]
        assert total.is_zero()
    # degreewise completeness against the strand-kernel oracle
    gen_degs = [2, 2, 2]
    nf = quotient_table(R)
    zero = R.field.zero
    for degree in range(2, 7):
        src = free_basis(nf, gen_degs, degree)
        dst_index = {key: n for n, key in enumerate(free_basis(nf, (0,), degree))}
        mat_cols = [nf.column(column(cols[b]), key, dst_index) for b, key in src]
        mat = [[col.get(r, zero) for col in mat_cols] for r in range(len(dst_index))]
        expected = len(kernel_basis(R.field, mat, len(src))) if src else 0
        # span of the computed syzygies' strand vectors
        index = {key: n for n, key in enumerate(src)}
        span_cols = []
        for u in syz:
            udeg = {p.degree() + gd for p, gd in zip(u, gen_degs) if not p.is_zero()}
            if not udeg:
                continue
            ud = udeg.pop()
            for mono in monomials_of_degree(2, degree - ud):
                vec = [monomial_multiple(p, mono) for p in u]
                span_cols.append(nf.column(column(vec), (0, (0, 0)), index))
        got = rank(R.field, [[col.get(r, zero) for col in span_cols]
                             for r in range(len(index))]) if span_cols else 0
        assert got == expected


def test_syzygies_local_pair():
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    cols = [[L.parse("X^2 - Y^3")], [L.parse("X^2 - Y^5")]]
    syz = syzygies(L, cols)
    assert syz
    for u in syz:
        total = L.zero()
        for p, col in zip(u, cols):
            total = total + p * col[0]
        assert total.is_zero()


def test_ideal_ops():
    R = Ring(["x", "y"])
    A = IdealPresentation(R, ["x"])
    B = IdealPresentation(R, ["y"])
    inter = ideal_intersection(A, B)
    gb = groebner_basis(inter)
    assert [str(g) for g in gb] == ["x*y"]
    # I cap I = I up to membership
    I = IdealPresentation(R, ["x^2 - y^2", "x*y"])
    self_inter = ideal_intersection(I, I)
    gbI = groebner_basis(I)
    for g in self_inter.generators:
        assert normal_form(g, gbI).is_zero()
    gb2 = groebner_basis(self_inter)
    for g in I.generators:
        assert normal_form(g, gb2).is_zero()


def test_local_intersection_coprime_principals_is_product():
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    f = IdealPresentation(L, ["X^2 - Y^3"])
    g = IdealPresentation(L, ["X^2 - Y^5"])
    inter = ideal_intersection(f, g)
    prod = ideal_product(f, g)
    assert sorted(leading_monomial_ideal(inter)) == sorted(leading_monomial_ideal(prod))
    # hence Tor_1 = (I cap J)/(I J) = 0 degreewise
    lm_i = leading_monomial_ideal(inter)
    lm_p = leading_monomial_ideal(prod)
    for j in range(12):
        assert hilbert_function(lm_i, 2, j) == hilbert_function(lm_p, 2, j)


def test_module_groebner_and_membership():
    R = Ring(["x", "y"])
    cols = [[R.parse("x"), R.parse("y")], [R.parse("y"), R.parse("x")]]
    from grtor.groebner import module_groebner_basis, module_normal_form
    basis = module_groebner_basis(R, cols)
    member = [R.parse("x^2 - y^2"), R.zero()]  # x*(x,y) - y*(y,x)
    assert all(p.is_zero() for p in module_normal_form(member, basis))
    non_member = [R.parse("x"), R.zero()]
    assert not all(p.is_zero() for p in module_normal_form(non_member, basis))



def test_module_groebner_basis_with_coprime_vector_leads():
    # the lead terms x^2 and y*z of (x^2, y) and (y*z, x) are coprime, but
    # for vectors that does not make their S-vector reduce to zero
    R = Ring(["x", "y", "z"])
    cols = [[R.parse("x^2"), R.parse("y")], [R.parse("y*z"), R.parse("x")]]
    from grtor.groebner import module_groebner_basis, module_normal_form
    basis = module_groebner_basis(R, cols, (0, 1))
    s_vector = [R.zero(), R.parse("y^2*z - x^3")]  # y*z*(x^2, y) - x^2*(y*z, x)
    assert all(p.is_zero() for p in module_normal_form(s_vector, basis, (0, 1)))

def test_local_gr_hilbert_agreement():
    # Hilbert function of R/I (local, via the standard basis leading terms)
    # equals that of k[x]/in(I) (graded, via a Groebner basis of the
    # initial forms) degreewise: the defining property of gr
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    for gens in (["X^2 - Y^3", "X^2 - Y^5"],
                 ["X^2 + Y^3", "X*Y"],
                 ["X^3 - Y^4, X*Y^2 - Y^5".split(", ")[0], "X*Y^2 - Y^5"]):
        I = IdealPresentation(L, gens)
        lm_local = leading_monomial_ideal(I)
        ini = initial_ideal(I)
        lm_graded = leading_monomial_ideal(ini)
        for j in range(12):
            assert hilbert_function(lm_local, 2, j) == hilbert_function(lm_graded, 2, j)


def test_colength_examples():
    R = Ring(["x", "y"])
    assert colength(IdealPresentation(R, ["x^2", "y^3"])) == 6
    assert colength(IdealPresentation(R, ["x", "y", "1 + x"])) == 0  # unit ideal
    assert colength(IdealPresentation(R, ["x^2"])) == math.inf


def test_colength_tie_break_independent():
    gens = ["x^2 - y*z", "y^2 - x*z", "z^2 - x*y"]
    c_drl = colength(IdealPresentation(Ring(["x", "y", "z"]), gens))
    c_dl = colength(IdealPresentation(Ring(["x", "y", "z"], order="deglex"), gens))
    assert c_drl == c_dl


def test_colength_equals_standard_monomial_sum():
    L = Ring(["X", "Y"], setting=LOCAL, cap=16)
    I = IdealPresentation(L, ["X^2 - Y^3", "X^2 - Y^5"])
    lm = leading_monomial_ideal(I)
    total = sum(hilbert_function(lm, 2, j) for j in range(16))
    assert colength(I) == total == 6


def test_only_syzygies_track_cofactors(monkeypatch):
    # a basis that no caller expresses in its inputs builds no expressions
    import grtor.groebner as gb
    buchberger, built = gb._buchberger, []

    def spy(*args):
        basis, syz = buchberger(*args)
        built.append((args[-1], basis, syz))  # (collect_syzygies, basis, syzygies)
        return basis, syz
    monkeypatch.setattr(gb, "_buchberger", spy)
    R = Ring(["x", "y", "z"])
    L = Ring(["x", "y", "z"], setting=LOCAL, cap=8)
    gens = ["x^2 - y*z", "y^2 - x*z", "z^2 - x*y"]
    groebner_basis(IdealPresentation(R, gens))
    standard_basis(IdealPresentation(L, ["x^2 + y^3", "y^2 - z^3", "x*z - y^4"]))
    module_groebner_basis(R, [[R.parse("x"), R.parse("y")], [R.parse("y^2"), R.parse("z^2")],
                              [R.parse("z"), R.parse("x")]], (0, 1))
    assert len(built) == 3 and all(len(basis) >= 3 for _, basis, _ in built)
    assert all(not collect and g.expr is None for collect, basis, _ in built for g in basis)
    syzygies(R, [[R.parse(g)] for g in gens])
    collect, basis, syz = built[-1]
    assert collect and syz and all(g.expr for g in basis)


def _texts(vectors):
    return [[str(p) for p in u] for u in vectors]


def test_syzygies_are_pinned_on_fixed_inputs():
    # the vectors of the polynomial-list cofactor engine, recorded before
    # the cofactors became term dicts
    R = Ring(["x", "y"])
    assert _texts(syzygies(R, [[R.parse("x^2")], [R.parse("x*y")], [R.parse("y^2")]])) == [
        ["y", "-x", "0"], ["0", "y", "-x"], ["y^2", "0", "-x^2"]]
    # the rank-2 module P over k[x,y,z]/(x^3 - y z^2), the quotient adjoined
    # in each row as `minimal_resolution` does
    G = Ring(["x", "y", "z"], Field(32003), quotient=["x^3 - y*z^2"])
    cols = [[G.parse(p) for p in rel] for rel in (["x^2", "y"], ["y*z", "x"], ["0", "z^2"])]
    cols += [[q if b == a else G.zero() for b in range(2)] for q in G.quotient for a in range(2)]
    m = "32002"
    assert _texts(syzygies(G, cols, (0, 1))) == [
        ["0", "x^3 + %s*y*z^2" % m, "0", "%s*y*z" % m, "%s*x" % m],
        ["%s*x*z^2" % m, "z^3", "x*y + %s*x*z" % m, "z^2", "0"],
        ["%s*y*z^2" % m, "x^2*z", "y^2 + %s*y*z" % m, "0", "%s*z" % m],
        ["%s*x^3" % m, "x^2*z", "y^2 + %s*y*z" % m, "x^2", "y + %s*z" % m],
        ["0", "x^3 + %s*y*z^2" % m, "0", "%s*y*z" % m, "%s*x" % m],
        ["0", "0", "x^3 + %s*y*z^2" % m, "0", "%s*z^2" % m],
        ["%s*x^3*y*z" % m, "x^5", "%s*x^3*y + y^3*z" % m, "0", "%s*x^3 + y^2*z" % m]]
    # a capped local intersection: cofactor terms past the cap are dropped
    L = Ring(["X", "Y"], setting=LOCAL, cap=8)
    inter = ideal_intersection(IdealPresentation(L, ["X^2 - Y^3"]),
                               IdealPresentation(L, ["X^2 - Y^5", "X*Y^2"]))
    assert [str(g) for g in inter.generators] == [
        "-X^2*Y^4 + Y^7", "-X^2*Y^4 + Y^7", "X^3 - X*Y^3",
        "X^4 - X^2*Y^3 - X^2*Y^5 + Y^8", "X^4 - X^2*Y^3 - X^2*Y^5 + Y^8"]
