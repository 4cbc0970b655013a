"""Lifted filtered resolutions, the filtered tensor complex, gr, and the
exact low-degree local Tor oracle."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grtor.cli import main
from grtor.fields import CapExceededError, Field, GrtorError
from grtor.groebner import (IdealPresentation, ModulePresentation,
                            graded_twin, initial_ideal, minimal_initial_forms,
                            normal_form, standard_basis)
from grtor.filtered import (FilteredComplex, filtered_tensor, lift_resolution,
                            resolve_local_cyclic, tor_local_low)
from grtor.poly import GRADED, LOCAL, Ring
from grtor.resolution import tor_series
from grtor.spectral import page, random_filtered_complex, run_to_stability

from layers_oracle import standard_monomials
from poly_oracle import entries, monomial_multiple
from spectral_oracle import Engine, rank


def cusp_ring(cap=20):
    return Ring(["X", "Y"], setting=LOCAL, cap=cap)


def test_lift_principal_no_corrections():
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    assert fres.shifts == [(0,), (2,)]
    assert [str(p) for p in entries(L, fres.diffs[1][0], 1)] == ["X^2 - Y^3"]
    fres.check_postconditions()


def test_lift_with_unit_correction():
    # in(I) = (X^2, X*Y, Y^4) needs a third generator; lifting its first
    # syzygy forces a constant correction entry in d_2
    L = cusp_ring()
    I = IdealPresentation(L, ["X^2 + Y^3", "X*Y"])
    fres = resolve_local_cyclic(I)
    assert fres.shifts[1] == (2, 2, 4)
    assert fres.shifts[2] == (3, 5)
    fres.check_postconditions()
    units = [(a, b) for b, col in enumerate(fres.diffs[2]) for a, e in col if sum(e) == 0]
    assert units, "expected a constant entry in the corrected differential"


def test_lift_rejects_wrong_initial_forms():
    L = cusp_ring()
    I = IdealPresentation(L, ["X^2 - Y^3"])
    forms = minimal_initial_forms(graded_twin(L), standard_basis(I))
    from grtor.groebner import ModulePresentation
    from grtor.resolution import minimal_resolution
    gres = minimal_resolution(ModulePresentation.cyclic(forms[0].ring, forms), 3)
    with pytest.raises(GrtorError, match=r"generator 0 has initial form -X\^2, expected X\^2"):
        lift_resolution(gres, [L.parse("Y^3 - X^2")])


def test_lift_cap_is_at_most_the_ring_cap():
    # products are truncated at the ring's cap, so the lift and its checks
    # stop there too, and a tensor truncation past it is refused
    L = Ring(list("abcde"), Field(32003), LOCAL, cap=6)
    I = IdealPresentation(L, ["a^2 + b^3", "b^2 - c^3", "c^2 - d^3 + e^4", "d*e - a^3"])
    fres = resolve_local_cyclic(I)
    assert fres.cap == 6 and fres.length == 4
    fres.check_postconditions()
    with pytest.raises(CapExceededError, match="tensor truncation 8 exceeds the resolution cap 6"):
        filtered_tensor(fres, IdealPresentation(L, ["a - e^2", "b + c^2"]), 8)


# pairs of ideals of k[[X, Y, Z]] on which a lift that truncates in
# polynomial degree but picks its targets in filtration degree asks for a
# correction past the cap, whatever the cap
WINDOW_PAIRS = [
    ("2*Z + 2*Y*Z + 2*Y", "2*X^2 - 2*Y, -2*Y*Z^2 + 2*X^3, -2*Y^2 + X^3"),
    ("2*Y*Z^2, 2*X + X*Y - Y^2, Y^4", "-2*Z^3"),
    ("X^3 - X*Z, -Z^2 + 2*Y + 2*X, 2*Y^3 - Y^4", "-Y*Z, X^2, -2*X*Y + Z^4 + 2*Z^3"),
    ("2*X*Y - X^2*Y", "-2*Y*Z, -Y^2 - Z^3 - 2*X^2*Y, 3*Y + 2*Z + 3*X*Y"),
    ("Y*Z - Z^3, 3*Y*Z^2 - 2*Y*Z, 3*Z^2 - 2*Y^3 + X*Z", "2*X + Y - 2*Z^3"),
    ("3*Z - 2*Z^4 + X^3, 2*X*Y + 3*Y^3, 2*X^2*Y + 2*Z^3", "2*Z"),
    ("-2*Y*Z^2 - 2*X^2*Y, -2*Z^4 + 3*X*Z, X*Z + X^3 + Y^4",
     "3*X^3 + 2*Y^2 - X^2*Y, -Z + 2*Z^2 + 3*Y^2, 2*X"),
]


def _seeded_ideal(rng, variables):
    """Generators of a seeded ideal of k[[variables]]: one to three, each
    of one to three terms of degree 1 to 4."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            e = [0] * len(variables)
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(len(variables))] += 1
            terms["*".join("%s^%d" % (v, k) for v, k in zip(variables, e) if k)] = \
                rng.choice([-2, -1, 1, 2, 3])
        gens.append(" + ".join("%d*%s" % (c, m) for m, c in terms.items()))
    return ", ".join(gens)


WINDOW_SEEDS = range(16)
SEEDED_PAIRS = [(_seeded_ideal(rng, "XYZ"), _seeded_ideal(rng, "XYZ"))
                for rng in map(random.Random, WINDOW_SEEDS)]
FOUR_SEEDS = range(24)
# (variables, jmax, pair): k[[X, Y, Z]] at jmax 8, k[[A, B, C, D]] at jmax 6
WINDOW_CASES = ([("XYZ", 8, pair) for pair in WINDOW_PAIRS + SEEDED_PAIRS]
                + [("ABCD", 6, (_seeded_ideal(rng, "ABCD"), _seeded_ideal(rng, "ABCD")))
                   for rng in map(random.Random, FOUR_SEEDS)])


@pytest.mark.parametrize("case", WINDOW_CASES,
                         ids=["pair%d" % k for k in range(len(WINDOW_PAIRS))]
                         + ["seed%d" % k for k in WINDOW_SEEDS]
                         + ["four-seed%d" % k for k in FOUR_SEEDS])
def test_lift_window_is_filtration_degree(tmp_path, capsys, case):
    # truncation, corrections and postconditions all measure |e| + shift,
    # so every residual term lies in the window and has a correction: the
    # lift of each side finishes on a ring of cap 2 * jmax, and check-theorem
    # verifies and agrees in both orientations (Tor is balanced) up to imax,
    # the resolved side's length
    variables, jmax, pair = case
    if 2 * jmax != jmax + 6 + 2:
        # check-theorem's default cap, jmax + imax + 2 at imax 6, is another
        # ring: lift there too (`lift_resolution` checks its postconditions)
        ring = Ring(list(variables), Field(32003), LOCAL, cap=2 * jmax)
        for gens in pair:
            resolve_local_cyclic(IdealPresentation(ring, gens.split(",")))
    runs = []
    for m_gens, n_gens in (pair, pair[::-1]):
        job = tmp_path / "window.job"
        job.write_text("[ring]\nvariables = %s\nsetting = local\n\n[module M]\nideal = %s\n\n"
                       "[module N]\nideal = %s\n" % (" ".join(variables), m_gens, n_gens))
        code = main(["check-theorem", str(job), "--jmax", str(jmax), "--char", "32003",
                     "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), (m_gens, n_gens)
        runs.append(json.loads(out))
        assert runs[-1]["verified"] and runs[-1]["page1_matches_tor"], (m_gens, n_gens)
    a, b = runs
    for key in ("certificate", "verdict", "r_stab", "verified", "page1_matches_tor"):
        assert a[key] == b[key], key
    for key in ("page1", "tor_graded"):
        assert (a[key]["jmax"], a[key]["terms"]) == (b[key]["jmax"], b[key]["terms"]), key
    if a["validity_window"] == b["validity_window"]:
        assert a["boundary_indeterminate"] == b["boundary_indeterminate"]
        assert a["page_infinity"]["terms"] == b["page_infinity"]["terms"]
    else:
        # one tensor complex is exact (its window is jmax), the other a
        # truncation: page infinity agrees on the cells the truncation settles
        assert pair not in WINDOW_PAIRS and jmax in (a["validity_window"], b["validity_window"])
        flagged = {tuple(c) for run in runs for c in run["page_infinity_indeterminate"]}
        settled = [[t for t in run["page_infinity"]["terms"] if tuple(t[:2]) not in flagged]
                   for run in runs]
        assert settled[0] == settled[1]


@pytest.mark.parametrize("seed", WINDOW_SEEDS)
def test_check_theorem_over_qq_matches_f32003(tmp_path, capsys, seed):
    # the seeded pairs have small integer coefficients and no rank of their
    # runs drops mod 32003, so each run prints the same bytes and exits
    # the same over QQ and F_32003
    job = tmp_path / "pair.job"
    job.write_text("[ring]\nvariables = X Y Z\nsetting = local\n\n[module M]\nideal = %s\n\n"
                   "[module N]\nideal = %s\n" % SEEDED_PAIRS[seed])
    runs = []
    for field in ([], ["--char", "32003"]):
        code = main(["check-theorem", str(job), "--jmax", "8", "--format", "json"] + field)
        runs.append((code,) + capsys.readouterr())
    assert runs[0] == runs[1]


def test_tensor_unit_module_is_resolution_itself():
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    Lc = filtered_tensor(fres, None, 8)
    # L_i = F_i with the shifted filtration: dims are full polynomial strata
    assert Lc.dim(0) == sum(j + 1 for j in range(9))
    assert min(Lc.levels[1]) == 2


def test_tensor_worked_example_shape():
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    N = IdealPresentation(L, ["X^2 - Y^5"])
    Lc = filtered_tensor(fres, N, 12)
    assert Lc.truncated_at == 12
    assert Lc.dim(0) == 25 and Lc.dim(1) == 21
    assert max(max(s) for s in fres.shifts) == 2


def test_tensor_cap_insufficiency():
    L = cusp_ring(cap=10)
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    with pytest.raises(CapExceededError, match="tensor truncation 11 exceeds the resolution cap 10"):
        filtered_tensor(fres, None, 11)


def test_tensor_m_stability_by_rank():
    # level j+1 span equals m * (level j span) past the stability bound;
    # the x_v actions on L_i = F_i (x) N are built here from normal forms
    j_max = 10
    L = cusp_ring(j_max)
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    N = IdealPresentation(L, ["X^2 - Y^5"])
    Lc = filtered_tensor(fres, N, j_max)
    nb = standard_basis(N)
    lm = [g.leading_monomial() for g in nb]
    basis_n = [u for d in range(j_max + 1) for u in standard_monomials(lm, 2, d)]
    field = Lc.field
    for i in range(Lc.i_max + 1):
        term = [(b, u) for b, s in enumerate(fres.shifts[i]) for u in basis_n
                if s + sum(u) <= j_max]
        assert [fres.shifts[i][b] + sum(u) for b, u in term] == list(Lc.levels[i])
        index = {key: k for k, key in enumerate(term)}
        n = len(term)
        for j in range(max(max(s) for s in fres.shifts), Lc.j_max):
            cols = []
            for v in ((1, 0), (0, 1)):
                for b, u in term:
                    if fres.shifts[i][b] + sum(u) < j:
                        continue
                    col = [field.zero] * n
                    prod = normal_form(monomial_multiple(L.monomial(u), v), nb)
                    for e, c in prod.terms.items():
                        if (b, e) in index:
                            col[index[(b, e)]] = c
                    cols.append(col)
            got = rank(field, [[col[r] for col in cols] for r in range(n)]) if cols else 0
            expected = sum(1 for lv in Lc.levels[i] if lv >= j + 1)
            assert got == expected, (i, j)


def test_gr_complex_matches_page_one():
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 + Y^3", "X*Y"]))
    N = IdealPresentation(L, ["X^2 - Y^5"])
    Lc = filtered_tensor(fres, N, 9)
    # page 1 of the truncation is exact on the whole grid (j + 1 <= T + 1)
    p1 = page(Lc, 1)
    assert not p1.indeterminate
    assert p1.dims == Engine(Lc).page_dims(1)


def test_gr_complex_zero_differential():
    F = Field(0)
    Lc = FilteredComplex(F, [[0, 1], [2]], [None, [{}]], 2)
    hs = page(Lc, 1).dims
    assert hs.coefficients == {(0, 0): 1, (0, 1): 1, (1, 2): 1}


def test_strictly_filtered_gr_equals_homology_of_gr():
    # strictly compatible differential: gr homology equals gr of homology
    F = Field(0)
    one = F.one
    Lc = FilteredComplex(F, [[1, 0], [1, 0]], [None, [{0: one}, {1: one}]], 1)
    assert page(Lc, 1).dims == run_to_stability(Lc).page_infinity.dims


def test_tor_local_low_worked_example():
    L = cusp_ring()
    I = IdealPresentation(L, ["X^2 - Y^3"])
    J = IdealPresentation(L, ["X^2 - Y^5"])
    low = tor_local_low(I, J, 12)
    assert low.tor0_colength == 6
    assert {j: low.series.get(0, j) for j in range(5)} == {0: 1, 1: 2, 2: 2, 3: 1, 4: 0}
    assert all(low.series.get(1, j) == 0 for j in range(13))


def test_tor_local_low_self_pair_shifted_series():
    # Tor_1(R/(f), R/(f)) = (f)/(f^2): series is the quotient series shifted
    # by ord(f)
    L = cusp_ring()
    I = IdealPresentation(L, ["X^2 - Y^3"])
    low = tor_local_low(I, I, 10)
    expected = {2: 1}
    expected.update({j: 2 for j in range(3, 11)})
    assert {j: low.series.get(1, j) for j in range(2, 11)} == expected


def test_self_pair_spectral_fates_are_flagged_not_zeroed():
    # the self-pair differential acts by zero: every homological-degree-1
    # unit survives in truth, but the truncated complex alone cannot rule
    # out cancellations past the cap, so those cells must come back
    # flagged indeterminate (the low-Tor oracle is the i <= 1 route)
    L = cusp_ring(cap=22)
    I = IdealPresentation(L, ["X^2 - Y^3"])
    run = run_to_stability(filtered_tensor(resolve_local_cyclic(I), I, 14))
    assert len(run.certificate) == 0
    assert bool(run.verified)
    for j in range(2, run.window_j + 1):
        assert (1, j) in run.page_infinity.indeterminate
    # degree-zero fates are always determinate and match the oracle
    low = tor_local_low(I, I, 14)
    for j in range(run.window_j + 1):
        assert run.page_infinity.dims.get(0, j) == low.series.get(0, j)


def test_tor_local_low_unit_sum():
    L = cusp_ring()
    I = IdealPresentation(L, ["X"])
    J = IdealPresentation(L, ["Y - 1"])  # a unit locally
    low = tor_local_low(I, J, 8)
    assert low.tor0_colength == 0
    assert low.series.coefficients.get((0, 0), 0) == 0
    assert all(low.series.get(1, j) == 0 for j in range(9))


def test_tor_local_low_refuses_a_series_past_the_cap():
    # past the cap the leads are unknown: at cap 3 Tor_1 would read 2 at
    # every j = 4..8, where cap 12 gives 0 at 4, 1 at 5 and 0 past that
    low = {}
    for cap in (3, 12):
        L = Ring(["x", "y"], setting=LOCAL, cap=cap)
        I = IdealPresentation(L, ["x*y", "x^3 + y^4"])
        J = IdealPresentation(L, ["x", "y^2"])
        with pytest.raises(CapExceededError,
                           match="series truncation %d exceeds the cap %d" % (cap + 1, cap)):
            tor_local_low(I, J, cap + 1)
        with pytest.raises(CapExceededError,  # a cap argument is checked too
                           match="series truncation 8 exceeds the cap 3"):
            tor_local_low(I, J, 8, cap=3)
        low[cap] = tor_local_low(I, J, min(8, cap)).series
    assert low[3].coefficients == {c: v for c, v in low[12].coefficients.items() if c[1] <= 3}
    assert [low[12].get(1, j) for j in range(4, 9)] == [0, 1, 0, 0, 0]


def test_tor_local_low_cap_argument_reads_as_a_ring_of_that_cap():
    # a term of order past the cap is zero in R/m^{cap+1}: a cap below the
    # ring's gives what a ring of that cap gives, where the product and the
    # intersection used to keep generators of higher order and be refused
    L = Ring(["x", "y"], setting=LOCAL, cap=12)
    low = tor_local_low(IdealPresentation(L, ["x*y", "x^3 + y^4"]),
                        IdealPresentation(L, ["x", "y^2"]), 3, cap=3)
    assert low.series.coefficients == {(0, 0): 1, (0, 1): 1, (1, 2): 1, (1, 3): 2}
    pairs = [(["x*y", "z^2 - x^3"], ["x + y^2", "z"]),
             (["x^2 - y^3", "y*z"], ["x", "y^2 + z^3"]),
             (["x*y*z", "x^2 + y^2 + z^2"], ["x - z^2", "y"]),
             (["x*y - z^3", "x^2 + z^2"], ["y", "z^2 - x^3"])]
    for gens_i, gens_j in pairs:
        for cap in (3, 4, 5):
            lows = []
            for ring_cap in (14, cap):
                R = Ring(["x", "y", "z"], setting=LOCAL, cap=ring_cap)
                lows.append(tor_local_low(IdealPresentation(R, gens_i),
                                          IdealPresentation(R, gens_j), cap, cap=cap))
            assert lows[0].series == lows[1].series, (gens_i, gens_j, cap)
            assert lows[0].tor0_colength == lows[1].tor0_colength, (gens_i, gens_j, cap)


def test_serialization_roundtrip():
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    Lc = filtered_tensor(fres, IdealPresentation(L, ["X^2 - Y^5"]), 8)
    text = Lc.to_text()
    back = FilteredComplex.from_text(text)
    assert back.to_text() == text
    assert back.levels == Lc.levels
    assert back.truncated_at == 8


def test_from_text_rejects_garbage():
    with pytest.raises(GrtorError, match="not a filtered-complex serialization"):
        FilteredComplex.from_text("nonsense\n")
    head = "filtered-complex\nfield QQ\nimax 1\njmax 1\ntruncated 0\n"
    terms = "term 0 dim 1 levels 1\nterm 1 dim 1 levels 0\n"
    assert FilteredComplex.from_text(head + terms + "diff 1 nnz 1\n0 0 1\n").dim(1) == 1
    bad = "bad line in filtered-complex text: "
    for body, message in [
            (terms + "diff 1 nnz 2\n0 0 1\n", "ends inside a diff block"),
            ("diff 1 nnz 1\n0 0 1\n" + terms, bad + "'diff 1 nnz 1'"),  # diff before its terms
            (terms + "diff 1 nnz 1\n-1 0 1\n", bad + "'-1 0 1'"),       # negative row
            (terms + "diff 1 nnz 1\n0 -1 1\n", bad + "'0 -1 1'"),       # negative column
            (terms + "diff 1 nnz 1\n0 5 1\n", bad + "'0 5 1'"),         # column past L_1
            (terms + "diff 1 nnz 1\n5 0 1\n", bad + "'5 0 1'"),         # row past L_0
            (terms + "diff 1 nnz 1\n0 0 1/0\n", bad + "'0 0 1/0'"),     # no such scalar
            (terms + "diff 1 nnz -1\n", bad + "'diff 1 nnz -1'"),       # negative count
            (terms + "term 2 dim 1 levels 0\n", "'term 2' line outside 0..1"),
            (terms + "term -1 dim 1 levels 0\ndiff 0 nnz 0\n", "'term -1' line outside 0..1"),
            (terms.replace("dim 1", "dim one"), bad + "'term 0 dim one levels 1'")]:
        with pytest.raises(GrtorError, match=re.escape(message)):
            FilteredComplex.from_text(head + body)


def test_from_text_drops_zeros_and_keeps_the_last_repeat():
    head = ("filtered-complex\nfield QQ\nimax 1\njmax 2\ntruncated 0\n"
            "term 0 dim 2 levels 1 2\nterm 1 dim 2 levels 0 1\n")
    L = FilteredComplex.from_text(head + "diff 1 nnz 6\n"
                                  "1 1 5\n0 1 2\n0 0 0\n1 0 4\n0 1 -1/2\n1 1 0\n")
    assert L.diffs[1] == [{1: 4}, {0: L.field.parse("-1/2")}]
    text = head + "diff 1 nnz 2\n0 1 -1/2\n1 0 4\n"  # row-major
    assert L.to_text() == text
    assert FilteredComplex.from_text(text).to_text() == text


def _fc_mutation(lines, draw):
    """One random edit of a serialized complex below its first line."""
    if len(lines) < 2:
        return lines
    k = draw(st.sampled_from(range(1, len(lines))))
    kind = draw(st.sampled_from(["drop", "repeat", "swap", "cut", "token", "token", "token"]))
    if kind == "cut":
        return lines[:k]
    if kind == "drop":
        return lines[:k] + lines[k + 1:]
    if kind == "repeat":
        return lines[:k + 1] + lines[k:]
    if kind == "swap":
        m = draw(st.sampled_from(range(1, len(lines))))
        out = list(lines)
        out[k], out[m] = out[m], out[k]
        return out
    parts = lines[k].split() or [""]
    t = draw(st.integers(0, len(parts) - 1))
    parts[t] = draw(st.one_of(st.integers(-3, 40).map(str),
                              st.sampled_from(["", "0", "1/0", "2/3", "x", "QQ", "Fp",
                                               "term", "diff", "nnz"])))
    return lines[:k] + [" ".join(parts)] + lines[k + 1:]


@pytest.fixture(scope="module")
def fc_texts():
    ring = cusp_ring(cap=12)
    fres = resolve_local_cyclic(IdealPresentation(ring, ["X^2 + Y^3", "X*Y"]))
    tensor = filtered_tensor(fres, IdealPresentation(ring, ["X^2 - Y^5"]), 6)
    randoms = [random_filtered_complex(seed, i_max=3, max_dim=4, max_level=4)
               for seed in range(3)]
    return [L.to_text().splitlines() for L in [tensor] + randoms]


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_from_text_fuzz_raises_only_lift_errors(fc_texts, data):
    # malformed .fc text ends in GrtorError and nothing else; text that
    # parses describes a valid complex and round-trips
    lines = data.draw(st.sampled_from(fc_texts))
    for _ in range(data.draw(st.integers(1, 3))):
        lines = _fc_mutation(lines, data.draw)
    try:
        L = FilteredComplex.from_text("\n".join(lines) + "\n")
    except GrtorError:
        return
    assert FilteredComplex.from_text(L.to_text()).to_text() == L.to_text()


def test_unit_ideal_has_no_resolution_to_lift():
    with pytest.raises(GrtorError, match="R/I is zero: the ideal contains a unit"):
        resolve_local_cyclic(IdealPresentation(cusp_ring(), ["1 + X"]))


def test_ideal_without_generators_has_no_resolution_to_lift():
    # R/(0) = R: there is no first differential to lift
    with pytest.raises(GrtorError, match="R/I is R: the ideal has no generators"):
        resolve_local_cyclic(IdealPresentation(cusp_ring(), []))


def test_minimal_initial_forms_keep_the_elements_they_come_from():
    # the standard basis of (X^2 - Y^2, X*Y) ends in X^3, a lead no other
    # lead divides, but X^3 = X(X^2 - Y^2) + Y(X*Y) among the initial forms
    L = cusp_ring()
    basis = standard_basis(IdealPresentation(L, ["X^2 - Y^2", "X*Y"]))
    assert [str(g) for g in basis] == ["Y^2 - X^2", "X*Y", "X^3"]
    forms = minimal_initial_forms(graded_twin(L), basis)
    assert [str(f) for f in forms] == ["-X^2 + Y^2", "X*Y"]
    assert all(f.ring.setting == GRADED for f in forms)
    assert minimal_initial_forms(graded_twin(L), []) == []


def test_lift_starts_from_the_relations_the_resolution_keeps():
    # every initial form of the standard basis goes to the graded
    # resolution once; d_1 keeps the first two, so X^3 is not lifted
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^2", "X*Y"]))
    assert fres.graded.kept_relations == [0, 1]
    assert [str(entries(L, col, 1)[0]) for col in fres.diffs[1]] == ["Y^2 - X^2", "X*Y"]
    assert fres.shifts == [(0,), (2, 2), (4,)]


def test_filtered_complex_validates():
    F = Field(0)
    # differential dropping the level (target 0 < source 1) is not filtered
    with pytest.raises(GrtorError, match=r"differential 1 is not filtered at \(0,0\)"):
        FilteredComplex(F, [[0], [1]], [None, [{0: F.one}]], 1)
    # d o d != 0 is rejected
    with pytest.raises(GrtorError, match="d o d nonzero in the filtered complex at degree 2"):
        FilteredComplex(F, [[0], [0], [0]],
                        [None, [{0: F.one}], [{0: F.one}]], 1)
    # level outside 0..j_max is rejected
    with pytest.raises(GrtorError, match=r"basis level 5 outside 0\.\.1"):
        FilteredComplex(F, [[5]], [None], 1)
    # a column per basis vector of L_1, rows inside L_0, no stored zeros
    for cols in ([], [{1: F.one}], [{0: F.zero}]):
        with pytest.raises(GrtorError, match="differential 1 has the wrong shape"):
            FilteredComplex(F, [[1], [0]], [None, cols], 1)


def test_one_changed_entry_of_an_exact_complex_breaks_d_squared():
    ring = Ring(["X", "Y", "Z"], Field(32003), LOCAL, cap=24)
    fres = resolve_local_cyclic(IdealPresentation(ring, ["X*Y - Z^3", "X^2 - Y^3", "Y*Z"]))
    Lc = filtered_tensor(fres, IdealPresentation(ring, ["X^3", "Y^3", "Z^3"]), 16)
    assert Lc.truncated_at is None
    d1, d2 = Lc.diffs[1], Lc.diffs[2]
    c, r = next((c, r) for c, col in enumerate(d2) for r in col if d1[r])
    changed = [dict(col) for col in d2]
    changed[c][r] = Lc.field.add(changed[c][r], changed[c][r])  # doubled
    with pytest.raises(GrtorError, match="d o d nonzero in the filtered complex at degree 2"):
        FilteredComplex(Lc.field, Lc.levels, [None, d1, changed] + Lc.diffs[3:], Lc.j_max)


def test_low_tor_oracle_matches_pipeline_degree_zero():
    # tor_local_low's gr(Tor_0) series equals the spectral pipeline's i = 0
    # output inside the reliability window
    L = cusp_ring(cap=24)
    for gens_m, gens_n in ((["X^2 - Y^3"], ["X^2 - Y^5"]),
                           (["X^2 + Y^3", "X*Y"], ["X^2 - Y^3"]),
                           (["X - Y^2"], ["Y^3 - X^4"])):
        I = IdealPresentation(L, gens_m)
        J = IdealPresentation(L, gens_n)
        fres = resolve_local_cyclic(I)
        Lc = filtered_tensor(fres, J, 12)
        run = run_to_stability(Lc)
        low = tor_local_low(I, J, 12)
        for j in range(run.window_j + 1):
            assert run.page_infinity.dims.get(0, j) == low.series.get(0, j), (gens_m, gens_n, j)


def test_induced_filtration_on_homology_is_stable_in_window():
    # Artin-Rees, testably: for the m-primary worked example the induced
    # filtration on H_0 has gr concentrated in low degrees; the window tail
    # is empty
    L = cusp_ring()
    fres = resolve_local_cyclic(IdealPresentation(L, ["X^2 - Y^3"]))
    Lc = filtered_tensor(fres, IdealPresentation(L, ["X^2 - Y^5"]), 12)
    run = run_to_stability(Lc)
    for j in range(4, run.window_j + 1):
        assert run.page_infinity.dims.get(0, j) == 0


def _random_local_poly(rng, ring, low, high):
    p = ring.zero()
    while p.is_zero():
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(low, high)
            a = rng.randint(0, d)
            p = p + ring.monomial((a, d - a), rng.choice([1, -1, 2, -3]))
    return p


def test_random_local_pairs_match_graded_tor_and_low_tor():
    # seeded random two-variable pairs: the complex validates (d o d = 0 and
    # filtered), page 1 is graded Tor of the initial ideals on the window,
    # the run verifies, and E-infinity in i <= 1 equals the ideal-arithmetic
    # Tor_0 and Tor_1 on every cell the run does not flag; seeds 71 and 77
    # broke d o d = 0 while the tensor used a weak normal form
    j_max, i_max = 8, 2
    field = Field(32003)
    for seed in range(80):
        rng = random.Random(seed)
        ring = Ring(["X", "Y"], field, LOCAL, cap=j_max + i_max + 2)
        I = IdealPresentation(ring, [_random_local_poly(rng, ring, 2, 5)
                                     for _ in range(rng.randint(1, 2))])
        J = IdealPresentation(ring, [_random_local_poly(rng, ring, 1, 4)
                                     for _ in range(rng.randint(1, 2))])
        Lc = filtered_tensor(resolve_local_cyclic(I), J, j_max)
        run = run_to_stability(Lc)
        gring = graded_twin(ring)
        graded = tor_series(ModulePresentation.cyclic(gring, initial_ideal(I).generators),
                            ModulePresentation.cyclic(gring, initial_ideal(J).generators),
                            i_max, j_max)
        for i in range(min(i_max, run.page1.dims.i_max) + 1):
            for j in range(j_max):
                assert run.page1.dims.get(i, j) == graded.get(i, j), (seed, i, j)
        assert run.verified, seed
        low = tor_local_low(I, J, j_max)
        for i in (0, 1):
            for j in range(run.window_j + 1):
                if (i, j) not in run.page_infinity.indeterminate:
                    assert run.page_infinity.dims.get(i, j) == low.series.get(i, j), (seed, i, j)
