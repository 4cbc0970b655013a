"""Acceptance suite: one test per criterion, each printing a pass line
with its wall time.  All tolerances are exact integer equality."""

import itertools
import json
import random
import time

import pytest

from grtor.cli import main
from grtor.fields import Field
from grtor.groebner import IdealPresentation, ModulePresentation
from grtor.filtered import filtered_tensor, resolve_local_cyclic, tor_local_low
from grtor.poly import LOCAL, Ring
from grtor.resolution import closed_form_tor_series, tor_series
from grtor.series import (BigradedSeries, decide_cancellation,
                          decide_cancellation_bruteforce, verify_certificate)
from grtor.spectral import (cancellations_at_page, page,
                            random_filtered_complex, run_to_stability)
from series_oracle import alternating_sum, layer_sums
from spectral_oracle import Engine, delta_counts, infinity_dims_direct


def _report(tag, label, t0):
    print("[%s] %s: PASS (%.2f s)" % (tag, label, time.time() - t0))


def test_a1_graded_tor_series_of_the_quadric_pair(tmp_path, capsys):
    """Tor^G(G/(x^2), G/(x^2)) over G = k[x,y]: exactly 1 + 2*sum t^j and
    z t^2 + 2z sum_{j>=3} t^j, with an empty homological degree 2."""
    t0 = time.time()
    job = tmp_path / "a1.job"
    job.write_text("[ring]\nvariables = x y\nsetting = graded\n\n"
                   "[module M]\nideal = x^2\n\n[module N]\nideal = x^2\n")
    code = main(["tor-gr", str(job), "--imax", "2", "--jmax", "10",
                 "--format", "series"])
    out = capsys.readouterr().out
    assert code == 0
    got = BigradedSeries.from_text(out)
    expected = BigradedSeries(2, 10)
    expected._set(0, 0, 1)
    for j in range(1, 11):
        expected._set(0, j, 2)
    expected._set(1, 2, 1)
    for j in range(3, 11):
        expected._set(1, j, 2)
    assert got == expected
    assert all(i != 2 for (i, _j) in got.coefficients)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("A1", "graded Tor series of the quadric pair, exact", t0)


def test_a2_local_side_tor0_mass_six_tor1_zero():
    """R = k[X,Y] local, M = R/(X^2-Y^3), N = R/(X^2-Y^5): Tor_1 = 0 and
    gr(Tor_0) has total mass exactly 6."""
    t0 = time.time()
    ring = Ring(["X", "Y"], setting=LOCAL, cap=20)
    I = IdealPresentation(ring, ["X^2 - Y^3"])
    J = IdealPresentation(ring, ["X^2 - Y^5"])
    low = tor_local_low(I, J, 12)
    assert low.tor0_colength == 6
    assert sum(low.series.get(0, j) for j in range(13)) == 6
    assert all(low.series.get(1, j) == 0 for j in range(13))
    elapsed = time.time() - t0
    assert elapsed < 1.0
    _report("A2", "local Tor_0 mass 6 and Tor_1 = 0, exact", t0)


def test_a3_theorem_check_produces_the_printed_cancellations(tmp_path, capsys):
    """End-to-end pipeline on the pair of cusps: certificate
    {(0,2,3)} + {(0,j,j+1) x2 : 3 <= j <= window} and verdict PASS."""
    t0 = time.time()
    job = tmp_path / "a3.job"
    job.write_text("[ring]\nvariables = X Y\nsetting = local\n\n"
                   "[module M]\nideal = X^2 - Y^3\n\n"
                   "[module N]\nideal = X^2 - Y^5\n")
    code = main(["check-theorem", str(job), "--imax", "2", "--jmax", "12",
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    assert payload["verified"] is True
    assert payload["validity_window"] == 10
    # every pair (0, j, j+1) with partner degree b = j+1 inside the
    # truncation is extracted: j runs to jmax - 1
    expected = [[0, 2, 3]]
    for j in range(3, 12):
        expected += [[0, j, j + 1]] * 2
    assert sorted(map(tuple, payload["certificate"])) == sorted(map(tuple, expected))
    assert payload["page1_matches_tor"] is True
    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report("A3", "theorem check emits exactly the printed cancellations", t0)


def test_a4_stable_family_rigidity():
    """Hypersurface/stable-ideal family: engine equals the closed form for
    (n,m,d,e) = (2,2,2,3) and (3,3,2,4) on i <= 6, j <= 12; no negative
    consecutive cancellation exists; degree supports as derived."""
    t0 = time.time()
    cases = [(2, 2, 2, 3), (3, 3, 2, 4)]
    for (n, m, d, e) in cases:
        variables = ["x%d" % (k + 1) for k in range(n)]
        G = Ring(variables, quotient=["x1^%d" % e])
        gens = ["x1^%d" % d] + ["x1^%d*x%d" % (d - 1, k + 1) for k in range(1, m)]
        mM = ModulePresentation.cyclic(G, gens)
        mk = ModulePresentation.cyclic(G, variables)
        series = tor_series(mM, mk, 6, 12)
        closed = closed_form_tor_series(n, m, d, e, 6, 12)
        assert series == closed, (n, m, d, e)

        # rigidity: no single valid cancellation pair exists in the support
        cells = series.coefficients
        pairs = [((i1, a), (i0, b)) for (i1, a) in cells for (i0, b) in cells
                 if i1 == i0 + 1 and a < b]
        assert pairs == []
        # removing any adjacent-degree candidate pair is infeasible
        for (i1, a) in cells:
            for (i0, b) in cells:
                if i1 != i0 + 1:
                    continue
                target = series.copy()
                target._set(i1, a, target.get(i1, a) - 1)
                target._set(i0, b, target.get(i0, b) - 1)
                assert not decide_cancellation(series, target).feasible

        # degree supports
        for (i, j) in cells:
            if i % 2 == 1:
                k_top = (i - 1) // 2
                allowed = {k * e + d + (i - 2 * k) - 1
                           for k in range(k_top + 1) if 1 <= i - 2 * k <= m}
                assert j in allowed, (n, m, d, e, i, j)
            else:
                allowed = {(i // 2) * e} | {k * e + d + (i - 2 * k) - 1
                                            for k in range(i // 2 + 1) if 1 <= i - 2 * k <= m}
                assert j in allowed, (n, m, d, e, i, j)
        if m <= 2:
            # odd layers concentrated in the single degree (i-1)e/2 + d
            for i in range(1, 7, 2):
                degs = {j for (ii, j) in cells if ii == i}
                if degs:
                    assert degs == {(i - 1) // 2 * e + d}
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("A4", "stable-family closed form + no-cancellation rigidity", t0)


def test_a5_proof_mechanics_property_suite():
    """200 seeded random filtered complexes (dims <= 8, i_max <= 4,
    levels <= 6, F_32003): subquotient monotonicity, delta-count identity,
    bookkeeping exactness, alternating-sum conservation, two-path
    agreement -- 200/200.  The second path is the rank-table oracle in
    tests/spectral_oracle.py."""
    t0 = time.time()
    field = Field(32003)
    passes = 0
    for seed in range(200):
        L = random_filtered_complex(seed, i_max=(seed % 4) + 1, max_dim=8,
                                    max_level=6, field=field)
        run = run_to_stability(L)
        eng = Engine(L)
        # bookkeeping exactness
        current = run.page1.dims.copy()
        for step in run.certificate:
            current = current.subtract_cancellation(step)
        assert current == run.page_infinity.dims, seed
        # two-path agreement
        assert run_to_stability(L).page_infinity.dims == infinity_dims_direct(L), seed
        # every page against the oracle, monotonicity + conservation
        prev = None
        base = None
        for r in range(1, L.j_max + 2):
            dims = page(L, r).dims
            assert dims == eng.page_dims(r), (seed, r)
            if prev is not None:
                for (i, j), c in dims.coefficients.items():
                    assert c <= prev.get(i, j), seed
            alt = alternating_sum(dims)
            if base is None:
                base = alt
            assert alt == base, seed
            prev = dims
        # delta-count identity: the oracle's coker and ker counts both
        # equal the cancellations of the page
        for r in range(1, L.j_max + 1):
            coker, ker = delta_counts(eng, r)
            counts = {}
            for pc in cancellations_at_page(L, r)[0]:
                counts[(pc.i, pc.j)] = counts.get((pc.i, pc.j), 0) + 1
            assert coker == counts, seed
            for (i, j), c in coker.items():
                assert ker.get((i - 1, j + r), 0) == c, seed
        assert bool(run.verified), seed
        passes += 1
    assert passes == 200
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("A5", "proof-mechanics properties hold in 200/200 runs", t0)


@pytest.mark.slow
def test_a6_cancellation_decision_oracle():
    """Matching-based decision vs exhaustive pairing enumeration on a 4x6
    grid: every multiset of <= 6 units exhaustively, plus 2000 seeded
    random multisets of 7..12 units."""
    t0 = time.time()
    i_max, j_max = 3, 5
    cells = [(i, j) for i in range(i_max + 1) for j in range(j_max + 1)]
    zero = BigradedSeries(i_max, j_max)

    def check(units):
        src = BigradedSeries(i_max, j_max)
        for (i, j) in units:
            src._set(i, j, src.get(i, j) + 1)
        d = decide_cancellation(src, zero)
        bf = decide_cancellation_bruteforce(src, zero)
        assert d.feasible == bf, units
        if d.feasible:
            assert verify_certificate(src, d.certificate, zero), units

    count = 0
    for k in range(0, 7):
        for units in itertools.combinations_with_replacement(cells, k):
            check(units)
            count += 1
    rng = random.Random(2024)
    for _ in range(2000):
        k = rng.randint(7, 12)
        units = [rng.choice(cells) for _ in range(k)]
        check(tuple(units))
        count += 1
    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report("A6", "decision oracle agreement on %d instances" % count, t0)


def test_a7_betti_inequality_over_the_regular_local_ring():
    """10 fixed ideals in localized k[X,Y]: total Betti numbers of R/I are
    <= those of gr(R/I) layerwise, with equality exactly when the
    certificate is empty."""
    t0 = time.time()
    ideals = [
        "X^2 - Y^3, X^2 - Y^5",
        "X^2 + Y^3, X*Y",
        "X - Y^2",
        "X^2 - Y^3",
        "X^3 - Y^4, X*Y^2 - Y^5",
        "X^2, X*Y + Y^4",
        "Y^3 - X^4, X^2*Y",
        "X^2 - Y^4, X*Y^2",
        "X^3, X*Y, Y^3 - X^2*Y^2",
        "X^2 + X*Y^2, Y^2 - X^3",
    ]
    equal_cases = 0
    drop_cases = 0
    for text in ideals:
        ring = Ring(["X", "Y"], setting=LOCAL, cap=24)
        I = IdealPresentation(ring, [g.strip() for g in text.split(",")])
        k = IdealPresentation(ring, ["X", "Y"])
        fres = resolve_local_cyclic(I)
        L = filtered_tensor(fres, k, 20)
        assert L.truncated_at is None  # finite residue field tensor: exact
        run = run_to_stability(L)
        assert bool(run.verified), text
        betti_gr = layer_sums(run.page1.dims)
        betti_local = layer_sums(run.page_infinity.dims)
        assert all(a <= b for a, b in zip(betti_local, betti_gr)), text
        if len(run.certificate) == 0:
            assert betti_local == betti_gr, text
            equal_cases += 1
        else:
            assert betti_local != betti_gr, text
            drop_cases += 1
        # the certificate is made of negative consecutive cancellations with
        # the page recorded as b - a
        for step in run.certificate:
            assert step.a < step.b
    assert equal_cases and drop_cases
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("A7", "Betti inequality on 10 local ideals (%d equal, %d strict)"
            % (equal_cases, drop_cases), t0)
