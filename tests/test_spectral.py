"""Spectral engine: pages, cancellations, stabilization, the random
complex generator, and the proof-mechanics invariants."""

import random
from collections import Counter

import pytest

from grtor.fields import Field, GrtorError
from grtor.filtered import FilteredComplex, filtered_tensor, resolve_local_cyclic
from grtor.groebner import IdealPresentation
from grtor.poly import LOCAL, Ring
from grtor.series import Cancellation
from grtor.spectral import (PageCancellation, _pairing,
                            cancellations_at_page, page,
                            random_filtered_complex, run_to_stability)
from series_oracle import alternating_sum
from spectral_oracle import (Engine, cancellations_by_page, delta_counts,
                             infinity_dims_direct, run_by_pages, to_cancellation)


def minimal_cancellation_complex():
    F = Field(0)
    return FilteredComplex(F, [[1], [0]], [None, [{0: F.one}]], 1)


def test_minimal_complex_pages():
    L = minimal_cancellation_complex()
    assert page(L, 1).dims.coefficients == {(1, 0): 1, (0, 1): 1}
    assert page(L, 2).dims.coefficients == {}
    cc, boundary = cancellations_at_page(L, 1)
    assert cc == [PageCancellation(1, 1, 0)]
    assert boundary == {}
    assert to_cancellation(cc[0]) == Cancellation(0, 0, 1)


def test_page_requires_positive_r():
    with pytest.raises(GrtorError, match="pages are indexed from r = 1"):
        page(minimal_cancellation_complex(), 0)


def test_zero_differential_complex():
    F = Field(0)
    L = FilteredComplex(F, [[0, 2], [1]], [None, [{}]], 2)
    run = run_to_stability(L)
    assert len(run.certificate) == 0
    assert run.page1.dims == run.page_infinity.dims
    assert bool(run.verified)


def test_strictly_graded_flag_degenerates():
    for seed in range(5):
        L = random_filtered_complex(seed, strictly_graded=True)
        run = run_to_stability(L)
        assert len(run.certificate) == 0
        assert run.page1.dims == run.page_infinity.dims


def test_generator_determinism():
    a = random_filtered_complex(42).to_text()
    b = random_filtered_complex(42).to_text()
    assert a == b
    c = random_filtered_complex(43).to_text()
    assert a != c


def test_generator_constructive_guarantees():
    # d^2 = 0 and the filtered-map property are asserted by the
    # FilteredComplex constructor; construction must not raise
    for seed in range(60):
        random_filtered_complex(seed, i_max=4, max_dim=6, max_level=5)


@pytest.mark.parametrize("p", [32003, 0])
def test_generator_change_of_basis_mixes(p):
    # each matched pair is one unit entry before the change of basis, and
    # d_i has rank = its pairs, so nnz >= pairs; the elementary maps spread
    # the entries, so most complexes carry more nonzeros than pairs
    mixed = 0
    for seed in range(40):
        L, model = random_filtered_complex(seed, field=Field(p), with_model=True)
        nnz = sum(len(col) for d in L.diffs[1:] for col in d)
        assert nnz >= len(model.pairs), seed
        mixed += nnz > len(model.pairs)
    assert mixed >= 30


def test_model_oracle_agreement():
    for seed in range(40):
        L, model = random_filtered_complex(seed, with_model=True)
        run = run_to_stability(L)
        assert run.page1.dims == model.expected_page1(), seed
        assert run.page_infinity.dims == model.expected_infinity(), seed
        assert Counter(run.certificate) == Counter(model.expected_certificate()), seed


def test_cancellation_page_equals_span():
    # every emitted cancellation has b - a equal to the page it came from
    for seed in range(20):
        L = random_filtered_complex(seed)
        for r in range(1, L.j_max + 1):
            cc, _ = cancellations_at_page(L, r)
            for pc in cc:
                assert pc.r == r
                assert to_cancellation(pc).page == r


def test_subquotient_monotonicity_and_conservation():
    for seed in range(20):
        L = random_filtered_complex(seed)
        prev = None
        base = None
        for r in range(1, L.j_max + 2):
            dims = page(L, r).dims
            if prev is not None:
                for (i, j), c in dims.coefficients.items():
                    assert c <= prev.get(i, j)
            alt = alternating_sum(dims)
            if base is None:
                base = alt
            assert alt == base
            prev = dims


def cancellation_counts(L, r):
    counts = {}
    for pc in cancellations_at_page(L, r)[0]:
        counts[(pc.i, pc.j)] = counts.get((pc.i, pc.j), 0) + 1
    return counts


def test_delta_count_identity():
    # the oracle's coker(iota) and ker(pi) tables, computed apart from
    # each other, both equal the cancellations read off the pairing
    for seed in range(20):
        L = random_filtered_complex(seed)
        eng = Engine(L)
        for r in range(1, L.j_max + 1):
            coker, ker = delta_counts(eng, r)
            counts = cancellation_counts(L, r)
            assert coker == counts
            assert ker == {(i - 1, j + r): c for (i, j), c in counts.items()}


def test_two_path_infinity_agreement():
    for seed in range(20):
        L = random_filtered_complex(seed)
        direct = infinity_dims_direct(L)
        assert run_to_stability(L).page_infinity.dims == direct
        assert page(L, L.j_max + 1).dims == direct


def assert_oracle_agreement(L):
    """Every page, every cancellation count and the limit page of L agree
    with the oracle on the cells the truncation leaves reliable."""
    eng = Engine(L)
    T = L.truncated_at
    grid = [(i, j) for i in range(L.i_max + 1) for j in range(L.j_max + 1)]
    for r in range(1, L.j_max + 2):
        p = page(L, r)
        if T is None:
            assert not p.indeterminate
        else:
            assert p.indeterminate == {(i, j) for (i, j) in grid if j + r > T + 1}
        expected = eng.page_dims(r)
        assert all(p.dims.get(*c) == expected.get(*c) for c in grid
                   if c not in p.indeterminate), r
        coker, ker = delta_counts(eng, r)
        reliable = {(i, j): c for (i, j), c in coker.items() if T is None or j + r <= T}
        assert cancellation_counts(L, r) == reliable, r
        assert all(ker.get((i - 1, j + r)) == c for (i, j), c in reliable.items()), r
    pinf = run_to_stability(L).page_infinity
    direct = infinity_dims_direct(L)
    assert all(pinf.dims.get(*c) == direct.get(*c) for c in grid
               if c not in pinf.indeterminate)


def test_truncated_cusps_complex_matches_oracle():
    ring = Ring(["X", "Y"], setting=LOCAL, cap=20)
    fres = resolve_local_cyclic(IdealPresentation(ring, ["X^2 - Y^3"]))
    L = filtered_tensor(fres, IdealPresentation(ring, ["X^2 - Y^5"]), 12)
    assert L.truncated_at == 12
    assert_oracle_agreement(L)


def test_exact_complex_matches_oracle():
    # (XY - Z^3, X^2 - Y^3, YZ) against (X^3, Y^3, Z^3): N has finite
    # length, so nothing is cut at jmax 16 and the complex is exact
    ring = Ring(["X", "Y", "Z"], Field(32003), LOCAL, cap=24)
    fres = resolve_local_cyclic(IdealPresentation(ring, ["X*Y - Z^3", "X^2 - Y^3", "Y*Z"]))
    L = filtered_tensor(fres, IdealPresentation(ring, ["X^3", "Y^3", "Z^3"]), 16)
    assert L.truncated_at is None
    assert_oracle_agreement(L)


def test_bookkeeping_exactness():
    for seed in range(20):
        L = random_filtered_complex(seed)
        run = run_to_stability(L)
        current = run.page1.dims.copy()
        for step in run.certificate:
            current = current.subtract_cancellation(step)
        assert current == run.page_infinity.dims


def truncations(L, T):
    """L marked as a degree-T truncation, as a `.fc` file may mark it, and
    L / L^{T+1}, the degree-<= T slice that `filtered_tensor` builds: the
    basis vectors of level <= T, and the rows of each differential at
    those levels."""
    keep = [[k for k, level in enumerate(lv) if level <= T] for lv in L.levels]
    index = [{k: n for n, k in enumerate(ks)} for ks in keep]
    diffs = [None] + [[{index[i - 1][r]: x for r, x in L.diffs[i][c].items()
                        if r in index[i - 1]} for c in keep[i]]
                      for i in range(1, L.i_max + 1)]
    levels = [[L.levels[i][k] for k in ks] for i, ks in enumerate(keep)]
    return [FilteredComplex(L.field, L.levels, L.diffs, L.j_max, truncated_at=T),
            FilteredComplex(L.field, levels, diffs, T, truncated_at=T)]


@pytest.mark.parametrize("p", [0, 32003])
def test_one_pass_run_matches_the_page_loop(p):
    # run_to_stability reads the certificate, r_stab and the boundary off one
    # pass over the pairing; the reference visits the pages one at a time
    bounded = 0
    for seed in range(30):
        L = random_filtered_complex(seed, field=Field(p), i_max=3, max_dim=8, max_level=6)
        for Lt in [L] + [c for T in range(L.j_max + 2) for c in truncations(L, T)]:
            run, ref = run_to_stability(Lt), run_by_pages(Lt)
            assert run.certificate == ref.certificate, seed
            assert (run.r_stab, run.window_j) == (ref.r_stab, ref.window_j), seed
            assert run.boundary == ref.boundary, seed
            assert run.page_infinity.dims == ref.page_infinity.dims, seed
            assert run.page_infinity.indeterminate == ref.page_infinity.indeterminate, seed
            assert (run.verified.ok, run.verified.reason) == (ref.verified.ok,
                                                              ref.verified.reason)
            bars = _pairing(Lt)
            for r in range(1, L.j_max + 3):
                assert cancellations_at_page(Lt, r) == cancellations_by_page(Lt, bars, r)
            bounded += bool(run.boundary)
    assert bounded > 100


def test_truncated_complex_window_and_boundary():
    # worked-example complex: units whose cancellation partner would live
    # past the truncation are reported as boundary-indeterminate, never
    # silently decided
    ring = Ring(["X", "Y"], setting=LOCAL, cap=20)
    fres = resolve_local_cyclic(IdealPresentation(ring, ["X^2 - Y^3"]))
    L = filtered_tensor(fres, IdealPresentation(ring, ["X^2 - Y^5"]), 12)
    run = run_to_stability(L)
    assert run.window_j == 10
    assert run.r_stab == 2
    assert run.boundary == {1: {(1, 12): 2}}
    assert {cell for bd in run.boundary.values() for cell in bd} == {(1, 12)}
    assert bool(run.verified)
    # the certificate reaches every pair with partner degree <= truncation
    assert Counter(run.certificate)[Cancellation(0, 11, 12)] == 2
    p1 = page(L, 1)
    assert (0, 12) not in p1.indeterminate  # j + r = 13 = T + 1: still exact
    assert p1.dims.get(0, 12) == 2
    assert p1.dims.get(1, 11) == 2
    p3 = page(L, 3)
    assert (0, 11) in p3.indeterminate      # j + r = 14 > T + 1
    assert (0, 10) not in p3.indeterminate
    pinf = run.page_infinity
    assert all(j <= run.window_j or (i, j) in pinf.indeterminate
               for i in range(2) for j in range(13))


def test_serialized_synthetic_complex_runs():
    L = random_filtered_complex(3)
    back = FilteredComplex.from_text(L.to_text())
    assert Counter(run_to_stability(back).certificate) == \
        Counter(run_to_stability(L).certificate)


def _submul_entry(field, col, k, f, y):
    """col[k] -= f * y, keeping only nonzero entries."""
    v = field.submul(col.get(k, field.zero), f, y)
    if v:
        col[k] = v
    else:
        col.pop(k, None)


def conjugated(L, rng, steps=3):
    """L under a random filtered change of basis of every term: a product
    of transvections v_c -> v_c + x v_r with r after c in the order
    (level, index), so unitriangular with respect to level.  On term i
    each one adds x * row c to row r of d_{i+1} and subtracts x * column
    r from column c of d_i, on the sparse columns."""
    fld = L.field
    diffs = [None] + [[dict(col) for col in d] for d in L.diffs[1:]]
    for i, lv in enumerate(L.levels):
        for _ in range(steps * len(lv) if len(lv) > 1 else 0):
            c, r = sorted(rng.sample(range(len(lv)), 2), key=lambda k: (lv[k], k))
            x = fld.of(rng.choice([-3, -1, 1, 2, 5]))
            if i < L.i_max:
                for col in diffs[i + 1]:
                    if c in col:
                        _submul_entry(fld, col, r, fld.neg(x), col[c])
            if i > 0:
                d = diffs[i]
                for row, y in d[r].items():
                    _submul_entry(fld, d[c], row, x, y)
    return FilteredComplex(fld, L.levels, diffs, L.j_max, truncated_at=L.truncated_at)


@pytest.mark.parametrize("p", [0, 32003])
def test_filtered_change_of_basis_keeps_pages_and_certificate(p):
    # the pages, r_stab and the certificate are invariants of the filtered
    # complex up to filtered isomorphism: metamorphic relation on the
    # cusps tensor complex and ten seeded complexes, each exact (marked
    # untruncated) and as both truncations at two below its top level
    field = Field(p)
    ring = Ring(["X", "Y"], field, LOCAL, cap=20)
    fres = resolve_local_cyclic(IdealPresentation(ring, ["X^2 - Y^3"]))
    bases = [filtered_tensor(fres, IdealPresentation(ring, ["X^2 - Y^5"]), 12)]
    bases += [random_filtered_complex(seed, field=field, i_max=3, max_dim=8, max_level=6)
              for seed in range(10)]
    rng = random.Random(p)
    changed = cancelled = 0
    for L in bases:
        exact = FilteredComplex(L.field, L.levels, L.diffs, L.j_max)
        for C in [exact] + truncations(L, L.j_max - 2):
            run = run_to_stability(C)
            for _ in range(2):
                D = conjugated(C, rng)
                changed += D.diffs != C.diffs
                other = run_to_stability(D)
                assert other.page1.dims == run.page1.dims
                assert other.page_infinity.dims == run.page_infinity.dims
                assert other.r_stab == run.r_stab
                assert Counter(other.certificate) == Counter(run.certificate)
            cancelled += bool(run.certificate)
    assert changed >= 40 and cancelled >= 20  # of 66 conjugations and 33 cases
