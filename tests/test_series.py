"""Bigraded series arithmetic and the cancellation calculus."""

import functools
import random

import pytest

from grtor.fields import GrtorError
from grtor.series import (BigradedSeries, Cancellation, CancellationCertificate,
                          decide_cancellation, decide_cancellation_bruteforce,
                          verify_certificate)

from series_oracle import add, alternating_sum, layer_sums, series_from_layers


def quadric_pair_series(j_max):
    """Tor series of the pair of quadric quotients: 1 + 2*sum t^j in the
    bottom layer plus z t^2 + 2z sum_{j>=3} t^j, truncated."""
    layers = {0: {0: 1}, 1: {2: 1}}
    for j in range(1, j_max + 1):
        layers[0][j] = 2
    for j in range(3, j_max + 1):
        layers[1][j] = 2
    return series_from_layers(1, j_max, layers)


def test_series_text_roundtrip():
    s = quadric_pair_series(6)
    assert BigradedSeries.from_text(s.to_text()) == s


def test_subtract_cancellation_basic():
    s = series_from_layers(1, 3, {0: {0: 1, 3: 1}, 1: {2: 1}})
    out = s.subtract_cancellation(Cancellation(0, 2, 3))
    assert out.coefficients == {(0, 0): 1}


def test_subtract_cancellation_invalid_direction():
    s = series_from_layers(1, 3, {0: {2: 1}, 1: {3: 1}})
    with pytest.raises(GrtorError, match=r"invalid cancellation \(i=0, a=3, b=2\): needs a < b"):
        s.subtract_cancellation(Cancellation(0, 3, 2))


def test_subtract_cancellation_insufficient():
    s = series_from_layers(1, 3, {0: {3: 1}})
    with pytest.raises(GrtorError, match=r"cancellation Cancellation\(i=0, a=2, b=3\) infeasible: "
                                         r"coefficients 0 at \(i\+1,a\), 1 at \(i,b\)"):
        s.subtract_cancellation(Cancellation(0, 2, 3))


def test_quadric_pair_reduces_to_colength_six():
    j_max = 10
    s = quadric_pair_series(j_max)
    s = s.subtract_cancellation(Cancellation(0, 2, 3))
    for j in range(3, j_max):
        for _ in range(2):
            s = s.subtract_cancellation(Cancellation(0, j, j + 1))
    # t-layer settles to 1 + 2t + 2t^2 + t^3; one boundary pair remains at j_max
    layer0 = {j: s.get(0, j) for j in range(j_max + 1) if s.get(0, j)}
    assert layer0 == {0: 1, 1: 2, 2: 2, 3: 1}
    layer1 = {j: s.get(1, j) for j in range(j_max + 1) if s.get(1, j)}
    assert layer1 == {j_max: 2}


def test_series_ops():
    s = quadric_pair_series(5)
    assert s.subtract(s).total_units() == 0
    assert add(s, s).subtract(s) == s
    # target of the worked example has alternating sum = colength 6
    target = series_from_layers(1, 5, {0: {0: 1, 1: 2, 2: 2, 3: 1}})
    assert alternating_sum(target) == 6
    assert layer_sums(target) == [6, 0]
    with pytest.raises(GrtorError, match=r"negative coefficient -2 at \(i=0, j=1\)"):
        series_from_layers(1, 5, {0: {0: 1}}).subtract(target)


def test_each_step_preserves_alternating_sum_and_drops_two_units():
    s = quadric_pair_series(8)
    out = s.subtract_cancellation(Cancellation(0, 2, 3))
    assert out.total_units() == s.total_units() - 2
    assert alternating_sum(out) == alternating_sum(s)


def test_verify_certificate_quadric_pair():
    j_max = 9
    s = quadric_pair_series(j_max)
    steps = [Cancellation(0, 2, 3)]
    for j in range(3, j_max):
        steps += [Cancellation(0, j, j + 1)] * 2
    target = series_from_layers(1, j_max, {0: {0: 1, 1: 2, 2: 2, 3: 1}, 1: {j_max: 2}})
    assert verify_certificate(s, CancellationCertificate(steps), target)


def test_verify_certificate_trivial_and_invalid():
    s = quadric_pair_series(4)
    assert verify_certificate(s, CancellationCertificate(), s)
    with pytest.raises(GrtorError, match=r"invalid cancellation \(i=0, a=3, b=2\): needs a < b"):
        CancellationCertificate([Cancellation(0, 3, 2)])
    bad = verify_certificate(s, CancellationCertificate([Cancellation(0, 0, 1)]), s)
    assert not bad and bad.reason


def test_decide_simple_feasible():
    src = series_from_layers(1, 2, {1: {1: 1}, 0: {2: 1}})
    tgt = BigradedSeries(1, 2)
    d = decide_cancellation(src, tgt)
    assert d.feasible
    assert [tuple(s) for s in d.certificate] == [(0, 1, 2)]


def test_decide_simple_infeasible():
    src = series_from_layers(1, 3, {1: {3: 1}, 0: {2: 1}})
    tgt = BigradedSeries(1, 3)
    d = decide_cancellation(src, tgt)
    assert not d.feasible
    assert d.unmatched_hard == 1          # the t^2 unit can never pair
    assert d.unmatched_boundary == 1      # z t^3 could pair past the truncation


def test_decide_negative_witness():
    src = series_from_layers(0, 2, {0: {0: 1}})
    tgt = series_from_layers(0, 2, {0: {0: 2}})
    d = decide_cancellation(src, tgt)
    assert not d.feasible
    assert d.negative_cell == (0, 0)


def test_decide_bounds_mismatch():
    with pytest.raises(GrtorError, match="truncation mismatch between source and target"):
        decide_cancellation(BigradedSeries(1, 2), BigradedSeries(1, 3))


def random_series(rng, i_max, j_max, units):
    s = BigradedSeries(i_max, j_max)
    for _ in range(units):
        i = rng.randint(0, i_max)
        j = rng.randint(0, j_max)
        s._set(i, j, s.get(i, j) + 1)
    return s


def test_decide_agrees_with_bruteforce_on_random_instances():
    rng = random.Random(101)
    for _ in range(300):
        src = random_series(rng, 3, 5, rng.randint(0, 10))
        tgt = BigradedSeries(3, 5)
        d = decide_cancellation(src, tgt)
        bf = decide_cancellation_bruteforce(src, tgt)
        assert d.feasible == bf
        if d.feasible:
            assert verify_certificate(src, d.certificate, tgt)


def _pairable(u, v):
    (h1, t1), (h2, t2) = u, v
    return (h1 == h2 + 1 and t1 < t2) or (h2 == h1 + 1 and t2 < t1)


def _exhaustive_pairings(units):
    """(fewest h = 0 units left unpaired, most pairs) over all pairings."""

    @functools.lru_cache(maxsize=None)
    def best(rest):
        if not rest:
            return 0, 0
        first, rest = rest[0], rest[1:]
        hard, pairs = best(rest)
        hard += first[0] == 0
        for k, other in enumerate(rest):
            if _pairable(first, other):
                h, p = best(rest[:k] + rest[k + 1:])
                hard, pairs = min(hard, h), max(pairs, p + 1)
        return hard, pairs

    return best(tuple(sorted(units)))


def test_unmatched_counts_match_exhaustive_pairings():
    rng = random.Random(313)
    checked = 0
    while checked < 300:
        src = random_series(rng, 4, 6, rng.randint(1, 12))
        tgt = BigradedSeries(4, 6)
        d = decide_cancellation(src, tgt)
        if d.feasible:
            continue
        units = [cell for cell, c in src.coefficients.items() for _ in range(c)]
        hard, pairs = _exhaustive_pairings(units)
        assert d.unmatched_hard == hard, units
        assert d.unmatched_hard + d.unmatched_boundary == len(units) - 2 * pairs, units
        checked += 1


def test_decision_is_invariant_under_internal_degree_shift():
    rng = random.Random(59)
    for n in range(240):
        # target + random cancellations + n % 3 stray units: feasible when
        # there are none; swapping source and target gives a negative cell
        tgt = random_series(rng, 3, 5, rng.randint(0, 3))
        src = add(random_series(rng, 3, 5, n % 3), tgt)
        for _ in range(rng.randint(0, 5)):
            i, a = rng.randint(0, 2), rng.randint(0, 4)
            src = add(src, series_from_layers(3, 5, {i + 1: {a: 1}, i: {rng.randint(a + 1, 5): 1}}))
        if n % 4 == 3:
            src, tgt = tgt, src
        c = rng.randint(1, 3)

        def shift(s):
            return BigradedSeries(s.i_max, s.j_max + c,
                                  {(i, j + c): v for (i, j), v in s.coefficients.items()})

        d = decide_cancellation(src, tgt)
        e = decide_cancellation(shift(src), shift(tgt))
        assert (e.feasible, e.unmatched_hard, e.unmatched_boundary) == \
            (d.feasible, d.unmatched_hard, d.unmatched_boundary)
        if d.negative_cell:
            assert e.negative_cell == (d.negative_cell[0], d.negative_cell[1] + c)
        if d.feasible:
            assert [tuple(s) for s in e.certificate] == \
                [(s.i, s.a + c, s.b + c) for s in d.certificate]


def test_certificate_order_independence():
    rng = random.Random(7)
    for _ in range(40):
        src = random_series(rng, 2, 4, 8)
        tgt = BigradedSeries(2, 4)
        d = decide_cancellation(src, tgt)
        if not d.feasible:
            continue
        steps = list(d.certificate)
        for _ in range(5):
            rng.shuffle(steps)
            assert verify_certificate(src, CancellationCertificate(steps), tgt)


def test_certificate_text_roundtrip():
    cert = CancellationCertificate([Cancellation(0, 2, 3), Cancellation(1, 1, 4)])
    assert CancellationCertificate.from_text(cert.to_text()) == cert


def test_non_integer_lines_raise_series_error():
    with pytest.raises(GrtorError, match="series line must be 'i j c': '1 x 2'"):
        BigradedSeries.from_text("2 4\n1 x 2\n")
    with pytest.raises(GrtorError, match="series header must be 'imax jmax': 'two 4'"):
        BigradedSeries.from_text("two 4\n")
    with pytest.raises(GrtorError, match="certificate line must be 'i a b': '0 2 3 4'"):
        CancellationCertificate.from_text("steps 1\n0 2 3 4\n")
    with pytest.raises(GrtorError, match="certificate line must be 'i a b': '0 2 b'"):
        CancellationCertificate.from_text("steps 1\n0 2 b\n")


def test_diagram_output_shape():
    s = series_from_layers(1, 3, {0: {0: 1}, 1: {2: 1}})
    d = s.to_diagram()
    assert "0:" in d and "1:" in d


def test_diagram_prints_only_rows_with_a_nonzero_cell():
    s = series_from_layers(1, 9, {0: {0: 1}, 1: {9: 2}})
    assert s.to_diagram() == ("        0   1\n"
                              "   0:   1   .\n"
                              "   8:   .   2\n")
