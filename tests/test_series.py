"""Bigraded series arithmetic and the cancellation calculus."""

import random

import pytest

from grtor.series import (BigradedSeries, Cancellation, CancellationCertificate,
                          CancellationError, SeriesError, decide_cancellation,
                          decide_cancellation_bruteforce, series_from_layers,
                          verify_certificate)


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
    with pytest.raises(CancellationError):
        s.subtract_cancellation(Cancellation(0, 3, 2))


def test_subtract_cancellation_insufficient():
    s = series_from_layers(1, 3, {0: {3: 1}})
    with pytest.raises(CancellationError):
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
    assert s.add(s).subtract(s) == s
    # target of the worked example has alternating sum = colength 6
    target = series_from_layers(1, 5, {0: {0: 1, 1: 2, 2: 2, 3: 1}})
    assert target.alternating_sum() == 6
    assert target.layer_sums() == [6, 0]
    with pytest.raises(SeriesError):
        series_from_layers(1, 5, {0: {0: 1}}).subtract(target)


def test_each_step_preserves_alternating_sum_and_drops_two_units():
    s = quadric_pair_series(8)
    out = s.subtract_cancellation(Cancellation(0, 2, 3))
    assert out.total_units() == s.total_units() - 2
    assert out.alternating_sum() == s.alternating_sum()


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
    with pytest.raises(CancellationError):
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
    with pytest.raises(SeriesError):
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
    with pytest.raises(SeriesError, match="'1 x 2'"):
        BigradedSeries.from_text("2 4\n1 x 2\n")
    with pytest.raises(SeriesError, match="'two 4'"):
        BigradedSeries.from_text("two 4\n")
    with pytest.raises(SeriesError, match="'0 2 3 4'"):
        CancellationCertificate.from_text("steps 1\n0 2 3 4\n")
    with pytest.raises(SeriesError, match="'0 2 b'"):
        CancellationCertificate.from_text("steps 1\n0 2 b\n")


def test_diagram_output_shape():
    s = series_from_layers(1, 3, {0: {0: 1}, 1: {2: 1}})
    d = s.to_diagram()
    assert "0:" in d and "1:" in d
