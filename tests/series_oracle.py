"""Series helpers that only tests read: a series from nested layer
dicts, the sum of two series, layer sums and the Euler characteristic.
Tests only."""

from collections import Counter

from grtor.series import BigradedSeries


def series_from_layers(i_max, j_max, layers):
    """Build from {i: {j: c}} nested dicts (zeros allowed, dropped)."""
    s = BigradedSeries(i_max, j_max)
    for i, row in layers.items():
        for j, c in row.items():
            if c:
                s._set(i, j, s.get(i, j) + c)
    return s


def add(a, b):
    """Coefficientwise sum of two series with the same bounds."""
    assert a.same_bounds(b)
    return BigradedSeries(a.i_max, a.j_max,
                          Counter(a.coefficients) + Counter(b.coefficients))


def layer_sums(series):
    """Evaluate at t=1 per homological layer: [sum_j c_{i,j} for i]."""
    sums = [0] * (series.i_max + 1)
    for (i, _j), c in series.coefficients.items():
        sums[i] += c
    return sums


def alternating_sum(series):
    """sum_i (-1)^i sum_j c_{i,j}, off the layer sums."""
    return sum(((-1) ** i) * s for i, s in enumerate(layer_sums(series)))
