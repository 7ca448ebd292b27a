"""SVG emitters: structure, determinism, and the exclusion-rect contract."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrikit.series import DAILY, CountSeries, ExclusionWindow, Forecast
from attrikit.svg import _date_ticks, emit_svg

START = date(2025, 5, 1)


def small_series(n=60, masked=()):
    values = np.arange(float(n)) % 9 + 1.0
    mask = np.ones(n, dtype=bool)
    for i in masked:
        mask[i] = False
    return CountSeries(DAILY, START, values, mask)


def small_forecast(n=10):
    points = np.linspace(5.0, 8.0, n)
    return Forecast(DAILY, date(2025, 6, 30), points, points - 1.0, points + 1.0, 0.95)


def test_two_point_series_renders_polyline_with_two_vertices():
    series = CountSeries(DAILY, START, np.array([1.0, 4.0]), np.ones(2, dtype=bool))
    out = emit_svg("history_plus_forecast", "two points", series=series)
    history = [ln for ln in out.splitlines() if 'class="history"' in ln]
    assert len(history) == 1
    points_attr = history[0].split('points="')[1].split('"')[0]
    assert len(points_attr.split()) == 2


def test_one_rect_per_exclusion_window():
    series = small_series(80, masked=range(30, 40))
    windows = [
        ExclusionWindow(date(2025, 5, 31), date(2025, 6, 9)),
        ExclusionWindow(date(2025, 6, 20), date(2025, 6, 25)),
    ]
    out = emit_svg("history_plus_forecast", "exclusions", series=series, forecast=small_forecast(),
                   exclusions=windows)
    assert out.count("<rect") == 2
    assert out.count('class="exclusion"') == 2


def test_history_split_into_runs_at_masked_gap():
    series = small_series(40, masked=range(15, 20))
    out = emit_svg("history_plus_forecast", "gap", series=series)
    assert out.count('class="history"') == 2  # one polyline per observed run


def test_forecast_band_and_dashed_line_present():
    out = emit_svg("history_plus_forecast", "forecast", series=small_series(), forecast=small_forecast())
    assert out.count('class="interval-band"') == 1
    dashed = [ln for ln in out.splitlines() if 'class="forecast"' in ln]
    assert len(dashed) == 1 and "stroke-dasharray" in dashed[0]


def test_identical_inputs_identical_bytes():
    data = {"series": small_series(), "forecast": small_forecast(),
            "exclusions": [ExclusionWindow(date(2025, 5, 10), date(2025, 5, 12))]}
    assert emit_svg("history_plus_forecast", "determinism", **data) == \
        emit_svg("history_plus_forecast", "determinism", **data)


def test_empty_series_rejected():
    empty = CountSeries(DAILY, START, np.empty(0), np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        emit_svg("history_plus_forecast", "empty", series=empty)


def test_comparison_bars_one_rect_per_model():
    rows = [("arima", 3.2), ("decomp", 2.8), ("gbt", 3.9)]
    out = emit_svg("comparison_bars", "rmse", rows=rows, metric="rmse")
    assert out.count('class="bar"') == 3
    for name, _ in rows:
        assert f">{name}</text>" in out


def test_backtest_folds_figure():
    folds = [(date(2025, 5, 1), 2.0), (date(2025, 5, 15), 3.0), (date(2025, 6, 1), 2.5)]
    out = emit_svg("backtest_folds", "folds", folds=folds, metric="mae")
    assert out.count('class="fold-point"') == 3


def test_empty_bars_and_folds_rejected():
    with pytest.raises(ValueError):
        emit_svg("comparison_bars", "x", rows=[], metric="rmse")
    with pytest.raises(ValueError):
        emit_svg("backtest_folds", "x", folds=[], metric="mae")


def test_unknown_figure_kind_rejected():
    for kind in ("pie_chart", "components"):
        with pytest.raises(ValueError, match=f"unknown figure kind '{kind}'"):
            emit_svg(kind, "nope", rows=[("m", 1.0)])


def test_no_volatile_content():
    out = emit_svg("comparison_bars", "t", rows=[("m", 1.0)], metric="mae")
    assert "id=" not in out and "timestamp" not in out.lower()


@settings(deadline=None, derandomize=True, database=None, max_examples=500)
@given(first=st.dates(), span=st.integers(0, 3000))
def test_date_ticks_lie_in_range_on_their_stride(first, span):
    last = first + timedelta(days=min(span, (date.max - first).days))
    span = (last - first).days
    ticks = _date_ticks(first, last)
    assert ticks and all(first <= t <= last for t in ticks)
    if span <= 180:
        step = max(span // 6, 1)
        assert ticks[0] == first and (last - ticks[-1]).days < step
        assert all((b - a).days == step for a, b in zip(ticks, ticks[1:]))
        return
    stride = 12 if span > 1000 else 3 if span > 540 else 1
    months = [t.year * 12 + t.month - 1 for t in ticks]
    assert all(t.day == 1 and m % stride == 0 for t, m in zip(ticks, months))
    assert all(b - a == stride for a, b in zip(months, months[1:]))
    # No month start on the stride is left out: the one a stride before the
    # first tick falls before ``first``, the one a stride after the last after ``last``.
    before, after = months[0] - stride, months[-1] + stride
    assert (before // 12, before % 12 + 1, 1) < (first.year, first.month, first.day)
    assert (after // 12, after % 12 + 1, 1) > (last.year, last.month, last.day)
