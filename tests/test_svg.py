"""SVG emitters: structure, determinism, and the exclusion-rect contract."""

from datetime import date

import numpy as np
import pytest

from attrikit.series import DAILY, CountSeries, ExclusionWindow, Forecast
from attrikit.svg import FigureSpec, emit_svg

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
    spec = FigureSpec("history_plus_forecast", "two points")
    out = emit_svg(spec, {"series": series})
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
    spec = FigureSpec("history_plus_forecast", "exclusions")
    out = emit_svg(spec, {"series": series, "forecast": small_forecast(), "exclusions": windows})
    assert out.count("<rect") == 2
    assert out.count('class="exclusion"') == 2


def test_history_split_into_runs_at_masked_gap():
    series = small_series(40, masked=range(15, 20))
    spec = FigureSpec("history_plus_forecast", "gap")
    out = emit_svg(spec, {"series": series})
    assert out.count('class="history"') == 2  # one polyline per observed run


def test_forecast_band_and_dashed_line_present():
    spec = FigureSpec("history_plus_forecast", "forecast")
    out = emit_svg(spec, {"series": small_series(), "forecast": small_forecast()})
    assert out.count('class="interval-band"') == 1
    dashed = [ln for ln in out.splitlines() if 'class="forecast"' in ln]
    assert len(dashed) == 1 and "stroke-dasharray" in dashed[0]


def test_identical_inputs_identical_bytes():
    spec = FigureSpec("history_plus_forecast", "determinism")
    data = {"series": small_series(), "forecast": small_forecast(),
            "exclusions": [ExclusionWindow(date(2025, 5, 10), date(2025, 5, 12))]}
    assert emit_svg(spec, data) == emit_svg(spec, data)


def test_empty_series_rejected():
    empty = CountSeries(DAILY, START, np.empty(0), np.empty(0, dtype=bool))
    with pytest.raises(ValueError):
        emit_svg(FigureSpec("history_plus_forecast", "empty"), {"series": empty})


def test_components_figure_sums_legend_and_lines():
    days = [date(2025, 5, 1 + i) for i in range(14)]
    t = np.arange(14.0)
    data = {"dates": days, "trend": 2 + 0.1 * t, "weekly": np.sin(t), "yearly": np.zeros(14)}
    out = emit_svg(FigureSpec("components", "components"), data)
    for name in ("trend", "weekly", "yearly"):
        assert f'class="component-{name}"' in out


def test_comparison_bars_one_rect_per_model():
    rows = [("arima", 3.2), ("decomp", 2.8), ("gbt", 3.9)]
    out = emit_svg(FigureSpec("comparison_bars", "rmse"), {"metric": "rmse", "rows": rows})
    assert out.count('class="bar"') == 3
    for name, _ in rows:
        assert f">{name}</text>" in out


def test_backtest_folds_figure():
    folds = [(date(2025, 5, 1), 2.0), (date(2025, 5, 15), 3.0), (date(2025, 6, 1), 2.5)]
    out = emit_svg(FigureSpec("backtest_folds", "folds"), {"metric": "mae", "folds": folds})
    assert out.count('class="fold-point"') == 3


def test_empty_bars_and_folds_rejected():
    with pytest.raises(ValueError):
        emit_svg(FigureSpec("comparison_bars", "x"), {"metric": "rmse", "rows": []})
    with pytest.raises(ValueError):
        emit_svg(FigureSpec("backtest_folds", "x"), {"metric": "mae", "folds": []})


def test_figure_spec_validation():
    with pytest.raises(ValueError):
        FigureSpec("pie_chart", "nope")


def test_no_volatile_content():
    out = emit_svg(FigureSpec("comparison_bars", "t"), {"metric": "mae", "rows": [("m", 1.0)]})
    assert "id=" not in out and "timestamp" not in out.lower()
