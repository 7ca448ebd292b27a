"""Decomposition model: trend/seasonality recovery and interval behavior."""

import re
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from attrikit import _kernels, arima
from attrikit._kernels import cholesky_solve
from attrikit.arima import ArimaSpec
from attrikit.decomp import DecompFit, DecompSpec, components, fit, forecast, predict
from attrikit.errors import ModelError, SchemaError
from attrikit.factories import forecast_model
from attrikit.series import DAILY, MONTHLY, CountSeries

START = date(2022, 3, 1)


def daily(values, mask=None, start=START):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return CountSeries(DAILY, start, values, mask)


def dates_from(start, n, offset=0):
    return [start + timedelta(days=offset + i) for i in range(n)]


def test_pure_line_recovers_slope_and_offset():
    t = np.arange(200, dtype=float)
    s = daily(2.0 * t + 1.0)
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0, trend_penalty=10.0))

    # Oracle: direct least-squares line fit.
    slope, intercept = np.polyfit(t, s.values, 1)
    assert result.k == pytest.approx(slope, abs=1e-6)
    assert result.m == pytest.approx(intercept, abs=1e-6)
    assert result.k == pytest.approx(2.0, abs=0.01)
    assert result.m == pytest.approx(1.0, abs=0.01)
    assert np.all(np.abs(result.delta) <= 0.01)


def test_constant_series():
    s = daily(np.full(120, 7.0))
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0))
    assert result.k == pytest.approx(0.0, abs=1e-8)
    assert np.all(np.abs(result.beta) < 1e-8)
    assert result.sigma == pytest.approx(0.0, abs=1e-8)


def test_weekly_amplitude_recovery():
    rng = np.random.default_rng(0)
    t = np.arange(400, dtype=float)
    y = 10.0 + 0.05 * t + 3.0 * np.sin(2.0 * np.pi * t / 7.0) + rng.normal(0, 0.5, len(t))
    result = fit(daily(y), DecompSpec(weekly_order=3, yearly_order=0))
    amp = np.hypot(result.beta[0], result.beta[1])  # first weekly harmonic
    assert abs(amp - 3.0) / 3.0 < 0.05


def test_in_sample_prediction_close_to_line():
    t = np.arange(150, dtype=float)
    s = daily(2.0 * t + 1.0)
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0))
    day = START + timedelta(days=60)
    fc = predict(result, [day])
    assert fc.point[0] == pytest.approx(2.0 * 60 + 1.0, abs=0.05)


def test_interval_brackets_point_when_sigma_positive():
    rng = np.random.default_rng(1)
    s = daily(50.0 + rng.normal(0, 2.0, 200))
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0))
    fc = predict(result, dates_from(START, 10, offset=200), level=0.95)
    assert np.all(fc.lower < fc.point) and np.all(fc.point < fc.upper)


def test_interval_width_depends_only_on_distance_past_history():
    rng = np.random.default_rng(2)
    s = daily(50.0 + rng.normal(0, 2.0, 100))
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0))
    long_run = predict(result, dates_from(START, 10, offset=100))
    single = predict(result, [START + timedelta(days=100 + 7)])
    width_long = (long_run.upper - long_run.lower)[7]
    width_single = (single.upper - single.lower)[0]
    assert width_long == pytest.approx(width_single, rel=1e-12)
    widths = long_run.upper - long_run.lower
    assert np.all(np.diff(widths) >= 0)


def test_components_sum_to_point():
    rng = np.random.default_rng(3)
    t = np.arange(300, dtype=float)
    y = 20 + 0.1 * t + 2 * np.sin(2 * np.pi * t / 7) + rng.normal(0, 1, len(t))
    result = fit(daily(y), DecompSpec(weekly_order=3, yearly_order=2))
    days = dates_from(START, 10, offset=250)
    parts = components(result, days)
    fc = predict(result, days)
    total = parts["trend"] + parts["weekly"] + parts["yearly"]
    assert np.allclose(total, fc.point, atol=1e-9)


def test_disabled_orders_give_zero_components():
    s = daily(np.arange(60.0))
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0))
    parts = components(result, dates_from(START, 5))
    assert np.all(parts["weekly"] == 0.0) and np.all(parts["yearly"] == 0.0)


def test_weekly_component_zero_mean_and_periodic():
    rng = np.random.default_rng(4)
    t = np.arange(350, dtype=float)
    y = 15 + 3 * np.sin(2 * np.pi * t / 7) + rng.normal(0, 0.3, len(t))
    result = fit(daily(y), DecompSpec(weekly_order=3, yearly_order=0))
    days = dates_from(START, 28, offset=100)
    weekly = components(result, days)["weekly"]
    for a in range(0, 21, 7):
        assert abs(weekly[a:a + 7].sum()) < 1e-9
    assert np.allclose(weekly[:21], weekly[7:28], atol=1e-9)


def test_constant_shift_moves_offset_only():
    rng = np.random.default_rng(5)
    t = np.arange(200, dtype=float)
    y = 30 + 0.2 * t + 2 * np.sin(2 * np.pi * t / 7) + rng.normal(0, 1, len(t))
    spec = DecompSpec(weekly_order=2, yearly_order=0)
    a = fit(daily(y), spec)
    b = fit(daily(y + 100.0), spec)
    assert b.m == pytest.approx(a.m + 100.0, abs=1e-6)
    assert b.k == pytest.approx(a.k, abs=1e-6)
    assert np.allclose(b.delta, a.delta, atol=1e-6)
    assert np.allclose(b.beta, a.beta, atol=1e-6)
    fa = predict(a, dates_from(START, 5, offset=200))
    fb = predict(b, dates_from(START, 5, offset=200))
    assert np.allclose(fb.point, fa.point + 100.0, atol=1e-6)


def test_fit_deterministic_bit_identical():
    rng = np.random.default_rng(6)
    y = 40 + rng.normal(0, 3, 150)
    a, b = fit(daily(y), DecompSpec()), fit(daily(y), DecompSpec())
    assert a.k == b.k and a.m == b.m
    assert np.array_equal(a.delta, b.delta) and np.array_equal(a.beta, b.beta)


def test_masked_rows_are_dropped_not_imputed():
    t = np.arange(100, dtype=float)
    y = 2.0 * t + 1.0
    y[40:50] = 1e6  # poison; masked below, so it must not matter
    mask = np.ones(100, dtype=bool)
    mask[40:50] = False
    result = fit(daily(y, mask=mask), DecompSpec(weekly_order=0, yearly_order=0))
    clean = fit(daily(2.0 * t + 1.0, mask=mask), DecompSpec(weekly_order=0, yearly_order=0))
    assert result.k == clean.k and result.m == clean.m


def test_monthly_requires_weekly_disabled():
    s = CountSeries(MONTHLY, date(2022, 3, 1), np.arange(24.0), np.ones(24, dtype=bool))
    with pytest.raises(ModelError, match="weekly"):
        fit(s, DecompSpec())
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=10))
    assert result.yearly_order <= 5  # capped below the monthly Nyquist order


def mondays_only(n=120, start=START):
    """Observed on Mondays only, where a weekly harmonic is constant and so
    dependent on the offset column, whatever the penalty."""
    mask = np.zeros(n, dtype=bool)
    mask[(date(2022, 3, 7) - start).days % 7::7] = True
    return daily(np.random.default_rng(0).poisson(5.0, n), mask=mask, start=start)


def test_singular_zero_penalty_advises():
    with pytest.raises(ModelError, match="with zero trend_penalty; use a nonzero penalty"):
        fit(mondays_only(), DecompSpec(weekly_order=1, trend_penalty=0.0))


def test_singular_design_with_a_penalty_does_not_blame_it():
    with pytest.raises(ModelError, match="^singular design: duplicate or dependent columns$"):
        fit(mondays_only(), DecompSpec(weekly_order=1, trend_penalty=10.0))


@pytest.mark.parametrize("n", [60, 120, 200, 400])
@pytest.mark.parametrize("weekday", range(7))
def test_mondays_only_design_is_singular_at_every_length_and_start(n, weekday):
    # Four of these 28 factor by rounding alone (U_jj^2 / G_jj ~ 1e-16) and
    # used to fit weekly coefficients of ~1e14 and forecast as much.
    series = mondays_only(n, start=date(2022, 3, 7) + timedelta(days=weekday))
    with pytest.raises(ModelError, match="^singular design: duplicate or dependent columns$"):
        fit(series, DecompSpec(weekly_order=1))


@pytest.mark.parametrize("n", [2, 3, 7, 8])
def test_short_daily_series_needs_a_period_per_unpenalized_column(n):
    # Trend, offset, six weekly columns and one residual: nine periods.
    with pytest.raises(ModelError, match=f"^need at least 9 observed periods, have {n}$"):
        fit(daily(np.arange(float(n)) % 5), DecompSpec())
    assert fit(daily(np.arange(9.0) % 5), DecompSpec()).weekly_order == 3


def test_sparse_months_count_the_yearly_columns():
    # Four months observed over 31: yearly order 3 stays on, so 3 + 2 * 3 periods are needed.
    mask = np.zeros(31, dtype=bool)
    mask[[0, 10, 20, 30]] = True
    series = CountSeries(MONTHLY, date(2022, 1, 1), np.arange(31.0), mask)
    with pytest.raises(ModelError, match="^need at least 9 observed periods, have 4$"):
        fit(series, DecompSpec(weekly_order=0, yearly_order=3))


def test_too_short_series():
    with pytest.raises(ModelError):
        fit(daily([5.0]), DecompSpec())


@pytest.mark.parametrize("params", [{"n_changepoints": 3.0}, {"weekly_order": True}, {"yearly_order": 2.5}])
def test_non_integer_sizes_are_schema_errors(monthly_tanks, params):
    with pytest.raises(ValueError, match="must be an integer"):
        DecompSpec(**params)
    with pytest.raises(SchemaError, match="^bad decomp parameters"):
        forecast_model("decomp", monthly_tanks, 3, params=params)


def test_empty_dates_rejected():
    s = daily(np.arange(50.0))
    result = fit(s, DecompSpec(weekly_order=0, yearly_order=0))
    with pytest.raises(ValueError):
        predict(result, [])
    with pytest.raises(ValueError):
        components(result, [])


def test_forecast_helper_origin_after_last_observed(monthly_tanks_masked):
    spec = DecompSpec(weekly_order=0, yearly_order=3, n_changepoints=10)
    result = fit(monthly_tanks_masked, spec)
    fc = forecast(result, monthly_tanks_masked, horizon=6)
    assert fc.origin == date(2025, 6, 1)
    assert len(fc) == 6


def test_forecast_tracks_terminal_regime(monthly_tanks_masked):
    from conftest import within_taper_band

    spec = DecompSpec(weekly_order=0, yearly_order=3, n_changepoints=10)
    result = fit(monthly_tanks_masked, spec)
    fc = forecast(result, monthly_tanks_masked, horizon=6)
    assert sum(within_taper_band(fc.point, fc.period_starts())) >= 5


def test_stored_sigma_matches_reconstruction():
    rng = np.random.default_rng(7)
    t = np.arange(250, dtype=float)
    y = 25 + 0.3 * t + 2 * np.sin(2 * np.pi * t / 7) + rng.normal(0, 1.5, len(t))
    series = daily(y)
    result = fit(series, DecompSpec(weekly_order=3, yearly_order=0))
    fitted = predict(result, dates_from(START, len(t))).point
    sigma = float(np.sqrt(np.mean((y - fitted) ** 2)))
    assert sigma == pytest.approx(result.sigma, rel=1e-9)


def test_declining_monthly_forecast_is_clamped_and_ordered():
    rng = np.random.default_rng(0)
    y = np.round(np.maximum(np.linspace(200, 5, 40) + rng.normal(0, 5, 40), 0))
    s = CountSeries(MONTHLY, date(2022, 3, 1), y, np.ones(40, dtype=bool))
    spec = DecompSpec(n_changepoints=10, weekly_order=0, yearly_order=3)
    result = fit(s, spec)
    fc = forecast(result, s, horizon=12, level=0.95)
    # The trend alone runs far below zero here; the forecast must not.
    raw = sum(components(result, fc.period_starts()).values())
    assert raw.min() < -40
    assert np.all(fc.point >= 0)
    assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(n=st.integers(1, 40), extra_rows=st.integers(-5, 60), ridge=st.sampled_from([0.0, 1e-8, 0.5, 10.0]),
       scale=st.sampled_from([1e-3, 1.0, 1e3]), duplicate=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_cholesky_solve_bit_equals_cho_solve(n, extra_rows, ridge, scale, duplicate, seed):
    """Ridge normal equations, as decomp builds them: the same bits, or the
    same refusal, or, where cho_factor's factor U has a U_jj^2 / G_jj below
    ``MIN_PIVOT_SHARE``, a refusal of dependent columns."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((max(n + extra_rows, 1), n)) * scale
    if duplicate:
        x[:, -1] = x[:, 0]  # with no ridge, some of these fail to factor
    gram = x.T @ x + np.diag(np.full(n, ridge))
    rhs = rng.standard_normal(n)
    try:
        expected = cho_solve(cho_factor(gram), rhs)
    except np.linalg.LinAlgError as err:
        with pytest.raises(np.linalg.LinAlgError, match=re.escape(str(err))):
            cholesky_solve(gram, rhs)
        return
    if (np.diag(cho_factor(gram)[0]) ** 2 / np.diag(gram)).min() < _kernels.MIN_PIVOT_SHARE:
        with pytest.raises(np.linalg.LinAlgError, match="depends on the columns before it"):
            cholesky_solve(gram, rhs)
        return
    got = cholesky_solve(gram, rhs)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.fixture
def fallback_kernels(monkeypatch):
    """Call the returned function to put attrikit._kernels on its public scipy fallback."""
    def unavailable(package, name):
        raise ImportError(f"scipy.{package}.{name} withheld")

    def switch():
        monkeypatch.setattr(_kernels, "_extension", unavailable)
        _kernels._filter.cache_clear()
        _kernels._solver.cache_clear()

    yield switch
    _kernels._filter.cache_clear()
    _kernels._solver.cache_clear()


def _model_outputs(monthly, daily_series):
    """Raw bytes of arima and decomp fits and forecasts, and the singular-design error."""
    out = []
    for series in (monthly, daily_series):
        for spec in (ArimaSpec(), ArimaSpec(2, 1, 3), ArimaSpec(1, 1, 0), ArimaSpec(0, 0, 2, use_log=False)):
            fitted = arima.fit(series, spec)
            fc = arima.forecast(fitted, series, 8)
            out += [a.tobytes() for a in (fitted.phi, fitted.theta, fc.point, fc.lower, fc.upper)]
            out.append(repr((fitted.mu, fitted.sigma2)))
    for series, spec in ((monthly, DecompSpec(weekly_order=0)), (daily_series, DecompSpec())):
        fitted = fit(series, spec)
        fc = forecast(fitted, series, 30)
        out += [a.tobytes() for a in (fitted.delta, fitted.beta, fc.point, fc.lower, fc.upper)]
        out.append(repr((fitted.k, fitted.m, fitted.sigma)))
    with pytest.raises(ModelError, match="singular") as singular:
        fit(mondays_only(), DecompSpec(weekly_order=1, trend_penalty=0.0))
    out.append(str(singular.value))
    return out


def test_fallback_kernels_match_direct_path(fallback_kernels, monthly_tanks_masked, daily_all):
    direct = _model_outputs(monthly_tanks_masked, daily_all)
    assert _kernels._filter() is not _kernels._public_filter
    assert _kernels._solver() is not _kernels._public_solve
    fallback_kernels()
    assert _model_outputs(monthly_tanks_masked, daily_all) == direct
    assert _kernels._filter() is _kernels._public_filter
    assert _kernels._solver() is _kernels._public_solve


@pytest.mark.parametrize("fallback", [False, True])
def test_cholesky_solve_refuses_columns_dependent_up_to_rounding(fallback_kernels, fallback):
    if fallback:
        fallback_kernels()
    # Positive definite, but column 1 is column 0 up to a share of 1e-12 of its norm.
    message = r"^column 1 depends on the columns before it \(pivot share 1\.0e-12\)$"
    with pytest.raises(np.linalg.LinAlgError, match=message):
        cholesky_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]), np.ones(2))
    assert np.array_equal(cholesky_solve(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]), np.array([1.0, 1.0])),
                          [1.0, 0.0])


@pytest.mark.parametrize("fallback", [False, True])
def test_cholesky_solve_rejects_non_finite_input(fallback_kernels, fallback):
    if fallback:
        fallback_kernels()
    with pytest.raises(ValueError, match="infs or NaNs"):
        cholesky_solve(np.array([[1.0, np.nan], [np.nan, 1.0]]), np.ones(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        cholesky_solve(np.eye(2), np.array([1.0, np.inf]))
