"""ARIMA fitting and forecasting against independent estimators."""

import warnings
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from attrikit import arima
from attrikit._kernels import linear_filter
from attrikit.arima import ArimaFit, ArimaSpec, _diff_segments, _observed_segments, fit, forecast
from attrikit.errors import ConvergenceError, ModelError, SchemaError
from attrikit.factories import forecast_model
from attrikit.series import DAILY, MAX_HORIZON, MONTHLY, CountSeries, check_fit_input

from conftest import within_taper_band


def make_series(values, mask=None, start=date(2022, 3, 1)):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return CountSeries(DAILY, start, values, mask)


def simulate_arma(n, phi=0.0, theta=0.0, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    e = rng.normal(0.0, scale, size=n + 50)
    z = np.zeros(n + 50)
    for t in range(1, n + 50):
        z[t] = phi * z[t - 1] + e[t] + theta * e[t - 1]
    return z[50:]


def ar_roots_outside_unit_circle(phi):
    if len(phi) == 0:
        return True
    coeffs = np.concatenate((-phi[::-1], [1.0]))
    return bool(np.all(np.abs(np.roots(coeffs)) > 1.0))


def test_ar1_recovery_matches_ols_oracle():
    y = simulate_arma(500, phi=0.6, seed=7)
    s = make_series(y)
    result = fit(s, ArimaSpec(1, 0, 0, use_log=False, intercept=True))

    # Oracle: CSS for AR(1)+intercept is exactly OLS of y_t on (1, y_{t-1}).
    design = np.column_stack([np.ones(len(y) - 1), y[:-1]])
    slope = np.linalg.lstsq(design, y[1:], rcond=None)[0][1]
    assert abs(result.phi[0] - slope) < 1e-4
    assert abs(result.phi[0] - 0.6) <= 0.1


def test_white_noise_arma11_stays_near_zero():
    # ARMA(1,1) on white noise is weakly identified near the common-factor
    # ridge phi = -theta; the expectation of small coefficients rests on the
    # sample autocorrelations being small, so assert that oracle too.
    y = simulate_arma(500, seed=14)
    centered = y - y.mean()
    acf1 = float(centered[1:] @ centered[:-1] / (centered @ centered))
    assert abs(acf1) < 0.05
    result = fit(make_series(y), ArimaSpec(1, 0, 1, use_log=False, intercept=True))
    assert abs(result.phi[0]) <= 0.15
    assert abs(result.theta[0]) <= 0.2


def test_log_arima_111_on_bundled_monthly_tanks(monthly_tanks_masked):
    spec = ArimaSpec(1, 1, 1, use_log=True, intercept=True)
    result = fit(monthly_tanks_masked, spec)
    assert result.sigma2 > 0
    assert ar_roots_outside_unit_circle(result.phi)
    assert ar_roots_outside_unit_circle(-result.theta)  # invertibility via the same root test
    assert np.isfinite(result.loglik) and np.isfinite(result.aic)
    fc = forecast(result, monthly_tanks_masked, horizon=6)
    assert len(fc) == 6


def test_forecast_tracks_terminal_regime(monthly_tanks_masked):
    spec = ArimaSpec(1, 1, 1, use_log=True, intercept=True)
    fc = forecast(fit(monthly_tanks_masked, spec), monthly_tanks_masked, horizon=6)
    assert fc.origin == date(2025, 6, 1)  # resumes right after the last observed month
    flags = within_taper_band(fc.point, fc.period_starts())
    assert sum(flags) >= 5


def test_random_walk_forecast_is_last_value():
    rng = np.random.default_rng(3)
    y = np.cumsum(rng.normal(size=200)) + 50.0
    y[-1] = 50.0
    spec = ArimaSpec(0, 1, 0, use_log=False, intercept=False)
    s = make_series(y)
    fc = forecast(fit(s, spec), s, horizon=10)
    assert np.all(fc.point == 50.0)


def test_mean_model_constant_forecast():
    rng = np.random.default_rng(4)
    y = rng.normal(10.0, 1.0, size=100)
    spec = ArimaSpec(0, 0, 0, use_log=False, intercept=True)
    result = fit(make_series(y), spec)
    assert result.mu == pytest.approx(y.mean(), abs=1e-6)
    fc = forecast(result, make_series(y), horizon=5)
    assert np.allclose(fc.point, result.mu, atol=1e-9)


def test_mean_model_through_log_transform():
    y = np.full(60, 20.0) + np.random.default_rng(5).normal(0, 0.5, 60)
    spec = ArimaSpec(0, 0, 0, use_log=True, intercept=True)
    result = fit(make_series(y), spec)
    fc = forecast(result, make_series(y), horizon=3)
    assert np.allclose(fc.point, np.expm1(result.mu), atol=1e-9)


def test_interval_ordering_and_monotone_width():
    y = simulate_arma(300, phi=0.4, seed=8) + 100.0
    spec = ArimaSpec(1, 1, 1, use_log=False, intercept=True)
    s = make_series(y)
    fc = forecast(fit(s, spec), s, horizon=20)
    assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)
    widths = fc.upper - fc.lower
    assert np.all(np.diff(widths) >= -1e-9)


def test_shift_invariance_under_differencing():
    rng = np.random.default_rng(9)
    y = rng.integers(20, 60, size=150).astype(float)
    spec = ArimaSpec(0, 1, 1, use_log=False, intercept=True)
    base = make_series(y)
    shifted = make_series(y + 1000.0)
    fc_base = forecast(fit(base, spec), base, horizon=8)
    fc_shift = forecast(fit(shifted, spec), shifted, horizon=8)
    # Differenced data is bitwise identical, so the shift carries through
    # up to 64-bit addition rounding.
    assert np.allclose(fc_shift.point, fc_base.point + 1000.0, rtol=1e-12, atol=1e-9)


def test_nesting_does_not_fit_worse():
    z = simulate_arma(400, phi=0.5, theta=0.3, seed=10)
    y = np.cumsum(z)
    s = make_series(y)
    small = fit(s, ArimaSpec(0, 1, 0, use_log=False, intercept=True))
    big = fit(s, ArimaSpec(1, 1, 1, use_log=False, intercept=True))
    assert big.loglik >= small.loglik - 1e-6 or big.aic <= small.aic


def test_interior_gap_restarts_recursion():
    y = simulate_arma(200, phi=0.5, seed=12)
    mask = np.ones(200, dtype=bool)
    mask[90:100] = False
    result = fit(make_series(y, mask=mask), ArimaSpec(1, 0, 0, use_log=False, intercept=True))
    # Residual count: each of the two segments conditions on its first value.
    assert result.n_used == (90 - 1) + (100 - 1)
    assert np.isfinite(result.loglik)


def test_too_short_series_rejected():
    with pytest.raises(ModelError, match="observed periods"):
        fit(make_series(np.arange(8.0)), ArimaSpec(1, 1, 1, use_log=False))


def test_observed_runs_too_short_to_difference_are_rejected_before_fitting():
    # 40 of 60 months are observed, enough for ARIMA(1,1,1)'s 13, but in
    # pairs: no run holds the p + d + 1 = 3 periods a residual needs. The
    # fit must say so, not spend Nelder-Mead's iterations on an objective
    # with no residual.
    mask = np.zeros(60, dtype=bool)
    for i in range(0, 60, 3):
        mask[i:i + 2] = True
    values = np.random.default_rng(17).poisson(20.0, 60).astype(float)
    series = CountSeries(MONTHLY, date(2022, 3, 1), values, mask)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelError, match="need 3 consecutive observed periods; the longest run is 2") as err:
            fit(series, ArimaSpec())
    assert not isinstance(err.value, ConvergenceError)


@st.composite
def arima_orders_and_masks(draw):
    """p, d, q in 0..2 and a mask of observed runs, each followed by 0-3
    masked periods, whose lengths stay near the p + d + 1 a residual needs."""
    p, d, q = (draw(st.integers(0, 2)) for _ in range(3))
    longest = draw(st.integers(1, p + d + 2))
    runs = draw(st.lists(st.tuples(st.integers(1, longest), st.integers(0, 3)), min_size=1, max_size=25))
    return p, d, q, np.concatenate([[True] * run + [False] * gap for run, gap in runs])


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(case=arima_orders_and_masks())
def test_fit_check_leaves_a_differenced_segment_longer_than_p(case):
    # Whenever the fit check passes, some differenced segment is longer than
    # p, so the sum of squares always has residuals to sum.
    p, d, q, mask = case
    series = make_series(np.arange(len(mask), dtype=float), mask=mask)
    try:
        check_fit_input(series, p + q + d + 10, p + d + 1)
    except ModelError:
        return
    segments = _diff_segments(_observed_segments(series, use_log=False), d)
    assert max(len(z) for z in segments) > p


def test_nonconvergence_carries_objective(monkeypatch):
    y = simulate_arma(300, phi=0.5, theta=0.3, seed=13)
    monkeypatch.setattr(arima, "MAX_ITER", 2)
    with pytest.raises(ConvergenceError, match="within 2 iterations") as err:
        fit(make_series(y), ArimaSpec(2, 0, 2, use_log=False, intercept=True))
    assert err.value.objective is not None


def test_horizon_guard():
    y = simulate_arma(100, seed=14)
    spec = ArimaSpec(0, 1, 0, use_log=False, intercept=False)
    s = make_series(y)
    result = fit(s, spec)
    with pytest.raises(ModelError, match=str(MAX_HORIZON + 1)):
        forecast(result, s, horizon=MAX_HORIZON + 1)
    with pytest.raises(ValueError):
        forecast(result, s, horizon=0)


def test_spec_validation():
    with pytest.raises(ValueError):
        ArimaSpec(6, 0, 0)
    with pytest.raises(ValueError):
        ArimaSpec(1, 3, 1)


@pytest.mark.parametrize("params", [{"p": 1.5}, {"d": True}, {"q": "1"}])
def test_non_integer_orders_are_schema_errors(monthly_tanks, params):
    # p=1.5 used to raise a bare TypeError from inside the fit.
    with pytest.raises(ValueError, match="must be an integer"):
        ArimaSpec(**params)
    with pytest.raises(SchemaError, match="^bad arima parameters"):
        forecast_model("arima", monthly_tanks, 3, params=params)


def test_fit_is_deterministic():
    y = simulate_arma(300, phi=0.5, theta=0.2, seed=15)
    s = make_series(y)
    spec = ArimaSpec(1, 0, 1, use_log=False, intercept=True)
    a, b = fit(s, spec), fit(s, spec)
    assert np.array_equal(a.phi, b.phi) and np.array_equal(a.theta, b.theta) and a.mu == b.mu


def test_simulated_arima111_recovery():
    z = simulate_arma(500, phi=0.5, theta=0.3, seed=21)
    y = np.cumsum(z)
    result = fit(make_series(y), ArimaSpec(1, 1, 1, use_log=False, intercept=True))
    assert abs(result.phi[0] - 0.5) <= 0.15
    assert abs(result.theta[0] - 0.3) <= 0.20


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(theta=st.lists(st.floats(-0.9, 0.9, exclude_min=True, exclude_max=True), max_size=5),
       n=st.integers(1, 1300), seed=st.integers(0, 2**32 - 1),
       negative_zeros=st.lists(st.integers(0, 1299), max_size=3))
def test_linear_filter_bit_equals_lfilter(theta, n, seed, negative_zeros):
    """The directly loaded filter gives lfilter's bits for every MA order the spec allows."""
    a = np.concatenate(([1.0], theta))
    x = np.random.default_rng(seed).standard_normal(n) * 10.0 ** (seed % 7 - 3)
    x[[i % n for i in negative_zeros]] = -0.0
    got, expected = linear_filter(a, x), lfilter([1.0], a, x)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
