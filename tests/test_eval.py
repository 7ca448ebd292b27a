"""Backtest harness: metric arithmetic, fold logic, comparisons, factories."""

import importlib
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrikit import decomp, factories
from attrikit.errors import ConvergenceError, ModelError
from attrikit.evaluate import (
    BacktestSpec,
    ForecastFactory,
    compare,
    fold_origins,
    metrics,
    rolling_backtest,
)
from attrikit.factories import build_factory, default_factories, forecast_model
from attrikit.series import (
    DAILY,
    MONTHLY,
    CountSeries,
    ExclusionWindow,
    Forecast,
    apply_exclusions,
    period_start,
)

START = date(2022, 3, 1)


def daily(values, mask=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return CountSeries(DAILY, START, values, mask)


def naive_factory():
    """Repeat the last observed training value."""

    def fit_forecast(train, horizon):
        _, vals = train.observed()
        return np.full(horizon, vals[-1])

    return ForecastFactory("naive", fit_forecast)


def oracle_factory(full_series):
    """Perfect foresight: returns the future actuals (test oracle only)."""

    def fit_forecast(train, horizon):
        start = len(train)
        return full_series.values[start:start + horizon].copy()

    return ForecastFactory("oracle", fit_forecast)


# -- metrics -----------------------------------------------------------------


def test_metrics_hand_example():
    report = metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert report.mae == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert report.rmse == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-12)
    assert report.n_points == 3


def test_metrics_identity_is_zero():
    report = metrics([3.0, 4.0], [3.0, 4.0])
    assert report.mae == report.rmse == report.smape == 0.0


def test_metrics_smape_zero_over_zero():
    assert metrics([0.0], [0.0]).smape == 0.0
    report = metrics([0.0, 1.0], [0.0, 0.0])
    assert report.smape == pytest.approx(100.0)  # one 0/0 term, one 200*1/1 term


def test_metrics_rmse_at_least_mae():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, p = rng.normal(size=30), rng.normal(size=30)
        report = metrics(a, p)
        assert report.rmse >= report.mae >= 0.0


def test_metrics_errors():
    with pytest.raises(ValueError):
        metrics([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        metrics([], [])
    with pytest.raises(ValueError):
        metrics([np.nan], [1.0])


# -- rolling backtest --------------------------------------------------------


def test_fold_arithmetic_example():
    spec = BacktestSpec(initial_train=60, step=10, horizon=10)
    assert fold_origins(100, spec) == [60, 70, 80, 90]


def test_fold_count_closed_form_on_random_tuples():
    rng = np.random.default_rng(1)
    for _ in range(10):
        n = int(rng.integers(20, 200))
        initial = int(rng.integers(1, 15))
        step = int(rng.integers(1, 7))
        horizon = int(rng.integers(1, 10))
        spec = BacktestSpec(initial_train=initial, step=step, horizon=horizon)
        got = len(fold_origins(n, spec))
        expected = 0 if n < initial + horizon else (n - initial - horizon) // step + 1
        assert got == expected


def test_perfect_foresight_scores_zero():
    series = daily(np.random.default_rng(2).poisson(9.0, 60).astype(float))
    report = rolling_backtest(oracle_factory(series), series, BacktestSpec(30, 5, 5))
    assert report.mae == report.rmse == report.smape == 0.0


def test_naive_on_ramp_has_unit_mae():
    series = daily(np.arange(1.0, 11.0))
    report = rolling_backtest(naive_factory(), series, BacktestSpec(5, 1, 1))
    assert report.mae == pytest.approx(1.0, abs=1e-12)
    assert all(f.mae == 1.0 for f in report.per_fold)
    assert [f.origin for f in report.per_fold] == [START.replace(day=6 + i) for i in range(5)]


def test_masked_actuals_skipped_in_scoring():
    values = np.arange(1.0, 21.0)
    mask = np.ones(20, dtype=bool)
    mask[12] = False
    series = daily(values, mask)
    report = rolling_backtest(naive_factory(), series, BacktestSpec(10, 10, 4))
    # Single fold at origin 10 scoring periods 10..13 minus masked 12.
    assert len(report.per_fold) == 1
    assert report.n_points == 3


def test_aggregate_is_point_weighted_mean():
    rng = np.random.default_rng(3)
    series = daily(rng.poisson(5.0, 40).astype(float))
    report = rolling_backtest(naive_factory(), series, BacktestSpec(20, 7, 5))
    weights = np.array([f.n_points for f in report.per_fold], dtype=float)
    for attr in ("mae", "rmse", "smape"):
        expected = sum(getattr(f, attr) * f.n_points for f in report.per_fold) / weights.sum()
        assert getattr(report, attr) == pytest.approx(expected, abs=1e-12)


def test_zero_folds_error_states_arithmetic():
    series = daily(np.arange(5.0))
    with pytest.raises(ModelError, match="zero folds"):
        rolling_backtest(naive_factory(), series, BacktestSpec(10, 1, 3))


def test_backtest_never_shows_future_to_factory():
    calls = []

    def fit_forecast(train, horizon):
        calls.append(len(train))
        return np.zeros(horizon)

    series = daily(np.arange(30.0))
    rolling_backtest(ForecastFactory("probe", fit_forecast), series, BacktestSpec(10, 5, 5))
    assert calls == [10, 15, 20, 25]


# -- compare -----------------------------------------------------------------


def test_compare_identical_factories_identical_reports():
    series = daily(np.random.default_rng(4).poisson(7.0, 50).astype(float))
    spec = BacktestSpec(25, 5, 5)
    result = compare([naive_factory(), ForecastFactory("naive2", naive_factory().fit_forecast)],
                     series, spec)
    a, b = result.reports["naive"], result.reports["naive2"]
    assert (a.mae, a.rmse, a.smape, a.n_points) == (b.mae, b.rmse, b.smape, b.n_points)


def test_compare_ranks_perfect_first():
    series = daily(np.random.default_rng(5).poisson(7.0, 50).astype(float))
    result = compare([naive_factory(), oracle_factory(series)], series, BacktestSpec(25, 5, 5))
    assert result.ranking[0] == "oracle"
    assert result.fingerprint == series.fingerprint()


def test_compare_invariant_under_factory_permutation():
    series = daily(np.random.default_rng(6).poisson(7.0, 50).astype(float))
    spec = BacktestSpec(25, 5, 5)
    fwd = compare([naive_factory(), oracle_factory(series)], series, spec)
    rev = compare([oracle_factory(series), naive_factory()], series, spec)
    assert fwd.ranking == rev.ranking
    assert fwd.reports["naive"].rmse == rev.reports["naive"].rmse


def test_compare_attaches_factory_name_to_errors():
    def broken(train, horizon):
        raise RuntimeError("boom")

    def diverging(train, horizon):
        raise ConvergenceError("no convergence", objective=4.5)

    series = daily(np.arange(30.0))
    # A programmer bug propagates as raised, not renamed into a model failure.
    with pytest.raises(RuntimeError, match="^boom$"):
        compare([ForecastFactory("broken", broken)], series, BacktestSpec(10, 5, 5))
    # A model failure is named, keeping its class and its objective.
    with pytest.raises(ConvergenceError, match="'diverging'") as err:
        compare([ForecastFactory("diverging", diverging)], series, BacktestSpec(10, 5, 5))
    assert err.value.objective == 4.5


def test_backtest_error_names_the_fold(monthly_tanks):
    # March-April 2024 excluded: the fold at 2024-06-01 trains on data that
    # ends one period after the gap, short of gbt's 12-period input window.
    series = apply_exclusions(monthly_tanks, [ExclusionWindow(date(2024, 3, 1), date(2024, 4, 30))])
    with pytest.raises(ModelError, match=r"^fold at 2024-06-01: masked periods in the final 12-period"):
        rolling_backtest(build_factory("gbt", MONTHLY), series, BacktestSpec(24, 1, 2))

    def diverging(train, horizon):
        raise ConvergenceError("no convergence", objective=4.5)

    # The class and its objective survive the renaming.
    with pytest.raises(ConvergenceError, match=r"^fold at 2022-03-11: no convergence$") as err:
        rolling_backtest(ForecastFactory("diverging", diverging), daily(np.arange(30.0)), BacktestSpec(10, 5, 5))
    assert err.value.objective == 4.5


def test_compare_five_models_on_bundled_series(monthly_tanks_masked):
    factories = default_factories(
        "monthly", seed=11,
        params={"lstm": {"epochs": 200}, "tcn": {"epochs": 200}},  # keep the test quick
    )
    spec = BacktestSpec(36, 2, 2)  # LSTM needs lookback+30=36 observed periods
    result = compare(factories, monthly_tanks_masked, spec)
    assert len(result.reports) == 5
    fold_counts = {len(r.per_fold) for r in result.reports.values()}
    assert len(fold_counts) == 1  # identical folds across models
    assert set(result.ranking) == {"arima", "decomp", "lstm", "tcn", "gbt"}


# -- factory alignment -------------------------------------------------------


def test_factory_realigns_over_masked_tail():
    # Pure line with the last 3 periods masked: the factory must forecast
    # through the gap and hand back values for the requested periods only.
    t = np.arange(40.0)
    mask = np.ones(40, dtype=bool)
    mask[-3:] = False
    series = daily(2.0 * t + 1.0, mask)
    factory = build_factory(
        "decomp", DAILY,
        params={"weekly_order": 0, "yearly_order": 0, "n_changepoints": 0},
    )
    got = factory.fit_forecast(series, 4)
    expected = 2.0 * np.arange(40.0, 44.0) + 1.0
    assert np.allclose(got, expected, atol=0.05)


def index_forecast(fitted, series, horizon, level):
    """A forecast whose point at each period is that period's absolute index,
    from the period after the last observed one, as every family forecasts."""
    n = series.last_observed_index() + 1
    points = np.arange(n, n + horizon, dtype=float)
    origin = period_start(series.start, series.granularity, n)
    return Forecast(series.granularity, origin, points, points, points, level)


@st.composite
def gapped_series(draw):
    """A series whose values are the period indices, with interior gaps and
    an optional trailing one; the first period is always observed."""
    n = draw(st.integers(2, 60))
    mask = np.ones(n, dtype=bool)
    for _ in range(draw(st.integers(0, 3))):
        first = draw(st.integers(1, n - 1))
        mask[first:first + draw(st.integers(1, 8))] = False
    mask[n - draw(st.integers(0, min(8, n - 1))):] = False
    granularity = draw(st.sampled_from([DAILY, MONTHLY]))
    return CountSeries(granularity, START, np.arange(float(n)), mask)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(series=gapped_series(), horizon=st.integers(1, 10), initial=st.integers(1, 30),
       step=st.integers(1, 5))
def test_folds_realign_to_absolute_periods(series, horizon, initial, step):
    # The model forecasts from its last observed period; the factory must
    # drop the trailing-gap steps so point k is period len(train) + k.
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(factories.MODELS, "decomp", (decomp.DecompSpec, lambda s, spec: None, index_forecast))
        factory = build_factory("decomp", series.granularity)
        n = len(series)
        assert factory.fit_forecast(series, horizon).tolist() == list(range(n, n + horizon))

        calls = []

        def recorded(train, h):
            points = factory.fit_forecast(train, h)
            calls.append((len(train), points.tolist()))
            return points

        spec = BacktestSpec(initial, step, horizon)
        origins = fold_origins(n, spec)
        if not origins:
            return
        backtest = ForecastFactory("decomp", recorded)
        if any(series.mask[o:o + horizon].any() for o in origins):
            assert rolling_backtest(backtest, series, spec).rmse == 0.0
        else:
            with pytest.raises(ModelError, match="masked"):
                rolling_backtest(backtest, series, spec)
    assert calls == [(o, list(range(o, o + horizon))) for o in origins]


def test_forecast_model_origin_after_last_observed():
    values = np.arange(1.0, 41.0)
    mask = np.ones(40, dtype=bool)
    mask[-2:] = False
    series = daily(values, mask)
    fc = forecast_model("arima", series, 3, params={"p": 0, "d": 1, "q": 0, "use_log": False, "intercept": False})
    assert fc.origin == series.period_starts()[38]
    assert np.all(fc.point == 38.0)  # random walk repeats the last observed value


@pytest.mark.parametrize("name", factories.MODEL_NAMES)
def test_families_call_the_functions_on_their_module(name, monkeypatch):
    """Each fit and forecast is looked up on its module at call time, so one
    replaced there after the family's entry is made (as the benchmark's
    tracer wraps them) is the one that runs."""
    module_name, _, fit_name, forecast_name = factories._FAMILIES[name]
    spec_class = factories.MODELS[name][0]
    calls = []

    def fit(series, spec):
        calls.append(("fit", len(series), type(spec)))
        return "fitted"

    def forecast(fitted, series, horizon, level):
        calls.append(("forecast", fitted, len(series), horizon, level))
        return index_forecast(fitted, series, horizon, level)

    module = importlib.import_module(f"attrikit.{module_name}")
    monkeypatch.setattr(module, fit_name, fit)
    monkeypatch.setattr(module, forecast_name, forecast)
    series = daily(np.arange(40.0), np.arange(40) < 37)
    assert forecast_model(name, series, 4, level=0.8).point.tolist() == [37.0, 38.0, 39.0, 40.0]
    assert build_factory(name).fit_forecast(series, 2).tolist() == [40.0, 41.0]
    assert calls == [("fit", 40, spec_class), ("forecast", "fitted", 40, 4, 0.8),
                     ("fit", 40, spec_class), ("forecast", "fitted", 40, 5, 0.95)]


def test_build_factory_rejects_unknown_name():
    with pytest.raises(ValueError, match="unknown model"):
        build_factory("prophet")
