"""Properties of the forecast contract that every model shares.

Every model returns ``horizon`` finite, non-negative points with an ordered
interval, accepts horizons up to ``MAX_HORIZON`` and rejects one more, and
never reads the values at masked periods. The CLI maps any setting, given
as a flag or in a config file, onto the documented exit codes.
"""

import dataclasses
import warnings
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from attrikit.cli import main
from attrikit.errors import ConvergenceError, ModelError, SchemaError
from attrikit.evaluate import BacktestSpec, MetricReport, rolling_backtest
from attrikit.factories import MODEL_NAMES, MODELS, _spec, build_factory, forecast_model
from attrikit.ingest import Category, parse_records
from attrikit.series import CALENDAR_FLAGS, DAILY, MAX_HORIZON, MONTHLY, CountSeries, aggregate

# Small models, so each example fits in well under a second.
FAST_PARAMS = {
    "arima": {},
    "decomp": {"n_changepoints": 5, "yearly_order": 2},
    "lstm": {"lookback": 4, "hidden": 3, "epochs": 5},
    "tcn": {"kernel": 2, "dilations": (1, 2), "channels": 3, "epochs": 5},
    "gbt": {"n_trees": 5, "lags": (1, 2, 3), "ma_windows": (3,)},
}

# Fixed example draws keep the suite deterministic; no example database.
PROPERTY = settings(deadline=None, derandomize=True, database=None)


@st.composite
def count_series(draw):
    """40-60 months of trend plus noise, rounded and floored at zero,
    with up to three masked periods at the tail."""
    n = draw(st.integers(40, 60))
    base = draw(st.integers(0, 200))
    slope = draw(st.integers(-80, 30)) / 10.0
    noise = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.maximum(np.round(base + slope * np.arange(n) + rng.normal(0.0, noise, n)), 0.0)
    mask = np.ones(n, dtype=bool)
    gap = draw(st.integers(0, 3))
    mask[n - gap:] = False
    return CountSeries(MONTHLY, date(2022, 3, 1), values, mask)


def check_forecast(fc, horizon):
    assert len(fc) == horizon
    for values in (fc.point, fc.lower, fc.upper):
        assert np.all(np.isfinite(values)) and np.all(values >= 0)
    assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(PROPERTY, max_examples=8)
@given(series=count_series(), horizon=st.integers(1, 24), level=st.floats(0.5, 0.99))
def test_forecast_is_nonnegative_and_ordered(name, series, horizon, level):
    try:
        fc = forecast_model(name, series, horizon, params=FAST_PARAMS[name], level=level)
    except ConvergenceError:
        reject()  # a reported fit failure (ARIMA on noiseless trends) makes no forecast to check
    check_forecast(fc, horizon)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_one_horizon_cap_for_every_model(name):
    rng = np.random.default_rng(1)
    series = CountSeries(MONTHLY, date(2022, 3, 1), rng.poisson(20.0, 48).astype(float),
                         np.ones(48, dtype=bool))
    params = FAST_PARAMS[name]
    assert len(forecast_model(name, series, MAX_HORIZON, params=params)) == MAX_HORIZON
    with pytest.raises(ModelError, match=str(MAX_HORIZON + 1)):
        forecast_model(name, series, MAX_HORIZON + 1, params=params)
    with pytest.raises(ValueError):
        forecast_model(name, series, 0, params=params)


@pytest.mark.parametrize("name", ["lstm", "decomp", "gbt"])
def test_daily_calendar_on_monthly_data_is_a_model_error(name):
    # Weekday features and weekly terms exist only on daily data. No model
    # drops them by itself: the monthly presets leave them out, and a daily
    # spec on a monthly series is a model error (exit 3), with one message.
    rng = np.random.default_rng(2)
    series = CountSeries(MONTHLY, date(2022, 3, 1), rng.poisson(20.0, 60).astype(float),
                         np.ones(60, dtype=bool))
    features = "weekly seasonality terms" if name == "decomp" else "weekday features"
    _, fit, _ = MODELS[name]
    with pytest.raises(ModelError, match=f"^{features} require a daily series$"):
        fit(series, _spec(name, DAILY, 0, {}))


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_fit_on_a_series_with_no_observed_period_is_a_model_error(name):
    series = CountSeries(MONTHLY, date(2022, 3, 1), np.ones(60), np.zeros(60, dtype=bool))
    _, fit, _ = MODELS[name]
    with pytest.raises(ModelError, match="^the training range has no observed periods$"):
        fit(series, _spec(name, MONTHLY, 0, FAST_PARAMS[name]))


@pytest.mark.parametrize("name, needed", [("arima", 3), ("decomp", None), ("lstm", 5), ("tcn", 5), ("gbt", 4)])
def test_fit_needs_a_run_as_long_as_the_windows_it_reads(name, needed):
    # 40 of 60 months observed, in pairs. ARIMA(1,1,1) needs p + d + 1
    # consecutive periods for one residual, the LSTM lookback + 1 and the
    # TCN its receptive field + 1 for one window, gbt its largest lag or
    # window + 1 for one row. Decomp reads no window and fits.
    mask = np.zeros(60, dtype=bool)
    for i in range(0, 60, 3):
        mask[i:i + 2] = True
    series = CountSeries(MONTHLY, date(2022, 3, 1), np.random.default_rng(6).poisson(20.0, 60).astype(float), mask)
    _, fit, _ = MODELS[name]
    spec = _spec(name, MONTHLY, 0, FAST_PARAMS[name])
    if needed is None:
        fit(series, spec)
        return
    with pytest.raises(ModelError, match=f"^need {needed} consecutive observed periods; the longest run is 2$"):
        fit(series, spec)


@pytest.mark.parametrize("fitted_on", [DAILY, MONTHLY])
@pytest.mark.parametrize("name", MODEL_NAMES)
def test_forecast_on_a_series_of_another_granularity_is_a_model_error(name, fitted_on):
    # A model reads its series in the periods it was fitted on: weekdays,
    # daily lags and weekly terms do not exist on monthly data, nor month
    # steps on daily data.
    rng = np.random.default_rng(3)
    series = {g: CountSeries(g, date(2022, 3, 1), rng.poisson(20.0, n).astype(float), np.ones(n, dtype=bool))
              for g, n in ((DAILY, 150), (MONTHLY, 60))}
    other = MONTHLY if fitted_on == DAILY else DAILY
    _, fit, forecast = MODELS[name]
    fitted = fit(series[fitted_on], _spec(name, fitted_on, 0, FAST_PARAMS[name]))
    with pytest.raises(ModelError, match=f"fitted on {fitted_on} data; the series is {other}"):
        forecast(fitted, series[other], 3, 0.95)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_forecast_from_a_masked_tail_equals_the_cut_series(name):
    # Every family forecasts from the period after the last observed one,
    # called directly or through forecast_model.
    rng = np.random.default_rng(4)
    mask = np.ones(60, dtype=bool)
    mask[-3:] = False
    series = CountSeries(MONTHLY, date(2022, 3, 1), rng.poisson(20.0, 60).astype(float), mask)
    _, fit, forecast = MODELS[name]
    fitted = fit(series, _spec(name, MONTHLY, 0, FAST_PARAMS[name]))
    tail, cut = forecast(fitted, series, 4, 0.9), forecast(fitted, series.head(57), 4, 0.9)
    assert tail.origin == cut.origin == date(2026, 12, 1)
    for part in ("point", "lower", "upper"):
        assert getattr(tail, part).tobytes() == getattr(cut, part).tobytes()


@pytest.mark.parametrize("name, params, depth", [("arima", {"p": 2, "d": 1}, 3), ("gbt", {}, 3),
                                                 ("lstm", {}, 4), ("tcn", {}, 4)])
def test_final_observed_run_shorter_than_the_input_window_is_a_model_error(name, params, depth):
    # The depth periods before the origin are the forecast's input window:
    # ARIMA's max(d + 1, p + d) differencing and AR anchors, gbt's largest
    # lag or window, the LSTM lookback, the TCN receptive field.
    values = np.random.default_rng(5).poisson(20.0, 60).astype(float)

    def final_run(k):
        mask = np.ones(60, dtype=bool)
        mask[-k - 1] = False
        return CountSeries(MONTHLY, date(2022, 3, 1), values, mask)

    _, fit, forecast = MODELS[name]
    fitted = fit(final_run(depth), _spec(name, MONTHLY, 0, {**FAST_PARAMS[name], **params}))
    assert len(forecast(fitted, final_run(depth), 3, 0.95)) == 3
    with pytest.raises(ModelError, match=f"masked periods in the final {depth}-period input window"):
        forecast(fitted, final_run(depth - 1), 3, 0.95)


# -- the whole spec surface ----------------------------------------------------

# Fields that set a fit's cost stay at or below these sizes. Every other
# integer field at its edge is below 0, 0, 1, or at or past the series length.
COST_FIELDS = {"epochs": 3, "hidden": 4, "channels": 4, "n_trees": 3}
EDGE_FLOATS = [0.0, 5e-324, 1e-12, 0.1, 0.5, 1.0, 1e12, 1e300, -1.0, float("nan"), float("inf")]


@st.composite
def surface_cases(draw):
    """(model, params naming every spec field, series, horizon, level): a
    daily or monthly series of zeros, a constant, Poisson(5) counts, one 1e6
    spike or counts near 1e6, with up to two masked spans. Any set of the
    spec's fields is drawn at its edges; the others keep FAST_PARAMS, with
    the cost fields at their caps."""
    name = draw(st.sampled_from(MODEL_NAMES))
    granularity = draw(st.sampled_from([DAILY, MONTHLY]))
    n = draw(st.integers(30, 90) if granularity == DAILY else st.integers(15, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = {
        "zeros": lambda: np.zeros(n),
        "constant": lambda: np.full(n, draw(st.sampled_from([1.0, 7.0, 1e6]))),
        "poisson": lambda: rng.poisson(5.0, n).astype(float),
        "spike": lambda: np.where(np.arange(n) == draw(st.integers(0, n - 1)), 1e6, 0.0),
        "near_1e6": lambda: 1e6 + rng.poisson(5.0, n),
    }[draw(st.sampled_from(["zeros", "constant", "poisson", "spike", "near_1e6"]))]()
    mask = np.ones(n, dtype=bool)
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.integers(0, n - 1))
        mask[start:start + draw(st.integers(1, n // 3))] = False
    ints = st.sampled_from([-1, 0, 1, 2, 3, n - 1, n, n + 1, 2 * n])
    typical = _spec(name, granularity, 0, {**FAST_PARAMS[name], **COST_FIELDS})
    fields = dataclasses.fields(typical)
    params = {field.name: getattr(typical, field.name) for field in fields}
    for field in draw(st.sets(st.sampled_from(fields))):
        if field.name in COST_FIELDS:
            strategy = st.integers(0, COST_FIELDS[field.name])
        elif field.type == "int":
            strategy = ints
        elif field.type == "float":
            strategy = st.sampled_from(EDGE_FLOATS)
        elif field.type == "bool":
            strategy = st.booleans()
        elif field.type == "tuple[int, ...]":
            strategy = st.lists(ints, max_size=3).map(tuple)
        else:
            assert field.type == "frozenset[str]", field  # gbt's calendar; a new field type needs a strategy
            strategy = st.frozensets(st.sampled_from([*CALENDAR_FLAGS, "fortnight"]))
        params[field.name] = draw(strategy)
    horizon = draw(st.sampled_from([1, 2, 7, 30, MAX_HORIZON]))
    level = draw(st.one_of(st.sampled_from([1e-9, 0.95, 1 - 1e-12]), st.floats(0.01, 0.99)))
    return name, params, CountSeries(granularity, date(2022, 3, 1), values, mask), horizon, level


def _short_final_run():
    mask = np.ones(45, dtype=bool)
    mask[30:40] = False
    return CountSeries(MONTHLY, date(2022, 3, 1), np.full(45, 7.0), mask)


def _daily_spike():
    values = np.zeros(90)
    values[45] = 1e6
    return CountSeries(DAILY, date(2022, 3, 1), values, np.ones(90, dtype=bool))


@settings(PROPERTY, max_examples=300)
@given(case=surface_cases())
# ARIMA with q > p on a final run shorter than q + d: an IndexError before
# the forecast read zero pre-run innovations.
@example(case=("arima", {"p": 0, "d": 1, "q": 5}, _short_final_run(), 3, 0.95))
# A TCN trained at learning rate 1e9 on a spike: a non-finite forecast
# passed the contract before it raised ModelError.
@example(case=("tcn", {"kernel": 2, "dilations": (1,), "channels": 4, "epochs": 1, "learning_rate": 1e9},
               _daily_spike(), 30, 0.95))
def test_only_documented_errors_escape_forecast_model(case):
    name, params, series, horizon, level = case
    try:
        # Huge learning rates and counts overflow on the way to a forecast
        # that the contract then rejects; the warning is not the result.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            fc = forecast_model(name, series, horizon, params=params, level=level)
    except (SchemaError, ModelError):
        return
    check_forecast(fc, horizon)


def test_category_filter_of_names_is_a_type_error(synth_records):
    # A filter of names instead of Category members would match no record.
    with pytest.raises(TypeError, match="'tank'"):
        parse_records("date,type\n2023-01-05,tank\n", categories={"tank"})
    with pytest.raises(TypeError, match="'tank'"):
        aggregate(synth_records, MONTHLY, {Category.IFV, "tank"})
    assert aggregate(synth_records, MONTHLY, {Category.IFV}).values.sum() > 0


# -- masked periods are never read --------------------------------------------


@st.composite
def masked_pairs(draw):
    """A count series as ``count_series`` draws it, with a masked interior
    gap of 1-4 periods and up to three masked periods at the tail, and a
    copy whose masked values are replaced by arbitrary finite counts."""
    series = draw(count_series())
    n = len(series)
    mask = series.mask.copy()
    start = draw(st.integers(5, n - 8))
    mask[start:start + draw(st.integers(1, 4))] = False
    clean = CountSeries(MONTHLY, series.start, series.values, mask)
    poisoned = series.values.copy()
    poisoned[~mask] = draw(st.lists(st.integers(0, 10**9), min_size=int((~mask).sum()),
                                    max_size=int((~mask).sum())))
    return clean, CountSeries(MONTHLY, series.start, poisoned, mask)


def _outcome(call):
    """What ``call`` shows of its input: its result as text that keeps
    every float's bits, or the class and message of the ModelError it
    raised."""
    try:
        result = call()
    except ModelError as err:
        return type(err), str(err)
    if isinstance(result, MetricReport):
        return repr(result)
    return tuple(getattr(result, part).tobytes() for part in ("point", "lower", "upper"))


@pytest.mark.parametrize("name", MODEL_NAMES)
@settings(PROPERTY, max_examples=6)
@given(pair=masked_pairs())
def test_masked_values_are_never_read(name, pair):
    clean, poisoned = pair
    params = FAST_PARAMS[name]
    backtest = BacktestSpec(initial_train=len(clean) - 6, step=2, horizon=2)
    factory = build_factory(name, MONTHLY, params=params)

    def outcomes(series):
        return (_outcome(lambda: forecast_model(name, series, 3, params=params)),
                _outcome(lambda: rolling_backtest(factory, series, backtest)))

    assert outcomes(poisoned) == outcomes(clean)


# -- CLI exit codes ---------------------------------------------------------

# Small models and a short backtest, so each example runs in well under a second.
SMALL_SETTINGS = {
    "horizon": "3", "initial_train": "36", "step": "2",
    "epochs": "5", "hidden": "4", "lookback": "4", "channels": "3", "kernel": "2",
    "dilations": "1,2", "n_trees": "5", "lags": "1,2,3", "ma_windows": "3",
    "changepoints": "5", "yearly_order": "2",
}

_ints = st.integers(-3, 12).map(str)
_floats = st.one_of(st.floats(-1.0, 2.0), st.sampled_from([float("nan"), float("inf")])).map(str)
_int_lists = st.one_of(
    st.lists(st.integers(-2, 50), max_size=4).map(lambda xs: ",".join(map(str, xs))),
    st.sampled_from(["1-3", "3-1", "a", "2,x", "1,,2"]),
)
_dates = st.dates(date(2021, 6, 1), date(2026, 1, 31)).map(str)
# Exclusion windows that end in the last six months of ``small_records``
# (it ends 2025-06-30), so that the final observed run is short or gone.
_late_windows = st.builds(lambda end, days: f"{end - timedelta(days=days)}:{end}",
                          st.dates(date(2025, 1, 1), date(2025, 6, 30)), st.integers(0, 400))
# Config key -> its values; each is passed as a flag or in a --config file.
SETTING_VALUES = {
    "horizon": st.integers(-1, MAX_HORIZON + 2).map(str),
    "level": _floats,
    "seed": st.one_of(st.integers(-2, 2**32).map(str), st.sampled_from(["x", "1.5", ""])),
    "range": st.one_of(st.tuples(_dates, _dates).map(":".join), st.sampled_from(["", "2024-01-01", "a:b"])),
    "exclude": st.one_of(_late_windows, st.sampled_from(["2025-06-30:2025-01-01", "a:b"])),
    "models": st.one_of(st.lists(st.sampled_from([*MODEL_NAMES, "nope"]), max_size=3).map(",".join),
                        st.just(",")),
    "initial_train": st.integers(-1, 45).map(str),
    "step": st.integers(-1, 12).map(str),
    "order": st.one_of(
        st.lists(st.integers(-1, 6), min_size=3, max_size=3).map(lambda xs: ",".join(map(str, xs))),
        st.sampled_from(["1,1", "a,b,c"]),
    ),
    "changepoints": _ints, "changepoint_range": _floats, "weekly_order": _ints,
    "yearly_order": _ints, "trend_penalty": _floats,
    "lookback": _ints, "hidden": _ints, "epochs": _ints, "lr": _floats,
    "kernel": _ints, "dilations": _int_lists, "channels": _ints,
    "n_trees": _ints, "max_depth": _ints, "min_leaf": _ints,
    "lags": _int_lists, "ma_windows": _int_lists,
}


# Keys a command has no flag for; a config file may still hold them.
NO_FLAG = {"forecast": {"initial_train", "step", "models"}, "backtest": {"models"}, "compare": set()}


@st.composite
def cli_runs(draw):
    """(command, flags, config): SMALL_SETTINGS in the config, then 1-3 drawn
    settings, each given as a flag or as a config line."""
    command = draw(st.sampled_from(sorted(NO_FLAG)))
    config = dict(SMALL_SETTINGS)
    flags = []
    for key in draw(st.lists(st.sampled_from(sorted(SETTING_VALUES)), min_size=1, max_size=3, unique=True)):
        value = draw(SETTING_VALUES[key])
        if key not in NO_FLAG[command] and draw(st.booleans()):
            flags.append(f"--{key.replace('_', '-')}={value}")
        else:
            config[key] = value
    return command, flags, config


@pytest.fixture(scope="module")
def small_records(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    profile = root / "profile.csv"
    profile.write_text("start,end,category,mean_per_day\n2022-03-01,2025-06-30,tank,1.0\n")
    out = root / "records.csv"
    assert main(["synth", "--seed", "2", "--profile", str(profile), "--out", str(out)]) == 0
    return out


@settings(PROPERTY, max_examples=100)
@given(run=cli_runs(), model=st.sampled_from(MODEL_NAMES))
# ARIMA with q > p on a final run of four months, shorter than q + d: the
# forecast reads innovations from before the run.
@example(run=("forecast", ["--order=0,1,5", "--exclude=2024-10-01:2025-02-28"], SMALL_SETTINGS), model="arima")
def test_cli_exit_code_is_documented(small_records, run, model):
    command, flags, config = run
    config_file = small_records.parent / "run.conf"
    config_file.write_text("".join(f"{key}={value}\n" for key, value in config.items()))
    argv = [command, "--data", str(small_records), "--granularity", "monthly", "--config", str(config_file),
            "--out", str(small_records.parent / "out"), *flags]
    if command != "compare":
        argv += ["--model", model]
    assert main(argv) in (0, 1, 2, 3)
