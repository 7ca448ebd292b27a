"""Uniform fit+forecast adapters for the five model families.

``forecast_model`` fits the named model on a masked series and forecasts
the periods following the last observed one, so a trailing exclusion
window simply moves the origin back onto observed data. The backtest
factories built on top realign those forecasts to absolute periods by
forecasting through any trailing masked gap and dropping the gap steps.

Monthly presets differ from the daily ones because monthly histories are
short: smaller lookbacks/receptive fields, no weekday features, and more
optimizer steps for the full-batch neural fits. Everything can be
overridden per model through ``params``; a parameter a spec rejects is a
SchemaError.
"""

from __future__ import annotations

import numpy as np

from . import arima, decomp, gbtrees, neural
from .errors import SchemaError
from .evaluate import ForecastFactory
from .series import DAILY, MONTHLY, CountSeries, Forecast


def _arima_spec(granularity: str, seed: int, p: dict) -> arima.ArimaSpec:
    return arima.ArimaSpec(
        p=p.get("p", 1), d=p.get("d", 1), q=p.get("q", 1),
        use_log=p.get("use_log", True), intercept=p.get("intercept", True),
    )


def _decomp_spec(granularity: str, seed: int, p: dict) -> decomp.DecompSpec:
    monthly = granularity == MONTHLY
    return decomp.DecompSpec(
        n_changepoints=p.get("n_changepoints", 10 if monthly else 25),
        changepoint_range=p.get("changepoint_range", 0.8),
        weekly_order=p.get("weekly_order", 0 if monthly else 3),
        yearly_order=p.get("yearly_order", 3 if monthly else 10),
        trend_penalty=p.get("trend_penalty", 10.0),
    )


def _lstm_spec(granularity: str, seed: int, p: dict) -> neural.LstmSpec:
    monthly = granularity == MONTHLY
    return neural.LstmSpec(
        lookback=p.get("lookback", 6 if monthly else 28),
        hidden=p.get("hidden", 16 if monthly else 32),
        epochs=p.get("epochs", 2500 if monthly else 200),
        learning_rate=p.get("learning_rate", 5e-3 if monthly else 1e-3),
        seed=p.get("seed", seed),
        use_weekday=p.get("use_weekday", not monthly),
        use_month=p.get("use_month", False),
    )


def _tcn_spec(granularity: str, seed: int, p: dict) -> neural.TcnSpec:
    monthly = granularity == MONTHLY
    return neural.TcnSpec(
        kernel=p.get("kernel", 2 if monthly else 3),
        dilations=tuple(p.get("dilations", (1, 2, 4) if monthly else (1, 2, 4, 8))),
        channels=p.get("channels", 8 if monthly else 16),
        epochs=p.get("epochs", 2500 if monthly else 200),
        learning_rate=p.get("learning_rate", 5e-3 if monthly else 1e-3),
        seed=p.get("seed", seed),
    )


def _gbt_spec(granularity: str, seed: int, p: dict) -> gbtrees.GbtSpec:
    monthly = granularity == MONTHLY
    calendar = {"month", "linear_index"} if monthly else {"weekday", "month", "linear_index"}
    return gbtrees.GbtSpec(
        n_trees=p.get("n_trees", 200),
        max_depth=p.get("max_depth", 4),
        learning_rate=p.get("learning_rate", 0.1),
        min_samples_leaf=p.get("min_samples_leaf", 5),
        lags=tuple(p.get("lags", (1, 2, 3, 6, 12) if monthly else tuple(range(1, 15)))),
        ma_windows=tuple(p.get("ma_windows", (3, 6) if monthly else (7, 28))),
        calendar=frozenset(p.get("calendar", calendar)),
    )


# name -> (spec builder, fit(series, spec), forecast(fitted, series, spec,
# horizon, level)). The lambdas look each model function up on its module at
# call time, so a function replaced on the module (say, wrapped to time it)
# is the one that runs.
MODELS = {
    "arima": (_arima_spec, lambda s, spec: arima.fit(s, spec),
              lambda m, s, spec, h, level: arima.forecast(m, s, spec, h, level=level)),
    "decomp": (_decomp_spec, lambda s, spec: decomp.fit(s, spec),
               lambda m, s, spec, h, level: decomp.forecast(m, s, h, level=level)),
    "lstm": (_lstm_spec, lambda s, spec: neural.lstm_fit(s, spec)[0],
             lambda m, s, spec, h, level: neural.lstm_forecast(m, s, h, spec, level=level)),
    "tcn": (_tcn_spec, lambda s, spec: neural.tcn_fit(s, spec)[0],
            lambda m, s, spec, h, level: neural.tcn_forecast(m, s, h, spec, level=level)),
    "gbt": (_gbt_spec, lambda s, spec: gbtrees.fit_series(s, spec),
            lambda m, s, spec, h, level: gbtrees.forecast_recursive(m, s, spec, h, level=level)),
}
MODEL_NAMES = tuple(MODELS)


def _spec(name: str, granularity: str, seed: int, params: dict):
    if name not in MODELS:
        raise ValueError(f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    try:
        return MODELS[name][0](granularity, seed, params)
    except ValueError as err:
        raise SchemaError(f"bad {name} parameters: {err}") from err


def forecast_model(name: str, series: CountSeries, horizon: int, seed: int = 0,
                   params: dict | None = None, level: float = 0.95) -> Forecast:
    """Fit the named model and forecast from the last observed period.

    The model trains on the masked series as given (only observed values
    are ever read) and forecasts from the series truncated at the last
    observed period, so lookback windows end on real data.
    """
    spec = _spec(name, series.granularity, seed, dict(params or {}))
    _, fit, forecast = MODELS[name]
    fitted = fit(series, spec)
    trimmed = series.head(series.last_observed_index() + 1)
    return forecast(fitted, trimmed, spec, horizon, level)


def build_factory(name: str, granularity: str = DAILY, seed: int = 0,
                  params: dict | None = None) -> ForecastFactory:
    """Backtest adapter: points aligned to the periods after the train range.

    The spec is built once up front so that a bad parameter fails before
    any fold is fitted.
    """
    frozen_params = dict(params or {})
    _spec(name, granularity, seed, frozen_params)

    def fit_forecast(train: CountSeries, horizon: int) -> np.ndarray:
        gap = len(train) - 1 - train.last_observed_index()
        fc = forecast_model(name, train, gap + horizon, seed=seed, params=frozen_params)
        return np.asarray(fc.point[gap:], dtype=float)

    return ForecastFactory(name, fit_forecast)


def default_factories(granularity: str = DAILY, seed: int = 0,
                      params: dict[str, dict] | None = None) -> list[ForecastFactory]:
    """All five factories with granularity-appropriate presets."""
    params = params or {}
    return [build_factory(name, granularity, seed, params.get(name)) for name in MODEL_NAMES]
