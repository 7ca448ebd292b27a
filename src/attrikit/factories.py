"""Uniform fit+forecast adapters for the five model families.

Every family meets one contract, ``fit(series, spec) -> fitted`` and
``forecast(fitted, series, horizon, level)``, so one table of names
(``_FAMILIES``) is all that ``MODELS`` needs to serve each of them.

``forecast_model`` fits the named model on a masked series and forecasts
the periods following the last observed one (``series.forecast_input``),
so a trailing exclusion window simply moves the origin back onto observed
data. The backtest factories built on top realign those forecasts to
absolute periods by forecasting through any trailing masked gap and
dropping the gap steps.

The daily presets are the spec dataclass defaults. Monthly presets differ
because monthly histories are short: smaller lookbacks/receptive fields, no
weekday features, and more optimizer steps for the full-batch neural fits.
They are every per-granularity setting there is: a model given a daily-only
calendar feature on monthly data raises ModelError rather than drop it.
Everything can be overridden per model through ``params``; a parameter a
spec rejects is a SchemaError.
"""

from __future__ import annotations

import dataclasses
import importlib

import numpy as np

from .errors import ModelError, SchemaError
from .evaluate import ForecastFactory
from .series import DAILY, MONTHLY, CountSeries, Forecast


# Spec fields that differ on monthly data; every other value, and every daily
# one, is the spec dataclass default.
MONTHLY_PRESETS = {
    "decomp": {"n_changepoints": 10, "weekly_order": 0, "yearly_order": 3},
    "lstm": {"lookback": 6, "hidden": 16, "epochs": 2500, "learning_rate": 5e-3, "use_weekday": False},
    "tcn": {"kernel": 2, "dilations": (1, 2, 4), "channels": 8, "epochs": 2500, "learning_rate": 5e-3},
    "gbt": {"lags": (1, 2, 3, 6, 12), "ma_windows": (3, 6), "calendar": frozenset({"month", "linear_index"})},
}


# Each family's (module, spec class, fit, forecast) names. A fitted model
# carries its spec, so a forecast reads no other.
_FAMILIES = {
    "arima": ("arima", "ArimaSpec", "fit", "forecast"),
    "decomp": ("decomp", "DecompSpec", "fit", "forecast"),
    "lstm": ("neural", "LstmSpec", "lstm_fit", "lstm_forecast"),
    "tcn": ("neural", "TcnSpec", "tcn_fit", "tcn_forecast"),
    "gbt": ("gbtrees", "GbtSpec", "fit_series", "forecast_recursive"),
}
MODEL_NAMES = tuple(_FAMILIES)


class _Models(dict):
    """name -> (spec class, fit, forecast), made when the family is first
    requested, so that a run imports only the model modules it fits. Each
    function is looked up on its module at call time, so a function replaced
    there (say, wrapped to time it) is the one that runs."""

    def __missing__(self, name: str):
        module_name, spec_class, fit, forecast = _FAMILIES[name]
        module = importlib.import_module(f".{module_name}", __package__)
        return self.setdefault(name, (
            getattr(module, spec_class),
            lambda series, spec: getattr(module, fit)(series, spec),
            lambda fitted, series, horizon, level: getattr(module, forecast)(fitted, series, horizon, level),
        ))


MODELS = _Models()


def _spec(name: str, granularity: str, seed: int, params: dict):
    """The model's spec: its monthly presets on monthly data, then ``seed``,
    then every ``params`` key that names a spec field."""
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    spec_class = MODELS[name][0]
    fields = {f.name for f in dataclasses.fields(spec_class)}
    values = dict(MONTHLY_PRESETS.get(name, {})) if granularity == MONTHLY else {}
    if "seed" in fields:
        values["seed"] = seed
    values.update((key, value) for key, value in params.items() if key in fields)
    try:
        return spec_class(**values)
    except ValueError as err:
        raise SchemaError(f"bad {name} parameters: {err}") from err


def forecast_model(name: str, series: CountSeries, horizon: int, seed: int = 0,
                   params: dict | None = None, level: float = 0.95) -> Forecast:
    """Fit the named model on the masked series as given (only observed
    values are ever read) and forecast from it; each family's forecast
    starts after the last observed period, so lookback windows end on
    real data.
    """
    spec = _spec(name, series.granularity, seed, dict(params or {}))
    _, fit, forecast = MODELS[name]
    return forecast(fit(series, spec), series, horizon, level)


def build_factory(name: str, granularity: str = DAILY, seed: int = 0,
                  params: dict | None = None) -> ForecastFactory:
    """Backtest adapter: points aligned to the periods after the train range.

    The spec is built once up front so that a bad parameter fails before
    any fold is fitted.
    """
    frozen_params = dict(params or {})
    _spec(name, granularity, seed, frozen_params)

    def fit_forecast(train: CountSeries, horizon: int) -> np.ndarray:
        if not train.mask.any():
            raise ModelError("the training range has no observed periods")
        gap = len(train) - 1 - train.last_observed_index()
        fc = forecast_model(name, train, gap + horizon, seed=seed, params=frozen_params)
        return np.asarray(fc.point[gap:], dtype=float)

    return ForecastFactory(name, fit_forecast)


def default_factories(granularity: str = DAILY, seed: int = 0,
                      params: dict[str, dict] | None = None) -> list[ForecastFactory]:
    """All five factories with granularity-appropriate presets."""
    params = params or {}
    return [build_factory(name, granularity, seed, params.get(name)) for name in MODEL_NAMES]
