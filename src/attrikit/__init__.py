"""Equipment-loss forecasting toolkit.

Pipeline: ingest loss records -> masked count series -> one of five
forecast model families (ARIMA, additive decomposition, LSTM, TCN,
gradient-boosted trees) -> rolling-origin evaluation -> CSV/SVG outputs.

The public names below are imported from their modules on first use
(PEP 562), so ``import attrikit`` loads no numpy and no model code.
"""

import importlib

# submodule -> the public names it defines
_EXPORTS = {
    "errors": ("AttrikitError", "ConvergenceError", "ModelError", "SchemaError"),
    "evaluate": ("BacktestSpec", "ForecastFactory", "MetricReport", "ModelComparison",
                 "compare", "metrics", "rolling_backtest"),
    "factories": ("MODEL_NAMES", "build_factory", "default_factories", "forecast_model"),
    "ingest": ("Category", "GeoIndex", "IngestReport", "LossRecord", "Profile", "Regime",
               "Status", "default_profile", "generate_synthetic", "normalize_geo", "parse_records"),
    "series": ("CountSeries", "ExclusionWindow", "Forecast", "SupervisedMatrix",
               "aggregate", "apply_exclusions", "make_supervised"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return globals().setdefault(name, value)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
