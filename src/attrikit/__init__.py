"""Equipment-loss forecasting toolkit.

Pipeline: ingest loss records -> masked count series -> one of five
forecast model families (ARIMA, additive decomposition, LSTM, TCN,
gradient-boosted trees) -> rolling-origin evaluation -> CSV/SVG outputs.
"""

from .errors import AttrikitError, ConvergenceError, ModelError, SchemaError
from .evaluate import BacktestSpec, ForecastFactory, MetricReport, ModelComparison, compare, metrics, rolling_backtest
from .factories import MODEL_NAMES, build_factory, default_factories, forecast_model
from .ingest import (
    Category,
    GeoIndex,
    IngestReport,
    LossRecord,
    Profile,
    Regime,
    Status,
    default_profile,
    generate_synthetic,
    normalize_geo,
    parse_records,
)
from .series import (
    CountSeries,
    ExclusionWindow,
    Forecast,
    SupervisedMatrix,
    aggregate,
    apply_exclusions,
    make_supervised,
)

__version__ = "0.1.0"

__all__ = [
    "AttrikitError", "ConvergenceError", "ModelError", "SchemaError",
    "BacktestSpec", "ForecastFactory", "MetricReport", "ModelComparison",
    "compare", "metrics", "rolling_backtest",
    "MODEL_NAMES", "build_factory", "default_factories", "forecast_model",
    "Category", "GeoIndex", "IngestReport", "LossRecord", "Profile", "Regime",
    "Status", "default_profile", "generate_synthetic", "normalize_geo", "parse_records",
    "CountSeries", "ExclusionWindow", "Forecast", "SupervisedMatrix",
    "aggregate", "apply_exclusions", "make_supervised",
    "__version__",
]
