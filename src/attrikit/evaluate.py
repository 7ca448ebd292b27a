"""Rolling-origin backtesting, point metrics, and model comparison.

Folds use an expanding window: each origin fits on everything strictly
before it (masks respected) and scores point forecasts against observed
actuals only. Masked actual periods are skipped, never imputed, matching
how exclusion windows are treated during training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Callable

import numpy as np

from .errors import ModelError
from .series import CountSeries, period_start


@dataclass(frozen=True)
class BacktestSpec:
    initial_train: int
    step: int
    horizon: int
    granularity: str | None = None

    def __post_init__(self):
        if self.initial_train < 1 or self.step < 1 or self.horizon < 1:
            raise ValueError("initial_train, step, and horizon must all be >= 1")


@dataclass(frozen=True)
class FoldMetrics:
    origin: date
    mae: float
    rmse: float
    smape: float
    n_points: int


@dataclass
class MetricReport:
    mae: float
    rmse: float
    smape: float
    n_points: int
    per_fold: list[FoldMetrics] = field(default_factory=list)


@dataclass(frozen=True)
class ForecastFactory:
    """Named fit+forecast procedure.

    ``fit_forecast(train, horizon)`` must return point predictions for the
    ``horizon`` periods immediately following the training series' range,
    bridging any trailing masked gap internally.
    """

    name: str
    fit_forecast: Callable[[CountSeries, int], np.ndarray]


@dataclass
class ModelComparison:
    reports: dict[str, MetricReport]
    spec: BacktestSpec
    fingerprint: str
    ranking: list[str]  # by rmse ascending, name as tiebreak


def metrics(actual, predicted) -> MetricReport:
    """MAE, RMSE, and sMAPE (0..200 scale, 0/0 terms count as 0)."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.ndim != 1:
        raise ValueError(f"length mismatch: {actual.shape} vs {predicted.shape}")
    if actual.size == 0:
        raise ValueError("metrics need at least one point")
    if not (np.isfinite(actual).all() and np.isfinite(predicted).all()):
        raise ValueError("metrics require finite values")

    err = actual - predicted
    mae = float(np.mean(np.abs(err)))
    rmse = float(np.sqrt(np.mean(err**2)))
    denom = np.abs(actual) + np.abs(predicted)
    terms = np.where(denom > 0, 200.0 * np.abs(err) / np.where(denom > 0, denom, 1.0), 0.0)
    smape = float(np.mean(terms))
    return MetricReport(mae=mae, rmse=rmse, smape=smape, n_points=int(actual.size))


def fold_origins(n: int, spec: BacktestSpec) -> list[int]:
    """Origins at initial_train, +step, ... while a full horizon remains."""
    return list(range(spec.initial_train, n - spec.horizon + 1, spec.step))


def _nonempty_origins(n: int, spec: BacktestSpec) -> list[int]:
    """``fold_origins``, or a ModelError when there are none."""
    origins = fold_origins(n, spec)
    if not origins:
        raise ModelError(
            f"zero folds: series length {n} < initial_train {spec.initial_train} "
            f"+ horizon {spec.horizon}"
        )
    return origins


def rolling_backtest(factory: ForecastFactory, series: CountSeries, spec: BacktestSpec) -> MetricReport:
    if spec.granularity is not None and spec.granularity != series.granularity:
        raise ValueError(f"backtest granularity {spec.granularity!r} does not match series")
    origins = _nonempty_origins(len(series), spec)

    folds: list[FoldMetrics] = []
    for origin in origins:
        day = period_start(series.start, series.granularity, origin)
        try:
            preds = np.asarray(factory.fit_forecast(series.head(origin), spec.horizon), dtype=float)
        except ModelError as err:
            err.args = (f"fold at {day}: {err}", *err.args[1:])
            raise
        if preds.shape != (spec.horizon,):
            raise ModelError(
                f"factory {factory.name!r} returned {preds.shape} predictions, expected {(spec.horizon,)}"
            )
        scored = series.mask[origin:origin + spec.horizon]
        actual = series.values[origin:origin + spec.horizon][scored]
        predicted = preds[scored]
        if actual.size == 0:
            continue  # the whole horizon is masked; nothing to score
        fold = metrics(actual, predicted)
        folds.append(FoldMetrics(
            origin=day,
            mae=fold.mae, rmse=fold.rmse, smape=fold.smape, n_points=fold.n_points,
        ))

    if not folds:
        raise ModelError("every fold's scoring horizon was masked; nothing to evaluate")

    weights = np.array([f.n_points for f in folds], dtype=float)
    total = weights.sum()
    return MetricReport(
        mae=float(sum(f.mae * f.n_points for f in folds) / total),
        rmse=float(sum(f.rmse * f.n_points for f in folds) / total),
        smape=float(sum(f.smape * f.n_points for f in folds) / total),
        n_points=int(total),
        per_fold=folds,
    )


def compare(factories: list[ForecastFactory], series: CountSeries, spec: BacktestSpec) -> ModelComparison:
    """Backtest every factory on identical folds and rank by RMSE."""
    if not factories:
        raise ValueError("need at least one factory")
    names = [f.name for f in factories]
    if len(set(names)) != len(names):
        raise ValueError("factory names must be unique")
    _nonempty_origins(len(series), spec)

    reports: dict[str, MetricReport] = {}
    for factory in factories:
        try:
            reports[factory.name] = rolling_backtest(factory, series, spec)
        except ModelError as err:
            # Name the failing factory; the class and its attributes (such as
            # a ConvergenceError's objective) stay as raised.
            err.args = (f"factory {factory.name!r} failed: {err}", *err.args[1:])
            raise

    ranking = sorted(reports, key=lambda name: (reports[name].rmse, name))
    return ModelComparison(reports=reports, spec=spec, fingerprint=series.fingerprint(),
                           ranking=ranking)
