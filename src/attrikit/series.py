"""Masked count series, the forecast contract, and the feature machinery
shared by all models.

A CountSeries is a contiguous run of daily or monthly counts with an
observed mask. Days with no matching records are real zero observations;
administratively excluded spans are masked out instead of zeroed, and every
model trains only on masked-in data. Model code reads training values
exclusively through ``CountSeries.observed`` and ``CountSeries.history``
(NaN at every period that is not observed), which keeps that promise
auditable. Both granularities share one calendar: ``period_days`` maps
periods to their first days and ``period_index`` days to their periods.
"""

from __future__ import annotations

import csv
import hashlib
import io
import numbers
from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, fields
from datetime import date

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ModelError
from .ingest import Category, LossRecord, check_categories
from .stats import two_sided_z

DAILY = "daily"
MONTHLY = "monthly"

WEEKDAY_FEATURES = 7   # Monday first
MONTH_FEATURES = 12

CALENDAR_FLAGS = ("weekday", "month", "linear_index")

# Longest forecast any model will make; extrapolating further is not meaningful.
MAX_HORIZON = 366

# The last day a ``date`` holds, and the ordinal of day 0 of ``datetime64``.
LAST_DAY = np.datetime64(date.max, "D")
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()


def period_days(start: date, granularity: str, t) -> np.ndarray:
    """First day of each period ``t`` (an int or an int array) as
    ``datetime64[D]``; period 0 is the one holding ``start``."""
    if granularity == DAILY:
        return np.datetime64(start, "D") + t
    return (np.datetime64(start, "M") + t).astype("M8[D]")


def period_index(start: date, granularity: str, days) -> np.ndarray:
    """Index of the period holding each of ``days`` (a date, dates or a
    ``datetime64`` array); may be negative or past the end."""
    unit = "D" if granularity == DAILY else "M"
    return (np.asarray(days, f"M8[{unit}]") - np.datetime64(start, unit)).astype(np.int64)


def period_start(start: date, granularity: str, i: int) -> date:
    """First day of period ``i``: ``period_days`` of one period."""
    return period_days(start, granularity, i).item()


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Contiguous masked counts at daily or monthly granularity."""

    granularity: str
    start: date
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.granularity not in (DAILY, MONTHLY):
            raise ValueError(f"unknown granularity {self.granularity!r}")
        if self.granularity == MONTHLY and self.start.day != 1:
            raise ValueError("monthly series must start on the first of a month")
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if values.ndim != 1 or mask.shape != values.shape:
            raise ValueError("values and mask must be 1-D and the same length")
        if not np.all(np.isfinite(values)):
            raise ValueError("series values must be finite")
        if period_days(self.start, self.granularity, len(values) - 1) > LAST_DAY:
            raise ValueError(f"the series runs past {date.max}")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)

    def __len__(self) -> int:
        return len(self.values)

    def period_starts(self) -> list[date]:
        return period_days(self.start, self.granularity, np.arange(len(self))).tolist()

    def observed(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and values of masked-in periods.

        The single sanctioned read path for model training code; masked
        values are never returned here.
        """
        idx = np.flatnonzero(self.mask)
        return idx, self.values[idx].copy()

    def history(self, n: int | None = None) -> np.ndarray:
        """Observed values over periods 0..n-1 (n at least the length, its
        default), NaN where a period is masked or past the end: the input
        history every model reads."""
        idx, vals = self.observed()
        history = np.full(len(self) if n is None else n, np.nan)
        history[idx] = vals
        return history

    def last_observed_index(self) -> int:
        idx = np.flatnonzero(self.mask)
        if idx.size == 0:
            raise ValueError("series has no observed periods")
        return int(idx[-1])

    def head(self, n: int) -> "CountSeries":
        """First ``n`` periods, masks carried through."""
        if not 1 <= n <= len(self):
            raise ValueError(f"head length {n} outside 1..{len(self)}")
        return CountSeries(self.granularity, self.start, self.values[:n].copy(), self.mask[:n].copy())

    def fingerprint(self) -> str:
        """Stable hex digest of the serialized series (for traceable reports)."""
        return hashlib.sha256(series_to_csv(self).encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ExclusionWindow:
    """Inclusive date span masked out of training and scoring."""

    start: date
    end: date

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"exclusion window start {self.start} after end {self.end}")


@dataclass(frozen=True)
class SupervisedMatrix:
    """Feature rows with targets for tree and neural regressors."""

    feature_names: tuple[str, ...]
    x: np.ndarray            # (n_rows, n_features)
    y: np.ndarray            # (n_rows,)
    target_dates: tuple[date, ...]

    def __post_init__(self):
        if self.x.ndim != 2 or self.x.shape[1] != len(self.feature_names):
            raise ValueError("feature matrix width must match feature_names")
        if self.x.shape[0] != self.y.shape[0] or self.x.shape[0] != len(self.target_dates):
            raise ValueError("row count mismatch between x, y, and target_dates")


@dataclass(frozen=True)
class Forecast:
    """Point path plus interval bounds, anchored at the origin period.

    This is the forecast contract every model meets: point and bounds are
    clamped at zero (counts cannot go negative) and must then be finite and
    satisfy ``lower <= point <= upper``; a model whose arrays break either
    rule fails here, with a ``ModelError`` for a non-finite step, instead of
    writing it.
    """

    granularity: str
    origin: date
    point: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    level: float
    interval_method: str = "gaussian"

    def __post_init__(self):
        for name in ("point", "lower", "upper"):
            object.__setattr__(self, name, np.maximum(np.asarray(getattr(self, name), dtype=float), 0.0))
        if not (len(self.point) == len(self.lower) == len(self.upper)):
            raise ValueError("forecast arrays must share one length")
        finite = np.isfinite(self.point) & np.isfinite(self.lower) & np.isfinite(self.upper)
        if not finite.all():
            raise ModelError(f"forecast is not finite at step {np.argmin(finite) + 1}")
        if np.any(self.lower > self.point) or np.any(self.point > self.upper):
            raise ValueError("forecast interval violates lower <= point <= upper")

    def __len__(self) -> int:
        return len(self.point)

    def period_starts(self) -> list[date]:
        return period_days(self.origin, self.granularity, np.arange(len(self))).tolist()


def forecast_input(series: CountSeries, granularity: str | None, depth: int, horizon: int,
                   level: float) -> CountSeries:
    """The forecast contract, checked first by every model's forecast.

    ``series`` must have the ``granularity`` the model was fitted on, the
    horizon must lie in 1..MAX_HORIZON and the level in (0, 1). The origin
    is the period after the last observed one, and the ``depth`` periods
    before it, the model's input window, must all be observed, and the last
    forecast period must start by ``date.max``. Returns the series cut at
    that origin, so a trailing masked gap moves the origin back onto
    observed data.
    """
    if series.granularity != granularity:
        raise ModelError(f"model was fitted on {granularity} data; the series is {series.granularity}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if horizon > MAX_HORIZON:
        raise ModelError(f"horizon {horizon} exceeds {MAX_HORIZON} periods; extrapolation that far is not meaningful")
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    origin = series.last_observed_index() + 1
    if origin < depth:
        raise ModelError(f"series shorter than the {depth}-period input window")
    if not series.mask[origin - depth:origin].all():
        raise ModelError(f"masked periods in the final {depth}-period input window before the forecast origin")
    if period_days(series.start, series.granularity, origin + horizon - 1) > LAST_DAY:
        raise ModelError(f"the forecast would run past {date.max}")
    return series.head(origin)


def check_integer_fields(spec) -> None:
    """The spec contract, checked first by every model spec: each field
    annotated ``int`` holds an integer and each ``tuple[int, ...]`` field a
    sequence of them (a tuple, list or range); a bool is not one. The spec
    modules' ``from __future__ import annotations`` keeps each annotation
    as the string compared here. Raises ValueError, which ``factories``
    reports as a SchemaError."""
    def integer(value) -> bool:
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)

    for field in fields(spec):
        value = getattr(spec, field.name)
        if field.type == "int" and not integer(value):
            raise ValueError(f"{field.name} must be an integer, got {value!r}")
        if field.type == "tuple[int, ...]" and not (isinstance(value, Sequence) and all(map(integer, value))):
            raise ValueError(f"{field.name} must be a list of integers, got {value!r}")


def check_fit_input(series: CountSeries, min_observed: int = 1, min_run: int = 1,
                    daily_only: str | None = None) -> None:
    """The fit contract, checked first by every model's fit.

    ``daily_only`` names the model's daily-only features (weekday one-hots,
    weekly terms), which a monthly series lacks. The series must then hold
    at least ``min_observed`` observed periods, ``min_run`` of them
    consecutive: the data a model needs to fit at all.
    """
    if daily_only and series.granularity != DAILY:
        raise ModelError(f"{daily_only} require a daily series")
    n_obs = int(series.mask.sum())
    if n_obs == 0:
        raise ModelError("the training range has no observed periods")
    if n_obs < min_observed:
        raise ModelError(f"need at least {min_observed} observed periods, have {n_obs}")
    longest = int(run_lengths(series.mask).max())
    if longest < min_run:
        raise ModelError(f"need {min_run} consecutive observed periods; the longest run is {longest}")


def recursive_forecast(series: CountSeries, horizon: int, level: float, rmse: float,
                       step: Callable[[np.ndarray, int], float]) -> Forecast:
    """Forecast the ``horizon`` periods after ``series`` one step at a time.

    ``step(history, t)`` predicts period ``t`` from ``history``: ``series.history``,
    then every earlier prediction clamped at zero (the pseudo-history fed back).
    ``series`` is what ``forecast_input`` returns, so every input window
    is real data or fed-back predictions. Bounds are point +/- z * rmse *
    sqrt(step), a heuristic and labeled as such; the origin is the period
    after the series.
    """
    n = len(series)
    history = series.history(n + horizon)
    for t in range(n, n + horizon):
        history[t] = max(step(history, t), 0.0)
    points = history[n:]
    half = two_sided_z(level) * rmse * np.sqrt(np.arange(1, horizon + 1))
    origin = period_start(series.start, series.granularity, n)
    return Forecast(series.granularity, origin, points, points - half, points + half, level,
                    interval_method="train_rmse_sqrt_step_heuristic")


# --------------------------------------------------------------------------
# Construction and masking


def aggregate(
    records: list[LossRecord],
    granularity: str,
    category_filter: set[Category] | None = None,
    date_range: tuple[date, date] | None = None,
) -> CountSeries:
    """Count matching records per period over ``date_range`` (inclusive).

    Periods with no matching records get an observed zero: within
    coverage, the absence of a confirmed loss is a real observation of
    zero under minimum-count semantics. ``category_filter`` holds Category
    members (``ingest.check_categories``).
    """
    check_categories(category_filter)
    if date_range is None:
        if not records:
            raise ValueError("cannot infer a date range from zero records")
        days = [r.date for r in records]
        date_range = (min(days), max(days))
    lo, hi = date_range
    if lo is None or hi is None:
        raise ValueError("empty date range")
    if lo > hi:
        raise ValueError(f"date range start {lo} after end {hi}")

    start = period_start(lo, granularity, 0)
    n = int(period_index(start, granularity, hi)) + 1
    selected = records if category_filter is None else [r for r in records if r.category in category_filter]
    ordinals = np.array([r.date.toordinal() for r in selected], dtype=np.int64)
    ordinals = ordinals[(ordinals >= lo.toordinal()) & (ordinals <= hi.toordinal())]
    days = (ordinals - EPOCH_ORDINAL).astype("M8[D]")
    values = np.bincount(period_index(start, granularity, days), minlength=n).astype(float)
    return CountSeries(granularity, start, values, np.ones(n, dtype=bool))


def apply_exclusions(series: CountSeries, windows: list[ExclusionWindow]) -> CountSeries:
    """Mask every period overlapping any window; values stay untouched.

    A period partially covered by a window is wholly masked. Windows
    outside the series range are no-ops, and reapplication is idempotent.
    """
    mask = series.mask.copy()
    for w in windows:
        first, stop = np.clip(period_index(series.start, series.granularity, [w.start, w.end]) + [0, 1], 0, len(mask))
        mask[first:stop] = False
    return CountSeries(series.granularity, series.start, series.values.copy(), mask)


# --------------------------------------------------------------------------
# Supervised matrix


def check_features(lags: Collection[int], ma_windows: Collection[int], calendar: Collection[str]) -> None:
    """The feature rule ``make_supervised`` and ``GbtSpec`` share: known
    calendar flags, at least one feature, and lags and windows >= 1."""
    unknown = set(calendar) - set(CALENDAR_FLAGS)
    if unknown:
        raise ValueError(f"unknown calendar flags: {sorted(unknown)}")
    if not (lags or ma_windows or calendar):
        raise ValueError("no features requested: lags, ma_windows and calendar all empty")
    for name, values in (("lag", lags), ("moving-average window", ma_windows)):
        if any(v < 1 for v in values):
            raise ValueError(f"{name} must be >= 1, got {min(values)}")


def make_supervised(
    series: CountSeries,
    lags: list[int],
    ma_windows: list[int],
    calendar: set[str] | None = None,
) -> SupervisedMatrix:
    """One row per period whose target and full feature history are observed.

    Rows whose target, any lag, or any moving-average span touches a
    masked period are dropped outright; masked data is never imputed.
    Moving averages are trailing means over the w periods ending at t-1,
    so no feature sees the target or its future.
    """
    calendar = set(calendar or ())
    check_features(lags, ma_windows, calendar)
    history = series.history()
    missing = np.isnan(history)
    n_obs = len(history) - int(missing.sum())
    if n_obs == 0:
        raise ValueError("series has no observed periods")

    depth = max(list(lags) + list(ma_windows), default=0)
    if depth >= n_obs:
        raise ValueError(f"max lag/window {depth} exceeds observed length {n_obs}")

    names = [f"lag_{k}" for k in sorted(lags)] + [f"ma_{w}" for w in sorted(ma_windows)]
    if "weekday" in calendar:
        if series.granularity != DAILY:
            raise ValueError("weekday features require daily granularity")
        names += [f"weekday_{i}" for i in range(WEEKDAY_FEATURES)]
    if "month" in calendar:
        names += [f"month_{i}" for i in range(1, MONTH_FEATURES + 1)]
    if "linear_index" in calendar:
        names.append("linear_index")
    n = len(series)
    dropped = missing[depth:].copy()
    columns = []
    for k in sorted(lags):
        columns.append(history[depth - k:n - k])
        dropped |= missing[depth - k:n - k]
    for w in sorted(ma_windows):
        columns.append(sliding_window_view(history, w)[depth - w:n - w].mean(axis=1))
        dropped |= sliding_window_view(missing, w)[depth - w:n - w].any(axis=1)
    days = period_days(series.start, series.granularity, np.arange(depth, n))
    columns.append(target_calendar(days, series.start, calendar))
    keep = ~dropped
    x = np.column_stack(columns)[keep]
    return SupervisedMatrix(tuple(names), x, history[depth:][keep], tuple(days[keep].tolist()))


def run_lengths(mask: np.ndarray) -> np.ndarray:
    """Length of the observed run ending at each period (0 where masked)."""
    count = np.cumsum(mask)
    return count - np.maximum.accumulate(np.where(mask, 0, count))


def split_runs(idx: np.ndarray, values: np.ndarray) -> list[np.ndarray]:
    """``values`` split where the increasing period indices ``idx`` skip
    a period: one array per run of consecutive observed periods."""
    return np.split(values, np.flatnonzero(np.diff(idx) > 1) + 1)


def target_calendar(days: np.ndarray, start: date, calendar: Collection[str]) -> np.ndarray:
    """The calendar feature columns of target periods starting on ``days``:
    their one-hots, then the days since ``start`` if ``"linear_index"`` is set."""
    columns = calendar_columns(days, calendar)
    if "linear_index" in calendar:
        columns = np.column_stack([columns, period_index(start, DAILY, days).astype(float)])
    return columns


def calendar_columns(days: np.ndarray, flags: Collection[str]) -> np.ndarray:
    """One-hot weekday (Monday first), then month, columns of ``days``
    (``datetime64[D]``) for each of ``"weekday"``/``"month"`` in ``flags``."""
    blocks = [np.empty((len(days), 0))]
    if "weekday" in flags:
        blocks.append(np.eye(WEEKDAY_FEATURES)[(days.astype(np.int64) + 3) % 7])  # 1970-01-01 was a Thursday
    if "month" in flags:
        blocks.append(np.eye(MONTH_FEATURES)[days.astype("M8[M]").astype(np.int64) % 12])
    return np.hstack(blocks)


# --------------------------------------------------------------------------
# CSV round-trips


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def series_to_csv(series: CountSeries) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period_start", "value", "observed"])
    for day, value, obs in zip(series.period_starts(), series.values, series.mask):
        writer.writerow([day.isoformat(), _fmt(value), int(obs)])
    return out.getvalue()


def forecast_to_csv(forecast: Forecast) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["period_start", "point", "lower", "upper", "level"])
    for day, p, lo, hi in zip(forecast.period_starts(), forecast.point, forecast.lower, forecast.upper):
        writer.writerow([day.isoformat(), _fmt(p), _fmt(lo), _fmt(hi), _fmt(forecast.level)])
    return out.getvalue()
