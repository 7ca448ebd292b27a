"""Additive decomposition forecaster.

Piecewise-linear trend with hinge changepoints plus Fourier weekly/yearly
seasonality, fitted by ridge-regularized least squares (penalty on the
changepoint slope deltas only). Masked rows are simply dropped from the
design matrix, which is this model family's native missing-data handling.
Uncertainty comes from the residual standard deviation with a stated
widening rule rather than posterior sampling; that is a deliberate
simplification that keeps the model family intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date

import numpy as np

from ._kernels import cholesky_solve
from .errors import ModelError
from .series import (DAILY, CountSeries, Forecast, check_fit_input, check_integer_fields, forecast_input, period_days,
                     period_index)
from .stats import two_sided_z

WEEKLY_PERIOD = 7.0
YEARLY_PERIOD_DAILY = 365.25
YEARLY_PERIOD_MONTHLY = 12.0


@dataclass(frozen=True)
class DecompSpec:
    n_changepoints: int = 25
    changepoint_range: float = 0.8
    weekly_order: int = 3
    yearly_order: int = 10
    trend_penalty: float = 10.0

    def __post_init__(self):
        check_integer_fields(self)
        if not 0.0 < self.changepoint_range <= 1.0:
            raise ValueError("changepoint_range must lie in (0, 1]")
        if self.weekly_order < 0 or self.yearly_order < 0:
            raise ValueError("Fourier orders must be >= 0")
        if not 0.0 <= self.trend_penalty < np.inf:
            raise ValueError("trend_penalty must be finite and >= 0")
        if self.n_changepoints < 0:
            raise ValueError("n_changepoints must be >= 0")


@dataclass(frozen=True)
class DecompFit:
    k: float                  # base slope per period
    m: float                  # offset
    delta: np.ndarray         # slope adjustments at changepoints
    s: np.ndarray             # changepoint times, fractions of history length
    beta: np.ndarray          # Fourier coefficients, weekly block then yearly
    sigma: float
    granularity: str
    start: date
    t_max: float              # last history period index
    weekly_order: int
    yearly_order: int


def _yearly_period(granularity: str) -> float:
    return YEARLY_PERIOD_DAILY if granularity == DAILY else YEARLY_PERIOD_MONTHLY


def _fourier_block(t: np.ndarray, period: float, order: int) -> np.ndarray:
    cols = []
    for n in range(1, order + 1):
        angle = 2.0 * np.pi * n * t / period
        cols.append(np.sin(angle))
        cols.append(np.cos(angle))
    return np.column_stack(cols) if cols else np.empty((len(t), 0))


def _changepoints(t_obs: np.ndarray, spec: DecompSpec) -> np.ndarray:
    """Uniform quantiles of observed time over the first changepoint_range
    of history, capped so the hinge columns stay meaningfully distinct."""
    cutoff_idx = int(np.floor(spec.changepoint_range * len(t_obs)))
    eligible = t_obs[:cutoff_idx]
    n_cp = min(spec.n_changepoints, max(len(eligible) - 2, 0))
    if n_cp == 0:
        return np.empty(0)
    positions = np.linspace(0, len(eligible) - 1, n_cp + 1)[1:]
    return np.unique(eligible[positions.astype(int)]).astype(float)


def _yearly_order(series: CountSeries, spec: DecompSpec) -> int:
    """The yearly order a fit can use. Yearly harmonics need at least two
    full cycles of observed history to be identifiable (with less, low
    orders are nearly affine and the normal equations go numerically
    singular), and the order is capped below the Nyquist limit of the period."""
    period = _yearly_period(series.granularity)
    idx = np.flatnonzero(series.mask)
    if idx.size == 0 or idx[-1] - idx[0] + 1 < 2.0 * period:
        return 0
    return min(spec.yearly_order, int((period - 1) // 2))


def fit(series: CountSeries, spec: DecompSpec) -> DecompFit:
    """Ridge least squares on observed rows only.

    The series needs one observed period per unpenalized column (trend,
    offset and two per harmonic) and one more for the residual. The normal
    equations are solved through a symmetric positive-definite
    factorization; dependent columns make the system singular, and with a
    zero penalty the error advises a nonzero one. The trend penalty acts on
    the normalized-time delta block (deltas per history length), matching
    the usual normalized parameterization of this model family.
    """
    yearly_order = _yearly_order(series, spec)
    check_fit_input(series, 3 + 2 * (spec.weekly_order + yearly_order),
                    daily_only="weekly seasonality terms" if spec.weekly_order else None)
    idx, vals = series.observed()
    t_obs = idx.astype(float)

    t_max = float(len(series) - 1)
    cps = _changepoints(t_obs, spec)

    # Trend and hinge columns use time scaled to [0,1]: it conditions the
    # Gram matrix, and the per-period slope/deltas are recovered by a
    # linear rescale afterwards. Fourier angles stay in raw periods.
    hinge = np.maximum(t_obs[:, None] - cps[None, :], 0.0) / t_max
    weekly = _fourier_block(t_obs, WEEKLY_PERIOD, spec.weekly_order)
    yearly = _fourier_block(t_obs, _yearly_period(series.granularity), yearly_order)
    x = np.column_stack([t_obs / t_max, np.ones(len(t_obs)), hinge, weekly, yearly])

    penalty = np.zeros(x.shape[1])
    penalty[2:2 + len(cps)] = spec.trend_penalty
    gram = x.T @ x + np.diag(penalty)
    try:
        coef = cholesky_solve(gram, x.T @ vals)
    except np.linalg.LinAlgError as err:
        advice = " with zero trend_penalty; use a nonzero penalty" if spec.trend_penalty == 0 else ""
        raise ModelError(f"singular design: duplicate or dependent columns{advice}") from err

    resid = vals - x @ coef
    sigma = float(np.sqrt(np.mean(resid**2)))
    n_cp = len(cps)
    return DecompFit(
        k=float(coef[0]) / t_max, m=float(coef[1]),
        delta=(coef[2:2 + n_cp] / t_max).copy(),
        s=(cps / t_max).copy(),
        beta=coef[2 + n_cp:].copy(),
        sigma=sigma,
        granularity=series.granularity,
        start=series.start,
        t_max=t_max,
        weekly_order=spec.weekly_order,
        yearly_order=yearly_order,
    )


def _times_for(fit_result: DecompFit, dates: list[date]) -> np.ndarray:
    if not dates:
        raise ValueError("empty date list")
    return period_index(fit_result.start, fit_result.granularity, dates).astype(float)


def _trend(fit_result: DecompFit, t: np.ndarray) -> np.ndarray:
    cps = fit_result.s * fit_result.t_max
    hinge = np.maximum(t[:, None] - cps[None, :], 0.0)
    return fit_result.k * t + fit_result.m + hinge @ fit_result.delta


def _parts(fit_result: DecompFit, t: np.ndarray) -> dict[str, np.ndarray]:
    n_weekly = 2 * fit_result.weekly_order
    weekly = _fourier_block(t, WEEKLY_PERIOD, fit_result.weekly_order) @ fit_result.beta[:n_weekly]
    yearly = (_fourier_block(t, _yearly_period(fit_result.granularity), fit_result.yearly_order)
              @ fit_result.beta[n_weekly:])
    return {"trend": _trend(fit_result, t), "weekly": weekly, "yearly": yearly}


def components(fit_result: DecompFit, dates: list[date]) -> dict[str, np.ndarray]:
    """Trend, weekly, and yearly parts; they sum to the point forecast before clamping."""
    return _parts(fit_result, _times_for(fit_result, dates))


def predict(fit_result: DecompFit, dates: list[date], level: float = 0.95) -> Forecast:
    """Point = trend + seasonality; intervals widen past the history end.

    Half-width is z(level) * sigma * sqrt(1 + t_beyond / T), where t_beyond
    is periods past the end of history and T the history length. Beyond the
    last changepoint the trend extrapolates with its final slope. Point and
    bounds are clamped at zero by the Forecast. Dates must be consecutive
    periods (the Forecast container is contiguous by construction).
    """
    t = _times_for(fit_result, dates)
    if not np.all(np.diff(t) == 1.0):
        raise ValueError("prediction dates must be consecutive periods")

    parts = _parts(fit_result, t)
    point = parts["trend"] + parts["weekly"] + parts["yearly"]

    t_beyond = np.maximum(t - fit_result.t_max, 0.0)
    history_len = fit_result.t_max + 1.0
    half = two_sided_z(level) * fit_result.sigma * np.sqrt(1.0 + t_beyond / history_len)
    return Forecast(fit_result.granularity, dates[0], point, point - half, point + half, level,
                    interval_method="residual_sigma_widening")


def forecast(fit_result: DecompFit, series: CountSeries, horizon: int, level: float = 0.95) -> Forecast:
    """Forecast the ``horizon`` periods after the last observed one of a
    series with the granularity of the fit."""
    series = forecast_input(series, fit_result.granularity, 0, horizon, level)
    n = len(series)
    return predict(fit_result, period_days(series.start, series.granularity, np.arange(n, n + horizon)).tolist(), level)
