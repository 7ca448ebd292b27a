"""ARIMA(p,d,q) with intercept by conditional sum of squares.

Estimation minimizes the conditional sum of squared innovations with
Nelder-Mead over a partial-autocorrelation reparameterization, which keeps
every iterate stationary and invertible by construction. Masked interior
gaps restart the innovation recursion, so no residual ever spans excluded
periods. CSS is simpler than exact likelihood and adequate at the series
lengths this toolkit targets; estimates of small samples can differ
slightly from exact-MLE implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import linear_filter
from .errors import ModelError
from .optim import nelder_mead
from .series import (CountSeries, Forecast, check_fit_input, check_integer_fields, forecast_input, period_start,
                     split_runs)
from .stats import two_sided_z

# Nelder-Mead iterations a fit may take before it raises ConvergenceError.
MAX_ITER = 2000


@dataclass(frozen=True)
class ArimaSpec:
    p: int = 1
    d: int = 1
    q: int = 1
    use_log: bool = True
    intercept: bool = True

    def __post_init__(self):
        check_integer_fields(self)
        if not 0 <= self.p <= 5 or not 0 <= self.q <= 5:
            raise ValueError("p and q must lie in 0..5")
        if not 0 <= self.d <= 2:
            raise ValueError("d must lie in 0..2")


@dataclass(frozen=True)
class ArimaFit:
    spec: ArimaSpec
    phi: np.ndarray
    theta: np.ndarray
    mu: float
    sigma2: float
    loglik: float
    aic: float
    n_used: int
    granularity: str


def _pacf_to_ar(pacf: np.ndarray) -> np.ndarray:
    """Durbin-Levinson map from partial autocorrelations in (-1,1) to a
    stationary AR coefficient vector."""
    phi = np.empty(0)
    for k, pk in enumerate(pacf):
        prev = phi
        phi = np.empty(k + 1)
        phi[:k] = prev - pk * prev[::-1]
        phi[k] = pk
    return phi


def _unpack(x: np.ndarray, spec: ArimaSpec) -> tuple[np.ndarray, np.ndarray, float]:
    p, q = spec.p, spec.q
    phi = _pacf_to_ar(np.tanh(x[:p])) if p else np.empty(0)
    # Invertible MA coefficients come from the same stationarity map.
    theta = -_pacf_to_ar(np.tanh(x[p:p + q])) if q else np.empty(0)
    mu = float(x[p + q]) if spec.intercept else 0.0
    return phi, theta, mu


def _observed_segments(series: CountSeries, use_log: bool) -> list[np.ndarray]:
    """Maximal contiguous observed runs, already transformed."""
    idx, vals = series.observed()
    if use_log:
        if np.any(vals < 0):
            raise ModelError("log transform requires non-negative values")
        vals = np.log1p(vals)
    return split_runs(idx, vals)


def _diff_segments(segments: list[np.ndarray], d: int) -> list[np.ndarray]:
    out = []
    for seg in segments:
        if len(seg) > d:
            out.append(np.diff(seg, n=d) if d else seg)
    return out


def _innovations(z: np.ndarray, phi: np.ndarray, theta: np.ndarray, mu: float) -> np.ndarray:
    """MA-filtered residuals of one segment longer than p, conditioned on its
    first p values with pre-segment innovations at zero."""
    p = len(phi)
    zt = z - mu
    u = zt[p:].copy()
    for i in range(1, p + 1):
        u -= phi[i - 1] * zt[p - i:len(zt) - i]
    return linear_filter(np.concatenate(([1.0], theta)), u)


def _css(zsegs: list[np.ndarray], phi: np.ndarray, theta: np.ndarray, mu: float) -> tuple[float, int]:
    """Conditional sum of squares over the segments longer than p."""
    total, n_used = 0.0, 0
    for z in zsegs:
        if len(z) <= len(phi):
            continue
        e = _innovations(z, phi, theta, mu)
        total += float(e @ e)
        n_used += len(e)
    return total, n_used


def fit(series: CountSeries, spec: ArimaSpec) -> ArimaFit:
    """Estimate (phi, theta, mu) by CSS with a fixed, deterministic start.

    The optimizer walks the transformed space from phi = theta = 0 and
    mu = the sample mean of the differenced data, so identical inputs give
    identical fits. The series needs p + q + d + 10 observed periods, p + d
    + 1 of them consecutive, so that some differenced segment is longer than
    p and the sum of squares has a residual.
    """
    check_fit_input(series, spec.p + spec.q + spec.d + 10, spec.p + spec.d + 1)
    zsegs = _diff_segments(_observed_segments(series, spec.use_log), spec.d)
    mu0 = float(np.concatenate(zsegs).mean()) if spec.intercept else 0.0

    n_params = spec.p + spec.q + (1 if spec.intercept else 0)
    x0 = np.zeros(n_params)
    if spec.intercept:
        x0[-1] = mu0

    def objective(x: np.ndarray) -> float:
        return _css(zsegs, *_unpack(x, spec))[0]

    if n_params:
        result = nelder_mead(objective, x0, max_iter=MAX_ITER)
        x_best = result.x
    else:
        x_best = x0
    phi, theta, mu = _unpack(x_best, spec)
    css, n_used = _css(zsegs, phi, theta, mu)
    sigma2 = max(css / n_used, 1e-12)
    loglik = -0.5 * n_used * (np.log(2.0 * np.pi * sigma2) + 1.0)
    aic = 2.0 * (n_params + 1) - 2.0 * loglik  # sigma2 is the extra parameter
    return ArimaFit(spec=spec, phi=phi, theta=theta, mu=mu, sigma2=sigma2, loglik=float(loglik),
                    aic=float(aic), n_used=n_used, granularity=series.granularity)


def _psi_weights(phi: np.ndarray, theta: np.ndarray, d: int, horizon: int) -> np.ndarray:
    """MA-infinity weights of the integrated process, for forecast variance."""
    ar_poly = np.concatenate(([1.0], -phi))
    for _ in range(d):
        ar_poly = np.convolve(ar_poly, [1.0, -1.0])
    c = ar_poly[1:]  # A(B) = 1 + sum c_i B^i
    psi = np.zeros(horizon)
    psi[0] = 1.0
    for j in range(1, horizon):
        acc = theta[j - 1] if j - 1 < len(theta) else 0.0
        for i in range(1, min(j, len(c)) + 1):
            acc -= c[i - 1] * psi[j - i]
        psi[j] = acc
    return psi


def forecast(fit_result: ArimaFit, series: CountSeries, horizon: int,
             level: float = 0.95) -> Forecast:
    """Iterate the fitted spec's ARMA recursion with future innovations at zero.

    Runs on the differenced (and log) scale, integrates back through the
    differencing anchors of the final observed segment, and maps point and
    bounds through the inverse log transform when one was used. No
    back-transform bias correction is applied: the point path is the
    transformed-scale path mapped directly. The input depth
    ``forecast_input`` checks is max(d + 1, p + d).
    """
    spec = fit_result.spec
    p, q = spec.p, spec.q
    series = forecast_input(series, fit_result.granularity, max(spec.d + 1, p + spec.d), horizon, level)
    final = _observed_segments(series, spec.use_log)[-1]
    z = np.diff(final, n=spec.d) if spec.d else final.copy()

    zt = list(z - fit_result.mu)
    # Innovations over the final segment, conditioned exactly as in fitting,
    # after max(p, q) pre-sample ones at zero: a short final run is read q back.
    e_hist = [0.0] * max(p, q)
    if len(z) > p:
        e_hist += list(_innovations(z, fit_result.phi, fit_result.theta, fit_result.mu))

    z_future = []
    for _ in range(horizon):
        val = 0.0
        for i in range(1, p + 1):
            val += fit_result.phi[i - 1] * zt[-i]
        for j in range(1, q + 1):
            val += fit_result.theta[j - 1] * e_hist[-j]
        z_future.append(val)
        zt.append(val)
        e_hist.append(0.0)
    z_path = fit_result.mu + np.asarray(z_future)

    # Integrate back through the final segment's tail values, from the (d-1)th difference down.
    w_path = z_path
    for k in range(spec.d - 1, -1, -1):
        w_path = np.cumsum(np.concatenate(([np.diff(final, n=k)[-1]], w_path)))[1:]

    psi = _psi_weights(fit_result.phi, fit_result.theta, spec.d, horizon)
    half = two_sided_z(level) * np.sqrt(fit_result.sigma2 * np.cumsum(psi**2))
    lower, upper = w_path - half, w_path + half

    if spec.use_log:
        w_path, lower, upper = np.expm1(w_path), np.expm1(lower), np.expm1(upper)

    origin = period_start(series.start, series.granularity, len(series))
    return Forecast(series.granularity, origin, w_path, lower, upper, level, interval_method="gaussian_psi")
