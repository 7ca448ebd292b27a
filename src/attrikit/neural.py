"""LSTM and TCN forecasters.

Each model runs its own hand-written forward and backward kernels: the
LSTM a sequence loop with backpropagation through time, the TCN batched
causal convolutions. Neither records a gradient graph; ``autodiff``
supplies only the parameter tensors and Adam. Both offer ``predict(x)``
and ``loss_and_grads(x, y)``, which training, forecasting and
``grad_check`` call. Both models standardize inputs, train full-batch
with Adam from a seeded initialization, and forecast recursively by
feeding each prediction back as pseudo-history. ``lstm_fit`` and
``tcn_fit`` return the fitted model, as every family's fit does; it keeps
its spec and its per-epoch training losses (``epoch_losses``). Interval
bounds use the train-RMSE * sqrt(step) heuristic and are labeled as such
in the forecast metadata. Training is deterministic for a fixed (seed,
data, spec) triple and runs on one BLAS thread whatever the caller's
count, so its bits do not depend on the machine's core count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._kernels import one_blas_thread
from .autodiff import Adam, Tensor
from .errors import ModelError
from .series import (DAILY, CountSeries, Forecast, calendar_columns, check_request, period_days,
                     recursive_forecast, run_lengths)


@dataclass(frozen=True)
class LstmSpec:
    lookback: int = 28
    hidden: int = 32
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0
    use_weekday: bool = True
    use_month: bool = False

    def __post_init__(self):
        if self.lookback < 1 or self.hidden < 1:
            raise ValueError("lookback and hidden must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")


@dataclass(frozen=True)
class TcnSpec:
    kernel: int = 3
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    channels: int = 16
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        if self.kernel < 2:
            raise ValueError("kernel width must be >= 2")
        if not self.dilations or any(d < 1 for d in self.dilations):
            raise ValueError("dilations must be a non-empty list of positive ints")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and > 0")
        object.__setattr__(self, "dilations", tuple(self.dilations))


def receptive_field(spec: TcnSpec) -> int:
    return 1 + (spec.kernel - 1) * sum(spec.dilations)


# --------------------------------------------------------------------------
# Inputs


def _inputs(model, series: CountSeries, n: int) -> np.ndarray:
    """One row per period 0..n-1: the standardized count (NaN where masked
    and past the series), then the calendar one-hots of the period's date."""
    days = period_days(series.start, series.granularity, np.arange(n))
    inputs = np.column_stack([np.full(n, np.nan), calendar_columns(days, model.calendar)])
    idx, vals = series.observed()
    inputs[idx, 0] = (vals - model.mean) / model.std
    return inputs


def _train_windows(model, series: CountSeries) -> tuple[np.ndarray, np.ndarray]:
    """Every window [t-lookback, t] that is fully observed: inputs
    (windows, lookback, features) and standardized targets (windows, 1)."""
    lookback = model.lookback
    targets = np.flatnonzero(run_lengths(series.mask) > lookback)
    if not targets.size:
        raise ModelError(
            f"no training windows: need {lookback + 1} consecutive observed periods"
        )
    inputs = _inputs(model, series, len(series))
    return inputs[targets[:, None] + np.arange(-lookback, 0)], inputs[targets, :1]


# --------------------------------------------------------------------------
# LSTM


class LstmModel:
    """Single LSTM layer (gates: input, forget, output, candidate) plus a
    linear head on the final hidden state.

    Forward and backward are written out by hand: one loop over the
    lookback keeps the activations, and one reverse loop backpropagates
    through time (Werbos 1990). Every product and sum runs in the order
    the generic tape used, so fits are bit-identical to it.
    """

    def __init__(self, spec: LstmSpec, mean: float, std: float):
        self.spec = spec
        self.mean = mean
        self.std = std
        self.rmse_train = float("nan")
        self.epoch_losses: list[float] = []
        self.lookback = spec.lookback
        self.calendar = ("weekday",) * spec.use_weekday + ("month",) * spec.use_month
        n_in = 1 + calendar_columns(np.empty(0, "M8[D]"), self.calendar).shape[1]
        h = spec.hidden
        rng = np.random.default_rng(spec.seed)
        scale = 1.0 / np.sqrt(h)
        self.wx = ad.parameter((n_in, 4 * h), rng, scale)
        self.wh = ad.parameter((h, 4 * h), rng, scale)
        self.b = ad.parameter((4 * h,), rng, scale)
        self.b.value[h:2 * h] = 1.0  # forget gate starts open
        self.w_out = ad.parameter((h, 1), rng, scale)
        self.b_out = ad.parameter((1,), rng, scale)

    def parameters(self) -> list[Tensor]:
        return [self.wx, self.wh, self.b, self.w_out, self.b_out]

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
        """Predictions (n, 1), the last hidden state and, per step,
        (i, f, o, cand, c_prev, tanh(c), h_prev)."""
        n, steps, _ = x.shape
        hs = self.spec.hidden
        wx, wh, b = self.wx.value, self.wh.value, self.b.value
        h = np.zeros((n, hs))
        c = np.zeros((n, hs))
        acts = []
        for t in range(steps):
            gates = x[:, t, :] @ wx + h @ wh + b
            i, f, o = (1.0 / (1.0 + np.exp(-gates[:, k * hs:(k + 1) * hs])) for k in range(3))
            cand = np.tanh(gates[:, 3 * hs:])
            c_prev, h_prev = c, h
            c = f * c + i * cand
            tanh_c = np.tanh(c)
            h = o * tanh_c
            acts.append((i, f, o, cand, c_prev, tanh_c, h_prev))
        return h @ self.w_out.value + self.b_out.value, h, acts

    def predict(self, x: np.ndarray) -> np.ndarray:
        """x: (n, lookback, features) -> predictions (n, 1)."""
        return self._forward(x)[0]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray] | None]:
        """Mean squared error and its gradient for each of ``parameters()``
        (None when the loss is not finite)."""
        out, h_last, acts = self._forward(x)
        diff = out - y
        loss = float((diff * diff).mean())
        if not np.isfinite(loss):
            return loss, None
        wh = self.wh.value
        half = np.full_like(diff, 1.0 / diff.size) * diff
        d_out = half + half
        d_h = d_out @ self.w_out.value.T
        d_c_next = 0.0  # reaches c_t through the next step's forget product
        d_wx, d_wh, d_b = np.zeros_like(self.wx.value), np.zeros_like(wh), np.zeros_like(self.b.value)
        for t in reversed(range(len(acts))):
            i, f, o, cand, c_prev, tanh_c, h_prev = acts[t]
            d_c = d_h * o * (1.0 - tanh_c**2) + d_c_next
            d_gates = np.concatenate([d_c * cand * i * (1.0 - i), d_c * c_prev * f * (1.0 - f),
                                      d_h * tanh_c * o * (1.0 - o), d_c * i * (1.0 - cand**2)], axis=1)
            d_wx += x[:, t, :].T @ d_gates
            d_wh += h_prev.T @ d_gates
            d_b += d_gates.sum(axis=0)
            d_c_next = d_c * f
            d_h = d_gates @ wh.T
        return loss, [d_wx, d_wh, d_b, h_last.T @ d_out, d_out.sum(axis=0)]


def _train(model, x: np.ndarray, y: np.ndarray, epochs: int, lr: float) -> None:
    """Full-batch Adam on one BLAS thread, whatever the caller's count:
    a second thread would change the bits of the LSTM's weight gradients."""
    params = model.parameters()
    optimizer = Adam(params, lr=lr)
    with one_blas_thread():
        for epoch in range(epochs):
            loss, grads = model.loss_and_grads(x, y)
            if not np.isfinite(loss):
                raise ModelError(f"training diverged at epoch {epoch}: non-finite loss")
            model.epoch_losses.append(loss)
            for p, grad in zip(params, grads):
                p.grad = grad
            optimizer.step()
        preds = model.predict(x)
    model.rmse_train = float(np.sqrt(np.mean((preds - y) ** 2))) * model.std


def _fit(model_class, spec, series: CountSeries):
    """Standardize by the observed counts, then train on every window."""
    _, vals = series.observed()
    std = float(vals.std())
    model = model_class(spec, float(vals.mean()), 1.0 if std < 1e-12 else std)
    x, y = _train_windows(model, series)
    _train(model, x, y, spec.epochs, spec.learning_rate)
    return model


def lstm_fit(series: CountSeries, spec: LstmSpec) -> LstmModel:
    if spec.use_weekday and series.granularity != DAILY:
        raise ModelError("weekday features require a daily series; set use_weekday=False")
    n_obs = int(series.mask.sum())
    if n_obs < spec.lookback + 30:
        raise ModelError(f"need at least lookback+30={spec.lookback + 30} observed periods, have {n_obs}")
    return _fit(LstmModel, spec, series)


def _forecast(model, series: CountSeries, horizon: int, level: float) -> Forecast:
    check_request(horizon, level)  # before the horizon sizes the inputs
    lookback = model.lookback
    inputs = _inputs(model, series, len(series) + horizon)

    def step(history: np.ndarray, t: int) -> float:
        window = inputs[t - lookback:t].copy()
        window[:, 0] = (history[t - lookback:t] - model.mean) / model.std
        return float(model.predict(window[None])[0, 0]) * model.std + model.mean

    return recursive_forecast(series, horizon, level, lookback, model.rmse_train, step)


def lstm_forecast(model: LstmModel, series: CountSeries, horizon: int,
                  level: float = 0.95) -> Forecast:
    return _forecast(model, series, horizon, level)


# --------------------------------------------------------------------------
# TCN


class TcnModel:
    """Stack of residual blocks (causal conv -> ReLU -> residual add, with a
    1x1 projection when channel counts differ) and a head on the last step.

    Forward and backward are written out by hand over (n, steps, channels)
    arrays. Every product and sum runs in the order the generic tape used,
    so fits are bit-identical to it: each causal conv is one batched matmul
    per tap over a dilated slice of the left-padded input, summed from tap
    0 upward before the bias is added.
    """

    def __init__(self, spec: TcnSpec, mean: float, std: float):
        self.spec = spec
        self.mean = mean
        self.std = std
        self.rmse_train = float("nan")
        self.epoch_losses: list[float] = []
        self.lookback = receptive_field(spec)
        self.calendar = ()
        rng = np.random.default_rng(spec.seed)
        scale = 1.0 / np.sqrt(spec.channels)
        self.blocks: list[dict] = []
        in_ch = 1
        for dilation in spec.dilations:
            taps = [ad.parameter((in_ch, spec.channels), rng, scale) for _ in range(spec.kernel)]
            bias = ad.parameter((spec.channels,), rng, scale)
            proj = ad.parameter((in_ch, spec.channels), rng, scale) if in_ch != spec.channels else None
            self.blocks.append({"taps": taps, "bias": bias, "proj": proj, "dilation": dilation})
            in_ch = spec.channels
        self.w_out = ad.parameter((spec.channels, 1), rng, scale)
        self.b_out = ad.parameter((1,), rng, scale)

    def parameters(self) -> list[Tensor]:
        params: list[Tensor] = []
        for block in self.blocks:
            params.extend(block["taps"])
            params.append(block["bias"])
            if block["proj"] is not None:
                params.append(block["proj"])
        params.extend([self.w_out, self.b_out])
        return params

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple]]:
        """Predictions (n, 1), the pre-head features (n, steps, channels)
        and, per block, (input, padded input, conv > 0)."""
        n, steps, _ = x.shape
        cur = x
        acts = []
        for block in self.blocks:
            dilation = block["dilation"]
            pad = (self.spec.kernel - 1) * dilation
            padded = np.empty((n, pad + steps, cur.shape[2]))
            padded[:, :pad] = 0.0  # causal: zeros before the first step
            padded[:, pad:] = cur
            conv = padded[:, :steps] @ block["taps"][0].value
            for i, tap in enumerate(block["taps"][1:], 1):
                conv += padded[:, i * dilation:i * dilation + steps] @ tap.value
            conv += block["bias"].value
            residual = cur if block["proj"] is None else cur @ block["proj"].value
            acts.append((cur, padded, conv > 0.0))
            cur = np.maximum(conv, 0.0) + residual
        out = cur[:, steps - 1:steps] @ self.w_out.value + self.b_out.value
        return out.reshape(n, 1), cur, acts

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pre-head activations, (n, steps, channels); strictly causal."""
        return self._forward(x)[1]

    def predict(self, x: np.ndarray) -> np.ndarray:
        """x: (n, steps, 1) -> predictions (n, 1)."""
        return self._forward(x)[0]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray) -> tuple[float, list[np.ndarray] | None]:
        """Mean squared error and its gradient for each of ``parameters()``
        (None when the loss is not finite)."""
        out, feats, acts = self._forward(x)
        diff = out - y
        loss = float((diff * diff).mean())
        if not np.isfinite(loss):
            return loss, None
        n, steps, channels = feats.shape
        half = np.full_like(diff, 1.0 / diff.size) * diff
        d_out = (half + half).reshape(n, 1, 1)
        head = [feats[:, steps - 1:steps].reshape(-1, channels).T @ d_out.reshape(-1, 1),
                d_out.sum(axis=0).sum(axis=0)]
        d_cur = np.zeros_like(feats)
        d_cur[:, steps - 1:steps] = d_out @ self.w_out.value.T
        grads: list[np.ndarray] = []
        taps = range(self.spec.kernel)
        for b in reversed(range(len(self.blocks))):
            block, (cur, padded, active) = self.blocks[b], acts[b]
            dilation, in_ch = block["dilation"], padded.shape[2]
            d_conv = d_cur * active
            block_grads = [padded[:, i * dilation:i * dilation + steps].reshape(-1, in_ch).T
                           @ d_conv.reshape(-1, channels) for i in taps]
            block_grads.append(d_conv.sum(axis=0).sum(axis=0))  # batch axis, then steps, as the tape did
            if block["proj"] is not None:
                block_grads.append(cur.reshape(-1, in_ch).T @ d_cur.reshape(-1, channels))
            grads[:0] = block_grads
            if b:  # the first block's input is the data, which needs no gradient
                d_padded = np.zeros_like(padded)
                for i in taps:  # tap 0 first: a different order changes the last bits
                    d_padded[:, i * dilation:i * dilation + steps] += d_conv @ block["taps"][i].value.T
                d_cur = d_cur + d_padded[:, padded.shape[1] - steps:]
        return loss, grads + head


def tcn_fit(series: CountSeries, spec: TcnSpec) -> TcnModel:
    rf = receptive_field(spec)
    longest = int(run_lengths(series.mask).max(initial=0))
    if longest <= rf:
        raise ModelError(
            f"receptive field {rf} exceeds the usable window length "
            f"{max(longest - 1, 0)} (need {rf + 1} consecutive observed periods)"
        )
    return _fit(TcnModel, spec, series)


def tcn_forecast(model: TcnModel, series: CountSeries, horizon: int,
                 level: float = 0.95) -> Forecast:
    return _forecast(model, series, horizon, level)


# --------------------------------------------------------------------------
# Gradient verification


def grad_check(model, sample_window: tuple[np.ndarray, np.ndarray], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Denominator is max(|analytic|, |numeric|, 1e-8) per element; the
    maximum is taken over every parameter of the model.
    """
    x, y = sample_window
    if x.ndim == 2:
        x = x[None]
    y = np.asarray(y, dtype=float).reshape(x.shape[0], 1)

    _, analytic = model.loss_and_grads(x, y)

    worst = 0.0
    for p, a_grad in zip(model.parameters(), analytic):
        flat = p.value.reshape(-1)
        a_flat = a_grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = model.loss_and_grads(x, y)[0]
            flat[i] = orig - h
            down = model.loss_and_grads(x, y)[0]
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst
