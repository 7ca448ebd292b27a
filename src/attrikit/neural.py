"""LSTM and TCN forecasters.

Each model runs its own hand-written forward and backward kernels: the
LSTM a sequence loop with backpropagation through time, the TCN batched
causal convolutions. Neither records a gradient graph; ``autodiff``
supplies only the parameter tensors and Adam. Both are ``_WindowModel``s,
which hold the state, ``predict(x)`` and the one ``loss_and_grads(x, y,
kept=None)`` that training, forecasting and ``grad_check`` call. ``kept``
is what the model's ``kept_arrays(n, steps)`` allocates for n windows: the
activations the backward pass reads. Training allocates it once per fit
and passes it to every epoch, so each epoch writes into the same arrays
instead of allocating and faulting in new ones.
Both models standardize inputs, train full-batch with Adam from a seeded
initialization, and forecast recursively by feeding each prediction back
as pseudo-history. ``lstm_fit`` and ``tcn_fit`` return the fitted model,
as every family's fit does; it keeps its spec and its per-epoch training
losses (``epoch_losses``). Interval bounds use the train-RMSE * sqrt(step)
heuristic and are labeled as such in the forecast metadata. Training is
deterministic for a fixed (seed, data, spec) triple and runs on one BLAS
thread whatever the caller's count, so its bits do not depend on the
machine's core count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from ._kernels import one_blas_thread
from .autodiff import Adam, Tensor
from .errors import ModelError
from .series import (CountSeries, Forecast, calendar_columns, check_fit_input, check_integer_fields, forecast_input,
                     period_days, recursive_forecast, run_lengths)


def _check_training(spec) -> None:
    """The training fields both neural specs have."""
    if spec.epochs < 1:
        raise ValueError("epochs must be >= 1")
    if not 0.0 < spec.learning_rate < np.inf:
        raise ValueError("learning_rate must be finite and > 0")
    if spec.seed < 0:
        raise ValueError("seed must be >= 0")


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
        check_integer_fields(self)
        if self.lookback < 1 or self.hidden < 1:
            raise ValueError("lookback and hidden must be >= 1")
        _check_training(self)


@dataclass(frozen=True)
class TcnSpec:
    kernel: int = 3
    dilations: tuple[int, ...] = (1, 2, 4, 8)
    channels: int = 16
    epochs: int = 200
    learning_rate: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        check_integer_fields(self)
        if self.kernel < 2:
            raise ValueError("kernel width must be >= 2")
        if not self.dilations or any(d < 1 for d in self.dilations):
            raise ValueError("dilations must be a non-empty list of positive ints")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        _check_training(self)
        object.__setattr__(self, "dilations", tuple(self.dilations))


def receptive_field(spec: TcnSpec) -> int:
    return 1 + (spec.kernel - 1) * sum(spec.dilations)


# --------------------------------------------------------------------------
# Inputs and the shared window model


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
    (windows, lookback, features) and standardized targets (windows, 1).
    The fits' ``check_fit_input`` makes sure there is at least one."""
    lookback = model.lookback
    targets = np.flatnonzero(run_lengths(series.mask) > lookback)
    inputs = _inputs(model, series, len(series))
    return inputs[targets[:, None] + np.arange(-lookback, 0)], inputs[targets, :1]


class _WindowModel:
    """What the LSTM and the TCN share: the standardization, the training
    record, the window geometry, the parameter list, ``predict`` and the
    one ``loss_and_grads`` with its mean-squared-error head.

    A model sets ``_parameters``, in the order of its gradients, and
    writes three methods. ``kept_arrays(n, steps)`` allocates what the
    backward pass reads for n windows. ``_forward(x, kept=None)`` returns
    the predictions (n, 1) and the state the head's gradient reads, and
    writes into ``kept`` when given it, with ``out=`` on the ufunc that
    makes each array, so the bits do not depend on whether the arrays are
    new. ``_gradients(x, d_out, state, kept)`` returns the gradients.
    """

    _parameters: list[Tensor]

    def __init__(self, spec, mean: float, std: float, lookback: int, calendar: tuple[str, ...]):
        self.spec = spec
        self.mean = mean
        self.std = std
        self.rmse_train = float("nan")
        self.epoch_losses: list[float] = []
        self.granularity: str | None = None  # the training series', set by the fit
        self.lookback = lookback
        self.calendar = calendar

    def parameters(self) -> list[Tensor]:
        return self._parameters

    def predict(self, x: np.ndarray) -> np.ndarray:
        """x: (n, steps, features) -> predictions (n, 1); keeps nothing."""
        return self._forward(x)[0]

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       kept: list | None = None) -> tuple[float, list[np.ndarray] | None]:
        """Mean squared error and its gradient for each of ``parameters()``
        (None when the loss is not finite). ``kept`` is ``kept_arrays`` of
        x's shape, which a caller keeps between calls on the same x; without
        it the call allocates its own."""
        if kept is None:
            kept = self.kept_arrays(*x.shape[:2])
        out, state = self._forward(x, kept)
        diff = out - y
        loss = float((diff * diff).mean())
        if not np.isfinite(loss):
            return loss, None
        half = np.full_like(diff, 1.0 / diff.size) * diff
        return loss, self._gradients(x, half + half, state, kept)


# --------------------------------------------------------------------------
# LSTM


class LstmModel(_WindowModel):
    """Single LSTM layer (gates: input, forget, output, candidate) plus a
    linear head on the final hidden state.

    Forward and backward are written out by hand: one loop over the
    lookback keeps the activations, and one reverse loop backpropagates
    through time (Werbos 1990). Every product and sum runs in the order
    the generic tape used, so fits are bit-identical to it.

    The kept arrays are five per step, each (n, hidden): the gates i, f, o,
    the candidate and the cell state c. The reverse loop recomputes tanh(c)
    of the step before once and uses it twice, for that step's hidden state
    o * tanh(c) and as its own tanh(c); these are the forward pass's ufuncs
    on the same inputs, so the bits are the same. ``predict`` keeps
    nothing, so its memory does not grow with the lookback.
    """

    def __init__(self, spec: LstmSpec, mean: float, std: float):
        calendar = ("weekday",) * spec.use_weekday + ("month",) * spec.use_month
        super().__init__(spec, mean, std, spec.lookback, calendar)
        n_in = 1 + calendar_columns(np.empty(0, "M8[D]"), calendar).shape[1]
        h = spec.hidden
        rng = np.random.default_rng(spec.seed)
        self._parameters = [ad.parameter(shape, rng, 1.0 / np.sqrt(h))
                            for shape in ((n_in, 4 * h), (h, 4 * h), (4 * h,), (h, 1), (1,))]
        self.wx, self.wh, self.b, self.w_out, self.b_out = self._parameters
        self.b.value[h:2 * h] = 1.0  # forget gate starts open

    def kept_arrays(self, n: int, steps: int) -> list[tuple[np.ndarray, ...]]:
        """(i, f, o, cand, c) for each of the steps."""
        return [tuple(np.empty((n, self.spec.hidden)) for _ in range(5)) for _ in range(steps)]

    def _forward(self, x: np.ndarray, kept: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Predictions (n, 1) and the last hidden state."""
        n, steps, _ = x.shape
        hs = self.spec.hidden
        wx, wh, b = self.wx.value, self.wh.value, self.b.value
        h = np.zeros((n, hs))
        c = np.zeros((n, hs))
        for t in range(steps):
            into = kept[t] if kept else (None,) * 5
            gates = x[:, t, :] @ wx + h @ wh + b
            i, f, o = (np.divide(1.0, 1.0 + np.exp(-gates[:, k * hs:(k + 1) * hs]), out=into[k]) for k in range(3))
            cand = np.tanh(gates[:, 3 * hs:], out=into[3])
            c = np.add(f * c, i * cand, out=into[4])
            h = o * np.tanh(c)
        return h @ self.w_out.value + self.b_out.value, h

    def _gradients(self, x: np.ndarray, d_out: np.ndarray, h_last: np.ndarray, kept: list) -> list[np.ndarray]:
        wh = self.wh.value
        d_h = d_out @ self.w_out.value.T
        d_c_next = 0.0  # reaches c_t through the next step's forget product
        d_wx, d_wh, d_b = np.zeros_like(self.wx.value), np.zeros_like(wh), np.zeros_like(self.b.value)
        tanh_c = np.tanh(kept[-1][4])
        for t in reversed(range(len(kept))):
            i, f, o, cand, _ = kept[t]
            if t:  # tanh(c_{t-1}) rebuilds h_{t-1} now and is tanh_c at step t-1
                _, _, o_prev, _, c_prev = kept[t - 1]
                tanh_prev = np.tanh(c_prev)
                h_prev = o_prev * tanh_prev
            else:
                c_prev = h_prev = tanh_prev = np.zeros_like(h_last)
            d_c = d_h * o * (1.0 - tanh_c**2) + d_c_next
            d_gates = np.concatenate([d_c * cand * i * (1.0 - i), d_c * c_prev * f * (1.0 - f),
                                      d_h * tanh_c * o * (1.0 - o), d_c * i * (1.0 - cand**2)], axis=1)
            d_wx += x[:, t, :].T @ d_gates
            d_wh += h_prev.T @ d_gates
            d_b += d_gates.sum(axis=0)
            d_c_next = d_c * f
            d_h = d_gates @ wh.T
            tanh_c = tanh_prev
        return [d_wx, d_wh, d_b, h_last.T @ d_out, d_out.sum(axis=0)]


def _train(model, x: np.ndarray, y: np.ndarray, epochs: int, lr: float) -> None:
    """Full-batch Adam on one BLAS thread, whatever the caller's count:
    a second thread would change the bits of the LSTM's weight gradients.
    Every epoch writes its activations into one ``kept_arrays``, which is
    freed before the final ``predict``."""
    params = model.parameters()
    optimizer = Adam(params, lr=lr)
    kept = model.kept_arrays(*x.shape[:2])
    with one_blas_thread():
        for epoch in range(epochs):
            loss, grads = model.loss_and_grads(x, y, kept)
            if not np.isfinite(loss):
                raise ModelError(f"training diverged at epoch {epoch}: non-finite loss")
            model.epoch_losses.append(loss)
            for p, grad in zip(params, grads):
                p.grad = grad
            optimizer.step()
        del kept
        preds = model.predict(x)
    model.rmse_train = float(np.sqrt(np.mean((preds - y) ** 2))) * model.std


def _fit(model_class, spec, series: CountSeries):
    """Standardize by the observed counts, then train on every window."""
    _, vals = series.observed()
    std = float(vals.std())
    model = model_class(spec, float(vals.mean()), 1.0 if std < 1e-12 else std)
    model.granularity = series.granularity
    x, y = _train_windows(model, series)
    _train(model, x, y, spec.epochs, spec.learning_rate)
    return model


def lstm_fit(series: CountSeries, spec: LstmSpec) -> LstmModel:
    check_fit_input(series, spec.lookback + 30, spec.lookback + 1,
                    "weekday features" if spec.use_weekday else None)
    return _fit(LstmModel, spec, series)


def lstm_forecast(model, series: CountSeries, horizon: int, level: float = 0.95) -> Forecast:
    """Recursive forecast of a fitted LSTM or TCN, which read the same
    windows; ``tcn_forecast`` is this function. The input depth
    ``forecast_input`` checks is the lookback (the TCN's receptive field)."""
    lookback = model.lookback
    series = forecast_input(series, model.granularity, lookback, horizon, level)
    inputs = _inputs(model, series, len(series) + horizon)

    def step(history: np.ndarray, t: int) -> float:
        window = inputs[t - lookback:t].copy()
        window[:, 0] = (history[t - lookback:t] - model.mean) / model.std
        return float(model.predict(window[None])[0, 0]) * model.std + model.mean

    return recursive_forecast(series, horizon, level, model.rmse_train, step)


# --------------------------------------------------------------------------
# TCN

# Windows per chunk of the TCN's block loop. At the daily preset a chunk's
# widest padded block input, 64 x 47 steps x 16 channels, is ~385 KB and
# stays in L2 while a block makes its passes over it.
_CHUNK = 64


def _chunks(n: int):
    return (slice(start, start + _CHUNK) for start in range(0, n, _CHUNK))


class TcnModel(_WindowModel):
    """Stack of residual blocks (causal conv -> ReLU -> residual add, with a
    1x1 projection when channel counts differ) and a head on the last step.

    Forward and backward are written out by hand over (n, steps, channels)
    arrays. Every product and sum runs in the order the generic tape used,
    so fits are bit-identical to it: each causal conv is one batched matmul
    per tap over a dilated slice of the left-padded input, summed from tap
    0 upward before the bias is added.

    A convolution reads each window on its own, so the forward pass runs
    all the blocks on ``_CHUNK`` windows at a time, whose arrays stay in
    cache, and keeps only the last step's features, all the head reads.
    The backward pass sums the tap, bias, projection and head gradients
    over the whole batch, in the tape's order, and runs its input-gradient
    pass chunk by chunk. No product changes its operands, so the bits do
    not depend on the chunk size.

    The kept arrays are, per block, the padded input and the ReLU mask, and
    the backward pass's d_cur and d_conv. The padded input already holds
    the block's input, so nothing is recomputed; a 1x1 projection reads the
    data itself (only the first block can have one). Once a block's tap
    gradients have read its padded input, the backward pass sums the
    gradient of that input into the same array, so beyond the kept arrays
    a call allocates only chunk-sized temporaries and one tap gradient's
    copy of a padded input. ``predict`` keeps nothing, and ``features``
    runs the blocks on the whole batch at once.
    """

    def __init__(self, spec: TcnSpec, mean: float, std: float):
        super().__init__(spec, mean, std, receptive_field(spec), ())
        rng = np.random.default_rng(spec.seed)
        scale = 1.0 / np.sqrt(spec.channels)
        self.blocks: list[dict] = []
        self._parameters = []
        in_ch = 1
        for dilation in spec.dilations:
            taps = [ad.parameter((in_ch, spec.channels), rng, scale) for _ in range(spec.kernel)]
            bias = ad.parameter((spec.channels,), rng, scale)
            proj = ad.parameter((in_ch, spec.channels), rng, scale) if in_ch != spec.channels else None
            self.blocks.append({"taps": taps, "bias": bias, "proj": proj, "dilation": dilation})
            self._parameters += [*taps, bias] + [proj] * (proj is not None)
            in_ch = spec.channels
        self.w_out = ad.parameter((spec.channels, 1), rng, scale)
        self.b_out = ad.parameter((1,), rng, scale)
        self._parameters += [self.w_out, self.b_out]

    def kept_arrays(self, n: int, steps: int) -> list[tuple[np.ndarray, ...]]:
        """A (padded input, conv > 0) pair per block, then d_cur and d_conv."""
        shape = (n, steps, self.spec.channels)
        arrays = []
        for block in self.blocks:
            pad = (self.spec.kernel - 1) * block["dilation"]
            in_ch = block["taps"][0].value.shape[0]
            arrays.append((np.empty((n, pad + steps, in_ch)), np.empty(shape, bool)))
        arrays.append((np.empty(shape), np.empty(shape)))
        return arrays

    def _blocks(self, x: np.ndarray, kept: list | None = None) -> np.ndarray:
        """The blocks' output (m, steps, channels) for windows x (m, steps, 1).
        Given ``kept``, a (padded input, mask) pair of m-row arrays per
        block, writes each block's padded input and conv > 0 into them."""
        steps = x.shape[1]
        cur = x
        for b, block in enumerate(self.blocks):
            dilation = block["dilation"]
            pad = (self.spec.kernel - 1) * dilation
            padded = kept[b][0] if kept else np.empty((len(x), pad + steps, cur.shape[2]))
            padded[:, :pad] = 0.0  # causal: zeros before the first step
            padded[:, pad:] = cur
            conv = padded[:, :steps] @ block["taps"][0].value
            for i, tap in enumerate(block["taps"][1:], 1):
                conv += padded[:, i * dilation:i * dilation + steps] @ tap.value
            conv += block["bias"].value
            residual = cur if block["proj"] is None else cur @ block["proj"].value
            if kept:
                np.greater(conv, 0.0, out=kept[b][1])
            cur = np.maximum(conv, 0.0, out=conv)
            cur += residual
        return cur

    def _forward(self, x: np.ndarray, kept: list | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Predictions (n, 1) and the last step's features (n, 1, channels)."""
        n, steps, _ = x.shape
        # Rows a step apart, as in the tape's slice of the features (dense when
        # there is one step): BLAS sums a dense (n, channels) operand in another order.
        last = np.empty((n, min(steps, 2), self.spec.channels))[:, -1:]
        for rows in _chunks(n):
            rows_kept = kept and [(padded[rows], active[rows]) for padded, active in kept[:-1]]
            last[rows] = self._blocks(x[rows], rows_kept)[:, steps - 1:]
        out = last @ self.w_out.value + self.b_out.value
        return out.reshape(n, 1), last

    def features(self, x: np.ndarray) -> np.ndarray:
        """Pre-head activations, (n, steps, channels); strictly causal."""
        return self._blocks(x)

    def _gradients(self, x: np.ndarray, d_out: np.ndarray, last: np.ndarray, kept: list) -> list[np.ndarray]:
        n, steps, _ = x.shape
        channels = self.spec.channels
        d_cur, d_conv = kept[-1]
        d_out = d_out.reshape(n, 1, 1)
        head = [last.reshape(n, channels).T @ d_out.reshape(-1, 1), d_out.sum(axis=0).sum(axis=0)]
        d_cur[...] = 0.0
        d_cur[:, steps - 1:steps] = d_out @ self.w_out.value.T
        grads: list[np.ndarray] = []
        taps = range(self.spec.kernel)
        for b in reversed(range(len(self.blocks))):
            block, (padded, active) = self.blocks[b], kept[b]
            dilation, in_ch = block["dilation"], padded.shape[2]
            np.multiply(d_cur, active, out=d_conv)
            block_grads = [padded[:, i * dilation:i * dilation + steps].reshape(-1, in_ch).T
                           @ d_conv.reshape(-1, channels) for i in taps]
            block_grads.append(d_conv.sum(axis=0).sum(axis=0))  # batch axis, then steps, as the tape did
            if block["proj"] is not None:  # only the first block's, whose input is x
                block_grads.append(x.reshape(-1, in_ch).T @ d_cur.reshape(-1, channels))
            grads[:0] = block_grads
            if b:  # the first block's input is the data, which needs no gradient
                for rows in _chunks(n):
                    d_padded = padded[rows]  # its last reader was the tap gradients; now it sums d_padded
                    d_padded[...] = 0.0
                    for i in taps:  # tap 0 first: a different order changes the last bits
                        d_padded[:, i * dilation:i * dilation + steps] += d_conv[rows] @ block["taps"][i].value.T
                    d_cur[rows] += d_padded[:, -steps:]
        return grads + head


def tcn_fit(series: CountSeries, spec: TcnSpec) -> TcnModel:
    check_fit_input(series, min_run=receptive_field(spec) + 1)
    return _fit(TcnModel, spec, series)


tcn_forecast = lstm_forecast


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
