"""LSTM/TCN inputs, training, forecasting, causality, gradients."""

import threading
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attrikit import _kernels, neural
from attrikit import autodiff as ad
from attrikit.errors import ModelError, SchemaError
from attrikit.factories import forecast_model
from attrikit.neural import (
    LstmModel,
    LstmSpec,
    TcnModel,
    TcnSpec,
    _fit,
    _train,
    _train_windows,
    grad_check,
    lstm_fit,
    lstm_forecast,
    receptive_field,
    tcn_fit,
    tcn_forecast,
)
from attrikit.series import DAILY, MONTHLY, CountSeries, period_start

START = date(2022, 3, 1)

SMALL_LSTM = dict(lookback=8, hidden=6, epochs=60, learning_rate=0.02, seed=1)
SMALL_TCN = dict(kernel=2, dilations=(1, 2), channels=4, epochs=60, learning_rate=0.02, seed=1)


def daily(values, mask=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return CountSeries(DAILY, START, values, mask)


def sine_series(n=120, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    return daily(10.0 + 4.0 * np.sin(2 * np.pi * t / 7.0) + rng.normal(0, 0.2, n))


def fitted_loss_slope(losses):
    t = np.arange(len(losses), dtype=float)
    return np.polyfit(t, np.asarray(losses), 1)[0]


# -- training windows --------------------------------------------------------


def oracle_windows(series, lookback, use_weekday, use_month, mean, std):
    """Training windows built one cell at a time, the reference for
    ``_train_windows``: every window [t-lookback, t] that is fully observed,
    each input row the standardized count, then the weekday and month
    one-hots of that period's own date; 0 rows when no window is."""

    def feature_vector(std_value, day):
        parts = [std_value]
        if use_weekday:
            onehot = [0.0] * 7
            onehot[day.weekday()] = 1.0
            parts.extend(onehot)
        if use_month:
            onehot = [0.0] * 12
            onehot[day.month - 1] = 1.0
            parts.extend(onehot)
        return np.array(parts)

    idx, vals = series.observed()
    std_full = np.full(len(series), np.nan)
    std_full[idx] = (vals - mean) / std
    targets = [t for t in range(lookback, len(series)) if series.mask[t - lookback:t + 1].all()]
    x = np.empty((len(targets), lookback, 1 + (7 if use_weekday else 0) + (12 if use_month else 0)))
    y = np.empty((len(targets), 1))
    for row, t in enumerate(targets):
        for j, src in enumerate(range(t - lookback, t)):
            x[row, j] = feature_vector(std_full[src], period_start(series.start, series.granularity, src))
        y[row, 0] = std_full[t]
    return x, y


@st.composite
def window_cases(draw):
    """A daily or monthly series of 1-120 periods with up to two masked
    interior gaps and a masked tail, a lookback of 1-40, calendar flags
    (weekday on daily data only) and arbitrary standardization constants."""
    granularity = draw(st.sampled_from([DAILY, MONTHLY]))
    n = draw(st.integers(1, 120))
    start = date(2020, 1, 1) + timedelta(days=draw(st.integers(0, 2500)))
    if granularity == MONTHLY:
        start = start.replace(day=1)
    mask = np.ones(n, dtype=bool)
    for _ in range(draw(st.integers(0, 2))):
        first = draw(st.integers(0, n - 1))
        mask[first:first + draw(st.integers(1, 6))] = False
    mask[n - draw(st.integers(0, 4)):] = False
    values = np.array(draw(st.lists(st.integers(0, 500), min_size=n, max_size=n)), dtype=float)
    use_weekday = granularity == DAILY and draw(st.booleans())
    return (CountSeries(granularity, start, values, mask), draw(st.integers(1, 40)), use_weekday,
            draw(st.booleans()), draw(st.floats(-100, 100)), draw(st.floats(0.01, 100)))


def _bits(windows):
    x, y = windows
    return x.shape, x.view(np.int64).tobytes(), y.shape, y.view(np.int64).tobytes()


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(case=window_cases())
def test_train_windows_match_per_cell_oracle(case):
    series, lookback, use_weekday, use_month, mean, std = case
    expected = _bits(oracle_windows(series, lookback, use_weekday, use_month, mean, std))
    models = [LstmModel(LstmSpec(lookback=lookback, hidden=1, use_weekday=use_weekday, use_month=use_month),
                        mean, std)]
    if lookback > 1 and not (use_weekday or use_month):
        # kernel 2 with one dilation of lookback-1 gives a receptive field of lookback
        models.append(TcnModel(TcnSpec(kernel=2, dilations=(lookback - 1,), channels=1), mean, std))
    for model in models:
        assert _bits(_train_windows(model, series)) == expected


# -- LSTM --------------------------------------------------------------------


def test_zero_weight_lstm_outputs_head_bias():
    model = LstmModel(LstmSpec(lookback=5, hidden=4, use_weekday=False), 0.0, 1.0)
    for p in model.parameters():
        p.value[...] = 0.0
    model.b_out.value[...] = 0.7
    rng = np.random.default_rng(0)
    out = model.predict(rng.normal(size=(3, 5, 1)))
    assert np.allclose(out, 0.7)


def test_zero_weight_lstm_gradient_symmetry():
    # All hidden units are interchangeable at zero weights, so gradients
    # within each gate bias block and across the head weights coincide.
    model = LstmModel(LstmSpec(lookback=4, hidden=5, use_weekday=False), 0.0, 1.0)
    for p in model.parameters():
        p.value[...] = 0.0
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 4, 1))
    y = np.array([[1.0], [2.0]])
    _, (_, _, b_grad, w_out_grad, _) = model.loss_and_grads(x, y)
    head = w_out_grad.ravel()
    assert np.allclose(head, head[0])
    h = 5
    for block in range(4):
        grads = b_grad[block * h:(block + 1) * h]
        assert np.allclose(grads, grads[0])


# The LSTM forward as generic tape ops: the reference the hand-written
# kernel is checked against, bit for bit.


def tape_lstm_forward(model, x):
    n, steps, _ = x.shape
    h_size = model.spec.hidden
    h = ad.constant(np.zeros((n, h_size)))
    c = ad.constant(np.zeros((n, h_size)))
    for t in range(steps):
        x_t = ad.constant(x[:, t, :])
        gates = ad.add(ad.add(ad.matmul(x_t, model.wx), ad.matmul(h, model.wh)), model.b)
        i_gate = ad.sigmoid(ad.narrow(gates, 1, 0, h_size))
        f_gate = ad.sigmoid(ad.narrow(gates, 1, h_size, h_size))
        o_gate = ad.sigmoid(ad.narrow(gates, 1, 2 * h_size, h_size))
        cand = ad.tanh(ad.narrow(gates, 1, 3 * h_size, h_size))
        c = ad.add(ad.mul(f_gate, c), ad.mul(i_gate, cand))
        h = ad.mul(o_gate, ad.tanh(c))
    return ad.add(ad.matmul(h, model.w_out), model.b_out)


def tape_loss(tape_forward, model, x, y):
    """The tape's mean squared error; leaves each parameter's gradient in ``grad``."""
    for p in model.parameters():
        p.grad = None
    loss = ad.mse(tape_forward(model, x), ad.constant(y))
    loss.backward()
    return float(loss.value)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def assert_kernel_bit_equals_tape(model, x, y, tape_forward):
    loss, grads = model.loss_and_grads(x, y)
    assert bits(model.predict(x)) == bits(tape_forward(model, x).value)
    assert bits(loss) == bits(tape_loss(tape_forward, model, x, y))
    for grad, p in zip(grads, model.parameters(), strict=True):
        assert grad.shape == p.value.shape
        assert bits(grad) == bits(p.grad)


def assert_call_into_kept_arrays_bit_equals_fresh_call(model, x, y):
    """A call given the kept arrays an earlier call wrote, after the
    parameters changed, writes into the same arrays and returns the bits of
    a call that allocates its own."""
    kept = model.kept_arrays(*x.shape[:2])
    model.loss_and_grads(x, y, kept)
    arrays = [a for entry in kept for a in entry]
    rng = np.random.default_rng(0)
    for p in model.parameters():
        p.value += rng.normal(scale=0.1, size=p.value.shape)
    loss, grads = model.loss_and_grads(x, y, kept)
    fresh_loss, fresh_grads = model.loss_and_grads(x, y)
    assert all(a is b for a, b in zip([a for entry in kept for a in entry], arrays, strict=True))
    assert bits(loss) == bits(fresh_loss)
    assert (grads is None) == (fresh_grads is None)
    for grad, fresh in zip(grads or [], fresh_grads or [], strict=True):
        assert bits(grad) == bits(fresh)


def assert_training_bit_equals_adam_over_tape(model_class, spec, tape_forward):
    series = sine_series(n=90)
    model = model_class(spec, 10.0, 3.0)
    oracle = model_class(spec, 10.0, 3.0)
    x, y = _train_windows(model, series)
    _train(model, x, y, spec.epochs, spec.learning_rate)

    optimizer = ad.Adam(oracle.parameters(), lr=spec.learning_rate)
    losses = []
    for _ in range(spec.epochs):
        losses.append(tape_loss(tape_forward, oracle, x, y))
        optimizer.step()
    assert bits(model.epoch_losses) == bits(losses)
    for p, q in zip(model.parameters(), oracle.parameters()):
        assert bits(p.value) == bits(q.value)
    preds = tape_forward(oracle, x).value
    assert bits(model.rmse_train) == bits(float(np.sqrt(np.mean((preds - y) ** 2))) * oracle.std)


@st.composite
def lstm_kernel_cases(draw):
    """Window batches of 1-40 rows (1 is the forecast shape), lookback 1-8,
    hidden 1-6, every calendar combination (1, 8, 13 or 20 features), with
    seeded or all-zero weights."""
    spec = LstmSpec(lookback=draw(st.integers(1, 8)), hidden=draw(st.integers(1, 6)),
                    seed=draw(st.integers(0, 2**16)), use_weekday=draw(st.booleans()),
                    use_month=draw(st.booleans()))
    model = LstmModel(spec, 0.0, 1.0)
    if draw(st.booleans()):
        for p in model.parameters():
            p.value[...] = 0.0
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = np.zeros((n, spec.lookback, model.wx.value.shape[0]))
    x[..., 0] = rng.normal(size=(n, spec.lookback))
    offset = 1
    for width, used in ((7, spec.use_weekday), (12, spec.use_month)):
        if used:
            hot = offset + rng.integers(0, width, size=(n, spec.lookback))
            np.put_along_axis(x, hot[..., None], 1.0, axis=2)
            offset += width
    return model, x, rng.normal(size=(n, 1))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(case=lstm_kernel_cases())
def test_lstm_kernel_bit_equals_tape(case):
    assert_kernel_bit_equals_tape(*case, tape_lstm_forward)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(case=lstm_kernel_cases())
def test_lstm_call_into_kept_arrays_bit_equals_fresh_call(case):
    assert_call_into_kept_arrays_bit_equals_fresh_call(*case)


def test_lstm_training_bit_equals_adam_over_tape():
    spec = LstmSpec(lookback=7, hidden=5, epochs=40, learning_rate=0.02, seed=4, use_weekday=True)
    assert_training_bit_equals_adam_over_tape(LstmModel, spec, tape_lstm_forward)


def test_lstm_loss_trends_down_on_learnable_sine():
    series = sine_series()
    model = lstm_fit(series, LstmSpec(**SMALL_LSTM, use_weekday=False))
    assert len(model.epoch_losses) == SMALL_LSTM["epochs"]
    assert fitted_loss_slope(model.epoch_losses) < 0
    tail = model.epoch_losses[-30:]
    assert fitted_loss_slope(tail) < 0.05 * abs(tail[0])  # no blow-up late in training


def test_lstm_deterministic_given_seed():
    series = sine_series()
    spec = LstmSpec(**SMALL_LSTM, use_weekday=False)
    model_a = lstm_fit(series, spec)
    model_b = lstm_fit(series, spec)
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa.value, pb.value)


def test_lstm_constant_series_forecast_near_constant():
    series = daily(np.full(80, 10.0))
    spec = LstmSpec(lookback=6, hidden=4, epochs=150, learning_rate=0.02, seed=2, use_weekday=False)
    model = lstm_fit(series, spec)
    fc = lstm_forecast(model, series, horizon=10)
    assert np.all(np.abs(fc.point - 10.0) <= 1.0)


def test_lstm_forecast_shape_dates_and_standard_horizons():
    series = sine_series(n=150)
    spec = LstmSpec(**SMALL_LSTM, use_weekday=True)
    model = lstm_fit(series, spec)
    for horizon in (7, 30, 70):
        fc = lstm_forecast(model, series, horizon=horizon)
        assert len(fc) == horizon
        dates = fc.period_starts()
        assert fc.origin == series.start + timedelta(days=len(series))
        assert (np.diff([d.toordinal() for d in dates]) == 1).all()
        assert np.all(fc.lower <= fc.point) and np.all(fc.point <= fc.upper)
        assert fc.interval_method.endswith("heuristic")


def test_forecast_window_comes_from_the_fitted_spec():
    # A forecast must read the window the model was trained on. Neither the
    # forecast functions nor the factory table let another spec change it.
    from attrikit.factories import MODELS

    series = sine_series()
    cases = (
        ("lstm", lstm_forecast, lstm_fit(series, LstmSpec(**SMALL_LSTM, use_weekday=False)),
         LstmSpec(**{**SMALL_LSTM, "lookback": 20}, use_weekday=False)),
        ("tcn", tcn_forecast, tcn_fit(series, TcnSpec(**SMALL_TCN)),
         TcnSpec(**{**SMALL_TCN, "dilations": (1, 2, 4, 8)})),
    )
    for name, forecast, model, other_spec in cases:
        own = forecast(model, series, horizon=5)
        via_table = MODELS[name][2](model, series, 5, 0.95)
        assert np.array_equal(via_table.point, own.point)
        assert np.array_equal(via_table.upper, own.upper)
        with pytest.raises(TypeError):
            forecast(model, series, horizon=5, spec=other_spec)
        with pytest.raises(TypeError):
            MODELS[name][2](model, series, other_spec, 5, 0.95)


@st.composite
def forecast_requests(draw):
    """A small fitted LSTM or TCN and a daily or monthly series with
    non-integer counts, an interior masked gap and a masked tail, which moves
    the forecast origin back, and a horizon."""
    granularity = draw(st.sampled_from([DAILY, MONTHLY]))
    if draw(st.booleans()):
        spec = LstmSpec(lookback=draw(st.integers(1, 6)), hidden=3, epochs=2, seed=draw(st.integers(0, 9)),
                        use_weekday=granularity == DAILY and draw(st.booleans()), use_month=draw(st.booleans()))
        fit, forecast, depth = lstm_fit, lstm_forecast, spec.lookback
    else:
        spec = TcnSpec(kernel=draw(st.integers(2, 3)), channels=2, epochs=2, seed=draw(st.integers(0, 9)),
                       dilations=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
        fit, forecast, depth = tcn_fit, tcn_forecast, receptive_field(spec)
    n = draw(st.integers(depth + 40, depth + 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.ones(n, dtype=bool)
    gap = draw(st.integers(0, n - depth - 10))
    mask[gap:gap + draw(st.integers(0, 5))] = False
    mask[n - draw(st.integers(0, 3)):] = False
    day = date(2021, 1, 1) + timedelta(days=draw(st.integers(0, 2000)))
    start = day if granularity == DAILY else day.replace(day=1)
    series = CountSeries(granularity, start, rng.poisson(10.0, n) + rng.random(n), mask)
    return fit(series, spec), forecast, series, draw(st.integers(1, 15))


@settings(deadline=None, derandomize=True, database=None, max_examples=60)
@given(request=forecast_requests())
def test_forecast_windows_are_training_windows(request):
    # Each step must read the very inputs the model was fitted on: its window
    # is the _train_windows window of its period once the forecast is history.
    model, forecast, series, horizon = request
    windows = []
    predict = model.predict

    def spy(x):
        windows.append(x[0].copy())
        return predict(x)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "predict", spy)
        fc = forecast(model, series, horizon=horizon)
    history = series.head(series.last_observed_index() + 1)
    extended = CountSeries(history.granularity, history.start, np.concatenate([history.values, fc.point]),
                           np.concatenate([history.mask, np.ones(horizon, dtype=bool)]))
    x, _ = _train_windows(model, extended)
    targets = [t for t in range(model.lookback, len(extended)) if extended.mask[t - model.lookback:t + 1].all()]
    expected = x[[targets.index(t) for t in range(len(history), len(extended))]]
    assert len(windows) == horizon
    assert np.array(windows).view(np.int64).tolist() == expected.view(np.int64).tolist()


def test_lstm_windows_skip_masked_periods():
    values = np.arange(100.0)
    mask = np.ones(100, dtype=bool)
    mask[50] = False
    poisoned = values.copy()
    poisoned[50] = 1e9
    spec = LstmSpec(**SMALL_LSTM, use_weekday=False)
    model_a = lstm_fit(daily(values, mask), spec)
    model_b = lstm_fit(daily(poisoned, mask), spec)
    for pa, pb in zip(model_a.parameters(), model_b.parameters()):
        assert np.array_equal(pa.value, pb.value)


def test_lstm_too_short_and_weekday_guard():
    with pytest.raises(ModelError, match="observed"):
        lstm_fit(daily(np.arange(20.0)), LstmSpec(lookback=8, use_weekday=False))
    monthly = CountSeries("monthly", date(2022, 3, 1), np.arange(60.0), np.ones(60, dtype=bool))
    with pytest.raises(ModelError, match="weekday"):
        lstm_fit(monthly, LstmSpec(lookback=8, use_weekday=True))


@pytest.mark.parametrize("params", [{"lookback": 2.5}, {"hidden": 4.0}, {"epochs": True}, {"seed": "1"}])
def test_lstm_non_integer_sizes_are_schema_errors(monthly_tanks, params):
    # lookback=2.5 used to raise an IndexError from the window build.
    with pytest.raises(ValueError, match="must be an integer"):
        LstmSpec(**params)
    with pytest.raises(SchemaError, match="^bad lstm parameters"):
        forecast_model("lstm", monthly_tanks, 3, params=params)


# -- TCN ---------------------------------------------------------------------


def test_receptive_field_default_is_31():
    assert receptive_field(TcnSpec()) == 31
    assert receptive_field(TcnSpec(kernel=2, dilations=(1, 2))) == 4


def test_tcn_causality_perturbation():
    spec = TcnSpec(kernel=3, dilations=(1, 2), channels=3, seed=3)
    model = TcnModel(spec, 0.0, 1.0)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(1, 20, 1))
    base = model.features(x)
    for t in (0, 5, 13, 19):
        bumped = x.copy()
        bumped[0, t, 0] += 10.0
        out = model.features(bumped)
        assert np.array_equal(out[0, :t], base[0, :t])
        assert not np.allclose(out[0, t], base[0, t])


@pytest.mark.parametrize("params", [{"kernel": 2.5}, {"channels": 3.0}, {"epochs": 2.5}, {"dilations": (1.5, 2)},
                                    {"dilations": [1, True]}, {"dilations": 3}])
def test_tcn_non_integer_sizes_are_schema_errors(monthly_tanks, params):
    # kernel, channels and epochs used to raise a bare TypeError, dilations
    # of 1.5 an IndexError.
    with pytest.raises(ValueError, match="must be (an integer|a list of integers)"):
        TcnSpec(**params)
    with pytest.raises(SchemaError, match="^bad tcn parameters"):
        forecast_model("tcn", monthly_tanks, 3, params=params)


# The TCN forward as generic tape ops: the reference the hand-written
# kernels are checked against, bit for bit.


def tape_tcn_features(model, x):
    steps = x.shape[1]
    cur = ad.constant(x)
    for block in model.blocks:
        dilation = block["dilation"]
        padded = ad.pad_left(cur, 1, (model.spec.kernel - 1) * dilation)
        conv = None
        for i, tap in enumerate(block["taps"]):
            term = ad.matmul(ad.narrow(padded, 1, i * dilation, steps), tap)
            conv = term if conv is None else ad.add(conv, term)
        out = ad.relu(ad.add(conv, block["bias"]))
        residual = cur if block["proj"] is None else ad.matmul(cur, block["proj"])
        cur = ad.add(out, residual)
    return cur


def tape_tcn_forward(model, x):
    n, steps, _ = x.shape
    last = ad.narrow(tape_tcn_features(model, x), 1, steps - 1, 1)
    out = ad.add(ad.matmul(last, model.w_out), model.b_out)  # (n, 1, 1)
    # the tape has no reshape op, so record (n, 1, 1) -> (n, 1) directly
    return ad._record(out.value.reshape(n, 1), (out, lambda g: g.reshape(out.value.shape)))


@st.composite
def tcn_kernel_cases(draw, shorter=False):
    """Window batches of 1-40 rows (1 is the forecast shape) of the receptive
    field's length or up to 3 steps longer (with ``shorter``, from 1 step
    up); kernel 2-4, 1-3 dilations of 1-4, channels 1-5 (at 1 no block has
    a projection), with seeded or all-zero weights."""
    spec = TcnSpec(kernel=draw(st.integers(2, 4)),
                   dilations=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))),
                   channels=draw(st.integers(1, 5)), seed=draw(st.integers(0, 2**16)))
    model = TcnModel(spec, 0.0, 1.0)
    if draw(st.booleans()):
        for p in model.parameters():
            p.value[...] = 0.0
    n = draw(st.integers(1, 40))
    steps = draw(st.integers(1 if shorter else receptive_field(spec), receptive_field(spec) + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return model, rng.normal(size=(n, steps, 1)), rng.normal(size=(n, 1))


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(case=tcn_kernel_cases())
def test_tcn_kernel_bit_equals_tape(case):
    model, x, _ = case
    assert bits(model.features(x)) == bits(tape_tcn_features(model, x).value)
    assert_kernel_bit_equals_tape(*case, tape_tcn_forward)


@settings(deadline=None, derandomize=True, database=None, max_examples=100)
@given(case=tcn_kernel_cases())
def test_tcn_call_into_kept_arrays_bit_equals_fresh_call(case):
    assert_call_into_kept_arrays_bit_equals_fresh_call(*case)


def test_tcn_call_into_kept_arrays_zeroes_the_pad_again():
    # Windows shorter than the receptive field carry gradient into the pads,
    # where the backward pass sums it; the next forward must zero them again.
    model = TcnModel(TcnSpec(kernel=3, dilations=(1, 2, 4), channels=3, seed=2), 0.0, 1.0)
    rng = np.random.default_rng(3)
    assert_call_into_kept_arrays_bit_equals_fresh_call(model, rng.normal(size=(6, 5, 1)), rng.normal(size=(6, 1)))


def assert_chunks_bit_equal_tape_and_fresh_call(model, x, y, chunk):
    """With ``chunk`` windows per chunk, predict and a fresh loss_and_grads
    equal the tape. A call into kept arrays a first call wrote equals a fresh
    call after the parameters changed, and equals the tape."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(neural, "_CHUNK", chunk)
        assert_kernel_bit_equals_tape(model, x, y, tape_tcn_forward)
        assert_call_into_kept_arrays_bit_equals_fresh_call(model, x, y)
        kept = model.kept_arrays(*x.shape[:2])
        model.loss_and_grads(x, y, kept)  # its backward sums gradients into the padded inputs
        loss, grads = model.loss_and_grads(x, y, kept)
    assert bits(loss) == bits(tape_loss(tape_tcn_forward, model, x, y))
    for grad, p in zip(grads, model.parameters(), strict=True):
        assert bits(grad) == bits(p.grad)


@st.composite
def tcn_chunk_cases(draw):
    """A kernel case, windows shorter than the receptive field included,
    and a chunk size of 1 to n + 1 windows: one chunk or many, the last
    one full or short."""
    model, x, y = draw(tcn_kernel_cases(shorter=True))
    return model, x, y, draw(st.integers(1, len(x) + 1))


@settings(deadline=None, derandomize=True, database=None, max_examples=150)
@given(case=tcn_chunk_cases())
def test_tcn_chunks_bit_equal_tape_and_fresh_call(case):
    assert_chunks_bit_equal_tape_and_fresh_call(*case)


def test_tcn_chunks_of_windows_shorter_than_the_receptive_field():
    # Gradient reaches the pads of every chunk, the short last one too.
    model = TcnModel(TcnSpec(kernel=3, dilations=(1, 2, 4), channels=3, seed=2), 0.0, 1.0)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(7, 5, 1)), rng.normal(size=(7, 1))
    for chunk in (1, 3, 7):
        assert_chunks_bit_equal_tape_and_fresh_call(model, x, y, chunk)


def test_tcn_training_bit_equals_adam_over_tape():
    spec = TcnSpec(kernel=3, dilations=(1, 2), channels=4, epochs=40, learning_rate=0.02, seed=4)
    assert_training_bit_equals_adam_over_tape(TcnModel, spec, tape_tcn_forward)


# -- daily shape: ~1,200 windows, as the full-preset daily fits train on ------


def daily_windows(model, n=1200):
    """The model's ``n`` training windows of a seeded daily count series."""
    rng = np.random.default_rng(5)
    return _train_windows(model, daily(rng.poisson(20.0, n + model.lookback).astype(float)))


def daily_lstm(lookback=28):
    return LstmModel(LstmSpec(lookback=lookback, hidden=32, seed=3), 20.0, 4.5)


def daily_tcn():
    return TcnModel(TcnSpec(seed=3), 20.0, 4.5)


def test_lstm_kernel_bit_equals_tape_at_daily_shape():
    # Larger batches take other BLAS and SIMD paths than the cases above.
    model = daily_lstm()
    assert_kernel_bit_equals_tape(model, *daily_windows(model), tape_lstm_forward)


def test_tcn_kernel_bit_equals_tape_at_daily_shape():
    model = daily_tcn()
    x, y = daily_windows(model)
    assert bits(model.features(x)) == bits(tape_tcn_features(model, x).value)
    assert_kernel_bit_equals_tape(model, x, y, tape_tcn_forward)


def peak_bytes(call):
    """The most memory ``call`` held at once, in bytes, as tracemalloc sees it."""
    call()  # once untraced, so that lazy set-up is not counted
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lstm_keeps_five_arrays_per_step_and_predict_keeps_none():
    # One step's activation is A = n * hidden * 8 bytes. Backpropagation
    # through time keeps i, f, o, cand and c per step. A fixed ~20 A comes
    # on top: one step's gates, 4 A wide, and the backward pass's gate
    # gradients, built as four A-sized pieces and then joined. Seven arrays
    # per step (tanh(c) and h_prev as well) would take 212 A at lookback 28,
    # and predict would keep them too.
    peaks = {}
    for lookback in (7, 28):
        model = daily_lstm(lookback)
        x, y = daily_windows(model)
        act = len(x) * model.spec.hidden * 8
        grads_peak = peak_bytes(lambda: model.loss_and_grads(x, y))
        assert grads_peak < (5 * lookback + 24) * act
        peaks[lookback] = peak_bytes(lambda: model.predict(x))
    assert abs(peaks[28] - peaks[7]) < act  # predict keeps no step's activations


def test_lstm_call_into_kept_arrays_keeps_no_new_step_activations():
    # Given kept arrays, a call allocates only one step's temporaries and
    # the gradients, ~19 A at any lookback; a fresh call takes 159 A at
    # lookback 28.
    for lookback in (7, 28):
        model = daily_lstm(lookback)
        x, y = daily_windows(model)
        act = len(x) * model.spec.hidden * 8
        kept = model.kept_arrays(*x.shape[:2])
        assert peak_bytes(lambda: model.loss_and_grads(x, y, kept)) < 24 * act


def test_tcn_keeps_no_copied_block_input():
    # B = n * steps * channels * 8 bytes is one block's output. The padded
    # input of a block already holds its input, and the backward pass sums
    # the padded input's gradient into that same array: the call takes
    # 7.55 B for the default spec. It keeps 6.47 B: the padded inputs and
    # masks, and the backward pass's d_cur and d_conv. A separate gradient
    # array would take a B more, and a kept copy of each block input 3 B more.
    model = daily_tcn()
    x, y = daily_windows(model)
    block = x.shape[0] * x.shape[1] * model.spec.channels * 8
    assert peak_bytes(lambda: model.loss_and_grads(x, y)) < 7.75 * block


def test_tcn_call_into_kept_arrays_keeps_no_new_block_activations():
    # Given kept arrays, neither the padded inputs and masks nor d_cur and
    # d_conv are allocated again: 1.08 B, of which one tap gradient's copy
    # of a padded input is 1 B.
    model = daily_tcn()
    x, y = daily_windows(model)
    block = x.shape[0] * x.shape[1] * model.spec.channels * 8
    kept = model.kept_arrays(*x.shape[:2])
    assert peak_bytes(lambda: model.loss_and_grads(x, y, kept)) < 1.25 * block


def test_tcn_predict_memory_does_not_grow_with_the_windows_beyond_its_outputs():
    # predict runs the blocks on a chunk of windows at a time and keeps only
    # the last step's features, 2 * channels * 8 bytes a window as laid out,
    # and the predictions: 1.48 MB at 300 windows, 1.71 MB at 1,200. With
    # every window's block arrays at once it took 27.5 MB at 1,200.
    model = daily_tcn()
    peaks = {}
    for n in (300, 1200):
        x, _ = daily_windows(model, n)
        peaks[n] = peak_bytes(lambda: model.predict(x))
    assert peaks[1200] - peaks[300] < 900 * (2 * model.spec.channels + 3) * 8


@pytest.mark.parametrize("model_class, spec", [
    (LstmModel, LstmSpec(**{**SMALL_LSTM, "epochs": 4}, use_weekday=False)),
    (TcnModel, TcnSpec(**{**SMALL_TCN, "epochs": 4})),
])
def test_training_writes_every_epoch_into_the_first_epochs_arrays(model_class, spec, monkeypatch):
    seen = []
    original = model_class.loss_and_grads

    def probed(self, x, y, kept=None):
        result = original(self, x, y, kept)
        seen.append((kept, [a for entry in kept for a in entry]))
        return result

    monkeypatch.setattr(model_class, "loss_and_grads", probed)
    _fit(model_class, spec, sine_series())
    first_kept, first_arrays = seen[0]
    assert len(seen) == 4 and first_arrays
    for kept, arrays in seen[1:]:
        assert kept is first_kept
        assert all(a is b for a, b in zip(arrays, first_arrays, strict=True))


def test_tcn_loss_trends_down():
    series = sine_series()
    model = tcn_fit(series, TcnSpec(**SMALL_TCN))
    assert fitted_loss_slope(model.epoch_losses) < 0


def test_tcn_deterministic_forecast_bytes():
    from attrikit.series import forecast_to_csv

    series = sine_series()
    spec = TcnSpec(**SMALL_TCN)
    out = []
    for _ in range(2):
        model = tcn_fit(series, spec)
        fc = tcn_forecast(model, series, horizon=12)
        out.append(forecast_to_csv(fc))
    assert out[0] == out[1]


def test_tcn_receptive_field_error_reports_both_numbers():
    series = daily(np.arange(10.0))
    with pytest.raises(ModelError, match=r"need 32 consecutive observed periods; the longest run is 10"):
        tcn_fit(series, TcnSpec())


def test_tcn_forecast_shape():
    series = sine_series()
    spec = TcnSpec(**SMALL_TCN)
    model = tcn_fit(series, spec)
    fc = tcn_forecast(model, series, horizon=9)
    assert len(fc) == 9
    assert fc.origin == series.start + timedelta(days=len(series))


def test_tcn_tracks_terminal_regime(monthly_tanks_masked):
    from conftest import within_taper_band

    spec = TcnSpec(kernel=2, dilations=(1, 2, 4), channels=8, epochs=2500,
                   learning_rate=5e-3, seed=5)
    model = tcn_fit(monthly_tanks_masked, spec)
    trimmed = monthly_tanks_masked.head(monthly_tanks_masked.last_observed_index() + 1)
    fc = tcn_forecast(model, trimmed, horizon=6)
    assert fc.origin == date(2025, 6, 1)
    assert sum(within_taper_band(fc.point, fc.period_starts())) >= 5


# -- gradient checks ---------------------------------------------------------


def test_grad_check_lstm_at_init_and_after_training():
    rng = np.random.default_rng(6)
    spec = LstmSpec(lookback=6, hidden=5, epochs=10, learning_rate=0.01, seed=7, use_weekday=False)
    window = (rng.normal(size=(6, 1)), np.array([0.4]))

    fresh = LstmModel(spec, 0.0, 1.0)
    assert grad_check(fresh, window) <= 1e-4

    series = sine_series(n=60)
    trained = lstm_fit(series, spec)
    assert grad_check(trained, window) <= 1e-4


def test_grad_check_tcn_at_init_and_after_training():
    rng = np.random.default_rng(8)
    spec = TcnSpec(kernel=2, dilations=(1, 2), channels=3, epochs=10, learning_rate=0.01, seed=9)
    window = (rng.normal(size=(receptive_field(spec), 1)), np.array([-0.2]))

    fresh = TcnModel(spec, 0.0, 1.0)
    assert grad_check(fresh, window) <= 1e-4

    series = sine_series(n=60)
    trained = tcn_fit(series, spec)
    assert grad_check(trained, window) <= 1e-4


def test_destandardization_inverts_standardization():
    rng = np.random.default_rng(10)
    series = daily(rng.poisson(14.0, 90).astype(float))
    spec = LstmSpec(**SMALL_LSTM, use_weekday=False)
    model = lstm_fit(series, spec)
    _, vals = series.observed()
    z = (vals - model.mean) / model.std
    back = z * model.std + model.mean
    assert np.allclose(back, vals, rtol=1e-12, atol=0)


def test_divergence_error_names_epoch():
    model = LstmModel(LstmSpec(lookback=4, hidden=3, use_weekday=False), 0.0, 1.0)
    model.w_out.value[0, 0] = np.inf
    rng = np.random.default_rng(11)
    with pytest.raises(ModelError, match="epoch 0"):
        _train(model, rng.normal(size=(5, 4, 1)), rng.normal(size=(5, 1)), epochs=3, lr=0.01)


def test_tcn_divergence_error_names_epoch():
    model = TcnModel(TcnSpec(kernel=2, dilations=(1, 2), channels=3), 0.0, 1.0)
    model.w_out.value[0, 0] = np.inf
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(5, 4, 1)), rng.normal(size=(5, 1))
    assert model.loss_and_grads(x, y)[1] is None  # no gradients of a non-finite loss
    with pytest.raises(ModelError, match="epoch 0"):
        _train(model, x, y, epochs=3, lr=0.01)


def test_non_finite_forecast_is_a_model_error():
    # One epoch at learning rate 1e9 on zeros with one spike: the recursive
    # forecast grows past the float range, and training overflows on the way.
    values = np.zeros(90)
    values[45] = 1e6
    params = {"kernel": 2, "dilations": (1,), "channels": 4, "epochs": 1, "learning_rate": 1e9}
    with pytest.warns(RuntimeWarning), pytest.raises(ModelError, match="^forecast is not finite at step 17$"):
        forecast_model("tcn", daily(values), 30, params=params)


@pytest.mark.parametrize("name", ["lstm", "tcn"])
def test_negative_seed_is_a_schema_error(monthly_tanks, name):
    # numpy's seeded generator takes no negative seed, so the spec rejects one.
    for kwargs in ({"seed": -1}, {"params": {"seed": -1}}):
        with pytest.raises(SchemaError, match=f"^bad {name} parameters: seed must be >= 0$"):
            forecast_model(name, monthly_tanks, 3, **kwargs)


# -- one BLAS thread per fit -------------------------------------------------


@pytest.fixture
def blas_at_two_threads():
    """numpy's BLAS thread controls, with the caller's count set to 2 for
    the test so that the pin shows; the original count is restored after."""
    controls = _kernels._blas_controls()
    if controls is None:
        pytest.skip("no OpenBLAS thread-count symbol in numpy's BLAS")
    get, set_ = controls
    original = get()
    set_(2)
    try:
        if get() != 2:
            pytest.skip("OpenBLAS would not run on two threads here")
        yield get
    finally:
        set_(original)


def test_fit_trains_on_one_blas_thread_and_restores_the_count(blas_at_two_threads, monkeypatch):
    seen = []
    original = LstmModel.loss_and_grads

    def probed(self, x, y, kept=None):
        seen.append(blas_at_two_threads())
        return original(self, x, y, kept)

    monkeypatch.setattr(LstmModel, "loss_and_grads", probed)
    lstm_fit(sine_series(), LstmSpec(**{**SMALL_LSTM, "epochs": 3}, use_weekday=False))
    assert seen == [1, 1, 1]
    assert blas_at_two_threads() == 2


def test_fit_that_raises_restores_the_blas_count(blas_at_two_threads, monkeypatch):
    monkeypatch.setattr(LstmModel, "loss_and_grads", lambda self, x, y, kept=None: (float("nan"), None))
    with pytest.raises(ModelError, match="epoch 0"):
        lstm_fit(sine_series(), LstmSpec(**SMALL_LSTM, use_weekday=False))
    assert blas_at_two_threads() == 2


def test_overlapping_fits_on_two_threads_share_the_pin(blas_at_two_threads, monkeypatch):
    """The first fit starts, the second starts while the first trains, and
    the first ends before the second's last epoch, which must still run on
    one thread. The caller's count comes back once both have ended."""
    first_inside, second_inside, first_done = threading.Event(), threading.Event(), threading.Event()
    seen = {"first": [], "second": []}
    original = LstmModel.loss_and_grads

    def probed(self, x, y, kept=None):
        name = threading.current_thread().name
        if name == "second" and seen["second"]:
            assert first_done.wait(60)
        seen[name].append(blas_at_two_threads())
        if name == "first":
            first_inside.set()
            assert second_inside.wait(60)
        else:
            second_inside.set()
        return original(self, x, y, kept)

    def first():
        lstm_fit(sine_series(seed=0), LstmSpec(**{**SMALL_LSTM, "epochs": 1}, use_weekday=False))
        first_done.set()

    def second():
        assert first_inside.wait(60)
        lstm_fit(sine_series(seed=1), LstmSpec(**{**SMALL_LSTM, "epochs": 2}, use_weekday=False))

    monkeypatch.setattr(LstmModel, "loss_and_grads", probed)
    threads = [threading.Thread(target=first, name="first"), threading.Thread(target=second, name="second")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(120)
    assert seen == {"first": [1], "second": [1, 1]}
    assert blas_at_two_threads() == 2


def test_pin_does_nothing_without_a_thread_symbol(blas_at_two_threads, monkeypatch):
    assert _kernels._thread_controls(object()) is None
    monkeypatch.setattr(_kernels, "_blas_controls", lambda: None)
    with _kernels.one_blas_thread():
        assert blas_at_two_threads() == 2
    assert blas_at_two_threads() == 2
