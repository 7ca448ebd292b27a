"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import itertools
import time
from datetime import date

import numpy as np
import pytest

from attrikit.arima import ArimaSpec, fit as arima_fit, forecast as arima_forecast
from attrikit.cli import main
from attrikit.decomp import DecompSpec, components, fit as decomp_fit, predict
from attrikit.evaluate import BacktestSpec, fold_origins, metrics
from attrikit.factories import MODEL_NAMES, forecast_model
from attrikit.gbtrees import GbtSpec, fit as gbt_fit
from attrikit.neural import LstmModel, LstmSpec, TcnModel, TcnSpec, grad_check, receptive_field
from attrikit.series import (
    DAILY,
    CountSeries,
    SupervisedMatrix,
    forecast_to_csv,
)

from conftest import within_taper_band

START = date(2022, 3, 1)

FAST_FLAGS = [
    "--epochs", "60", "--lookback", "6", "--hidden", "6", "--lr", "0.02",
    "--kernel", "2", "--dilations", "1,2", "--channels", "4",
    "--n-trees", "25", "--lags", "1,2,3,6", "--ma-windows", "3",
    "--changepoints", "6", "--yearly-order", "2", "--weekly-order", "0",
]

FAST_PARAMS = {
    "lstm": {"lookback": 6, "hidden": 6, "epochs": 60, "learning_rate": 0.02},
    "tcn": {"kernel": 2, "dilations": (1, 2), "channels": 4, "epochs": 60, "learning_rate": 0.02},
    "gbt": {"n_trees": 25, "lags": (1, 2, 3, 6), "ma_windows": (3,)},
    "decomp": {"n_changepoints": 6, "yearly_order": 2, "weekly_order": 0},
    "arima": {},
}


def _passed(number: int, text: str) -> None:
    print(f"\n[criterion {number:02d}] PASS {text}")


def daily_series(values, mask=None):
    values = np.asarray(values, dtype=float)
    mask = np.ones(len(values), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    return CountSeries(DAILY, START, values, mask)


def test_criterion_01_arima_parameter_recovery():
    rng = np.random.default_rng(2024)
    e = rng.normal(size=560)
    z = np.zeros(560)
    for t in range(1, 560):
        z[t] = 0.5 * z[t - 1] + e[t] + 0.3 * e[t - 1]
    y = np.cumsum(z[60:])
    assert len(y) == 500

    started = time.perf_counter()
    result = arima_fit(daily_series(y), ArimaSpec(1, 1, 1, use_log=False, intercept=True))
    elapsed = time.perf_counter() - started

    assert abs(result.phi[0] - 0.5) <= 0.15, f"phi_hat={result.phi[0]:.4f}"
    assert abs(result.theta[0] - 0.3) <= 0.20, f"theta_hat={result.theta[0]:.4f}"
    assert elapsed < 5.0, f"fit took {elapsed:.2f}s"
    _passed(1, f"ARIMA(1,1,1) recovery: phi={result.phi[0]:.3f}, theta={result.theta[0]:.3f}, {elapsed:.2f}s")


def test_criterion_02_random_walk_forecast_identity():
    rng = np.random.default_rng(7)
    y = np.cumsum(rng.normal(size=300)) + 200.0
    spec = ArimaSpec(0, 1, 0, use_log=False, intercept=False)
    series = daily_series(y)
    fc = arima_forecast(arima_fit(series, spec), series, horizon=24)
    assert np.all(fc.point == y[-1])
    _passed(2, "ARIMA(0,1,0) point forecasts equal the last observed value exactly")


def test_criterion_03_decomposition_recovery():
    rng = np.random.default_rng(11)
    t = np.arange(420, dtype=float)
    true_slope, amplitude = 0.05, 3.0
    y = 10.0 + true_slope * t + amplitude * np.sin(2.0 * np.pi * t / 7.0) + rng.normal(0, 0.3, len(t))
    result = decomp_fit(daily_series(y), DecompSpec(weekly_order=3, yearly_order=0))

    recovered_amp = float(np.hypot(result.beta[0], result.beta[1]))
    assert abs(recovered_amp - amplitude) / amplitude < 0.05, f"amplitude={recovered_amp:.4f}"

    final_slope = result.k + float(result.delta.sum())
    assert abs(final_slope - true_slope) / true_slope < 0.02, f"slope={final_slope:.5f}"

    days = [date(2022, 3, 1 + i) for i in range(28)]
    fc = predict(result, days)
    parts = components(result, days)
    total = parts["trend"] + parts["weekly"] + parts["yearly"]
    assert np.allclose(total, fc.point, atol=1e-9)
    _passed(3, f"decomposition recovery: amplitude={recovered_amp:.3f}, slope={final_slope:.4f}, "
               "components sum to point forecasts (1e-9)")


def test_criterion_04_gradient_correctness():
    worst = 0.0
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        lstm_spec = LstmSpec(lookback=6, hidden=5, epochs=10, learning_rate=0.01,
                             seed=seed, use_weekday=False)
        window = (rng.normal(size=(6, 1)), np.array([0.3]))
        series = daily_series(10 + 3 * np.sin(np.arange(60) / 3.0) + rng.normal(0, 0.2, 60))

        fresh = LstmModel(lstm_spec, 0.0, 1.0)
        worst = max(worst, grad_check(fresh, window))
        from attrikit.neural import lstm_fit, tcn_fit
        trained, _ = lstm_fit(series, lstm_spec)
        worst = max(worst, grad_check(trained, window))

        tcn_spec = TcnSpec(kernel=2, dilations=(1, 2), channels=3, epochs=10,
                           learning_rate=0.01, seed=seed)
        t_window = (rng.normal(size=(receptive_field(tcn_spec), 1)), np.array([-0.4]))
        fresh_tcn = TcnModel(tcn_spec, 0.0, 1.0)
        worst = max(worst, grad_check(fresh_tcn, t_window))
        trained_tcn, _ = tcn_fit(series, tcn_spec)
        worst = max(worst, grad_check(trained_tcn, t_window))
    assert worst <= 1e-4, f"max relative error {worst:.2e}"
    _passed(4, f"grad_check <= 1e-4 for LSTM and TCN, init and after 10 steps, 3 seeds (worst {worst:.2e})")


def test_criterion_05_tcn_structure_and_causality():
    assert receptive_field(TcnSpec()) == 31

    model = TcnModel(TcnSpec(kernel=3, dilations=(1, 2, 4), channels=4, seed=9), 0.0, 1.0)
    rng = np.random.default_rng(13)
    length = 48
    x = rng.normal(size=(1, length, 1))
    base = model.features(x)
    for position in rng.integers(0, length, size=100):
        bumped = x.copy()
        bumped[0, position, 0] += 7.5
        out = model.features(bumped)
        assert np.array_equal(out[0, :position], base[0, :position]), f"leak before t={position}"
    _passed(5, "receptive field 31 for defaults; causality holds at 100 random positions")


def brute_force_stump(x, y, min_leaf):
    def sse(v):
        return float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0

    best = None
    parent = sse(y)
    for j, values in enumerate(x.T):
        distinct = np.unique(values)
        for a, b in zip(distinct, distinct[1:]):
            threshold = (a + b) / 2.0
            left, right = y[values <= threshold], y[values > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - sse(left) - sse(right)
            if best is None or gain > best[0]:
                best = (gain, j, threshold)
    return best


def test_criterion_06_boosting_oracle():
    rng = np.random.default_rng(17)
    stump_spec = GbtSpec(n_trees=1, max_depth=1, learning_rate=1.0, min_samples_leaf=2,
                         lags=(1,), ma_windows=(), calendar=frozenset())
    for _ in range(5):
        x = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        names = tuple(f"f{j}" for j in range(3))
        matrix = SupervisedMatrix(names, x, y, tuple(date(2022, 3, 1 + i % 28) for i in range(20)))
        model = gbt_fit(matrix, stump_spec)
        oracle = brute_force_stump(x, y, 2)
        assert model.trees[0].feature == oracle[1]
        assert model.trees[0].threshold == oracle[2]

    x = rng.normal(size=(150, 5))
    y = 2.0 * x[:, 0] + np.sin(3.0 * x[:, 1]) + rng.normal(0, 0.4, 150)
    names = tuple(f"f{j}" for j in range(5))
    matrix = SupervisedMatrix(names, x, y, tuple(date(2022, 3, 1 + i % 28) for i in range(150)))
    model = gbt_fit(matrix, GbtSpec(n_trees=200, max_depth=3))
    assert len(model.stage_rmse) == 200
    assert np.all(np.diff(np.asarray(model.stage_rmse)) <= 1e-12)
    _passed(6, "depth-1 stump matches brute-force enumeration on 5 datasets; "
               "200-stage training RMSE non-increasing")


def test_criterion_07_metrics_arithmetic():
    report = metrics([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert abs(report.mae - 2.0 / 3.0) <= 1e-12
    assert abs(report.rmse - np.sqrt(2.0 / 3.0)) <= 1e-12

    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(10, 300))
        initial = int(rng.integers(1, 20))
        step = int(rng.integers(1, 8))
        horizon = int(rng.integers(1, 12))
        spec = BacktestSpec(initial_train=initial, step=step, horizon=horizon)
        expected = 0 if n < initial + horizon else (n - initial - horizon) // step + 1
        assert len(fold_origins(n, spec)) == expected, (n, initial, step, horizon)
    _passed(7, "metrics arithmetic exact to 1e-12; fold counts match the closed form on 10 tuples")


def test_criterion_08_exclusion_semantics(monthly_tanks_masked, monkeypatch):
    masked_idx = set(np.flatnonzero(~monthly_tanks_masked.mask).tolist())
    assert masked_idx == {40, 41}  # June and July 2025

    served: list[tuple[int, int, set]] = []
    original = CountSeries.observed

    def counting(self):
        idx, vals = original(self)
        served.append((len(self), int(self.mask.sum()), set(idx.tolist())))
        return idx, vals

    monkeypatch.setattr(CountSeries, "observed", counting)

    poisoned = CountSeries(
        monthly_tanks_masked.granularity, monthly_tanks_masked.start,
        np.where(monthly_tanks_masked.mask, monthly_tanks_masked.values, 1e9),
        monthly_tanks_masked.mask.copy(),
    )

    for name in MODEL_NAMES:
        served.clear()
        fc_clean = forecast_model(name, monthly_tanks_masked, 4, seed=3, params=FAST_PARAMS[name])
        assert served, f"{name} never went through the observed() accessor"
        for length, n_observed, indices in served:
            assert len(indices) == n_observed, f"{name} access count != observed count"
            assert indices.isdisjoint(masked_idx), f"{name} touched a masked period"

        fc_poison = forecast_model(name, poisoned, 4, seed=3, params=FAST_PARAMS[name])
        assert forecast_to_csv(fc_clean) == forecast_to_csv(fc_poison), (
            f"{name} output changed when masked values were poisoned"
        )
    _passed(8, "all five models: observed()-only access, counts match, poison-proof")


def test_criterion_09_cli_determinism(tmp_path):
    synth = tmp_path / "records.csv"
    assert main(["synth", "--seed", "42", "--out", str(synth)]) == 0

    def run_all(tag: str) -> bytes:
        blobs = []
        for model in MODEL_NAMES:
            out = tmp_path / tag / f"fc_{model}"
            code = main(["forecast", "--data", str(synth), "--model", model,
                         "--granularity", "monthly", "--category", "tank",
                         "--exclude", "2025-06-01:2025-07-31", "--horizon", "4",
                         "--seed", "3", "--svg", "--out", str(out), *FAST_FLAGS])
            assert code == 0, model
            blobs += [(out / f"forecast_{model}.csv").read_bytes(),
                      (out / f"forecast_{model}.svg").read_bytes()]
        cmp_out = tmp_path / tag / "cmp"
        code = main(["compare", "--data", str(synth), "--granularity", "monthly",
                     "--category", "tank", "--exclude", "2025-06-01:2025-07-31",
                     "--initial-train", "37", "--step", "1", "--horizon", "2",
                     "--seed", "3", "--svg", "--out", str(cmp_out), *FAST_FLAGS])
        assert code == 0
        for path in sorted(cmp_out.iterdir()):
            blobs.append(path.read_bytes())
        return b"\x00".join(blobs)

    assert run_all("first") == run_all("second")
    _passed(9, "forecast and compare outputs byte-identical across reruns for all five models")


def test_criterion_10_end_to_end_protocol_run(tmp_path):
    started = time.perf_counter()

    synth = tmp_path / "synthetic.csv"
    assert main(["synth", "--seed", "42", "--out", str(synth)]) == 0

    ingested = tmp_path / "ingested"
    assert main(["ingest", "--data", str(synth), "--out", str(ingested)]) == 0
    records = ingested / "records.csv"

    base = ["--data", str(records), "--granularity", "monthly", "--category", "tank",
            "--exclude", "2025-06-01:2025-07-31", "--seed", "5"]

    banded = {}
    for model in ("arima", "tcn", "decomp"):
        out = tmp_path / f"fc_{model}"
        assert main(["forecast", *base, "--model", model, "--horizon", "6",
                     "--out", str(out)]) == 0
        lines = (out / f"forecast_{model}.csv").read_text().strip().split("\n")[1:]
        dates = [date.fromisoformat(line.split(",")[0]) for line in lines]
        points = [float(line.split(",")[1]) for line in lines]
        assert dates[0] == date(2025, 6, 1)
        banded[model] = sum(within_taper_band(points, dates))

    cmp_out = tmp_path / "cmp"
    assert main(["compare", *base, "--initial-train", "37", "--step", "1",
                 "--horizon", "2", "--out", str(cmp_out)]) == 0
    table = (cmp_out / "comparison.csv").read_text().strip().split("\n")
    assert len(table) == 6  # header + five models

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"end-to-end run took {elapsed:.0f}s"
    for model, hits in banded.items():
        assert hits >= 5, f"{model} landed {hits}/6 inside the generator band"
    _passed(10, f"synth->ingest->forecast->compare in {elapsed:.1f}s; "
                f"band hits: " + ", ".join(f"{m}={banded[m]}/6" for m in banded))


def test_criterion_11_interval_coverage_on_random_walks():
    spec = ArimaSpec(0, 1, 0, use_log=False, intercept=False)
    rng = np.random.default_rng(23)
    covered = total = 0
    for _ in range(20):
        y = np.cumsum(rng.normal(size=150)) + 100.0
        series = daily_series(y)
        for origin in range(100, 150):
            train = series.head(origin)
            fc = arima_forecast(arima_fit(train, spec), train, horizon=1, level=0.95)
            covered += int(fc.lower[0] <= y[origin] <= fc.upper[0])
            total += 1
    rate = covered / total
    assert 0.85 <= rate <= 0.99, f"coverage {rate:.3f}"
    _passed(11, f"95% interval coverage at horizon 1: {rate:.3f} over {total} forecasts")
