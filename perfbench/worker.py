"""One benchmark process: set-up, then timed passes of a library workload.

``run.py`` starts this script as a fresh interpreter and reads the JSON it
writes to ``--out``. Set-up time is measured from the first line of this
file, so it covers importing numpy and attrikit, generating and writing the
inputs and, for the library workloads, the one ``parse_records`` +
``aggregate`` whose series every pass reuses. For ``cli_statistical`` the
set-up writes the messy inputs and the passes run in ``run.py``, one CLI
process at a time.

A library pass is a closed loop with one client: each operation starts
when the previous one has returned. Outputs are checked after the pass,
outside the timed region.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from datetime import date  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import attrikit  # noqa: E402
from attrikit import (  # noqa: E402
    MODEL_NAMES,
    BacktestSpec,
    Category,
    CountSeries,
    ExclusionWindow,
    ForecastFactory,
    aggregate,
    apply_exclusions,
    build_factory,
    evaluate,
    factories,
    generate_synthetic,
    parse_records,
)
from attrikit.ingest import records_to_csv  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import messy  # noqa: E402
import tracing  # noqa: E402

MODEL_SEED = 5  # the model seed of the acceptance fixture
EXCLUSION = ExclusionWindow(date(2025, 6, 1), date(2025, 7, 31))
FORECAST_ORIGIN = date(2025, 6, 1)  # first period after the last observed one

# Run lengths are cut to about a twentieth of the presets: 2,500 monthly
# epochs -> 125 and 200 monthly trees -> 10 (keeping neural ~95% of the
# pass, as at full size), 50 daily epochs -> 3, 200 daily trees -> 10. Data
# shapes (windows, lookback, hidden size, features, folds) are the
# presets'. Short passes let one run hold about ten of them, and their
# median rides out the seconds-long slow phases of a shared 2-CPU host.
MONTHLY_PARAMS = {"lstm": {"epochs": 125}, "tcn": {"epochs": 125}, "gbt": {"n_trees": 10}}
DAILY_NEURAL_PARAMS = {"epochs": 3}
DAILY_GBT_PARAMS = {"n_trees": 10}
MONTHLY_BACKTEST = BacktestSpec(initial_train=37, step=1, horizon=2, granularity="monthly")
DAILY_BACKTEST = BacktestSpec(initial_train=1000, step=60, horizon=30, granularity="daily")


def _call(tracer, name, fn, *args, attrs=None):
    return tracer.call(name, fn, args, attrs=attrs) if tracer else fn(*args)


def library_setup(seed: int, workdir: Path, granularity: str, tracer) -> CountSeries:
    records = generate_synthetic(seed)
    path = workdir / "records.csv"
    path.write_text(records_to_csv(records), encoding="utf-8")
    parsed, report = _call(tracer, "ingest.parse_records", parse_records, path.read_text(encoding="utf-8"),
                           attrs=tracing.parse_attrs)
    if report.rows_parsed != len(records) or report.unparsable_rows:
        raise RuntimeError(f"clean synthetic input did not parse cleanly: {report}")
    series = _call(tracer, "series.aggregate", aggregate, parsed, granularity, {Category.TANK})
    return _call(tracer, "series.apply_exclusions", apply_exclusions, series, [EXCLUSION])


def cli_setup(seed: int, workdir: Path) -> None:
    generated = messy.generate_messy(seed)
    (workdir / "messy.csv").write_text(generated.csv_text, encoding="utf-8")
    (workdir / "corrections.csv").write_text(messy.CORRECTIONS_CSV, encoding="utf-8")
    (workdir / "geo_index.csv").write_text(messy.GEO_INDEX_CSV, encoding="utf-8")
    (workdir / "expected.json").write_text(json.dumps(generated.expected), encoding="utf-8")


# --------------------------------------------------------------------------
# Passes. Each returns its raw outputs; ``check_pass`` turns them into
# per-operation problems and fingerprints after the timed region.


def _forecast_op(ops: dict, name: str, series, horizon: int, params: dict) -> None:
    try:
        ops[f"forecast:{name}"] = factories.forecast_model(name, series, horizon, seed=MODEL_SEED,
                                                           params=params)
    except Exception as err:  # an operation that raises is a failed operation
        ops[f"forecast:{name}"] = err


def _check_forecast(fc, horizon: int) -> tuple[list[str], list[float] | None]:
    if isinstance(fc, Exception):
        return [f"raised {fc!r}"], None
    problems = checks.forecast_problems(fc.point, fc.lower, fc.upper, horizon)
    if fc.origin != FORECAST_ORIGIN:
        problems.append(f"forecast origin {fc.origin}, expected {FORECAST_ORIGIN}")
    return problems, [float(v) for v in (*fc.point, *fc.lower, *fc.upper)]


def _observed(factory: ForecastFactory, folds: list, tracer) -> ForecastFactory:
    """Keep a copy of every fold's predictions for checking after the pass."""
    def fit_forecast(train, horizon):
        if tracer:
            tracer.op = f"fold:{factory.name}:{len(folds)}"
        preds = factory.fit_forecast(train, horizon)
        folds.append([float(v) for v in np.asarray(preds, dtype=float)])
        return preds

    observed = ForecastFactory(factory.name, fit_forecast)
    return tracing.traced_factory(tracer, observed) if tracer else observed


def _backtest_ops(models, series, spec: BacktestSpec, params: dict, tracer, together: bool) -> dict:
    """Backtest ``models`` (through ``compare`` if ``together``); one op per fold."""
    folds = {name: [] for name in models}
    facs = [_observed(build_factory(name, series.granularity, MODEL_SEED, params.get(name)), folds[name], tracer)
            for name in models]
    reports, errors = {}, {}
    if together:
        try:
            comparison = evaluate.compare(facs, series, spec)
            reports = comparison.reports
        except Exception as err:  # an operation that raises is a failed operation
            errors = {name: err for name in models}
    else:
        for name, fac in zip(models, facs):
            try:
                reports[name] = evaluate.rolling_backtest(fac, series, spec)
            except Exception as err:  # an operation that raises is a failed operation
                errors[name] = err
    return {"folds": folds, "reports": reports, "errors": errors, "spec": spec, "mask": series.mask}


def _check_backtests(result: dict) -> dict:
    spec = result["spec"]
    n_folds, expected_points = checks.expected_scored_points(
        result["mask"].tolist(), spec.initial_train, spec.step, spec.horizon)
    out = {}
    for name, folds in result["folds"].items():
        report = result["reports"].get(name)
        if report is None:
            model_problems = [f"raised {result['errors'][name]!r}"]
        else:
            model_problems = checks.report_problems(
                [f.n_points for f in report.per_fold], expected_points,
                [v for f in report.per_fold for v in (f.mae, f.rmse, f.smape)])
        for k in range(n_folds):
            preds = folds[k] if k < len(folds) else None
            problems = list(model_problems)
            problems += checks.fold_problems(preds, spec.horizon) if preds is not None else ["fold did not run"]
            out[f"fold:{name}:{k}"] = (problems, preds)
    return out


def monthly_compare(series, tracer):
    return [("backtest", _backtest_ops(MODEL_NAMES, series, MONTHLY_BACKTEST, MONTHLY_PARAMS, tracer, True))]


def daily_trees(series, tracer):
    ops = {}
    if tracer:
        tracer.op = "forecast:gbt"
    _forecast_op(ops, "gbt", series, 30, DAILY_GBT_PARAMS)
    backtests = _backtest_ops(("gbt", "arima", "decomp"), series, DAILY_BACKTEST,
                              {"gbt": DAILY_GBT_PARAMS}, tracer, False)
    return [("forecasts", (ops, 30)), ("backtest", backtests)]


def daily_neural(series, tracer):
    ops = {}
    for name in ("tcn", "lstm"):
        if tracer:
            tracer.op = f"forecast:{name}"
        _forecast_op(ops, name, series, 30, DAILY_NEURAL_PARAMS)
    return [("forecasts", (ops, 30))]


# workload -> (series granularity, one pass, kind of calibration unit)
LIBRARY_WORKLOADS = {
    "monthly_compare": ("monthly", monthly_compare, "interpreter"),
    "daily_trees": ("daily", daily_trees, "interpreter"),
    "daily_neural": ("daily", daily_neural, "memory"),
}


def check_pass(outputs) -> dict:
    """op -> {"problems": [...], "fingerprint": ...} for one pass."""
    checked = {}
    for kind, payload in outputs:
        if kind == "backtest":
            items = _check_backtests(payload).items()
        else:
            forecasts, horizon = payload
            items = [(op, _check_forecast(fc, horizon)) for op, fc in forecasts.items()]
        for op, (problems, fingerprint) in items:
            checked[op] = {"problems": problems, "fingerprint": fingerprint}
    return checked


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_passes(run_pass, series, unit_kind: str, seconds: float, tracer, phase_offset: int = 0) -> list[dict]:
    """Passes until the next one would end after ``seconds``; at least one.

    A calibration unit of ``unit_kind`` is timed before the first pass and after each one;
    ``*_norm_s`` rescale a pass by the units on either side of it.
    """
    passes: list[dict] = []
    started = time.perf_counter()
    unit_before = calibrate.unit_s(unit_kind)
    while True:
        if tracer:
            tracer.phase = f"pass{phase_offset + len(passes)}"
        cpu0, wall0 = _cpu_s(), time.perf_counter()
        outputs = run_pass(series, tracer)
        wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
        unit_after = calibrate.unit_s(unit_kind)
        factor = calibrate.scale(unit_before, unit_after, unit_kind)
        passes.append({"wall_s": wall, "cpu_s": cpu, "wall_norm_s": wall * factor, "cpu_norm_s": cpu * factor,
                       "traced": tracer is not None, "ops": check_pass(outputs)})
        unit_before = unit_after
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(p["wall_s"] for p in passes) > seconds:
            return passes


def blas_info() -> dict:
    """BLAS library and thread count as numpy's bundled OpenBLAS reports them."""
    import ctypes

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info = {"name": config.get("name"), "version": config.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0, help="0 = set-up only")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    tracer = tracing.Tracer() if args.trace else None
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli_statistical":
        cli_setup(args.seed, args.workdir)
        series = run_pass = unit_kind = None
    else:
        granularity, run_pass, unit_kind = LIBRARY_WORKLOADS[args.workload]
        series = library_setup(args.seed, args.workdir, granularity, tracer)
    setup_s = time.perf_counter() - _STARTED
    result = {
        "setup_s": setup_s,
        # Timed right after set-up; run.py rescales set-up by it and the unit it timed before the spawn.
        "setup_unit_s": calibrate.unit_s(),
        "meta": {
            "attrikit_version": attrikit.__version__,
            "attrikit_path": str(Path(attrikit.__file__).resolve().parent),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": blas_info(),
        },
        "passes": [],
    }
    if run_pass is not None and args.seconds > 0:
        if tracer:
            # Untraced passes first, then the same loop with wrappers installed;
            # the difference of their medians is the tracing overhead.
            result["passes"] = run_passes(run_pass, series, unit_kind, args.seconds / 2, None)
            tracing.install(tracer)
            result["passes"] += run_passes(run_pass, series, unit_kind, args.seconds / 2, tracer,
                                           phase_offset=len(result["passes"]))
        else:
            result["passes"] = run_passes(run_pass, series, unit_kind, args.seconds, None)
    if tracer:
        result["spans"] = tracer.spans
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
