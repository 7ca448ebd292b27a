"""Command-line front end: ingest, synth, aggregate, forecast, backtest, compare.

Exit codes are a stable scripting contract: 0 success, 1 I/O failure,
2 usage/config/schema problem, 3 model or evaluation failure. Every
command honors --seed and writes byte-reproducible outputs; input files
are never modified.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date
from pathlib import Path

from .errors import ConvergenceError, ModelError, SchemaError
from .evaluate import BacktestSpec, MetricReport, ModelComparison, compare, rolling_backtest
from .factories import MODEL_NAMES, build_factory, default_factories, forecast_model
from .ingest import (
    default_profile,
    generate_synthetic,
    load_corrections,
    load_geo_index,
    load_profile,
    normalize_geo,
    parse_category,
    parse_records,
    records_to_csv,
)
from .series import (
    DAILY,
    MONTHLY,
    CountSeries,
    ExclusionWindow,
    Forecast,
    aggregate,
    apply_exclusions,
    forecast_to_csv,
    series_to_csv,
)
from .svg import FigureSpec, emit_svg

CONFIG_KEYS = {
    "data", "out", "granularity", "category", "range", "exclude", "model", "models",
    "horizon", "level", "seed", "svg", "geo_index", "geo_policy", "corrections",
    "schema", "profile", "initial_train", "step",
    "order", "no_log", "no_intercept",
    "changepoints", "changepoint_range", "weekly_order", "yearly_order", "trend_penalty",
    "lookback", "hidden", "epochs", "lr", "use_month", "no_weekday",
    "kernel", "dilations", "channels",
    "n_trees", "max_depth", "min_leaf", "lags", "ma_windows",
}

_BOOL_KEYS = {"svg", "no_log", "no_intercept", "use_month", "no_weekday"}


def _read_text(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _parse_date(text: str) -> date:
    return date.fromisoformat(text.strip())


def _parse_window(text: str) -> ExclusionWindow:
    try:
        start_text, _, end_text = text.partition(":")
        return ExclusionWindow(_parse_date(start_text), _parse_date(end_text))
    except ValueError as err:
        raise SchemaError(f"bad exclusion window {text!r}: expected START:END ISO dates") from err


def _parse_int_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for chunk in str(text).split(","):
        chunk = chunk.strip()
        try:
            if "-" in chunk[1:]:
                lo, _, hi = chunk.partition("-")
                out.extend(range(int(lo), int(hi) + 1))
            elif chunk:
                out.append(int(chunk))
        except ValueError as err:
            raise SchemaError(f"bad integer list {text!r}: {err}") from err
    if not out:
        raise SchemaError(f"empty integer list {text!r}")
    return tuple(out)


def load_config(path: str) -> dict[str, str]:
    """Flat key=value config; '#' starts a comment, unknown keys are errors."""
    config: dict[str, str] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not sep:
            raise SchemaError(f"config line {line_no}: expected key=value, got {raw!r}")
        if key not in CONFIG_KEYS:
            raise SchemaError(f"config line {line_no}: unknown key {key!r}")
        config[key] = value.strip()
    return config


def _merged(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config value, else default."""
    flag = getattr(args, key, None)
    if key in _BOOL_KEYS:
        if flag:
            return True
        return str(args.config_values.get(key, "")).lower() in ("1", "true", "yes", "on")
    if flag is not None:
        return flag
    if key in args.config_values:
        return args.config_values[key]
    return default


def _model_params(args: argparse.Namespace) -> dict:
    """Collect model-specific overrides from flags/config into one dict."""
    params: dict = {}
    order = _merged(args, "order")
    if order is not None:
        try:
            p, d, q = (int(x) for x in str(order).split(","))
        except ValueError as err:
            raise SchemaError(f"bad --order {order!r}: expected p,d,q") from err
        params.update(p=p, d=d, q=q)
    if _merged(args, "no_log"):
        params["use_log"] = False
    if _merged(args, "no_intercept"):
        params["intercept"] = False

    for key, name, conv in (
        ("changepoints", "n_changepoints", int),
        ("changepoint_range", "changepoint_range", float),
        ("weekly_order", "weekly_order", int),
        ("yearly_order", "yearly_order", int),
        ("trend_penalty", "trend_penalty", float),
        ("lookback", "lookback", int),
        ("hidden", "hidden", int),
        ("epochs", "epochs", int),
        ("lr", "learning_rate", float),
        ("kernel", "kernel", int),
        ("channels", "channels", int),
        ("n_trees", "n_trees", int),
        ("max_depth", "max_depth", int),
        ("min_leaf", "min_samples_leaf", int),
    ):
        value = _merged(args, key)
        if value is not None:
            params[name] = conv(value)
    for key, name in (("dilations", "dilations"), ("lags", "lags"), ("ma_windows", "ma_windows")):
        value = _merged(args, key)
        if value is not None:
            params[name] = _parse_int_list(value)
    if _merged(args, "use_month"):
        params["use_month"] = True
    if _merged(args, "no_weekday"):
        params["use_weekday"] = False
    return params


def _load_series(args: argparse.Namespace) -> tuple[CountSeries, list[ExclusionWindow]]:
    granularity = _merged(args, "granularity", DAILY)
    if granularity not in (DAILY, MONTHLY):
        raise SchemaError(f"granularity must be daily or monthly, got {granularity!r}")
    records, _ = parse_records(_read_text(_merged(args, "data")))

    categories = None
    category_value = _merged(args, "category")
    if category_value:
        categories = {parse_category(c) for c in str(category_value).split(",")}

    date_range = None
    range_value = _merged(args, "range")
    if range_value:
        lo_text, _, hi_text = str(range_value).partition(":")
        try:
            date_range = (_parse_date(lo_text), _parse_date(hi_text))
        except ValueError as err:
            raise SchemaError(f"bad --range {range_value!r}: expected START:END ISO dates") from err

    windows = [_parse_window(w) for w in _exclusions(args)]
    series = aggregate(records, granularity, categories, date_range)
    return apply_exclusions(series, windows), windows


def _exclusions(args: argparse.Namespace) -> list[str]:
    if getattr(args, "exclude", None):
        return list(args.exclude)
    raw = args.config_values.get("exclude", "")
    return [w for w in str(raw).split(",") if w.strip()] if raw else []


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# Commands


def cmd_ingest(args: argparse.Namespace) -> int:
    schema = None
    schema_value = _merged(args, "schema")
    if schema_value:
        schema = {}
        for pair in str(schema_value).split(","):
            logical, sep, column = pair.partition("=")
            if not sep:
                raise SchemaError(f"bad --schema entry {pair!r}: expected logical=column")
            schema[logical.strip()] = column.strip()

    corrections = None
    corrections_path = _merged(args, "corrections")
    if corrections_path:
        corrections = load_corrections(_read_text(corrections_path))

    records, report = parse_records(_read_text(_merged(args, "data")), schema=schema,
                                    corrections=corrections)

    geo_path = _merged(args, "geo_index")
    if geo_path:
        index = load_geo_index(_read_text(geo_path), _merged(args, "geo_policy", "leave_blank"))
        records = normalize_geo(records, index)

    out_dir = Path(_merged(args, "out"))
    _write(out_dir / "records.csv", records_to_csv(records))
    _write(out_dir / "ingest_report.json", json.dumps({
        "rows_read": report.rows_read,
        "rows_parsed": report.rows_parsed,
        "duplicates_removed": report.duplicates_removed,
        "category_corrections": report.category_corrections,
        "unparsable_rows": report.unparsable_rows,
    }, indent=2, sort_keys=True))
    print(f"ingested {report.rows_parsed} records "
          f"({report.duplicates_removed} duplicates, {len(report.unparsable_rows)} unparsable)")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    profile_path = _merged(args, "profile")
    profile = load_profile(_read_text(profile_path)) if profile_path else default_profile()
    records = generate_synthetic(int(_merged(args, "seed", 0)), profile)
    out = Path(_merged(args, "out"))
    _write(out, records_to_csv(records))
    print(f"wrote {len(records)} synthetic records to {out}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    series, _ = _load_series(args)
    out = Path(_merged(args, "out"))
    _write(out, series_to_csv(series))
    print(f"wrote {len(series)} {series.granularity} periods to {out}")
    return 0


def _forecast_figure(series: CountSeries, fc: Forecast, windows, title: str) -> str:
    spec = FigureSpec(kind="history_plus_forecast", title=title)
    return emit_svg(spec, {"series": series, "forecast": fc, "exclusions": windows})


def cmd_forecast(args: argparse.Namespace) -> int:
    model = _merged(args, "model")
    if model not in MODEL_NAMES:
        raise SchemaError(f"--model must be one of {', '.join(MODEL_NAMES)}, got {model!r}")
    horizon = int(_merged(args, "horizon", 12))
    if horizon < 1:
        raise SchemaError(f"--horizon must be >= 1, got {horizon}")
    level = _level(args)
    seed = int(_merged(args, "seed", 0))

    series, windows = _load_series(args)
    fc = forecast_model(model, series, horizon, seed=seed, params=_model_params(args), level=level)

    out_dir = Path(_merged(args, "out"))
    _write(out_dir / f"forecast_{model}.csv", forecast_to_csv(fc))
    if _merged(args, "svg"):
        title = f"{model} forecast, {series.granularity} horizon {horizon}"
        _write(out_dir / f"forecast_{model}.svg", _forecast_figure(series, fc, windows, title))
    print(f"forecast_{model}.csv: {len(fc)} periods from {fc.origin.isoformat()} "
          f"(interval: {fc.interval_method})")
    return 0


def _level(args: argparse.Namespace) -> float:
    level = float(_merged(args, "level", 0.95))
    if not 0.0 < level < 1.0:
        raise SchemaError(f"--level must lie in (0, 1), got {level}")
    return level


def _backtest_spec(args: argparse.Namespace, granularity: str) -> BacktestSpec:
    _level(args)  # backtests score points only, but a bad --level is still a usage error
    initial = _merged(args, "initial_train")
    if initial is None:
        raise SchemaError("--initial-train is required")
    try:
        return BacktestSpec(
            initial_train=int(initial),
            step=int(_merged(args, "step", 1)),
            horizon=int(_merged(args, "horizon", 1)),
            granularity=granularity,
        )
    except ValueError as err:
        raise SchemaError(f"bad backtest settings: {err}") from err


def _report_row(name: str, report: MetricReport) -> str:
    return (f"{name},{report.mae:.12g},{report.rmse:.12g},{report.smape:.12g},"
            f"{report.n_points},{len(report.per_fold)}")


def _report_json(report: MetricReport) -> dict:
    return {
        "mae": report.mae, "rmse": report.rmse, "smape": report.smape,
        "n_points": report.n_points,
        "per_fold": [
            {"origin": f.origin.isoformat(), "mae": f.mae, "rmse": f.rmse,
             "smape": f.smape, "n_points": f.n_points}
            for f in report.per_fold
        ],
    }


def cmd_backtest(args: argparse.Namespace) -> int:
    model = _merged(args, "model")
    if model not in MODEL_NAMES:
        raise SchemaError(f"--model must be one of {', '.join(MODEL_NAMES)}, got {model!r}")
    seed = int(_merged(args, "seed", 0))
    series, _ = _load_series(args)
    spec = _backtest_spec(args, series.granularity)

    factory = build_factory(model, series.granularity, seed, _model_params(args))
    report = rolling_backtest(factory, series, spec)

    out_dir = Path(_merged(args, "out"))
    header = "model,mae,rmse,smape,n_points,n_folds"
    _write(out_dir / f"backtest_{model}.csv", header + "\n" + _report_row(model, report) + "\n")
    _write(out_dir / f"backtest_{model}.json", json.dumps(_report_json(report), indent=2, sort_keys=True))
    if _merged(args, "svg"):
        fig = FigureSpec(kind="backtest_folds", title=f"{model} backtest folds (mae)")
        folds = [(f.origin, f.mae) for f in report.per_fold]
        _write(out_dir / f"backtest_{model}.svg", emit_svg(fig, {"metric": "mae", "folds": folds}))
    print(f"backtest {model}: {len(report.per_fold)} folds, "
          f"mae={report.mae:.4g} rmse={report.rmse:.4g} smape={report.smape:.4g}")
    return 0


def _comparison_csv(comparison: ModelComparison) -> str:
    lines = ["model,mae,rmse,smape,n_points,n_folds"]
    for name in sorted(comparison.reports):
        lines.append(_report_row(name, comparison.reports[name]))
    return "\n".join(lines) + "\n"


def cmd_compare(args: argparse.Namespace) -> int:
    models_value = _merged(args, "models", ",".join(MODEL_NAMES))
    names = [m.strip() for m in str(models_value).split(",") if m.strip()]
    for name in names:
        if name not in MODEL_NAMES:
            raise SchemaError(f"unknown model {name!r} in --models")
    seed = int(_merged(args, "seed", 0))
    series, _ = _load_series(args)
    spec = _backtest_spec(args, series.granularity)
    params = _model_params(args)

    factories = [build_factory(name, series.granularity, seed, params) for name in names]
    comparison = compare(factories, series, spec)

    out_dir = Path(_merged(args, "out"))
    _write(out_dir / "comparison.csv", _comparison_csv(comparison))
    _write(out_dir / "comparison.json", json.dumps({
        "fingerprint": comparison.fingerprint,
        "spec": {"initial_train": spec.initial_train, "step": spec.step,
                 "horizon": spec.horizon, "granularity": spec.granularity},
        "ranking": comparison.ranking,
        "models": {name: _report_json(r) for name, r in comparison.reports.items()},
    }, indent=2, sort_keys=True))
    if _merged(args, "svg"):
        for metric in ("mae", "rmse", "smape"):
            rows = [(name, getattr(comparison.reports[name], metric)) for name in sorted(comparison.reports)]
            fig = FigureSpec(kind="comparison_bars", title=f"model comparison ({metric})")
            _write(out_dir / f"comparison_{metric}.svg", emit_svg(fig, {"metric": metric, "rows": rows}))
    n_folds = len(next(iter(comparison.reports.values())).per_fold)
    print(f"compared {len(names)} models over {n_folds} folds; "
          f"ranking by rmse: {', '.join(comparison.ranking)}")
    return 0


# --------------------------------------------------------------------------
# Parser


def _add_common(parser: argparse.ArgumentParser, with_model_params: bool = True) -> None:
    parser.add_argument("--data", help="records CSV path")
    parser.add_argument("--out", help="output directory or file")
    parser.add_argument("--granularity", choices=(DAILY, MONTHLY))
    parser.add_argument("--category", help="comma-separated category filter")
    parser.add_argument("--range", help="START:END inclusive date range")
    parser.add_argument("--exclude", action="append", help="START:END exclusion window (repeatable)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--config", help="flat key=value config file; flags win")
    if with_model_params:
        parser.add_argument("--level", type=float, help="interval probability (default 0.95)")
        parser.add_argument("--svg", action="store_true", help="also emit SVG figures")
        parser.add_argument("--order", help="ARIMA p,d,q (default 1,1,1)")
        parser.add_argument("--no-log", dest="no_log", action="store_true")
        parser.add_argument("--no-intercept", dest="no_intercept", action="store_true")
        parser.add_argument("--changepoints", type=int)
        parser.add_argument("--changepoint-range", dest="changepoint_range", type=float)
        parser.add_argument("--weekly-order", dest="weekly_order", type=int)
        parser.add_argument("--yearly-order", dest="yearly_order", type=int)
        parser.add_argument("--trend-penalty", dest="trend_penalty", type=float)
        parser.add_argument("--lookback", type=int)
        parser.add_argument("--hidden", type=int)
        parser.add_argument("--epochs", type=int)
        parser.add_argument("--lr", type=float)
        parser.add_argument("--use-month", dest="use_month", action="store_true")
        parser.add_argument("--no-weekday", dest="no_weekday", action="store_true")
        parser.add_argument("--kernel", type=int)
        parser.add_argument("--dilations", help="comma list, e.g. 1,2,4,8")
        parser.add_argument("--channels", type=int)
        parser.add_argument("--n-trees", dest="n_trees", type=int)
        parser.add_argument("--max-depth", dest="max_depth", type=int)
        parser.add_argument("--min-leaf", dest="min_leaf", type=int)
        parser.add_argument("--lags", help="comma list or range, e.g. 1-14")
        parser.add_argument("--ma-windows", dest="ma_windows", help="comma list, e.g. 7,28")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrikit",
        description="Equipment-loss forecasting toolkit: ingest records, build masked "
                    "count series, fit five model families, backtest, and plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="parse, dedupe, and geo-normalize a records CSV")
    p_ingest.add_argument("--geo-index", dest="geo_index", help="location,raion/oblast CSV")
    p_ingest.add_argument("--geo-policy", dest="geo_policy", choices=("leave_blank", "error"))
    p_ingest.add_argument("--corrections", help="model_text,category CSV")
    p_ingest.add_argument("--schema", help="logical=column overrides, comma-separated")
    _add_common(p_ingest, with_model_params=False)
    p_ingest.set_defaults(func=cmd_ingest)

    p_synth = sub.add_parser("synth", help="write a deterministic synthetic records CSV")
    p_synth.add_argument("--profile", help="regime profile CSV (start,end,category,mean_per_day)")
    _add_common(p_synth, with_model_params=False)
    p_synth.set_defaults(func=cmd_synth)

    p_agg = sub.add_parser("aggregate", help="aggregate records into a masked count series CSV")
    _add_common(p_agg, with_model_params=False)
    p_agg.set_defaults(func=cmd_aggregate)

    p_fc = sub.add_parser("forecast", help="fit one model and write forecast CSV (+SVG)")
    p_fc.add_argument("--model", choices=MODEL_NAMES)
    p_fc.add_argument("--horizon", type=int)
    _add_common(p_fc)
    p_fc.set_defaults(func=cmd_forecast)

    p_bt = sub.add_parser("backtest", help="rolling-origin backtest for one model")
    p_bt.add_argument("--model", choices=MODEL_NAMES)
    p_bt.add_argument("--initial-train", dest="initial_train", type=int)
    p_bt.add_argument("--step", type=int)
    p_bt.add_argument("--horizon", type=int)
    _add_common(p_bt)
    p_bt.set_defaults(func=cmd_backtest)

    p_cmp = sub.add_parser("compare", help="backtest several models on identical folds")
    p_cmp.add_argument("--models", help="comma list (default: all five)")
    p_cmp.add_argument("--initial-train", dest="initial_train", type=int)
    p_cmp.add_argument("--step", type=int)
    p_cmp.add_argument("--horizon", type=int)
    _add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        args.config_values = load_config(args.config) if getattr(args, "config", None) else {}
        if args.command in ("ingest", "synth", "aggregate", "forecast", "backtest", "compare"):
            if _merged(args, "out") is None:
                raise SchemaError("--out is required")
            if args.command != "synth" and _merged(args, "data") is None:
                raise SchemaError("--data is required")
        return args.func(args)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ModelError, ConvergenceError) as err:
        print(f"model error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
