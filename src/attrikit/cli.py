"""Command-line front end: ingest, synth, aggregate, forecast, backtest, compare.

Exit codes are a stable scripting contract: 0 success, 1 I/O failure,
2 usage/config/schema problem, 3 model or evaluation failure. Every
command honors --seed and writes byte-reproducible outputs; input files
are never modified.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import sys
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .errors import ModelError, SchemaError
from .ingest import (
    Category,
    default_profile,
    generate_synthetic,
    load_corrections,
    load_geo_index,
    load_profile,
    normalize_geo,
    parse_category,
    parse_loss_date,
    parse_records,
    records_to_csv,
)

if TYPE_CHECKING:
    from .evaluate import BacktestSpec, MetricReport
    from .series import CountSeries, ExclusionWindow

# Each command loads only the modules it runs: ``ingest`` and ``synth`` load
# no series code, and a fit imports only the model families it fits. So the
# parser, which every command builds, holds copies of these three definitions;
# tests/test_cli.py pins each to series.DAILY/MONTHLY, factories.MODEL_NAMES
# and ArimaSpec's default order.
DAILY, MONTHLY = "daily", "monthly"
MODEL_NAMES = ("arima", "decomp", "lstm", "tcn", "gbt")
ARIMA_ORDER = (1, 1, 1)

# Names imported from their module on first use. Commands reach them as
# attributes of this module (``_cli.aggregate``): a bare name would not reach
# ``__getattr__``, and the attribute is whatever is bound here at call time, so
# a function replaced on this module (say, wrapped to time it) is the one that runs.
_LAZY = {
    "evaluate": ("BacktestSpec", "compare", "rolling_backtest"),
    "factories": ("build_factory", "forecast_model"),
    "series": ("ExclusionWindow", "aggregate", "apply_exclusions", "forecast_to_csv", "series_to_csv"),
    "svg": ("emit_svg",),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """PEP 562: import a lazy name's module and bind the name here. A value
    bound here already, such as a wrapper, is kept."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __package__), name)
    return globals().setdefault(name, value)


_cli = sys.modules[__name__]


def _read_text(path: str) -> str:
    """UTF-8 text, less a leading byte-order mark, with its line ends as written;
    undecodable bytes are bad input (exit 2), named by their offset in the file."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as err:  # err.start does not count the mark's 3 bytes
        offset = err.start + 3 * data.startswith(b"\xef\xbb\xbf")
        raise SchemaError(f"{path} is not UTF-8 text: {err.reason} at byte {offset}") from None


# --------------------------------------------------------------------------
# Options: one table declares every flag and config key. A flag value and a
# config value pass through the same converter, which raises ValueError on a
# bad value.


def _date_pair(text: str) -> tuple[date, date]:
    start_text, _, end_text = text.partition(":")
    try:
        return parse_loss_date(start_text), parse_loss_date(end_text)
    except ValueError:
        raise ValueError("expected START:END dates") from None


def _window(text: str) -> ExclusionWindow:
    return _cli.ExclusionWindow(*_date_pair(text))


def _date_range(text: str) -> tuple[date, date] | None:
    return _date_pair(text) if text else None


def _categories(text: str) -> set | None:
    """Known names and aliases only: parse_category turns any unknown label into OTHER."""
    if not text:
        return None
    names = [c.strip() for c in text.split(",") if c.strip()]
    for name in names:
        if parse_category(name) is Category.OTHER and name.casefold() != Category.OTHER.value:
            raise ValueError(f"unknown category {name!r}")
    if not names:
        raise ValueError("need at least one category")
    return {parse_category(name) for name in names}


def _schema(text: str) -> dict[str, str] | None:
    if not text:
        return None
    schema = {}
    for pair in text.split(","):
        logical, sep, column = pair.partition("=")
        if not sep:
            raise ValueError(f"entry {pair!r} is not logical=column")
        schema[logical.strip()] = column.strip()
    return schema


def _int_list(text: str) -> tuple[int, ...]:
    out: list[int] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "-" in chunk[1:]:
            lo, _, hi = chunk.partition("-")
            lo, hi = int(lo), int(hi)
            if lo > hi:
                raise ValueError(f"reversed range {chunk!r}")
            out.extend(range(lo, hi + 1))
        elif chunk:
            out.append(int(chunk))
    if not out:
        raise ValueError("empty integer list")
    return tuple(out)


def _order(text: str) -> tuple[int, ...]:
    order = tuple(int(x) for x in text.split(","))
    if len(order) != 3:
        raise ValueError("expected p,d,q")
    return order


def _at_least(lo: int) -> Callable[[str], int]:
    def convert(text: str) -> int:
        value = int(text)
        if value < lo:
            raise ValueError(f"must be >= {lo}")
        return value
    return convert


def _level(text: str) -> float:
    level = float(text)
    if not 0.0 < level < 1.0:
        raise ValueError("must lie in (0, 1)")
    return level


def _models(text: str) -> list[str]:
    names = [m.strip() for m in text.split(",") if m.strip()]
    for name in names:
        if name not in MODEL_NAMES:
            raise ValueError(f"unknown model {name!r}")
    if not names:
        raise ValueError("need at least one model")
    if len(set(names)) < len(names):
        raise ValueError("model names must be unique")
    return names


def _switch(text: str) -> bool | None:
    """An on/off flag: True when on, None (sets nothing) when off. In a
    config file, 1, true, yes and on turn it on and 0, false, no and off
    turn it off, in any case; any other value is rejected."""
    word = text.lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return None
    raise ValueError("expected 1/true/yes/on or 0/false/no/off")


def _negated_switch(text: str) -> bool | None:
    """A --no-X flag: False when on, so that it turns its spec field off."""
    return False if _switch(text) else None


class Option(NamedTuple):
    """A config key and the flag of the same name (``_`` becomes ``-``)."""

    convert: Callable[[str], Any]
    help: str | None = None
    field: str | tuple[str, ...] | None = None  # model spec field(s) the value sets
    metavar: str | None = None
    many: bool = False  # a repeatable flag; comma-separated in a config file


def _pick(*choices: str) -> Option:
    def convert(text: str) -> str:
        if text not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return text
    return Option(convert, metavar="{" + ",".join(choices) + "}")


OPTIONS = {
    "data": Option(str, "records CSV path"),
    "out": Option(Path, "output directory or file"),
    "granularity": _pick(DAILY, MONTHLY),
    "category": Option(_categories, "comma-separated category filter"),
    "range": Option(_date_range, "START:END inclusive date range"),
    "exclude": Option(_window, "START:END exclusion window (repeatable)", many=True),
    "seed": Option(_at_least(0)),
    "geo_index": Option(str, "location,raion/oblast CSV"),
    "geo_policy": _pick("leave_blank", "error"),
    "corrections": Option(str, "model_text,category CSV"),
    "schema": Option(_schema, "logical=column overrides, comma-separated"),
    "profile": Option(str, "regime profile CSV (start,end,category,mean_per_day)"),
    "model": _pick(*MODEL_NAMES),
    "models": Option(_models, "comma list (default: all five)"),
    "initial_train": Option(_at_least(1)),
    "step": Option(_at_least(1)),
    "horizon": Option(_at_least(1)),
    "level": Option(_level, "interval probability (default 0.95)"),
    "svg": Option(_switch, "also emit SVG figures"),
    # Model parameters: each value sets its field in every model spec that has it.
    "order": Option(_order, "ARIMA p,d,q (default {},{},{})".format(*ARIMA_ORDER),
                    field=("p", "d", "q")),
    "no_log": Option(_negated_switch, field="use_log"),
    "no_intercept": Option(_negated_switch, field="intercept"),
    "changepoints": Option(int, field="n_changepoints"),
    "changepoint_range": Option(float, field="changepoint_range"),
    "weekly_order": Option(int, field="weekly_order"),
    "yearly_order": Option(int, field="yearly_order"),
    "trend_penalty": Option(float, field="trend_penalty"),
    "lookback": Option(int, field="lookback"),
    "hidden": Option(int, field="hidden"),
    "epochs": Option(int, field="epochs"),
    "lr": Option(float, field="learning_rate"),
    "use_month": Option(_switch, field="use_month"),
    "no_weekday": Option(_negated_switch, field="use_weekday"),
    "kernel": Option(int, field="kernel"),
    "dilations": Option(_int_list, "comma list, e.g. 1,2,4,8", field="dilations"),
    "channels": Option(int, field="channels"),
    "n_trees": Option(int, field="n_trees"),
    "max_depth": Option(int, field="max_depth"),
    "min_leaf": Option(int, field="min_samples_leaf"),
    "lags": Option(_int_list, "comma list or range, e.g. 1-14", field="lags"),
    "ma_windows": Option(_int_list, "comma list, e.g. 7,28", field="ma_windows"),
}


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
        if key not in OPTIONS:
            raise SchemaError(f"config line {line_no}: unknown key {key!r}")
        config[key] = value.strip()
    return config


def _convert(key: str, text: str):
    try:
        return OPTIONS[key].convert(text)
    except ValueError as err:
        raise SchemaError(f"bad {key} {text!r}: {err}") from err


def _option(args: argparse.Namespace, key: str, default=None):
    """Flag value if given, else config value, else default; converted."""
    raw = getattr(args, key, None)
    if raw is None and key in args.config_values:
        raw = args.config_values[key]
        if OPTIONS[key].many:
            raw = [item for item in raw.split(",") if item.strip()]
    if raw is None:
        return default
    return [_convert(key, item) for item in raw] if OPTIONS[key].many else _convert(key, raw)


def _required(args: argparse.Namespace, key: str):
    value = _option(args, key)
    if value is None:
        raise SchemaError(f"--{key.replace('_', '-')} is required")
    return value


def _model_params(args: argparse.Namespace) -> dict:
    """Collect model-specific overrides from flags/config into one dict."""
    params: dict = {}
    for key, option in OPTIONS.items():
        value = _option(args, key) if option.field else None
        if value is None:
            continue
        if isinstance(option.field, tuple):
            params.update(zip(option.field, value))
        else:
            params[option.field] = value
    return params


def _load_series(args: argparse.Namespace) -> tuple[CountSeries, list[ExclusionWindow]]:
    granularity = _option(args, "granularity", DAILY)
    text = _read_text(_required(args, "data"))
    categories, date_range = _option(args, "category"), _option(args, "range")
    # Without --range a series runs from the first to the last date of all
    # valid records, of every category, not only of those selected.
    records, report = parse_records(text, categories=categories)
    windows = _option(args, "exclude", [])
    try:
        series = _cli.aggregate(records, granularity, categories, date_range or report.date_span)
    except ValueError as err:
        raise SchemaError(f"cannot build the series: {err}") from err
    return _cli.apply_exclusions(series, windows), windows


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


# --------------------------------------------------------------------------
# Commands


def cmd_ingest(args: argparse.Namespace) -> int:
    text = _read_text(_required(args, "data"))
    schema = _option(args, "schema")
    corrections = None
    corrections_path = _option(args, "corrections")
    if corrections_path:
        corrections = load_corrections(_read_text(corrections_path))

    records, report = parse_records(text, schema=schema, corrections=corrections)

    geo_path = _option(args, "geo_index")
    if geo_path:
        index = load_geo_index(_read_text(geo_path), _option(args, "geo_policy", "leave_blank"))
        records = normalize_geo(records, index)

    out_dir = _option(args, "out")
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
    profile_path = _option(args, "profile")
    profile = load_profile(_read_text(profile_path)) if profile_path else default_profile()
    records = generate_synthetic(_option(args, "seed", 0), profile)
    out = _option(args, "out")
    _write(out, records_to_csv(records))
    print(f"wrote {len(records)} synthetic records to {out}")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    series, _ = _load_series(args)
    out = _option(args, "out")
    _write(out, _cli.series_to_csv(series))
    print(f"wrote {len(series)} {series.granularity} periods to {out}")
    return 0


def cmd_forecast(args: argparse.Namespace) -> int:
    model = _required(args, "model")
    horizon = _option(args, "horizon", 12)
    level = _option(args, "level", 0.95)
    seed = _option(args, "seed", 0)

    series, windows = _load_series(args)
    fc = _cli.forecast_model(model, series, horizon, seed=seed, params=_model_params(args), level=level)

    out_dir = _option(args, "out")
    _write(out_dir / f"forecast_{model}.csv", _cli.forecast_to_csv(fc))
    if _option(args, "svg"):
        _write(out_dir / f"forecast_{model}.svg", _cli.emit_svg(
            "history_plus_forecast", f"{model} forecast, {series.granularity} horizon {horizon}",
            series=series, forecast=fc, exclusions=windows))
    print(f"forecast_{model}.csv: {len(fc)} periods from {fc.origin.isoformat()} "
          f"(interval: {fc.interval_method})")
    return 0


def _backtest_spec(args: argparse.Namespace, granularity: str) -> BacktestSpec:
    _option(args, "level")  # backtests score points only, but a bad --level is still a usage error
    return _cli.BacktestSpec(
        initial_train=_required(args, "initial_train"),
        step=_option(args, "step", 1),
        horizon=_option(args, "horizon", 1),
        granularity=granularity,
    )


def _reports_csv(reports: dict[str, MetricReport]) -> str:
    """The metrics CSV of ``backtest`` and ``compare``: one row per model, in name order."""
    rows = ["model,mae,rmse,smape,n_points,n_folds"]
    for name, r in sorted(reports.items()):
        rows.append(f"{name},{r.mae:.12g},{r.rmse:.12g},{r.smape:.12g},{r.n_points},{len(r.per_fold)}")
    return "\n".join(rows) + "\n"


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
    model = _required(args, "model")
    seed = _option(args, "seed", 0)
    series, _ = _load_series(args)
    spec = _backtest_spec(args, series.granularity)

    factory = _cli.build_factory(model, series.granularity, seed, _model_params(args))
    report = _cli.rolling_backtest(factory, series, spec)

    out_dir = _option(args, "out")
    _write(out_dir / f"backtest_{model}.csv", _reports_csv({model: report}))
    _write(out_dir / f"backtest_{model}.json", json.dumps(_report_json(report), indent=2, sort_keys=True))
    if _option(args, "svg"):
        folds = [(f.origin, f.mae) for f in report.per_fold]
        _write(out_dir / f"backtest_{model}.svg", _cli.emit_svg(
            "backtest_folds", f"{model} backtest folds (mae)", folds=folds, metric="mae"))
    print(f"backtest {model}: {len(report.per_fold)} folds, "
          f"mae={report.mae:.4g} rmse={report.rmse:.4g} smape={report.smape:.4g}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    names = _option(args, "models", list(MODEL_NAMES))
    seed = _option(args, "seed", 0)
    series, _ = _load_series(args)
    spec = _backtest_spec(args, series.granularity)
    params = _model_params(args)

    factories = [_cli.build_factory(name, series.granularity, seed, params) for name in names]
    comparison = _cli.compare(factories, series, spec)

    out_dir = _option(args, "out")
    _write(out_dir / "comparison.csv", _reports_csv(comparison.reports))
    _write(out_dir / "comparison.json", json.dumps({
        "fingerprint": comparison.fingerprint,
        "spec": {"initial_train": spec.initial_train, "step": spec.step,
                 "horizon": spec.horizon, "granularity": spec.granularity},
        "ranking": comparison.ranking,
        "models": {name: _report_json(r) for name, r in comparison.reports.items()},
    }, indent=2, sort_keys=True))
    if _option(args, "svg"):
        for metric in ("mae", "rmse", "smape"):
            rows = [(name, getattr(comparison.reports[name], metric)) for name in sorted(comparison.reports)]
            _write(out_dir / f"comparison_{metric}.svg", _cli.emit_svg(
                "comparison_bars", f"model comparison ({metric})", rows=rows, metric=metric))
    n_folds = len(next(iter(comparison.reports.values())).per_fold)
    print(f"compared {len(names)} models over {n_folds} folds; "
          f"ranking by rmse: {', '.join(comparison.ranking)}")
    return 0


# --------------------------------------------------------------------------
# Parser


# Every command takes _COMMON; the commands that build a series also take
# _SERIES, and ingest and synth, which build none, reject its flags.
_COMMON = ("out", "seed")
_SERIES = ("data", "granularity", "category", "range", "exclude")
_MODEL_PARAMS = ("level", "svg") + tuple(key for key, option in OPTIONS.items() if option.field)

# command -> (handler, help, its own options, whether it takes model parameters)
COMMANDS = {
    "ingest": (cmd_ingest, "parse, dedupe, and geo-normalize a records CSV",
               ("data", "geo_index", "geo_policy", "corrections", "schema"), False),
    "synth": (cmd_synth, "write a deterministic synthetic records CSV", ("profile",), False),
    "aggregate": (cmd_aggregate, "aggregate records into a masked count series CSV", _SERIES, False),
    "forecast": (cmd_forecast, "fit one model and write forecast CSV (+SVG)", ("model", "horizon") + _SERIES, True),
    "backtest": (cmd_backtest, "rolling-origin backtest for one model",
                 ("model", "initial_train", "step", "horizon") + _SERIES, True),
    "compare": (cmd_compare, "backtest several models on identical folds",
                ("models", "initial_train", "step", "horizon") + _SERIES, True),
}


def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    """Every value reaches the command as given, a string, for ``_option`` to convert."""
    for key in keys:
        option = OPTIONS[key]
        flag = "--" + key.replace("_", "-")
        if option.convert in (_switch, _negated_switch):
            parser.add_argument(flag, dest=key, action="store_const", const="true", help=option.help)
        else:
            parser.add_argument(flag, dest=key, action="append" if option.many else "store",
                                metavar=option.metavar, help=option.help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attrikit",
        description="Equipment-loss forecasting toolkit: ingest records, build masked "
                    "count series, fit five model families, backtest, and plot.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, own, with_model_params) in COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        _add_flags(command, own + _COMMON)
        command.add_argument("--config", help="flat key=value config file; flags win")
        if with_model_params:
            _add_flags(command, _MODEL_PARAMS)
        command.set_defaults(func=func)
    return parser


# OpenBLAS reads the first of these that is set, once, when each copy of the
# library loads (numpy's, and scipy's under decomp). Its default pool spins an
# idle worker thread for ~0.1 s after the load and after every threaded call,
# which costs CPU time and buys no command anything: neural fits train on one
# thread whatever the count (``neural._train``), and no other fit gets faster
# on a second.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def _blas_threads():
    """One BLAS thread, unless the user chose a count. Works only while
    numpy is not yet loaded, which holds for a command run in its own
    process; os.environ is restored either way."""
    if any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        yield
        return
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        yield
    finally:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        args.config_values = load_config(args.config) if args.config else {}
        _required(args, "out")
        with _blas_threads():
            return args.func(args)
    except SchemaError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ModelError, MemoryError) as err:
        print(f"model error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
