"""Span recorder for the traced run, and the per-layer metrics built from it.

The benchmark wraps attrikit's public functions from outside, at the name
each caller looks up: ``cli`` imports ``parse_records`` and friends by name,
so those are wrapped on ``attrikit.cli``; ``factories`` and ``neural`` call
model and autodiff functions through their modules, so those are wrapped on
the modules. Each wrapper records a span (name, start, end, parent span,
operation id, phase) and the counts seen at that boundary. Spans stay in
memory until the run ends.

Autodiff ops run millions of times, so they are only counted, not spanned;
each neural fit or forecast span records how many ops ran inside it.

This module imports attrikit only inside ``install``.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

AUTODIFF_OPS = ("add", "sub", "mul", "matmul", "tanh", "sigmoid", "relu", "narrow",
                "pad_left", "mean", "mse")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"), ("cli.commands", "count"),
    ("ingest.parse_s", "s"), ("ingest.rows_per_s", "1/s"), ("ingest.parsed_ratio", "ratio"),
    ("ingest.geo_s", "s"),
    ("series.aggregate_s", "s"), ("series.supervised_s", "s"), ("series.supervised_rows", "count"),
    ("svg.emit_s", "s"), ("svg.bytes", "bytes"),
    ("arima.fit_s", "s"), ("arima.forecast_s", "s"), ("decomp.fit_s", "s"), ("decomp.forecast_s", "s"),
    ("neural.lstm_fit_s", "s"), ("neural.tcn_fit_s", "s"),
    ("neural.lstm_forecast_s", "s"), ("neural.tcn_forecast_s", "s"),
    ("neural.epochs", "count"), ("neural.lstm_epoch_ms", "ms"), ("neural.tcn_epoch_ms", "ms"),
    ("autodiff.fit_ops", "count"), ("autodiff.forecast_ops", "count"),
    ("autodiff.backward_s", "s"), ("autodiff.adam_s", "s"),
    ("gbtrees.fit_s", "s"), ("gbtrees.forecast_s", "s"), ("gbtrees.fits", "count"),
    ("gbtrees.nodes", "count"),
    ("evaluate.fold_s_median", "s"), ("evaluate.fold_s_max", "s"), ("evaluate.folds", "count"),
    ("evaluate.scored_points", "count"),
    ("trace.spans", "count"), ("trace.overhead_s", "s"),
)
# Counts that must repeat exactly between traced runs at one seed.
EXACT_COUNTS = ("autodiff.fit_ops", "autodiff.forecast_ops", "gbtrees.nodes", "neural.epochs",
                "evaluate.folds", "ingest.parsed_ratio", "series.supervised_rows")


class Tracer:
    """Collects spans in memory; ``op`` and ``phase`` tag every span recorded."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op: str | None = None
        self.phase = "setup"
        self.autodiff_ops = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None, count_ops: bool = False):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "parent": parent, "op": self.op, "phase": self.phase}
        self.spans.append(record)  # reserve the id so children get later ones
        self._stack.append(span_id)
        ops_before = self.autodiff_ops
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        extra = attrs(result) if attrs else {}
        if count_ops:
            extra["ops"] = self.autodiff_ops - ops_before
        if extra:
            record["attrs"] = extra
        return result

    def wrap(self, name: str, fn, attrs=None, count_ops: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs, count_ops)
        return wrapper

    def counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.autodiff_ops += 1
            return fn(*args, **kwargs)
        return wrapper


def _count_nodes(node) -> int:
    if node.is_leaf():
        return 1
    return 1 + _count_nodes(node.left) + _count_nodes(node.right)


def parse_attrs(result):
    _, report = result
    return {"rows_read": report.rows_read, "rows_parsed": report.rows_parsed}


def _backtest_attrs(report):
    return {"scored_points": report.n_points}


def install(tracer: Tracer) -> None:
    """Wrap attrikit's layer boundaries in place (for the rest of the process)."""
    from attrikit import arima, autodiff, cli, decomp, evaluate, factories, gbtrees, neural

    for name in AUTODIFF_OPS:
        setattr(autodiff, name, tracer.counted(getattr(autodiff, name)))
    autodiff.Tensor.backward = tracer.wrap("autodiff.backward", autodiff.Tensor.backward)
    autodiff.Adam.step = tracer.wrap("autodiff.adam", autodiff.Adam.step)
    for name in ("lstm_fit", "tcn_fit", "lstm_forecast", "tcn_forecast"):
        setattr(neural, name, tracer.wrap(f"neural.{name}", getattr(neural, name), count_ops=True))
    for module in (arima, decomp):
        short = module.__name__.rsplit(".", 1)[-1]
        module.fit = tracer.wrap(f"{short}.fit", module.fit)
        module.forecast = tracer.wrap(f"{short}.forecast", module.forecast)
    gbtrees.fit_series = tracer.wrap("gbtrees.fit_series", gbtrees.fit_series,
                                     attrs=lambda m: {"nodes": sum(_count_nodes(t) for t in m.trees)})
    gbtrees.forecast_recursive = tracer.wrap("gbtrees.forecast_recursive", gbtrees.forecast_recursive)
    gbtrees.make_supervised = tracer.wrap("series.make_supervised", gbtrees.make_supervised,
                                          attrs=lambda m: {"rows": int(m.x.shape[0])})
    evaluate.rolling_backtest = tracer.wrap("evaluate.rolling_backtest", evaluate.rolling_backtest,
                                            attrs=_backtest_attrs)
    evaluate.compare = tracer.wrap("evaluate.compare", evaluate.compare)
    factories.forecast_model = tracer.wrap("factories.forecast_model", factories.forecast_model)

    # The CLI imported these by name, so its own references are the ones to wrap.
    cli.parse_records = tracer.wrap("ingest.parse_records", cli.parse_records, attrs=parse_attrs)
    cli.normalize_geo = tracer.wrap("ingest.normalize_geo", cli.normalize_geo)
    cli.aggregate = tracer.wrap("series.aggregate", cli.aggregate)
    cli.apply_exclusions = tracer.wrap("series.apply_exclusions", cli.apply_exclusions)
    cli.emit_svg = tracer.wrap("svg.emit_svg", cli.emit_svg, attrs=lambda text: {"bytes": len(text)})
    cli.forecast_model = tracer.wrap("factories.forecast_model", cli.forecast_model)
    cli.rolling_backtest = tracer.wrap("evaluate.rolling_backtest", cli.rolling_backtest,
                                       attrs=_backtest_attrs)
    cli.compare = tracer.wrap("evaluate.compare", cli.compare)
    build_factory = cli.build_factory

    def traced_build_factory(*args, **kwargs):
        return traced_factory(tracer, build_factory(*args, **kwargs))

    cli.build_factory = traced_build_factory


def traced_factory(tracer: Tracer, factory):
    """The same factory, with each backtest fold recorded as an ``evaluate.fold`` span."""
    from attrikit import ForecastFactory

    return ForecastFactory(factory.name, tracer.wrap("evaluate.fold", factory.fit_forecast))


# --------------------------------------------------------------------------
# Per-layer metrics


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children.

    Children of one span run one after another on one thread, so the time
    they cover is the sum of their durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - child_time[s["id"]] for s in spans}


def _phase_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one phase (set-up or one pass); absent layers are left out."""
    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_id = {s["id"]: s for s in spans}

    def total(name):
        return sum(s["end"] - s["start"] for s in by_name[name])

    def attr_sum(name, key):
        return sum(s.get("attrs", {}).get(key, 0) for s in by_name[name])

    out: dict[str, float] = {}
    if by_name["cli.main"]:
        selfs = self_times(spans)
        out["cli.import_s"] = total("cli.import") / len(by_name["cli.import"])
        out["cli.self_s"] = sum(selfs[s["id"]] for s in by_name["cli.main"])
        out["cli.commands"] = len(by_name["cli.main"])
    if by_name["ingest.parse_records"]:
        parse_s = total("ingest.parse_records")
        rows_read = attr_sum("ingest.parse_records", "rows_read")
        out["ingest.parse_s"] = parse_s
        out["ingest.rows_per_s"] = rows_read / parse_s
        out["ingest.parsed_ratio"] = attr_sum("ingest.parse_records", "rows_parsed") / rows_read
    if by_name["ingest.normalize_geo"]:
        out["ingest.geo_s"] = total("ingest.normalize_geo")
    if by_name["series.aggregate"]:
        out["series.aggregate_s"] = total("series.aggregate") + total("series.apply_exclusions")
    if by_name["series.make_supervised"]:
        out["series.supervised_s"] = total("series.make_supervised")
        out["series.supervised_rows"] = attr_sum("series.make_supervised", "rows")
    if by_name["svg.emit_svg"]:
        out["svg.emit_s"] = total("svg.emit_svg")
        out["svg.bytes"] = attr_sum("svg.emit_svg", "bytes")
    for model in ("arima", "decomp"):
        if by_name[f"{model}.fit"]:
            out[f"{model}.fit_s"] = total(f"{model}.fit")
            out[f"{model}.forecast_s"] = total(f"{model}.forecast")
    fit_names = [n for n in ("neural.lstm_fit", "neural.tcn_fit") if by_name[n]]
    if fit_names:
        epochs = defaultdict(int)
        for s in by_name["autodiff.adam"]:
            parent = by_id.get(s["parent"])
            if parent is not None:
                epochs[parent["name"]] += 1
        out["neural.epochs"] = sum(epochs.values())
        for model in ("lstm", "tcn"):
            if by_name[f"neural.{model}_fit"]:
                fit_s = total(f"neural.{model}_fit")
                out[f"neural.{model}_fit_s"] = fit_s
                out[f"neural.{model}_forecast_s"] = total(f"neural.{model}_forecast")
                out[f"neural.{model}_epoch_ms"] = 1000.0 * fit_s / epochs[f"neural.{model}_fit"]
        out["autodiff.fit_ops"] = sum(attr_sum(n, "ops") for n in fit_names)
        out["autodiff.forecast_ops"] = (attr_sum("neural.lstm_forecast", "ops")
                                        + attr_sum("neural.tcn_forecast", "ops"))
        out["autodiff.backward_s"] = total("autodiff.backward")
        out["autodiff.adam_s"] = total("autodiff.adam")
    if by_name["gbtrees.fit_series"]:
        out["gbtrees.fit_s"] = total("gbtrees.fit_series")
        out["gbtrees.forecast_s"] = total("gbtrees.forecast_recursive")
        out["gbtrees.fits"] = len(by_name["gbtrees.fit_series"])
        out["gbtrees.nodes"] = attr_sum("gbtrees.fit_series", "nodes")
    if by_name["evaluate.fold"]:
        folds = [s["end"] - s["start"] for s in by_name["evaluate.fold"]]
        out["evaluate.fold_s_median"] = statistics.median(folds)
        out["evaluate.fold_s_max"] = max(folds)
        out["evaluate.folds"] = len(folds)
        out["evaluate.scored_points"] = attr_sum("evaluate.rolling_backtest", "scored_points")
    out["trace.spans"] = len(spans)
    return out


def _per_phase(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Metric name -> {phase: value}, for the phases in which the layer ran."""
    phases: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        phases[s["phase"]].append(s)
    values: dict[str, dict[str, float]] = defaultdict(dict)
    for phase, phase_spans in phases.items():
        for name, value in _phase_metrics(phase_spans).items():
            if not (name == "trace.spans" and phase == "setup"):
                values[name][phase] = value
    return values


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Median over phases of each layer metric, taken where the layer ran.

    A phase is the set-up or one pass. Layers that do not run in the
    workload are absent from the result.
    """
    return {name: statistics.median(v.values()) for name, v in _per_phase(spans).items()}


def varying_counts(spans: list[dict]) -> list[str]:
    """Exact counts that differ between the traced passes of one run."""
    per_phase = _per_phase(spans)
    return [name for name in EXACT_COUNTS
            if len({v for phase, v in per_phase.get(name, {}).items() if phase != "setup"}) > 1]
