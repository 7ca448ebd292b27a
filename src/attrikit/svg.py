"""Deterministic SVG figures: history+forecast, components, bars, folds.

Output is a standalone SVG 1.1 document with no timestamps, random ids,
or environment-dependent content, so identical inputs yield identical
bytes. History is a solid line (one polyline per observed run), forecasts
are dashed with a shaded interval band, and exclusion windows render as
one shaded rect each.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .series import CountSeries, ExclusionWindow, Forecast

KINDS = ("history_plus_forecast", "components", "comparison_bars", "backtest_folds")

WIDTH, HEIGHT = 900, 480
MARGIN_LEFT, MARGIN_RIGHT, MARGIN_TOP, MARGIN_BOTTOM = 62.0, 18.0, 44.0, 52.0

HISTORY_COLOR = "#1f5fa8"
FORECAST_COLOR = "#e36209"
BAND_COLOR = "#f5c9a4"
EXCLUSION_COLOR = "#c8c8c8"
COMPONENT_COLORS = {"trend": "#1f5fa8", "weekly": "#2a8f4d", "yearly": "#a04bb8"}


@dataclass(frozen=True)
class FigureSpec:
    kind: str
    title: str

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown figure kind {self.kind!r}")


def _fmt(v: float) -> str:
    return format(float(v), ".2f")


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_step(raw: float) -> float:
    if raw <= 0:
        return 1.0
    power = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * power:
            return mult * power
    return 10.0 * power


def _value_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = _nice_step((hi - lo) / n)
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9:
        ticks.append(float(v))
        v += step
    return ticks


def _date_ticks(first: date, last: date) -> list[date]:
    span = (last - first).days
    ticks = []
    if span > 1000:
        year = first.year if first == date(first.year, 1, 1) else first.year + 1
        while date(year, 1, 1) <= last:
            ticks.append(date(year, 1, 1))
            year += 1
    elif span > 180:
        stride = 3 if span > 540 else 1
        cursor = date(first.year, first.month, 1)
        if cursor < first:
            cursor = (cursor + timedelta(days=32)).replace(day=1)
        while cursor <= last:
            if (cursor.month - 1) % stride == 0:
                ticks.append(cursor)
            cursor = (cursor + timedelta(days=32)).replace(day=1)
    else:
        stride = max(span // 6, 1)
        cursor = first
        while cursor <= last:
            ticks.append(cursor)
            cursor += timedelta(days=stride)
    return ticks or [first]


class _Canvas:
    def __init__(self, spec: FigureSpec):
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<text x="{_fmt(WIDTH / 2)}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="16">{_esc(spec.title)}</text>',
        ]
        self.x0, self.x1 = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
        self.y0, self.y1 = HEIGHT - MARGIN_BOTTOM, MARGIN_TOP  # y grows downward

    def finish(self) -> str:
        self.parts.append("</svg>")
        return "\n".join(self.parts) + "\n"


class _TimeAxes(_Canvas):
    def __init__(self, spec: FigureSpec, first: date, last: date, vlo: float, vhi: float):
        super().__init__(spec)
        self.first, self.last = first, last
        pad = 0.06 * (vhi - vlo if vhi > vlo else max(abs(vhi), 1.0))
        self.vlo = min(vlo, 0.0) if vlo >= 0 else vlo - pad
        self.vhi = vhi + pad
        self.day_span = max((last - first).days, 1)

    def x(self, day: date) -> float:
        frac = (day - self.first).days / self.day_span
        return self.x0 + frac * (self.x1 - self.x0)

    def y(self, value: float) -> float:
        frac = (value - self.vlo) / (self.vhi - self.vlo)
        return self.y0 - frac * (self.y0 - self.y1)

    def draw_axes(self) -> None:
        p = self.parts
        p.append(f'<line x1="{_fmt(self.x0)}" y1="{_fmt(self.y0)}" x2="{_fmt(self.x1)}" '
                 f'y2="{_fmt(self.y0)}" stroke="#333333" stroke-width="1"/>')
        p.append(f'<line x1="{_fmt(self.x0)}" y1="{_fmt(self.y0)}" x2="{_fmt(self.x0)}" '
                 f'y2="{_fmt(self.y1)}" stroke="#333333" stroke-width="1"/>')
        for tick in _date_ticks(self.first, self.last):
            tx = self.x(tick)
            p.append(f'<line x1="{_fmt(tx)}" y1="{_fmt(self.y0)}" x2="{_fmt(tx)}" '
                     f'y2="{_fmt(self.y0 + 4)}" stroke="#333333" stroke-width="1"/>')
            p.append(f'<text x="{_fmt(tx)}" y="{_fmt(self.y0 + 18)}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{tick.isoformat()}</text>')
        for tick in _value_ticks(self.vlo, self.vhi):
            ty = self.y(tick)
            p.append(f'<line x1="{_fmt(self.x0 - 4)}" y1="{_fmt(ty)}" x2="{_fmt(self.x0)}" '
                     f'y2="{_fmt(ty)}" stroke="#333333" stroke-width="1"/>')
            p.append(f'<text x="{_fmt(self.x0 - 8)}" y="{_fmt(ty + 3)}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{format(tick, "g")}</text>')

    def polyline(self, days: list[date], values, color: str, dashed: bool = False,
                 css_class: str | None = None) -> None:
        if len(days) == 0:
            return
        pts = " ".join(f"{_fmt(self.x(d))},{_fmt(self.y(v))}" for d, v in zip(days, values))
        dash = ' stroke-dasharray="6,4"' if dashed else ""
        cls = f' class="{css_class}"' if css_class else ""
        if len(days) == 1:
            self.parts.append(f'<circle cx="{_fmt(self.x(days[0]))}" cy="{_fmt(self.y(values[0]))}" '
                              f'r="2.5" fill="{color}"{cls}/>')
        else:
            self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                              f'stroke-width="1.6"{dash}{cls}/>')

    def band(self, days: list[date], lower, upper, color: str) -> None:
        fwd = [f"{_fmt(self.x(d))},{_fmt(self.y(u))}" for d, u in zip(days, upper)]
        back = [f"{_fmt(self.x(d))},{_fmt(self.y(l))}" for d, l in zip(reversed(days), list(reversed(list(lower))))]
        self.parts.append(f'<polygon points="{" ".join(fwd + back)}" fill="{color}" '
                          f'fill-opacity="0.55" stroke="none" class="interval-band"/>')

    def exclusion_rect(self, window: ExclusionWindow) -> None:
        lo = max(window.start, self.first)
        hi = min(window.end, self.last)
        if lo > hi:
            return
        x_left, x_right = self.x(lo), self.x(hi)
        self.parts.append(f'<rect x="{_fmt(x_left)}" y="{_fmt(self.y1)}" '
                          f'width="{_fmt(max(x_right - x_left, 1.0))}" '
                          f'height="{_fmt(self.y0 - self.y1)}" fill="{EXCLUSION_COLOR}" '
                          f'fill-opacity="0.45" stroke="none" class="exclusion"/>')


def _observed_runs(series: CountSeries) -> list[tuple[list[date], np.ndarray]]:
    runs = []
    starts = series.period_starts()
    idx = np.flatnonzero(series.mask)
    if idx.size == 0:
        return runs
    cut = np.flatnonzero(np.diff(idx) > 1) + 1
    for chunk in np.split(idx, cut):
        runs.append(([starts[i] for i in chunk], series.values[chunk]))
    return runs


def _history_plus_forecast(spec: FigureSpec, data: dict) -> str:
    series: CountSeries = data["series"]
    forecast: Forecast | None = data.get("forecast")
    exclusions: list[ExclusionWindow] = list(data.get("exclusions", ()))
    if len(series) == 0:
        raise ValueError("empty series")

    days = series.period_starts()
    first, last = days[0], days[-1]
    values = [series.values.max(), series.values.min()]
    if forecast is not None and len(forecast):
        f_days = forecast.period_starts()
        first, last = min(first, f_days[0]), max(last, f_days[-1])
        values += [float(np.max(forecast.upper)), float(np.min(forecast.lower))]

    axes = _TimeAxes(spec, first, last, float(min(values)), float(max(values)))
    for window in exclusions:
        axes.exclusion_rect(window)
    if forecast is not None and len(forecast):
        f_days = forecast.period_starts()
        axes.band(f_days, forecast.lower, forecast.upper, BAND_COLOR)
    for run_days, run_values in _observed_runs(series):
        axes.polyline(run_days, run_values, HISTORY_COLOR, css_class="history")
    if forecast is not None and len(forecast):
        axes.polyline(f_days, forecast.point, FORECAST_COLOR, dashed=True, css_class="forecast")
    axes.draw_axes()
    return axes.finish()


def _components(spec: FigureSpec, data: dict) -> str:
    days: list[date] = list(data["dates"])
    if not days:
        raise ValueError("empty component table")
    parts = {k: np.asarray(data[k], dtype=float) for k in ("trend", "weekly", "yearly")}
    lo = min(float(v.min()) for v in parts.values())
    hi = max(float(v.max()) for v in parts.values())
    axes = _TimeAxes(spec, days[0], days[-1], lo, hi)
    for name, values in parts.items():
        axes.polyline(days, values, COMPONENT_COLORS[name], css_class=f"component-{name}")
    axes.draw_axes()
    y_legend = MARGIN_TOP - 8
    x_legend = MARGIN_LEFT
    for name in ("trend", "weekly", "yearly"):
        axes.parts.append(f'<rect x="{_fmt(x_legend)}" y="{_fmt(y_legend - 8)}" width="10" height="10" '
                          f'fill="{COMPONENT_COLORS[name]}" class="legend-swatch"/>')
        axes.parts.append(f'<text x="{_fmt(x_legend + 14)}" y="{_fmt(y_legend + 1)}" '
                          f'font-family="sans-serif" font-size="11">{name}</text>')
        x_legend += 90
    return axes.finish()


def _bars(spec: FigureSpec, rows: list[tuple[str, float]], unit: str) -> str:
    if not rows:
        raise ValueError("no bars to draw")
    canvas = _Canvas(spec)
    x0, x1, y0, y1 = canvas.x0, canvas.x1, canvas.y0, canvas.y1
    vhi = max(v for _, v in rows)
    vhi = vhi if vhi > 0 else 1.0
    slot = (x1 - x0) / len(rows)
    bar_w = slot * 0.6
    for i, (name, value) in enumerate(rows):
        left = x0 + i * slot + (slot - bar_w) / 2.0
        height = (value / (vhi * 1.08)) * (y0 - y1)
        canvas.parts.append(f'<rect x="{_fmt(left)}" y="{_fmt(y0 - height)}" width="{_fmt(bar_w)}" '
                            f'height="{_fmt(height)}" fill="{HISTORY_COLOR}" class="bar"/>')
        canvas.parts.append(f'<text x="{_fmt(left + bar_w / 2)}" y="{_fmt(y0 + 16)}" text-anchor="middle" '
                            f'font-family="sans-serif" font-size="11">{_esc(name)}</text>')
        canvas.parts.append(f'<text x="{_fmt(left + bar_w / 2)}" y="{_fmt(y0 - height - 4)}" '
                            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                            f'{format(value, ".4g")}</text>')
    canvas.parts.append(f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" '
                        f'stroke="#333333" stroke-width="1"/>')
    canvas.parts.append(f'<text x="{_fmt(x0)}" y="{_fmt(y1 - 6)}" font-family="sans-serif" '
                        f'font-size="11">{_esc(unit)}</text>')
    return canvas.finish()


def _backtest_folds(spec: FigureSpec, data: dict) -> str:
    folds: list[tuple[date, float]] = list(data["folds"])
    if not folds:
        raise ValueError("no folds to draw")
    metric = data.get("metric", "mae")
    days = [d for d, _ in folds]
    values = np.array([v for _, v in folds], dtype=float)
    axes = _TimeAxes(spec, days[0], days[-1] if days[-1] > days[0] else days[0] + timedelta(days=1),
                     float(values.min()), float(values.max()))
    axes.polyline(days, values, FORECAST_COLOR, css_class="fold-metric")
    for d, v in folds:
        axes.parts.append(f'<circle cx="{_fmt(axes.x(d))}" cy="{_fmt(axes.y(v))}" r="3" '
                          f'fill="{FORECAST_COLOR}" class="fold-point"/>')
    axes.draw_axes()
    axes.parts.append(f'<text x="{_fmt(axes.x0)}" y="{_fmt(axes.y1 - 6)}" font-family="sans-serif" '
                      f'font-size="11">{_esc(metric)} per fold origin</text>')
    return axes.finish()


def emit_svg(spec: FigureSpec, data: dict) -> str:
    """Render one figure; output bytes depend only on (spec, data)."""
    if spec.kind == "history_plus_forecast":
        return _history_plus_forecast(spec, data)
    if spec.kind == "components":
        return _components(spec, data)
    if spec.kind == "comparison_bars":
        return _bars(spec, list(data["rows"]), data.get("metric", ""))
    return _backtest_folds(spec, data)
