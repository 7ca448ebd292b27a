"""Output checks behind ``failed`` / ``attempted`` and ``ops_failed_frac``.

Every operation (one CLI command, one ``forecast_model`` call or one
backtest fold) is checked for the invariants the package promises, and at
the reference seed its output is compared with ``reference.json``:
exactly for ingest, arima, decomp and gbt, whose outputs are promised
byte-identical, and within ``NEURAL_RTOL`` for lstm and tcn, where float
reassociation is allowed. Each check returns a list of problems; an empty
list means the operation passed.

This module imports no attrikit code, so the harness can use it too.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
# |got - want| <= NEURAL_RTOL * max(1, |want|) for lstm and tcn outputs.
NEURAL_RTOL = 1e-6
NEURAL_MODELS = ("lstm", "tcn")


def values_problems(label: str, values, nonnegative: bool = True) -> list[str]:
    problems = []
    for i, v in enumerate(values):
        if not math.isfinite(v):
            problems.append(f"{label}[{i}] = {v} is not finite")
        elif nonnegative and v < 0:
            problems.append(f"{label}[{i}] = {v} is negative")
    return problems


def forecast_problems(point, lower, upper, horizon: int) -> list[str]:
    """Length = horizon, finite, non-negative, lower <= point <= upper."""
    point, lower, upper = list(point), list(lower), list(upper)
    if not len(point) == len(lower) == len(upper) == horizon:
        return [f"forecast lengths {len(point)}/{len(lower)}/{len(upper)}, expected {horizon}"]
    problems = (values_problems("point", point) + values_problems("lower", lower)
                + values_problems("upper", upper))
    for i, (lo, p, hi) in enumerate(zip(lower, point, upper)):
        if not lo <= p <= hi:
            problems.append(f"step {i}: interval not ordered ({lo} <= {p} <= {hi} fails)")
    return problems


def fold_problems(predictions, horizon: int) -> list[str]:
    """A fold returns ``horizon`` finite point predictions."""
    predictions = list(predictions)
    if len(predictions) != horizon:
        return [f"fold returned {len(predictions)} predictions, expected {horizon}"]
    return values_problems("prediction", predictions, nonnegative=False)


def report_problems(per_fold_points: list[int], expected_points: list[int], errors) -> list[str]:
    """Scored folds and points match the mask; fold metrics are finite."""
    problems = []
    if per_fold_points != expected_points:
        problems.append(f"scored points per fold {per_fold_points}, expected {expected_points}")
    problems += values_problems("fold metric", errors)
    return problems


def expected_scored_points(mask, initial: int, step: int, horizon: int) -> tuple[int, list[int]]:
    """(folds run, observed points per scored fold) for an expanding-window backtest.

    Worked out from the mask alone: origins initial, initial+step, ... while
    a whole horizon fits; folds whose horizon is fully masked are not scored.
    """
    origins = range(initial, len(mask) - horizon + 1, step)
    points = [int(sum(bool(m) for m in mask[o:o + horizon])) for o in origins]
    return len(origins), [p for p in points if p]


def ingest_problems(report: dict, expected: dict) -> list[str]:
    """The ingest report counts equal the counts injected into the input."""
    problems = []
    for key in ("rows_read", "rows_parsed", "duplicates_removed", "category_corrections"):
        if report.get(key) != expected[key]:
            problems.append(f"ingest {key} = {report.get(key)}, injected {expected[key]}")
    lines = [line for line, _ in report.get("unparsable_rows", [])]
    if lines != expected["unparsable_lines"]:
        problems.append(f"ingest rejected {len(lines)} rows, injected {len(expected['unparsable_lines'])}")
    return problems


def read_forecast_csv(path: Path) -> tuple[list[float], list[float], list[float]]:
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    return ([float(r["point"]) for r in rows], [float(r["lower"]) for r in rows],
            [float(r["upper"]) for r in rows])


def files_digest(paths: list[Path]) -> str:
    digest = hashlib.sha256()
    for path in sorted(paths):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def model_of(op: str) -> str:
    """Operation names are ``kind:model[:detail]``."""
    parts = op.split(":")
    return parts[1] if len(parts) > 1 else ""


def reference_problems(op: str, got, want) -> list[str]:
    """Compare one operation's output fingerprint with its reference value."""
    if want is None:
        return [f"no reference value for {op}"]
    if model_of(op) not in NEURAL_MODELS:
        return [] if got == want else [f"{op} output differs from the reference"]
    if not isinstance(got, list) or len(got) != len(want):
        return [f"{op} output shape differs from the reference"]
    worst = max((abs(g - w) / max(1.0, abs(w)) for g, w in zip(got, want)), default=0.0)
    if not worst <= NEURAL_RTOL:
        return [f"{op} differs from the reference by {worst:.3g} (tolerance {NEURAL_RTOL:g})"]
    return []


def load_reference(workload: str, seed: int) -> dict | None:
    """Reference fingerprints for (workload, seed), or None if none are committed."""
    if not REFERENCE_PATH.exists():
        return None
    ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
    if ref.get("seed") != seed:
        return None
    return ref["workloads"].get(workload, {})


def save_reference(workload: str, seed: int, fingerprints: dict) -> None:
    ref = {"seed": seed, "workloads": {}}
    if REFERENCE_PATH.exists():
        ref = json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))
        if ref.get("seed") != seed:
            raise ValueError(f"reference.json holds seed {ref.get('seed')}, not {seed}")
    ref["workloads"][workload] = fingerprints
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"output checker self-check failed: {message}")


def self_check() -> None:
    """The checks must reject deliberately corrupted outputs.

    Raises RuntimeError if a corrupted output would be counted as passed.
    """
    good = ([3.0, 4.0], [1.0, 2.0], [5.0, 6.0])
    _expect(not forecast_problems(*good, horizon=2), "a valid forecast was rejected")
    corrupted = {
        "non-finite point": ([3.0, float("nan")], [1.0, 2.0], [5.0, 6.0]),
        "negative values": ([3.0, -1.0], [1.0, -2.0], [5.0, 6.0]),
        "point above upper": ([3.0, 7.0], [1.0, 2.0], [5.0, 6.0]),
        "short forecast": ([3.0], [1.0], [5.0]),
    }
    for what, (point, lower, upper) in corrupted.items():
        _expect(bool(forecast_problems(point, lower, upper, horizon=2)), f"forecast with {what} passed")
    _expect(bool(fold_problems([1.0, float("inf")], 2)), "non-finite fold passed")
    _expect(bool(fold_problems([1.0], 2)), "short fold passed")
    _expect(bool(report_problems([2, 1], [2, 2], [0.5])), "wrong scored points passed")
    _expect(bool(reference_problems("forecast:gbt", [1.0, 2.0], [1.0, 2.0 + 1e-15])), "inexact gbt passed")
    _expect(bool(reference_problems("forecast:lstm", [1.0, 2.0], [1.0, 2.1])), "far-off lstm passed")
    _expect(not reference_problems("forecast:lstm", [1.0, 2.0], [1.0, 2.0 + 1e-12]), "close lstm rejected")
    expected = {"rows_read": 3, "rows_parsed": 2, "duplicates_removed": 1,
                "category_corrections": 0, "unparsable_lines": []}
    _expect(bool(ingest_problems({**expected, "rows_parsed": 1, "unparsable_rows": []}, expected)),
            "corrupted ingest report passed")
