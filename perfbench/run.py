"""attrikit benchmark: one command for every workload, metric and check.

    python3 perfbench/run.py --workload NAME|all [--seed 42] [--seconds 20] [--trace 0|1]

Run from the root of a checkout. The harness drives attrikit only from
outside: fresh ``python -m attrikit.cli`` processes for ``cli_statistical``,
and for the library workloads a fresh worker process (``worker.py``) that
calls the public library functions. Every input is generated from
``--seed``; at most one child process runs at a time.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
Their times are rescaled for the host's speed by the calibration units of
``calibrate.py``; the times as measured are printed beside them.
With ``--trace 1`` the run first makes untraced passes for half the time,
then traced ones, and reports the per-layer metrics and the tracing
overhead (traced minus untraced median pass time).

The human-readable report comes first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Full results and, when traced, the spans as JSON lines are
written under ``.bench_work/results/``. The exit code is non-zero, with no
JSON line, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from datetime import date, timedelta
from pathlib import Path

import calibrate
import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("cli_statistical", "monthly_compare", "daily_trees", "daily_neural")
DEFAULT_SEED = 42
DEFAULT_SECONDS = 20
SETUP_REPEATS = 3  # set-ups per untraced run; setup_s is their median
RUN_BUDGET_S = 170.0  # a run (one workload) must end within 180 s

END_TO_END = (("wall_norm_s", "s"), ("cpu_norm_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"), ("setup_raw_s", "s"))  # as measured, before calibration; printed only

# The CLI workload's fixture: tank category, June-July 2025 excluded, model seed 5.
COVERAGE = (date(2022, 2, 24), date(2025, 7, 31))
EXCLUDED_FROM = date(2025, 6, 1)
MONTHLY_MASK = [date(2022 + (1 + m) // 12, (1 + m) % 12 + 1, 1) < EXCLUDED_FROM for m in range(42)]
DAILY_MASK = [COVERAGE[0] + timedelta(days=d) < EXCLUDED_FROM
              for d in range((COVERAGE[1] - COVERAGE[0]).days + 1)]


class RunError(Exception):
    """The program could not be run; no result is printed."""


# --------------------------------------------------------------------------
# Child processes


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion: (exit code, cpu s, max RSS MB).

    CPU time and peak RSS come from ``wait4`` for this child alone. A
    watchdog kills the child at ``deadline``.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("run budget exhausted before starting a child process")
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=_child_env(), cwd=ROOT)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode == -9 and time.monotonic() >= deadline:
        raise RunError(f"{' '.join(argv[:4])} ... exceeded the run budget")
    return proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def _tail(path: Path, lines: int = 20) -> str:
    text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
    return "\n".join(text.splitlines()[-lines:])


def spawn_worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path,
                 tag: str, deadline: float) -> dict:
    out, log = workdir / f"{tag}.json", workdir / f"{tag}.log"
    unit_before = calibrate.unit_s()
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir), "--out", str(out)]
    code, _, _ = run_child(argv, log, deadline)
    if code != 0:
        raise RunError(f"worker {tag} exited with {code}:\n{_tail(log)}")
    result = json.loads(out.read_text(encoding="utf-8"))
    if Path(result["meta"]["attrikit_path"]) != (SRC / "attrikit").resolve():
        raise RunError(f"attrikit was imported from {result['meta']['attrikit_path']}, not {SRC}")
    result["setup_norm_s"] = result["setup_s"] * calibrate.scale(unit_before, result["setup_unit_s"])
    return result


# --------------------------------------------------------------------------
# cli_statistical


def cli_commands(w: Path) -> list[tuple[str, list[str]]]:
    """The seven commands of one pass, as (operation name, argv)."""
    common = ["--data", str(w / "ingest" / "records.csv"), "--category", "tank",
              "--exclude", "2025-06-01:2025-07-31", "--seed", "5"]
    monthly_arima = ["forecast", *common, "--granularity", "monthly", "--model", "arima",
                     "--horizon", "6", "--svg"]
    return [
        ("cli:ingest", ["ingest", "--data", str(w / "messy.csv"), "--corrections", str(w / "corrections.csv"),
                        "--geo-index", str(w / "geo_index.csv"), "--out", str(w / "ingest")]),
        ("cli:aggregate", ["aggregate", *common, "--granularity", "monthly",
                           "--out", str(w / "aggregate" / "monthly.csv")]),
        ("cli:arima:forecast", [*monthly_arima, "--out", str(w / "forecast_arima")]),
        ("cli:decomp:forecast", ["forecast", *common, "--granularity", "daily", "--model", "decomp",
                                 "--horizon", "30", "--svg", "--out", str(w / "forecast_decomp")]),
        ("cli:arima:backtest", ["backtest", *common, "--granularity", "monthly", "--model", "arima",
                                "--initial-train", "37", "--step", "1", "--horizon", "2",
                                "--out", str(w / "backtest_arima")]),
        ("cli:compare", ["compare", *common, "--granularity", "daily", "--models", "arima,decomp",
                         "--initial-train", "1000", "--step", "60", "--horizon", "30", "--svg",
                         "--out", str(w / "compare")]),
        ("cli:arima:forecast_repeat", [*monthly_arima, "--out", str(w / "forecast_arima_repeat")]),
    ]


def _svg_problems(path: Path) -> list[str]:
    if not path.exists():
        return [f"{path.name} missing"]
    text = path.read_text(encoding="utf-8")
    if "<svg" in text[:200] and text.rstrip().endswith("</svg>"):
        return []
    return [f"{path.name} is not an SVG"]


def _forecast_file_problems(csv_path: Path, horizon: int) -> list[str]:
    point, lower, upper = checks.read_forecast_csv(csv_path)
    problems = checks.forecast_problems(point, lower, upper, horizon)
    first = csv_path.read_text(encoding="utf-8").splitlines()[1].split(",")[0]
    if first != EXCLUDED_FROM.isoformat():
        problems.append(f"forecast starts {first}, expected {EXCLUDED_FROM}")
    return problems + _svg_problems(csv_path.with_suffix(".svg"))


def _backtest_json_problems(report: dict, mask: list[bool], initial: int, step: int, horizon: int) -> list[str]:
    _, expected = checks.expected_scored_points(mask, initial, step, horizon)
    folds = report["per_fold"]
    return checks.report_problems([f["n_points"] for f in folds], expected,
                                  [f[k] for f in folds for k in ("mae", "rmse", "smape")])


def check_cli_output(op: str, w: Path, expected: dict) -> tuple[list[str], list[Path]]:
    """Problems with one command's outputs, and the files that fingerprint it."""
    if op == "cli:ingest":
        files = [w / "ingest" / "records.csv", w / "ingest" / "ingest_report.json"]
        report = json.loads(files[1].read_text(encoding="utf-8"))
        problems = checks.ingest_problems(report, expected)
        rows = files[0].read_text(encoding="utf-8").splitlines()[1:]
        if len(rows) != expected["rows_parsed"]:
            problems.append(f"records.csv has {len(rows)} rows, expected {expected['rows_parsed']}")
        resolved = sum(1 for row in rows if row.split(",")[5])
        if resolved != expected["geo_resolved"]:
            problems.append(f"geo index resolved {resolved} locations, injected {expected['geo_resolved']}")
        return problems, files
    if op == "cli:aggregate":
        path = w / "aggregate" / "monthly.csv"
        rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
        problems = []
        if [r[2] == "1" for r in rows] != MONTHLY_MASK:
            problems.append("monthly mask does not cover exactly June-July 2025")
        total = sum(float(r[1]) for r in rows)
        if total != expected["tank_records"]:
            problems.append(f"monthly tank counts sum to {total}, expected {expected['tank_records']}")
        return problems, [path]
    if op.startswith("cli:arima:forecast"):
        out = w / ("forecast_arima_repeat" if op.endswith("repeat") else "forecast_arima")
        return _forecast_file_problems(out / "forecast_arima.csv", 6), sorted(out.iterdir())
    if op == "cli:decomp:forecast":
        out = w / "forecast_decomp"
        return _forecast_file_problems(out / "forecast_decomp.csv", 30), sorted(out.iterdir())
    if op == "cli:arima:backtest":
        out = w / "backtest_arima"
        report = json.loads((out / "backtest_arima.json").read_text(encoding="utf-8"))
        return _backtest_json_problems(report, MONTHLY_MASK, 37, 1, 2), sorted(out.iterdir())
    if op == "cli:compare":
        out = w / "compare"
        result = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
        problems = []
        if sorted(result["models"]) != ["arima", "decomp"]:
            problems.append(f"compared {sorted(result['models'])}, expected arima and decomp")
        for report in result["models"].values():
            problems += _backtest_json_problems(report, DAILY_MASK, 1000, 60, 30)
        for metric in ("mae", "rmse", "smape"):
            problems += _svg_problems(out / f"comparison_{metric}.svg")
        return problems, sorted(out.iterdir())
    raise ValueError(f"unknown CLI operation {op!r}")


def cli_pass(w: Path, index: int, traced: bool, deadline: float) -> dict:
    commands = cli_commands(w)
    for _, argv in commands:
        out = Path(argv[argv.index("--out") + 1])
        shutil.rmtree(out if out.suffix == "" else out.parent, ignore_errors=True)
    expected = json.loads((w / "expected.json").read_text(encoding="utf-8"))
    codes, spans, peak = [], [], 0.0
    times = dict.fromkeys(("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s"), 0.0)
    unit_before = calibrate.unit_s("startup")
    for i, (op, argv) in enumerate(commands):
        log, spans_file = w / f"cmd{i}.log", w / f"cmd{i}.spans.jsonl"
        if traced:
            full = [sys.executable, str(HERE / "cli_runner.py"), str(spans_file), *argv]
        else:
            full = [sys.executable, "-m", "attrikit.cli", *argv]
        started = time.perf_counter()
        code, child_cpu, child_rss = run_child(full, log, deadline)
        wall = time.perf_counter() - started
        # Each command is rescaled by the calibration units timed on either side of it.
        unit_after = calibrate.unit_s("startup")
        factor = calibrate.scale(unit_before, unit_after, "startup")
        unit_before = unit_after
        times["wall_s"] += wall
        times["cpu_s"] += child_cpu
        times["wall_norm_s"] += wall * factor
        times["cpu_norm_s"] += child_cpu * factor
        codes.append(code)
        peak = max(peak, child_rss)

    ops = {}
    for i, ((op, _), code) in enumerate(zip(commands, codes)):
        problems, fingerprint = [], None
        if code != 0:
            problems.append(f"exited with {code}: {_tail(w / f'cmd{i}.log', 3)}")
        else:
            try:
                problems, files = check_cli_output(op, w, expected)
                fingerprint = checks.files_digest(files)
            except (OSError, ValueError, KeyError, IndexError) as err:
                problems = [f"output unreadable: {err!r}"]
        ops[op] = {"problems": problems, "fingerprint": fingerprint}
    repeat, first = ops["cli:arima:forecast_repeat"], ops["cli:arima:forecast"]
    if repeat["fingerprint"] != first["fingerprint"]:
        repeat["problems"].append("repeated forecast differs from the first one")
    if traced:
        for i, (op, _) in enumerate(commands):
            spans += _load_spans(w / f"cmd{i}.spans.jsonl", f"pass{index}", op, offset=len(spans))
    return {**times, "peak_rss_mb": peak, "traced": traced, "ops": ops, "spans": spans}


def _load_spans(path: Path, phase: str, op: str, offset: int) -> list[dict]:
    spans = []
    if not path.exists():
        return spans
    for line in path.read_text(encoding="utf-8").splitlines():
        span = json.loads(line)
        span["id"] += offset
        if span["parent"] is not None:
            span["parent"] += offset
        span.update(phase=phase, op=op)
        spans.append(span)
    return spans


def run_cli(seed: int, seconds: float, trace: int, w: Path, deadline: float) -> dict:
    setups = [spawn_worker("cli_statistical", seed, 0, 0, w, f"setup{i}", deadline)
              for i in range(1 if trace else SETUP_REPEATS)]
    passes: list[dict] = []

    def loop(budget: float, traced: bool) -> None:
        started, walls = time.perf_counter(), []
        while True:
            passes.append(cli_pass(w, len(passes), traced, deadline))
            walls.append(passes[-1]["wall_s"])
            if time.perf_counter() - started + statistics.median(walls) > budget:
                return

    loop(seconds / 2 if trace else seconds, False)
    if trace:
        loop(seconds / 2, True)
    return {
        "setup_s": [s["setup_norm_s"] for s in setups],
        "setup_raw_s": [s["setup_s"] for s in setups],
        "meta": setups[-1]["meta"],
        "passes": passes,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes if not p["traced"]),
        "spans": [s for p in passes for s in p.pop("spans")],
    }


# --------------------------------------------------------------------------
# Library workloads


def run_library(workload: str, seed: int, seconds: float, trace: int, w: Path, deadline: float) -> dict:
    setups = [] if trace else [spawn_worker(workload, seed, 0, 0, w, f"setup{i}", deadline)
                               for i in range(SETUP_REPEATS - 1)]
    main = spawn_worker(workload, seed, seconds, trace, w, "passes", deadline)
    return {
        "setup_s": [s["setup_norm_s"] for s in (*setups, main)],
        "setup_raw_s": [s["setup_s"] for s in (*setups, main)],
        "meta": main["meta"],
        "passes": main["passes"],
        "peak_rss_mb": main["peak_rss_mb"],
        "spans": main.get("spans", []),
    }


# --------------------------------------------------------------------------
# Results


def git_sha() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.exists():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def tally(workload: str, seed: int, passes: list[dict], write_reference: bool) -> tuple[int, list[str]]:
    """Count failed operations, comparing with the reference at the reference seed."""
    reference = None if write_reference else checks.load_reference(workload, seed)
    failed, failures = 0, []
    for index, p in enumerate(passes):
        for op, record in p["ops"].items():
            problems = list(record["problems"])
            if reference is not None:
                problems += checks.reference_problems(op, record["fingerprint"], reference.get(op))
            if problems:
                failed += 1
                failures.append(f"pass {index} {op}: {'; '.join(problems[:3])}")
    return failed, failures


def run_workload(workload: str, seed: int, seconds: float, trace: int, write_reference: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    w = WORK / f"{workload}-seed{seed}"
    shutil.rmtree(w, ignore_errors=True)
    w.mkdir(parents=True)
    if workload == "cli_statistical":
        raw = run_cli(seed, seconds, trace, w, deadline)
    else:
        raw = run_library(workload, seed, seconds, trace, w, deadline)
    passes = raw["passes"]
    attempted = sum(len(p["ops"]) for p in passes)
    failed, failures = tally(workload, seed, passes, write_reference)
    if write_reference:
        if failed:
            raise RunError("refusing to write a reference from a run with failed operations")
        checks.save_reference(workload, seed, {op: r["fingerprint"] for op, r in passes[0]["ops"].items()})

    untraced = [p for p in passes if not p["traced"]]
    end_to_end = {name: statistics.median(p[name] for p in untraced)
                  for name in ("wall_norm_s", "cpu_norm_s", "wall_s", "cpu_s")}
    end_to_end["peak_rss_mb"] = raw["peak_rss_mb"]
    end_to_end["setup_s"] = statistics.median(raw["setup_s"])
    end_to_end["setup_raw_s"] = statistics.median(raw["setup_raw_s"])
    layers = {}
    if trace:
        layers = tracing.layer_metrics(raw["spans"])
        failures += [f"count {name} differs between traced passes" for name in tracing.varying_counts(raw["spans"])]
        traced_wall = statistics.median(p["wall_norm_s"] for p in passes if p["traced"])
        layers["trace.overhead_s"] = traced_wall - end_to_end["wall_norm_s"]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(), "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        **raw["meta"],
    }
    return {
        "meta": meta, "attempted": attempted, "failed": failed, "failures": failures,
        "correct": not failures,
        "end_to_end": end_to_end, "layers": layers, "setup_samples": raw["setup_s"], "setup_raw_samples": raw["setup_raw_s"],
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "wall_norm_s", "cpu_norm_s", "traced")} for p in passes],
        "spans": raw["spans"],
    }


def print_report(result: dict) -> None:
    meta = result["meta"]
    print(f"== {meta['workload']}  seed {meta['seed']}  trace {meta['trace']}  "
          f"passes {len(result['passes'])}  ({meta['seconds']:g} s measured)")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k not in ("workload", "trace")}))
    for name, unit in END_TO_END + RAW_TIMES:
        print(f"  {name:<24} {result['end_to_end'][name]:>14.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'ops_failed_frac':<24} {frac:>14.6g} ratio  ({result['failed']} of {result['attempted']} operations)")
    if result["layers"]:
        print("  per-layer (traced run; median over set-up and passes where the layer ran):")
        for name, unit in tracing.PER_LAYER:
            if name in result["layers"]:
                print(f"    {name:<26} {result['layers'][name]:>14.6g} {unit}")
        absent = [name for name, _ in tracing.PER_LAYER if name not in result["layers"]]
        if absent:
            print(f"    not run in this workload: {', '.join(absent)}")
    for line in result["failures"][:10]:
        print(f"  FAILED {line}")


def save_result(result: dict) -> None:
    meta = result["meta"]
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    spans = result.pop("spans")
    (out / f"{stem}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if spans:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as f:
            for span in spans:
                f.write(json.dumps(span) + "\n")


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        return {name: {"value": result["layers"].get(name, 0.0), "unit": unit} for name, unit in tracing.PER_LAYER}
    return {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference for its seed")
    args = parser.parse_args(argv)

    try:
        try:
            checks.self_check()
        except RuntimeError as err:
            raise RunError(str(err)) from err
        if not (SRC / "attrikit" / "__init__.py").exists():
            raise RunError(f"no attrikit sources under {SRC}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(n, args.seed, args.seconds, args.trace, args.write_reference) for n in names]
    except RunError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2

    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for result in results:
        print_report(result)
        metrics = metrics_of(result, args.trace)
        prefix = f"{result['meta']['workload']}." if len(results) > 1 else ""
        final["metrics"].update({prefix + k: v for k, v in metrics.items()})
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["correct"] = final["correct"] and result["correct"]
        save_result(result)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
