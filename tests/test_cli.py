"""End-to-end command tests: flows, exit codes, config files, determinism."""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from datetime import date
from pathlib import Path

import pytest

import attrikit
from attrikit import cli, factories
from attrikit.cli import OPTIONS, _int_list, main
from attrikit.ingest import Category, Profile, Regime, load_profile

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

RECORDS_HEADER = "date,type,model,status,location,raion,oblast,url\n"

SMALL_PROFILE = (
    "start,end,category,mean_per_day\n"
    "2022-03-01,2022-12-31,tank,3.0\n"
    "2022-03-01,2022-12-31,ifv,2.0\n"
    "2023-01-01,2025-06-30,tank,1.5\n"
    "2023-01-01,2025-06-30,ifv,1.0\n"
)

FAST_MODEL_FLAGS = [
    "--epochs", "60", "--lookback", "6", "--hidden", "6", "--lr", "0.02",
    "--kernel", "2", "--dilations", "1,2", "--channels", "4",
    "--n-trees", "25", "--lags", "1,2,3,6", "--ma-windows", "3",
    "--changepoints", "6", "--yearly-order", "2", "--weekly-order", "0",
]


@pytest.fixture(scope="module")
def records_csv(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    profile = root / "profile.csv"
    profile.write_text(SMALL_PROFILE)
    out = root / "records.csv"
    assert main(["synth", "--seed", "5", "--profile", str(profile), "--out", str(out)]) == 0
    return out


def test_synth_defaults_span_coverage(tmp_path):
    out = tmp_path / "synth.csv"
    assert main(["synth", "--seed", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    dates = sorted(line.split(",")[0] for line in lines[1:])
    assert dates[0] >= "2022-02-24" and dates[-1] <= "2025-07-31"


def test_synth_is_byte_identical_per_seed(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["synth", "--seed", "9", "--out", str(a)]) == 0
    assert main(["synth", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_synth_zero_mean_regime_writes_no_rows(tmp_path):
    profile = tmp_path / "p.csv"
    profile.write_text("start,end,category,mean_per_day\n2022-03-01,2022-03-20,tank,0\n")
    out = tmp_path / "r.csv"
    assert main(["synth", "--seed", "1", "--profile", str(profile), "--out", str(out)]) == 0
    assert out.read_text().strip().split("\n") == [RECORDS_HEADER.strip()]


def test_synth_bad_profile_exit_2(tmp_path):
    profile = tmp_path / "p.csv"
    profile.write_text("start,end,category,mean_per_day\n2022-03-01,2022-03-20,tank,-4\n")
    assert main(["synth", "--profile", str(profile), "--out", str(tmp_path / "r.csv")]) == 2


def test_synth_profile_outside_coverage_exit_2(tmp_path, capsys):
    # Ingest drops every record outside the coverage window, so synth must not write them.
    profile = tmp_path / "p.csv"
    profile.write_text("2025-07-01,2025-09-30,tank,3.0\n")
    out = tmp_path / "r.csv"
    assert main(["synth", "--profile", str(profile), "--out", str(out)]) == 2
    window = "regime 2025-07-01..2025-09-30 is not inside the coverage window 2022-02-24..2025-07-31"
    assert window in capsys.readouterr().err
    assert not out.exists()


def test_ingest_flow(records_csv, tmp_path):
    out = tmp_path / "ingested"
    assert main(["ingest", "--data", str(records_csv), "--out", str(out)]) == 0
    report = json.loads((out / "ingest_report.json").read_text())
    assert report["rows_parsed"] > 0
    assert report["rows_read"] == report["rows_parsed"]  # synth output is clean
    assert (out / "records.csv").read_bytes() == records_csv.read_bytes()


def test_ingest_empty_but_headered_ok(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text(RECORDS_HEADER)
    assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "o")]) == 0


def test_ingest_missing_date_column_exit_2(tmp_path):
    data = tmp_path / "bad.csv"
    data.write_text("kind,status\ntank,destroyed\n")
    assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "o")]) == 2


def test_ingest_strips_byte_order_mark(tmp_path):
    text = RECORDS_HEADER + "2022-03-01,tank,,destroyed,Bucha,,,\n"
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        data, out = tmp_path / f"{len(outputs)}.csv", tmp_path / f"o{len(outputs)}"
        data.write_bytes(prefix + text.encode())
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 0
        outputs.append((out / "records.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_ingest_invalid_utf8_exit_2(tmp_path, capsys):
    data = tmp_path / "latin1.csv"
    data.write_bytes((RECORDS_HEADER + "2022-03-01,tank,,destroyed,Kherson,,,\n").encode() + b"\xe9\n")
    assert main(["ingest", "--data", str(data), "--out", str(tmp_path / "o")]) == 2
    assert "not UTF-8 text" in capsys.readouterr().err


def test_ingest_unreadable_input_exit_1(tmp_path):
    assert main(["ingest", "--data", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o")]) == 1


def test_ingest_geo_index_applied(tmp_path):
    data = tmp_path / "r.csv"
    data.write_text(RECORDS_HEADER + "2022-03-01,tank,,destroyed,Bucha,,,\n")
    geo = tmp_path / "geo.csv"
    geo.write_text('bucha,"Buchanskyi/Kyivska"\n')
    out = tmp_path / "o"
    assert main(["ingest", "--data", str(data), "--geo-index", str(geo), "--out", str(out)]) == 0
    assert "Buchanskyi" in (out / "records.csv").read_text()


def test_ingest_schema_maps_columns(tmp_path, capsys):
    data = tmp_path / "r.csv"
    data.write_text("day,kind,status\n2022-03-01,tank,destroyed\n")
    out = tmp_path / "o"
    assert main(["ingest", "--data", str(data), "--schema", "date=day, type=kind", "--out", str(out)]) == 0
    assert json.loads((out / "ingest_report.json").read_text())["rows_parsed"] == 1
    assert "2022-03-01,tank" in (out / "records.csv").read_text()
    capsys.readouterr()
    for schema, message in (("date", "bad schema 'date': entry 'date' is not logical=column"),
                            ("foo=bar", "unknown logical column 'foo' in schema")):
        assert main(["ingest", "--data", str(data), "--schema", schema, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err


def test_aggregate_writes_series(records_csv, tmp_path):
    out = tmp_path / "series.csv"
    code = main(["aggregate", "--data", str(records_csv), "--granularity", "monthly",
                 "--category", "tank", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "period_start,value,observed"
    assert lines[1].startswith("2022-03-01,")


def test_category_aliases_and_blank_entries_select_the_same_series(records_csv, tmp_path):
    outputs = {}
    for value in ("tank", "tank,", "tanks", " MBT "):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main(["aggregate", "--data", str(records_csv), "--granularity", "monthly",
                     "--category", value, "--out", str(out)]) == 0
        outputs[value] = out.read_bytes()
    assert len(set(outputs.values())) == 1


def test_hyphenated_category_alias_is_accepted(records_csv, tmp_path):
    outputs = []
    for value in ("air_defense", "anti-aircraft"):
        out = tmp_path / f"{len(outputs)}.csv"
        assert main(["aggregate", "--data", str(records_csv), "--granularity", "monthly",
                     "--category", value, "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("value", ["tnak", "tank,tnak", ","])
def test_unknown_category_flag_exit_2(records_csv, tmp_path, capsys, value):
    assert main(["aggregate", "--data", str(records_csv), "--granularity", "monthly",
                 "--category", value, "--out", str(tmp_path / "s.csv")]) == 2
    assert not (tmp_path / "s.csv").exists()
    assert ("'tnak'" if "tnak" in value else "at least one category") in capsys.readouterr().err


def test_unknown_category_config_key_exit_2(records_csv, tmp_path, capsys):
    config = tmp_path / "bad.conf"
    config.write_text("category=tnak\n")
    assert main(["aggregate", "--config", str(config), "--data", str(records_csv),
                 "--granularity", "monthly", "--out", str(tmp_path / "s.csv")]) == 2
    assert "unknown category 'tnak'" in capsys.readouterr().err


def test_other_category_is_still_selectable(records_csv, tmp_path):
    assert main(["aggregate", "--data", str(records_csv), "--granularity", "monthly",
                 "--category", "Other", "--out", str(tmp_path / "s.csv")]) == 0


def test_series_without_range_spans_records_of_every_category(tmp_path):
    """The first and last days hold no tank record; the series still runs
    from the first to the last valid record. Rows that are no record (an
    unknown status, a date out of coverage) do not stretch it."""
    data = tmp_path / "records.csv"
    data.write_text(RECORDS_HEADER + "2022-03-01,ifv,,,,,,\n2022-03-03,tank,,,,,,a\n2022-03-03,tank,,,,,,b\n"
                    "2022-03-04,apc,,,,,,\n2022-03-09,tank,,unclear,,,,\n2021-01-01,apc,,,,,,\n")
    out = tmp_path / "tank.csv"
    assert main(["aggregate", "--data", str(data), "--category", "tank", "--out", str(out)]) == 0
    assert out.read_text() == ("period_start,value,observed\n2022-03-01,0,1\n2022-03-02,0,1\n"
                               "2022-03-03,2,1\n2022-03-04,0,1\n")


def test_aggregate_exclusion_masks_rows(records_csv, tmp_path):
    out = tmp_path / "series.csv"
    main(["aggregate", "--data", str(records_csv), "--granularity", "monthly",
          "--exclude", "2023-05-01:2023-06-30", "--out", str(out)])
    rows = {line.split(",")[0]: line.split(",")[2] for line in out.read_text().strip().split("\n")[1:]}
    assert rows["2023-05-01"] == "0" and rows["2023-06-01"] == "0"
    assert rows["2023-04-01"] == "1"


def test_forecast_all_models_and_determinism(records_csv, tmp_path):
    for model in ("arima", "decomp", "lstm", "tcn", "gbt"):
        outs = []
        for run in ("x", "y"):
            out = tmp_path / model / run
            code = main(["forecast", "--data", str(records_csv), "--model", model,
                         "--granularity", "monthly", "--category", "tank",
                         "--exclude", "2025-05-01:2025-06-30", "--horizon", "4",
                         "--seed", "3", "--svg", "--out", str(out), *FAST_MODEL_FLAGS])
            assert code == 0, model
            outs.append((out / f"forecast_{model}.csv").read_bytes()
                        + (out / f"forecast_{model}.svg").read_bytes())
        assert outs[0] == outs[1], f"{model} output not reproducible"


def test_forecast_csv_layout_and_origin(records_csv, tmp_path):
    out = tmp_path / "fc"
    main(["forecast", "--data", str(records_csv), "--model", "arima", "--granularity",
          "monthly", "--exclude", "2025-05-01:2025-06-30", "--horizon", "3",
          "--out", str(out)])
    lines = (out / "forecast_arima.csv").read_text().strip().split("\n")
    assert lines[0] == "period_start,point,lower,upper,level"
    # May-June 2025 excluded at the series tail: the forecast resumes in May.
    assert lines[1].startswith("2025-05-01,")
    assert len(lines) == 4


def test_forecast_zero_horizon_exit_2(records_csv, tmp_path):
    assert main(["forecast", "--data", str(records_csv), "--model", "arima",
                 "--horizon", "0", "--out", str(tmp_path / "o")]) == 2


# A bad value for each kind of model parameter, with a model that reads it.
BAD_MODEL_PARAMS = [
    ("--level", "1.5", "arima"),
    ("--lookback", "0", "lstm"),
    ("--lags", "0", "gbt"),
    ("--lags", "1-3,2", "gbt"),      # lag_2 twice
    ("--ma-windows", "3,3", "gbt"),
    ("--dilations", "1,a", "tcn"),
    ("--trend-penalty", "nan", "decomp"),
    ("--epochs", "0", "tcn"),
    ("--lr", "nan", "lstm"),
    ("--lr", "-0.1", "tcn"),
]


@pytest.mark.parametrize("command", ["forecast", "backtest", "compare"])
@pytest.mark.parametrize("flag,value,model", BAD_MODEL_PARAMS)
def test_bad_model_parameter_exit_2(records_csv, tmp_path, command, flag, value, model):
    run = {"forecast": ["--model", model, "--horizon", "2"],
           "backtest": ["--model", model, "--initial-train", "30"],
           "compare": ["--initial-train", "30"]}[command]
    assert main([command, "--data", str(records_csv), "--granularity", "monthly", *run,
                 flag, value, "--out", str(tmp_path / "o")]) == 2


def test_backtest_zero_horizon_exit_2(records_csv, tmp_path):
    assert main(["backtest", "--data", str(records_csv), "--model", "arima", "--initial-train", "30",
                 "--horizon", "0", "--out", str(tmp_path / "o")]) == 2


# Input the library rejects with a ValueError, which the CLI reports as a usage error.
USAGE_ERRORS = {
    "no models": ("records", ["compare", "--models", ",", "--initial-train", "30"]),
    "repeated model": ("records", ["compare", "--models", "arima,arima", "--initial-train", "30"]),
    "reversed range": ("records", ["aggregate", "--range", "2024-01-01:2023-01-01"]),
    "aggregate no records": ("unparsable", ["aggregate"]),
    "forecast no records": ("unparsable", ["forecast", "--model", "arima"]),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_usage_error_exit_2(records_csv, tmp_path, case):
    data, argv = USAGE_ERRORS[case]
    if data == "unparsable":
        data = tmp_path / "unparsable.csv"
        data.write_text(RECORDS_HEADER + "not-a-date,tank,,destroyed,,,,\n")
    else:
        data = records_csv
    assert main([*argv, "--data", str(data), "--out", str(tmp_path / "o")]) == 2


def test_forecast_model_error_exit_3(tmp_path):
    data = tmp_path / "tiny.csv"
    data.write_text(RECORDS_HEADER + "2022-03-01,tank,,destroyed,,,,\n")
    assert main(["forecast", "--data", str(data), "--model", "arima",
                 "--horizon", "2", "--out", str(tmp_path / "o")]) == 3


def test_forecast_past_the_last_date_exit_3(records_csv, tmp_path, capsys):
    assert main(["forecast", "--data", str(records_csv), "--model", "arima", "--granularity", "monthly",
                 "--range", "9990-01-01:9999-12-31", "--horizon", "3", "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == "model error: the forecast would run past 9999-12-31\n"
    assert not (tmp_path / "o").exists()


def test_date_flags_follow_the_record_date_rule(records_csv, tmp_path, capsys):
    """--range and --exclude read the three date formats a record cell may
    use, and no other: not the ISO week or basic forms."""
    def aggregate(date_range, exclude):
        out = tmp_path / f"{date_range.replace('/', '_')}.csv"
        code = main(["aggregate", "--data", str(records_csv), "--range", date_range, "--exclude", exclude,
                     "--out", str(out)])
        return out.read_bytes() if code == 0 else code

    iso = aggregate("2022-03-01:2022-06-30", "2022-04-01:2022-04-10")
    assert isinstance(iso, bytes)
    assert aggregate("2022-3-1:2022-6-30", "2022-4-1:2022-4-10") == iso
    assert aggregate("01.03.2022:30.06.2022", "01.04.2022:10.04.2022") == iso
    assert aggregate("03/01/2022:06/30/2022", "04/01/2022:04/10/2022") == iso
    capsys.readouterr()
    for date_range, exclude in (("2022W091:20220630", "2022-04-01:2022-04-10"),
                                ("20220301:2022-06-30", "2022-04-01:2022-04-10"),
                                ("2022-03-01:2022-06-30", "2022-W13-5:2022-04-10")):
        assert aggregate(date_range, exclude) == 2
        assert "expected START:END dates" in capsys.readouterr().err


@pytest.mark.parametrize("hidden", ["1000000000000", "10000000000000000000"])
def test_model_too_big_to_allocate_exit_3(records_csv, tmp_path, capsys, hidden):
    # numpy refuses both shapes before touching memory: 233 TiB, and a
    # dimension past its limit
    assert main(["forecast", "--data", str(records_csv), "--model", "lstm", "--hidden", hidden,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: cannot allocate a parameter of shape") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["backtest", "compare"])
def test_fold_with_no_observed_training_period_exit_3(records_csv, tmp_path, capsys, command):
    # Every period of the first fold's ten training months is excluded.
    run = {"backtest": ["--model", "arima"], "compare": ["--models", "decomp,arima"]}[command]
    assert main([command, "--data", str(records_csv), "--granularity", "monthly", "--category", "tank",
                 *run, "--exclude", "2022-01-01:2023-12-31", "--initial-train", "10",
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("model error: ") and err.count("\n") == 1
    assert "fold at 2023-01-01: the training range has no observed periods" in err


def test_backtest_writes_metrics(records_csv, tmp_path):
    out = tmp_path / "bt"
    code = main(["backtest", "--data", str(records_csv), "--model", "gbt",
                 "--granularity", "monthly", "--initial-train", "20", "--step", "2",
                 "--horizon", "2", "--n-trees", "25", "--lags", "1,2,3",
                 "--ma-windows", "3", "--svg", "--out", str(out)])
    assert code == 0
    lines = (out / "backtest_gbt.csv").read_text().strip().split("\n")
    assert lines[0] == "model,mae,rmse,smape,n_points,n_folds"
    payload = json.loads((out / "backtest_gbt.json").read_text())
    assert payload["per_fold"]
    assert (out / "backtest_gbt.svg").exists()


def test_backtest_zero_folds_exit_3(records_csv, tmp_path):
    assert main(["backtest", "--data", str(records_csv), "--model", "gbt",
                 "--granularity", "monthly", "--initial-train", "99",
                 "--out", str(tmp_path / "o")]) == 3


def test_compare_five_models(records_csv, tmp_path):
    out = tmp_path / "cmp"
    code = main(["compare", "--data", str(records_csv), "--granularity", "monthly",
                 "--category", "tank", "--initial-train", "37", "--step", "1",
                 "--horizon", "2", "--seed", "3", "--svg", "--out", str(out),
                 *FAST_MODEL_FLAGS])
    assert code == 0
    lines = (out / "comparison.csv").read_text().strip().split("\n")
    assert lines[0] == "model,mae,rmse,smape,n_points,n_folds"
    assert len(lines) == 6
    assert [ln.split(",")[0] for ln in lines[1:]] == ["arima", "decomp", "gbt", "lstm", "tcn"]
    payload = json.loads((out / "comparison.json").read_text())
    assert set(payload["ranking"]) == {"arima", "decomp", "gbt", "lstm", "tcn"}
    for metric in ("mae", "rmse", "smape"):
        assert (out / f"comparison_{metric}.svg").exists()


def test_compare_determinism(records_csv, tmp_path):
    blobs = []
    for run in ("a", "b"):
        out = tmp_path / run
        code = main(["compare", "--data", str(records_csv), "--granularity", "monthly",
                     "--models", "arima,gbt", "--initial-train", "20", "--horizon", "2",
                     "--seed", "7", "--svg", "--out", str(out), *FAST_MODEL_FLAGS])
        assert code == 0
        blob = b"".join(sorted(p.read_bytes() for p in out.iterdir()))
        blobs.append(blob)
    assert blobs[0] == blobs[1]


def test_config_file_with_flag_override(records_csv, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(
        f"data={records_csv}\n"
        "granularity=monthly\n"
        "model=arima\n"
        "horizon=2\n"
        "# a comment line\n"
        "exclude=2023-05-01:2023-06-30\n"
    )
    out = tmp_path / "from_config"
    assert main(["forecast", "--config", str(config), "--out", str(out),
                 "--horizon", "5"]) == 0  # flag beats config
    lines = (out / "forecast_arima.csv").read_text().strip().split("\n")
    assert len(lines) == 6


@pytest.mark.parametrize("source", ["flag", "config"])
def test_reversed_integer_range_exit_2(records_csv, tmp_path, capsys, source):
    """A reversed range is an error that names its chunk, never an empty range."""
    config = tmp_path / "reversed.conf"
    config.write_text("dilations=4-1\n")
    argv, chunk = {"flag": (["backtest", "--model", "gbt", "--lags", "1,12-6", "--initial-train", "30"], "12-6"),
                   "config": (["forecast", "--model", "tcn", "--config", str(config)], "4-1")}[source]
    assert main([*argv, "--data", str(records_csv), "--granularity", "monthly",
                 "--out", str(tmp_path / "o")]) == 2
    assert f"reversed range '{chunk}'" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"reversed range '{chunk}'"):
        _int_list(chunk)


def test_config_unknown_key_exit_2(records_csv, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("frobnicate=1\n")
    assert main(["forecast", "--config", str(config), "--data", str(records_csv),
                 "--model", "arima", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("line", ["horizon=abc", "seed=x", "level=abc", "epochs=1.5", "svg=tru", "no_log=maybe"])
def test_config_bad_value_exit_2(records_csv, tmp_path, line):
    config = tmp_path / "bad.conf"
    config.write_text(line + "\n")
    assert main(["forecast", "--config", str(config), "--data", str(records_csv),
                 "--model", "arima", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("value, svg", [("no", False), ("OFF", False), ("Yes", True)])
def test_config_switch_values(records_csv, tmp_path, value, svg):
    config = tmp_path / "switch.conf"
    config.write_text(f"svg={value}\n")
    out = tmp_path / "o"
    assert main(["forecast", "--config", str(config), "--data", str(records_csv),
                 "--model", "arima", "--horizon", "2", "--out", str(out)]) == 0
    assert (out / "forecast_arima.svg").exists() == svg


NO_SCIPY_RUN = """
import sys
from attrikit import cli
assert cli.main(["ingest", "--data", sys.argv[1], "--out", sys.argv[2]]) == 0
assert cli.main(["aggregate", "--data", sys.argv[1], "--granularity", "monthly", "--out", sys.argv[3]]) == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def _fresh_python(*argv, environ=os.environ):
    """Run a new interpreter, in ``environ``, that imports attrikit from this checkout."""
    package_root = str(Path(attrikit.__file__).resolve().parents[1])
    env = dict(environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120)


def test_ingest_and_aggregate_import_no_scipy(records_csv, tmp_path):
    """scipy takes about a second to import; only the ARIMA and decomp fits load it."""
    run = _fresh_python("-c", NO_SCIPY_RUN, str(records_csv), str(tmp_path / "ingest"), str(tmp_path / "monthly.csv"))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"


MODEL_IMPORTS_RUN = """
import json
import sys
from attrikit import cli
for model in ("arima", "decomp"):
    assert cli.main(["forecast", "--data", sys.argv[1], "--granularity", "monthly", "--model", model,
                     "--horizon", "3", "--out", sys.argv[2]]) == 0
print(json.dumps(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))))
import scipy.linalg, scipy.signal  # a later import of the packages still registers their modules
assert scipy.signal._sigtools and scipy.linalg._flapack
"""


def test_arima_and_decomp_fits_import_no_scipy_package(records_csv, tmp_path):
    """The fits load two compiled scipy routines from their files and leave no scipy module registered."""
    run = _fresh_python("-c", MODEL_IMPORTS_RUN, str(records_csv), str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == []
    assert (tmp_path / "out" / "forecast_arima.csv").exists() and (tmp_path / "out" / "forecast_decomp.csv").exists()


LOADED_MODULES_RUN = """
import json
import sys
from attrikit import cli
assert cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(sys.modules)))
"""

# command -> (flags besides --data and --out, a module it loads, modules it must not load).
# No command loads _strptime: dates are matched by ingest's own patterns.
COMMAND_MODULES = {
    "ingest": ([], "attrikit.ingest", {"numpy", "attrikit.series", "_strptime"}),
    "aggregate": (["--granularity", "monthly"], "attrikit.series",
                  {"_strptime"} | {f"attrikit.{m}" for m in ("arima", "decomp", "gbtrees", "neural", "autodiff",
                                                             "evaluate", "svg")}),
    "forecast": (["--granularity", "monthly", "--model", "arima", "--horizon", "3", "--svg"], "attrikit.arima",
                 {"_strptime"} | {f"attrikit.{m}" for m in ("decomp", "gbtrees", "neural", "autodiff")}),
    "compare": (["--granularity", "monthly", "--models", "arima,decomp", "--initial-train", "30", "--horizon", "2"],
                "attrikit.decomp", {"_strptime"} | {f"attrikit.{m}" for m in ("gbtrees", "neural", "autodiff")}),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_the_layers_it_runs(records_csv, tmp_path, command):
    """Importing numpy is most of a command's start-up, and a model module not
    loaded is one not compiled; ingest needs neither, and a fit loads only the
    families it fits."""
    flags, loads, skips = COMMAND_MODULES[command]
    run = _fresh_python("-c", LOADED_MODULES_RUN, command, "--data", str(records_csv), *flags,
                        "--out", str(tmp_path / "out"))
    assert run.returncode == 0, run.stderr
    loaded = set(json.loads(run.stdout.splitlines()[-1]))
    assert loads in loaded
    assert not loaded & skips


def test_cli_copies_match_their_definitions():
    """The parser holds copies so that building it loads no numpy; they must not drift."""
    from attrikit import series
    from attrikit.arima import ArimaSpec

    assert (cli.DAILY, cli.MONTHLY) == (series.DAILY, series.MONTHLY)
    assert cli.MODEL_NAMES == factories.MODEL_NAMES
    assert cli.ARIMA_ORDER == (ArimaSpec().p, ArimaSpec().d, ArimaSpec().q)


TRACER_INSTALL = """
import sys
sys.path.insert(0, sys.argv[1])
import tracing
tracing.install(tracing.Tracer())
"""


def test_benchmark_tracer_installs():
    """perfbench/tracing.py wraps functions and methods by name; renaming one breaks the benchmark."""
    run = _fresh_python("-c", TRACER_INSTALL, str(PERFBENCH))
    assert run.returncode == 0, run.stderr


def _traced_command_spans(spans_out, argv):
    """Span names of one CLI command run through the benchmark's traced runner."""
    run = _fresh_python(str(PERFBENCH / "cli_runner.py"), str(spans_out), *argv)
    assert run.returncode == 0, run.stderr
    return {json.loads(line)["name"] for line in spans_out.read_text().splitlines()}


def test_benchmark_traces_the_layers_a_command_runs(records_csv, tmp_path):
    """The tracer replaces functions on attrikit.cli; the commands must call what it bound there."""
    common = ["--data", str(records_csv), "--granularity", "monthly", "--model", "arima"]
    forecast = _traced_command_spans(tmp_path / "forecast.jsonl", [
        "forecast", *common, "--horizon", "3", "--svg", "--out", str(tmp_path / "fc")])
    backtest = _traced_command_spans(tmp_path / "backtest.jsonl", [
        "backtest", *common, "--initial-train", "30", "--horizon", "2", "--out", str(tmp_path / "bt")])
    ingest = _traced_command_spans(tmp_path / "ingest.jsonl", [
        "ingest", "--data", str(records_csv), "--out", str(tmp_path / "ingested")])
    both = {"cli.main", "ingest.parse_records", "series.aggregate", "series.apply_exclusions",
            "factories.forecast_model", "arima.fit"}
    assert both | {"svg.emit_svg"} <= forecast
    assert both | {"evaluate.rolling_backtest", "evaluate.fold"} <= backtest
    assert {"cli.main", "ingest.parse_records"} <= ingest


# Each runs in its own process. The daily gbt forecast uses every calendar flag.
HASH_SEED_COMMANDS = {
    "gbt": ["forecast", "--model", "gbt", "--granularity", "daily", "--n-trees", "5"],
    "lstm": ["forecast", "--model", "lstm", "--granularity", "monthly", "--use-month", "--epochs", "20"],
    "compare": ["compare", "--granularity", "monthly", "--models", "arima,decomp,gbt",
                "--initial-train", "30", "--horizon", "2"],
}


def _messy_records(records_csv, inputs):
    """The synthetic records with model texts to correct, places to look up
    and every fifth row twice, plus the correction table and geo index."""
    rows = list(csv.reader(records_csv.read_text().splitlines()))
    models, places = ("T-72B3", "MT-LB", "", "BMP-2"), ("Bucha", "", "irpin ", "Nowhere", "")
    out = [rows[0]]
    for i, row in enumerate(rows[1:]):
        row = [row[0], row[1], models[i % 4], row[3], places[i % 5], *row[5:]]
        out += [row, row] if i % 5 == 0 else [row]
    data = inputs / "messy.csv"
    with data.open("w", newline="") as f:
        csv.writer(f).writerows(out)
    (inputs / "corrections.csv").write_text("MT-LB,apc\nBMP-2,ifv\nT-72B3,tank\n")
    (inputs / "geo_index.csv").write_text('bucha,"Buchanskyi/Kyivska"\nirpin,"Buchanskyi/Kyivska"\n')
    return ["ingest", "--data", str(data), "--corrections", str(inputs / "corrections.csv"),
            "--geo-index", str(inputs / "geo_index.csv")]


def test_outputs_identical_across_hash_seeds(records_csv, tmp_path):
    """Set order and str hashes change with PYTHONHASHSEED; no output file may.
    Dedup looks keys up in a set of str, so ingest is run too."""
    package_root = str(Path(attrikit.__file__).resolve().parents[1])
    commands = {name: [*command, "--data", str(records_csv), "--svg"] for name, command in HASH_SEED_COMMANDS.items()}
    (tmp_path / "inputs").mkdir()
    commands["ingest"] = _messy_records(records_csv, tmp_path / "inputs")
    outputs = {}
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
        root = tmp_path / hash_seed
        for name, command in commands.items():
            run = subprocess.run([sys.executable, "-c", "import sys; from attrikit.cli import main; sys.exit(main())",
                                  *command, "--out", str(root / name)],
                                 capture_output=True, text=True, env=env, timeout=120)
            assert run.returncode == 0, run.stderr
        outputs[hash_seed] = {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}
    assert len(outputs["0"]) >= 10
    report = json.loads(outputs["0"]["ingest/ingest_report.json"])
    assert report["duplicates_removed"] > 0 and report["category_corrections"] > 0
    assert b"Buchanskyi" in outputs["0"]["ingest/records.csv"]
    assert outputs["0"] == outputs["12345"]


# sha256 of forecast_gbt.csv at the full presets: 200 trees, whose split
# searches reuse many of the previous tree's structures. A change to the
# search must keep every tree, and so every forecast digit.
GBT_FULL_PRESET_SHA256 = {
    "daily": "3c8048f5f68f81d5e6914f9019494857d0224f9d3d4ea9401fac694ae94bea25",
    "monthly": "5d510db02492b38b048b498de550c0f7bc729ebd7577dbf82fd8f82833274448",
}


@pytest.mark.parametrize("granularity", sorted(GBT_FULL_PRESET_SHA256))
def test_full_preset_gbt_forecast_digest(tmp_path, granularity):
    synth = tmp_path / "records.csv"
    assert main(["synth", "--seed", "42", "--out", str(synth)]) == 0
    out = tmp_path / "fc"
    assert main(["forecast", "--data", str(synth), "--model", "gbt", "--granularity", granularity,
                 "--category", "tank", "--exclude", "2025-06-01:2025-07-31", "--seed", "5",
                 "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "forecast_gbt.csv").read_bytes()).hexdigest()
    assert digest == GBT_FULL_PRESET_SHA256[granularity]


# Each model's daily forecast, with flags that keep its fit short.
BLAS_THREAD_FORECASTS = {
    "arima": [],
    "decomp": [],
    "gbt": ["--n-trees", "20"],
    "lstm": ["--epochs", "3"],
    "tcn": ["--epochs", "3"],
}


def _forecasts_by_blas_threads(data, models, root, *flags):
    """Each model's daily forecast file, from a fresh process on one BLAS thread and on two."""
    outputs = {}
    for threads in ("1", "2"):
        for model in models:
            run = _fresh_python("-m", "attrikit.cli", "forecast", "--model", model, "--granularity", "daily",
                                *BLAS_THREAD_FORECASTS[model], *flags, "--data", str(data),
                                "--out", str(root / threads / model),
                                environ=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert run.returncode == 0, run.stderr
        files = {str(p.relative_to(root / threads)): p.read_bytes() for p in (root / threads).rglob("*") if p.is_file()}
        assert sorted(files) == [f"{model}/forecast_{model}.csv" for model in sorted(models)]
        outputs[threads] = files
    return outputs


def test_outputs_identical_across_blas_thread_counts(records_csv, tmp_path):
    """Every model gives the same bits whatever BLAS thread count the user
    sets: neural fits train on one thread regardless, and the other fits'
    products do not change with the count."""
    outputs = _forecasts_by_blas_threads(records_csv, BLAS_THREAD_FORECASTS, tmp_path)
    assert outputs["1"] == outputs["2"]


def test_seed_42_daily_tank_outputs_identical_across_blas_thread_counts(tmp_path):
    """On the seed-42 daily tank series OpenBLAS splits products across
    threads, and every model still gives the same bits on one thread or
    two. decomp's Gram matrix holds only because numpy computes ``x.T @ x``
    with syrk; ``x.T @ x.copy()`` changes in the last bits. The LSTM holds
    only because it trains on one thread: its ``x_t.T @ d_gates`` and
    ``h_prev.T @ d_gates`` over 1,165 windows change bits between one
    thread and two."""
    data = tmp_path / "records.csv"
    assert main(["synth", "--seed", "42", "--out", str(data)]) == 0
    outputs = _forecasts_by_blas_threads(data, BLAS_THREAD_FORECASTS, tmp_path, "--category", "tank")
    assert outputs["1"] == outputs["2"]


# Prints the sha256 of the point, lower and upper bytes of a 3-epoch daily
# lstm forecast on the seed-42 tank series.
LSTM_BITS_RUN = """
import hashlib
import json
import numpy as np
from attrikit import factories
from attrikit.ingest import Category, default_profile, generate_synthetic
from attrikit.series import DAILY, aggregate

series = aggregate(generate_synthetic(42), DAILY, {Category.TANK}, default_profile().span())
fc = factories.forecast_model("lstm", series, 30, seed=5, params={"epochs": 3})
print(json.dumps([hashlib.sha256(np.asarray(a).tobytes()).hexdigest() for a in (fc.point, fc.lower, fc.upper)]))
"""


def test_library_lstm_bits_identical_across_blas_thread_counts():
    """The LSTM's weight-gradient products over ~1,200 windows change last
    bits between one BLAS thread and two, which the CSV's 12 digits hide;
    the forecast arrays show them."""
    digests = {}
    for threads in ("1", "2"):
        run = _fresh_python("-c", LSTM_BITS_RUN, environ=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert run.returncode == 0, run.stderr
        digests[threads] = json.loads(run.stdout.splitlines()[-1])
    assert digests["1"] == digests["2"]


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs one command and prints the thread count of every OpenBLAS copy then
# loaded (numpy's, and scipy's once decomp solves): after each aggregate and
# fit, and inside each neural training epoch. With no command, it prints the
# count after a bare ``import numpy``.
BLAS_THREADS_RUN = """
import ctypes
import importlib
import json
import sys
from attrikit import cli

def blas_threads():
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    counts = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[path] = fn()
                break
    return counts

seen, in_fit = [], []

def probed(method):
    def wrapper(*args, **kwargs):
        in_fit.append(blas_threads())
        return method(*args, **kwargs)
    return wrapper

def counted(module, name):
    # The function is looked up at call time: taking it now would load numpy before main runs.
    def wrapper(*args, **kwargs):
        if name == "forecast_model":  # numpy is loaded by now, so the neural module may be too
            from attrikit import neural
            for model in (neural.LstmModel, neural.TcnModel):
                model.loss_and_grads = probed(model.loss_and_grads)
        result = getattr(importlib.import_module(module), name)(*args, **kwargs)
        seen.append(blas_threads())
        return result
    return wrapper

cli.aggregate = counted("attrikit.series", "aggregate")
cli.forecast_model = counted("attrikit.factories", "forecast_model")
if sys.argv[1:]:
    assert cli.main(sys.argv[1:]) == 0
else:
    import numpy
    seen.append(blas_threads())
print(json.dumps({"after": seen, "in_fit": in_fit}))
"""

# case -> (command flags besides --data and --out, variables the user set, whether the command runs BLAS on one thread)
BLAS_THREAD_CASES = {
    "aggregate": (["aggregate", "--granularity", "monthly"], {}, True),
    "arima": (["forecast", "--granularity", "monthly", "--model", "arima", "--horizon", "3"], {}, True),
    "decomp_daily": (["forecast", "--granularity", "daily", "--model", "decomp", "--horizon", "3"], {}, True),
    "lstm": (["forecast", "--granularity", "monthly", "--model", "lstm", "--epochs", "2", "--horizon", "3"], {}, True),
    "tcn": (["forecast", "--granularity", "monthly", "--model", "tcn", "--epochs", "2", "--horizon", "3"], {}, True),
    "arima_user_omp": (["forecast", "--granularity", "monthly", "--model", "arima", "--horizon", "3"],
                       {"OMP_NUM_THREADS": "2"}, False),
    "lstm_user_openblas": (["forecast", "--granularity", "monthly", "--model", "lstm", "--epochs", "2",
                            "--horizon", "3"], {"OPENBLAS_NUM_THREADS": "2"}, False),
}


def _blas_thread_counts(env, *argv):
    run = _fresh_python("-c", BLAS_THREADS_RUN, *argv, environ=env)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


@pytest.mark.parametrize("case", sorted(BLAS_THREAD_CASES))
def test_blas_threads_of_a_command(records_csv, tmp_path, case):
    """A command runs BLAS on one thread; a count the user set keeps what a
    bare ``import numpy`` gets. Neural training runs on one thread either way."""
    flags, user_set, one_thread = BLAS_THREAD_CASES[case]
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(user_set)
    (bare,) = _blas_thread_counts(env)["after"]
    if not bare:
        pytest.skip("no OpenBLAS thread-count symbol in numpy's BLAS")
    if not user_set and set(bare.values()) == {1}:
        pytest.skip("BLAS runs on one thread by default here: nothing to tell apart")
    expected = 1 if one_thread else set(bare.values()).pop()
    run = _blas_thread_counts(env, *flags, "--data", str(records_csv), "--out", str(tmp_path / "out"))
    seen, in_fit = run["after"], run["in_fit"]
    assert len(seen) == (1 if flags[0] == "aggregate" else 2)
    assert {count for counts in seen for count in counts.values()} == {expected}
    neural = "--epochs" in flags
    assert len(in_fit) == (2 if neural else 0)  # one probe per epoch
    assert {count for counts in in_fit for count in counts.values()} == ({1} if neural else set())
    if case == "decomp_daily":
        assert len(seen[-1]) == 2  # scipy's copy, which decomp's solve loads, is on one thread too


def test_main_leaves_the_environment_as_it_found_it(records_csv, tmp_path, monkeypatch):
    """Run in-process, main sets the BLAS thread count only while the command
    runs, whether it succeeds or exits 2 or 3."""
    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    during = []

    def recorded(*args, **kwargs):
        during.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return factories.forecast_model(*args, **kwargs)

    monkeypatch.setattr(cli, "forecast_model", recorded)
    (tmp_path / "bad.cfg").write_text("order=1,2\n")
    tiny = tmp_path / "tiny.csv"
    tiny.write_text(RECORDS_HEADER + "2022-03-01,tank,,destroyed,,,,\n")
    forecast = ["forecast", "--granularity", "monthly", "--horizon", "2", "--out", str(tmp_path / "o")]
    runs = [
        (["--data", str(records_csv), "--model", "arima"], 0, "1"),
        (["--data", str(records_csv), "--model", "lstm", "--epochs", "2", "--hidden", "3"], 0, "1"),
        (["--data", str(records_csv), "--model", "arima", "--config", str(tmp_path / "bad.cfg")], 2, None),
        (["--data", str(tiny), "--model", "arima"], 3, "1"),
    ]
    before = dict(os.environ)
    for flags, code, threads in runs:
        during.clear()
        assert main([*forecast, *flags]) == code
        assert dict(os.environ) == before
        assert during == ([] if code == 2 else [threads])


TRACED_NEURAL_RUN = """
import json
import sys
from datetime import date
sys.path.insert(0, sys.argv[1])
import numpy as np
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
from attrikit import neural
from attrikit.series import DAILY, CountSeries
series = CountSeries(DAILY, date(2022, 3, 1), 10.0 + np.arange(60) % 7, np.ones(60, dtype=bool))
{}
print(json.dumps(tracer.spans))
"""


def _traced_spans(code):
    run = _fresh_python("-c", TRACED_NEURAL_RUN.format(code), str(PERFBENCH))
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout.splitlines()[-1])


def test_benchmark_tracer_counts_lstm_epochs():
    """The benchmark counts epochs as Adam steps inside a fit; the LSTM kernel records no tape op."""
    spans = _traced_spans("neural.lstm_fit(series, neural.LstmSpec(lookback=5, hidden=3, epochs=4, "
                          "use_weekday=False))")
    (fit,) = [s for s in spans if s["name"] == "neural.lstm_fit"]
    adam = [s for s in spans if s["name"] == "autodiff.adam"]
    assert len(adam) == 4 and all(s["parent"] == fit["id"] for s in adam)
    assert fit["attrs"]["ops"] == 0
    assert not [s for s in spans if s["name"] == "autodiff.backward"]


def test_benchmark_tracer_counts_tcn_epochs():
    """The TCN kernels record no tape op, in training or in a forecast."""
    spans = _traced_spans("model = neural.tcn_fit(series, neural.TcnSpec(kernel=2, dilations=(1, 2), "
                          "channels=3, epochs=4))\nneural.tcn_forecast(model, series, 5)")
    (fit,) = [s for s in spans if s["name"] == "neural.tcn_fit"]
    adam = [s for s in spans if s["name"] == "autodiff.adam"]
    assert len(adam) == 4 and all(s["parent"] == fit["id"] for s in adam)
    assert fit["attrs"]["ops"] == 0
    assert not [s for s in spans if s["name"] == "autodiff.backward"]
    (forecast,) = [s for s in spans if s["name"] == "neural.tcn_forecast"]
    assert forecast["attrs"]["ops"] == 0


def test_missing_required_flags_exit_2(tmp_path):
    assert main(["forecast", "--model", "arima", "--out", str(tmp_path / "o")]) == 2
    assert main(["aggregate", "--data", "x.csv"]) == 2


def test_help_available():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    for command in ("ingest", "synth", "aggregate", "forecast", "backtest", "compare"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0


def test_backtest_equals_compare_of_one(records_csv, tmp_path, capsys):
    common = ["--data", str(records_csv), "--granularity", "monthly",
              "--initial-train", "20", "--step", "2", "--horizon", "2",
              "--n-trees", "25", "--lags", "1,2,3", "--ma-windows", "3"]
    bt_out, cmp_out = tmp_path / "bt", tmp_path / "cmp"
    assert main(["backtest", "--model", "gbt", "--out", str(bt_out), *common]) == 0
    assert main(["compare", "--models", "gbt", "--out", str(cmp_out), *common]) == 0

    bt_row = (bt_out / "backtest_gbt.csv").read_text().strip().split("\n")[1]
    cmp_row = (cmp_out / "comparison.csv").read_text().strip().split("\n")[1]
    assert bt_row == cmp_row

    printed = capsys.readouterr().out
    n_folds = int(bt_row.split(",")[-1])
    assert f"over {n_folds} folds" in printed


def _preset_cell(text: str):
    """A README preset: true/false, calendar words, an integer list in flag syntax, or a number."""
    if text in ("true", "false"):
        return text == "true"
    if text[0].isalpha():
        return frozenset(word.strip() for word in text.split(","))
    if "," in text or "-" in text[1:]:
        return _int_list(text)
    return float(text)


def test_readme_presets_table_matches_specs():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Defaults per granularity", 1)[1].split("\n## ", 1)[0]
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("|")][2:]
    documented = set()
    for model, field_text, flag, daily, monthly in rows:
        fields = tuple(field_text.split(", "))
        documented.update((model, field) for field in fields)
        for granularity, cell in (("daily", daily), ("monthly", monthly)):
            spec = factories._spec(model, granularity, 0, {})
            value = tuple(getattr(spec, f) for f in fields) if len(fields) > 1 else getattr(spec, fields[0])
            assert _preset_cell(cell) == value, (model, field_text, granularity)
        if flag != "none":
            option = OPTIONS[flag.strip("`-").replace("-", "_")]
            # --seed reaches the spec through forecast_model's seed argument.
            assert option.field == (fields if len(fields) > 1 else fields[0]) or fields == ("seed",), flag
    every_field = {(name, f.name) for name in factories.MODEL_NAMES
                   for f in dataclasses.fields(factories.MODELS[name][0])}
    assert documented == every_field
