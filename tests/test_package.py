"""The package surface: every public name, resolved from its module on first use."""

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import attrikit

# The home module of each public name, as the package exported them when it
# imported every module up front.
PUBLIC = {
    "errors": "AttrikitError ConvergenceError ModelError SchemaError",
    "evaluate": "BacktestSpec ForecastFactory MetricReport ModelComparison compare metrics rolling_backtest",
    "factories": "MODEL_NAMES build_factory default_factories forecast_model",
    "ingest": "Category GeoIndex IngestReport LossRecord Profile Regime Status default_profile "
              "generate_synthetic normalize_geo parse_records",
    "series": "CountSeries ExclusionWindow Forecast SupervisedMatrix aggregate apply_exclusions make_supervised",
}
HOME = {name: module for module, names in PUBLIC.items() for name in names.split()}


def test_all_lists_every_public_name():
    assert sorted(attrikit.__all__) == sorted([*HOME, "__version__"])


@pytest.mark.parametrize("name", sorted(HOME))
def test_public_name_is_its_home_module_object(name):
    assert getattr(attrikit, name) is getattr(importlib.import_module(f"attrikit.{HOME[name]}"), name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        attrikit.no_such_name
    with pytest.raises(ImportError):
        from attrikit import no_such_name  # noqa: F401


def test_version_matches_pyproject():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert attrikit.__version__ == re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)


FRESH_IMPORT_RUN = """
import json
import sys
import attrikit
listed = dir(attrikit)
bare = sorted(name for name in sys.modules if name == "numpy" or name.startswith("attrikit."))
namespace = {}
exec("from attrikit import *", namespace)
print(json.dumps({"dir": listed, "bare": bare, "star": sorted(namespace)}))
"""


def test_fresh_import_is_bare_and_lists_every_name():
    """``import attrikit`` loads no numpy and no submodule, yet ``dir`` and ``import *`` see every name."""
    package_root = str(Path(attrikit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", FRESH_IMPORT_RUN], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["bare"] == []
    assert set(attrikit.__all__) <= set(result["dir"])
    assert set(attrikit.__all__) <= set(result["star"])
