"""The Monte Carlo and study names load their modules on first use.

Each check of what loads runs in a fresh interpreter, since the test
process has loaded both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import stacktol

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_neither_module():
    # nor dataclasses, which would load inspect, ast, dis and tokenize on every run
    _run("""
import sys
before = set(sys.modules)
import stacktol
assert "stacktol.montecarlo" not in sys.modules
assert "stacktol.study" not in sys.modules
loaded = {"dataclasses", "inspect"} & (set(sys.modules) - before)
assert not loaded, loaded
""")


def test_star_import_binds_every_name():
    _run("""
import stacktol
ns = {}
exec("from stacktol import *", ns)
missing = [n for n in stacktol.__all__ if n not in ns]
assert not missing, missing
from stacktol import montecarlo, study
assert ns["McConfig"] is montecarlo.McConfig and ns["run_study"] is study.run_study
""")


def test_dir_lists_the_lazy_names():
    _run("""
import sys
import stacktol
names = dir(stacktol)
missing = [n for n in [*stacktol.__all__, "montecarlo", "study"] if n not in names]
assert not missing, missing
assert "stacktol.montecarlo" not in sys.modules, "dir loaded the Monte Carlo module"
""")


@pytest.mark.parametrize("name,loaded", [
    ("mc_quantile", "stacktol.montecarlo"),
    ("StudyRow", "stacktol.study"),
    ("montecarlo", "stacktol.montecarlo"),
])
def test_first_use_loads_the_module_once(name, loaded):
    _run(f"""
import sys
import stacktol
value = getattr(stacktol, {name!r})
assert {loaded!r} in sys.modules
assert vars(stacktol)[{name!r}] is value, "the name was not bound in the package"
assert getattr(stacktol, {name!r}) is value
""")


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stacktol.no_such_name
