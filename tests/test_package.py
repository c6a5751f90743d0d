"""The package root: its public names load their submodules on first use."""

import subprocess
import sys
from pathlib import Path

import pytest

import codlib


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from codlib import *", namespace)
    for name in codlib.__all__:
        assert getattr(codlib, name) is namespace[name]
    assert set(codlib.__all__) <= set(dir(codlib))
    assert len(set(codlib.__all__)) == len(codlib.__all__) == 36


@pytest.mark.parametrize("name", [
    "row_id", "zero_pattern", "shares_alamouti", "extract_bj", "BjForm",
    "MixedConjugationError", "bounds", "BoundsReport",
])
def test_removed_name_is_an_attribute_error(name):
    with pytest.raises(AttributeError):
        getattr(codlib, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        codlib.no_such_name
    assert not hasattr(codlib, "no_such_name")


def test_import_loads_a_submodule_on_first_use():
    src = str(Path(codlib.__file__).parents[1])
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}  # no .pyc in src/
    code = (
        "import sys, codlib\n"
        "print(sorted(m for m in sys.modules if m.startswith('codlib')))\n"
        "from codlib import construct_g\n"
        "print(sorted(m for m in sys.modules if m.startswith('codlib')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.splitlines() == [
        "['codlib']",
        "['codlib', 'codlib.bitvec', 'codlib.errors', 'codlib.generator', 'codlib.model']",
    ]
