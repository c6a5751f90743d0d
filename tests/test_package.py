"""The package root: its public names load their submodules on first use."""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import codlib
from codlib import (
    BitVec,
    CodMatrix,
    ColPerm,
    ConjVar,
    Entry,
    EquivalenceClass,
    ExtensionResult,
    InconsistencyCertificate,
    NegCol,
    NegRow,
    NegVar,
    RenameVar,
    RowPerm,
    SearchSpec,
    StructuralReport,
    VerificationReport,
    construct_g,
    extend_g,
)
from codlib.analysis import CheckResult


def test_every_public_name_resolves():
    namespace: dict = {}
    exec("from codlib import *", namespace)
    for name in codlib.__all__:
        assert getattr(codlib, name) is namespace[name]
    assert set(codlib.__all__) <= set(dir(codlib))
    assert len(set(codlib.__all__)) == len(codlib.__all__) == 35


@pytest.mark.parametrize("name", [
    "row_id", "zero_pattern", "shares_alamouti", "extract_bj", "BjForm",
    "MixedConjugationError", "bounds", "BoundsReport", "theta",
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


def test_no_submodule_imports_dataclasses():
    src = str(Path(codlib.__file__).parents[1])
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}  # no .pyc in src/
    code = (
        "import importlib, sys, codlib\n"
        "for name in codlib._EXPORTS: importlib.import_module('codlib.' + name)\n"
        "import codlib.cli, codlib.fileio\n"
        "print('codlib.oracle' in sys.modules, 'dataclasses' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "True False\n"


V, W, G1, CERT = BitVec(4, 3), BitVec(4, 5), construct_g(1), extend_g(3).certificate
# (record class, field values, frozen, a class with the same fields or None)
RECORDS = [
    (BitVec, (4, 3), True, None),
    (Entry, (V, -1, True), True, None),
    (CodMatrix, (G1.n, G1.codes, G1.ids), True, None),
    (VerificationReport, ((),), True, None),
    (RowPerm, ((2, 1),), True, ColPerm),
    (ColPerm, ((2, 1),), True, RowPerm),
    (ConjVar, (V,), True, NegVar),
    (NegVar, (V,), True, ConjVar),
    (RenameVar, (V, W), True, None),
    (NegRow, (1,), True, NegCol),
    (NegCol, (1,), True, NegRow),
    (CheckResult, ("x", [V]), False, None),
    (StructuralReport, ([CheckResult("x", [])],), False, None),
    (InconsistencyCertificate, (CERT.constraints,), False, None),
    (ExtensionResult, (None, CERT), False, None),
    (SearchSpec, (2, 2, 2, "free"), False, None),
    (EquivalenceClass, (G1, 1, G1), False, None),
]


@pytest.mark.parametrize(
    "cls, values, frozen, twin", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_compare_hash_and_print_by_their_fields(cls, values, frozen, twin):
    names = list(inspect.signature(cls).parameters)  # the fields, in order
    assert list(cls._fields) == names
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not a != b and a is not b
    assert all(getattr(a, f) is v for f, v in zip(names, values))
    if twin is not None:
        assert a != twin(*values)
    if cls is not BitVec:  # BitVec prints its bit string
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(names, values))
        assert repr(a) == f"{cls.__name__}({fields})"
    marker = object()
    if frozen:
        assert hash(a) == hash(b)
        for f in names:
            with pytest.raises(AttributeError):
                setattr(a, f, marker)
            with pytest.raises(AttributeError):
                delattr(a, f)
        assert a == b and all(getattr(a, f) is v for f, v in zip(names, values))
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
        setattr(a, names[0], marker)
        assert a != b and getattr(a, names[0]) is marker


def test_record_constructors_keep_their_checks():
    assert repr(RowPerm((2, 1))) == "RowPerm(perm=(2, 1))"
    assert repr(BitVec(4, 3)) == "BitVec('1100')"
    with pytest.raises(ValueError, match="length must be positive"):
        BitVec(0)
    with pytest.raises(ValueError, match="out of range"):
        BitVec(2, 4)
    with pytest.raises(ValueError, match="sign must be"):
        Entry(V, 2)
    assert SearchSpec(1, 1, 1).mode == "family" and Entry(V) == Entry(V, 1, False)
    assert ExtensionResult() == ExtensionResult(None, None)
