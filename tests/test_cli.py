import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import codlib
from codlib import construct_g, extend_g
from codlib.cli import _residual_line, main
from codlib.fileio import certificate_to_json, design_from_json, design_to_json
from conftest import make_eq3


def run(*argv):
    return main(list(argv))


@pytest.fixture
def g2_file(tmp_path):
    path = tmp_path / "g2.json"
    assert run("generate", "-m", "2", "-o", str(path)) == 0
    return path


def test_generate_and_verify(g2_file):
    assert run("verify", str(g2_file)) == 0
    assert run("verify", str(g2_file), "--numeric", "--trials", "5", "--seed", "3") == 0


@pytest.fixture
def bad_file(tmp_path, g2_file):
    doc = json.loads(g2_file.read_text())
    doc["entries"][0]["sign"] = "+"  # cell (1,1): -z(0110) becomes +z(0110)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_detects_invalid(bad_file, capsys):
    capsys.readouterr()
    assert run("verify", str(bad_file)) == 1
    assert capsys.readouterr().out.splitlines() == [
        "residual at columns 1,2: 1 monomial: -2 1010 0110*",
        "residual at columns 1,3: 1 monomial: +2 1100 0110*",
        "not orthogonal",
    ]


@pytest.mark.parametrize("option, err", [
    (["--trials", "0"], "error: trials must be >= 1, got 0\n"),
    (["--tol", "nan"], "error: tol must be finite and positive, got nan\n"),
], ids=["trials", "tol"])
def test_verify_rejects_a_numeric_option_before_the_design(g2_file, bad_file, capsys, option, err):
    capsys.readouterr()
    for design in (g2_file, bad_file):  # orthogonal, then not
        assert run("verify", str(design), "--numeric", *option) == 2
        assert capsys.readouterr() == ("", err)


def test_residual_line_names_at_most_three_monomials():
    z = [(mask, 2, conj) for mask in (1, 2) for conj in (False, True)]
    residual = (((z[0], z[1]), 1), ((z[0], z[3]), -1), ((z[2], z[3]), 2), ((z[1], z[2]), -3))
    assert _residual_line((2,), residual) == (
        "residual at column 2: 4 monomials: +1 10 10*, -1 10 01*, +2 01 01*, ..."
    )


def test_malformed_file_is_exit_3(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{]")
    assert run("verify", str(path)) == 3


G2 = json.loads(design_to_json(construct_g(2)))
G5 = json.loads(design_to_json(construct_g(3)))
CERT_TEXT = certificate_to_json(3, extend_g(3).certificate)
CERT = json.loads(CERT_TEXT)


def _edited(doc, **fields):
    return json.dumps({**doc, **fields})


MALFORMED = [
    (["verify"], _edited(G2, p="4")),
    (["verify"], _edited(G2, entries=[5] + G2["entries"][1:])),
    (["verify"], _edited(G2, entries=[{**G2["entries"][0], "var": 5}])),
    (["verify", "--certificate"], _edited(CERT, m="3")),
    (["verify", "--certificate"], _edited(CERT, version=2)),
    (["verify", "--certificate"], "[]"),
    (["verify", "--certificate"], None),
    (["analyze"], _edited(G5, m=2)),
    (["canonicalize"], _edited(G5, m=2)),
    (["verify"], _edited(G5, m=2)),
    (["export"], _edited(G5, m=2)),
    (["verify"], _edited(G2, p=400000, k=0, entries=[])),
    (["verify", "--certificate"], _edited(CERT, m=100000000)),
    (["verify", "--certificate"], _edited(CERT, constraints=[
        {**c, "parity": bool(c["parity"])} for c in CERT["constraints"]])),
]


@pytest.mark.parametrize(
    "command, text",
    MALFORMED,
    ids=[
        "p-string",
        "entry-not-object",
        "var-not-string",
        "cert-m-string",
        "cert-version",
        "cert-top-level-list",
        "cert-missing-file",
        "m-mismatch-analyze",
        "m-mismatch-canonicalize",
        "m-mismatch-verify",
        "m-mismatch-export",
        "p-too-large",
        "cert-m-too-large",
        "cert-parity-bool",
    ],
)
def test_malformed_input_is_exit_3(tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    assert run(command[0], str(path), *command[1:]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# Fuzz seeds, half of them valid: the valid documents, or a malformed case
# that parses.  An edited field gets a value that field has in a valid
# document, or any JSON value.
VALID = [G2, G5, CERT]
SEEDS = st.sampled_from(VALID) | st.sampled_from(
    [json.loads(text) for _, text in MALFORMED if text])
FIELD_VALUES: dict = {}  # key -> {JSON text: value}
for _doc in VALID:
    for _obj in [_doc] + [x for v in _doc.values() if isinstance(v, list) for x in v]:
        for _key, _value in _obj.items():
            FIELD_VALUES.setdefault(_key, {})[json.dumps(_value)] = _value
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text("01+-x", max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(sorted(FIELD_VALUES)), inner, max_size=3),
    max_leaves=4,
)


def _edit(data, doc):
    """Change or drop a field, or duplicate or remove a list entry, at the
    top or one level down."""
    lists = [doc] if isinstance(doc, list) else [v for v in doc.values() if isinstance(v, list)]
    if lists and data.draw(st.booleans()):
        items = data.draw(st.sampled_from(lists))
        i = data.draw(st.integers(0, max(len(items) - 1, 0)))
        how = data.draw(st.sampled_from(["duplicate", "remove", "edit"]))
        if how == "duplicate" and items:
            items.insert(i, json.loads(json.dumps(items[i])))
        elif how == "remove" and items:
            del items[i]
        elif items and isinstance(items[i], dict):
            _edit(data, items[i])
    elif isinstance(doc, dict):
        key = data.draw(st.sampled_from(sorted(set(doc) | set(FIELD_VALUES))))
        if data.draw(st.booleans()):
            doc.pop(key, None)
        else:
            value = data.draw(st.sampled_from(list(FIELD_VALUES[key].values())) | JSON_VALUES)
            doc[key] = json.loads(json.dumps(value))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "g2.json").write_text(design_to_json(construct_g(2)))
    return path


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_fuzzed_input_exits_cleanly(fuzz_dir, data):
    doc = json.loads(json.dumps(data.draw(SEEDS)))
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(data, doc)
    path, g2 = str(fuzz_dir / "in.json"), str(fuzz_dir / "g2.json")
    (fuzz_dir / "in.json").write_text(json.dumps(doc))
    for argv in (["verify", path], ["verify", path, "--certificate"],
                 ["canonicalize", path], ["equivalent", path, g2], ["analyze", path],
                 ["export", path], ["scramble", path, "--seed", "1", "--count", "3"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue() and "internal error" not in err.getvalue()


def test_usage_error_is_exit_2(tmp_path, capsys, g2_file):
    assert run("generate") == 2
    assert run("generate", "-m", "42") == 2
    assert run("bounds", "-n", "0") == 2
    assert run("bounds", "-n", "14500") == 2  # the delay has too many digits to print
    assert capsys.readouterr().out == ""
    assert run("scramble", str(g2_file), "--seed", "1", "--count", "0") == 2
    assert run("verify", str(g2_file), "--numeric", "--trials", "0") == 2
    assert run("verify", str(g2_file), "--numeric", "--tol", "0") == 2
    assert run("verify", str(g2_file), "--numeric", "--tol", "nan") == 2
    capsys.readouterr()
    e4 = str(tmp_path / "e4.json")  # the m=2 extension: n=4 is outside the family
    assert run("extend", "-m", "2", "-o", e4) == 0
    capsys.readouterr()
    assert run("canonicalize", e4) == 2
    assert run("equivalent", e4, e4) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: n must be odd (2m-1), got 4\n" * 2
    assert captured.out == ""
    no_dir = tmp_path / "missing" / "out"
    assert run("generate", "-m", "2", "-o", str(no_dir)) == 2
    out = str(tmp_path / "s.json")
    assert run("scramble", str(g2_file), "--seed", "1", "--count", "3",
               "-o", out, "--log", str(no_dir)) == 2
    assert run("extend", "-m", "3", "--certificate", str(no_dir)) == 2
    assert run("extend", "-m", "2", "-o", str(no_dir)) == 2
    captured = capsys.readouterr()
    assert f"error: cannot write {no_dir}: " in captured.err
    assert captured.out == ""  # a failed write leaves no verdict and no file
    assert not (tmp_path / "s.json").exists()
    empty = tmp_path / "empty.json"
    empty.write_text(_edited(G2, k=0, entries=[]))
    assert run("scramble", str(empty), "--seed", "1", "--count", "3") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_scramble_with_every_id_taken_is_exit_2(tmp_path, capsys):
    full = tmp_path / "full.json"
    cells = [{"row": r, "col": 1, "sign": "+", "conj": False, "var": v}
             for r, v in ((1, "0"), (2, "1"))]
    full.write_text(_edited(G2, m=1, p=2, n=1, k=2, entries=cells))
    assert run("scramble", str(full), "--seed", "5", "--count", "1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot rename") and "Traceback" not in err


def test_cli_start_up_does_not_import_numpy():
    src = str(Path(codlib.__file__).parents[1])
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}  # no .pyc in src/
    proc = subprocess.run(
        [sys.executable, "-c", "import codlib.cli, sys; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout == "False\n"


def _loaded_modules(cwd, code):
    """The modules that a fresh interpreter holds after running `code` in `cwd`."""
    src = str(Path(codlib.__file__).parents[1])
    env = {"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}  # no .pyc in src/
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env=env, check=True, cwd=cwd,
    )
    return set(proc.stderr.split())


CLI_COMMANDS = {
    "bounds": ["bounds", "-n", "9"],
    "generate": ["generate", "-m", "2", "-o", "out.json"],
    "verify": ["verify", "g.json"],
    "verify --numeric": ["verify", "g.json", "--numeric", "--trials", "1"],
    "verify --certificate": ["verify", "cert.json", "--certificate"],
    "canonicalize": ["canonicalize", "g.json"],
    "equivalent": ["equivalent", "g.json", "g.json"],
    "extend": ["extend", "-m", "3", "--certificate", "out.json"],
    "scramble": ["scramble", "g.json", "--seed", "1", "--count", "3", "--log", "ops.txt"],
    "analyze": ["analyze", "g.json"],
    "export": ["export", "g.json", "--format", "csv"],
}


@pytest.mark.parametrize("command", list(CLI_COMMANDS))
def test_cli_command_loads_only_what_it_runs(tmp_path, command):
    (tmp_path / "g.json").write_text(design_to_json(construct_g(2)))
    (tmp_path / "cert.json").write_text(CERT_TEXT)
    code = f"from codlib.cli import main; assert main({CLI_COMMANDS[command]!r}) in (0, 1)"
    loaded = _loaded_modules(tmp_path, code)
    ours = {name.split(".")[1] for name in loaded if name.startswith("codlib.")}
    assert "oracle" not in ours
    assert ("equivalence" in ours) == (command in ("scramble", "canonicalize", "equivalent"))
    assert ("generator" in ours) == (command in ("generate", "extend", "verify --certificate"))
    assert ("analysis" in ours) == (command in ("bounds", "analyze"))
    assert ("fileio" in ours) == (command != "bounds")
    assert ("numpy" in loaded) == (command == "verify --numeric")
    assert "dataclasses" not in loaded


def test_unexpected_exception_is_exit_4(monkeypatch, capsys):
    def boom(n):
        raise RuntimeError("boom")

    monkeypatch.setattr("codlib.analysis.max_rate", boom)
    assert run("bounds", "-n", "6") == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_canonicalize_and_equivalent(tmp_path, g2_file):
    eq3_path = tmp_path / "eq3.json"
    eq3_path.write_text(design_to_json(make_eq3()))
    assert run("equivalent", str(eq3_path), str(g2_file)) == 0

    canon_a = tmp_path / "ca.json"
    canon_b = tmp_path / "cb.json"
    assert run("canonicalize", str(eq3_path), "-o", str(canon_a)) == 0
    assert run("canonicalize", str(g2_file), "-o", str(canon_b)) == 0
    assert canon_a.read_text() == canon_b.read_text()


def test_extend_even_m(tmp_path):
    out = tmp_path / "ext.json"
    assert run("extend", "-m", "2", "-o", str(out)) == 0
    design = design_from_json(out.read_text())
    assert (design.p, design.n, design.k) == (4, 4, 3)


def test_extend_odd_m_writes_certificate(tmp_path):
    cert = tmp_path / "cert.json"
    assert run("extend", "-m", "3", "--certificate", str(cert)) == 1
    assert run("verify", str(cert), "--certificate") == 0


def test_bounds(capsys):
    assert run("bounds", "-n", "6") == 0
    out = capsys.readouterr().out
    assert "rate 2/3" in out and "delay 30" in out
    assert run("bounds", "-n", "1") == 0
    assert capsys.readouterr().out == "rate 1\ndelay 1\n"


def test_bounds_guard(capsys):
    assert run("bounds", "-n", "10001") == 2
    assert capsys.readouterr() == ("", "error: n must be <= 10000, got 10001\n")
    assert run("bounds", "-n", "10000") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rate 5001/10000" and out[1].startswith("delay ")


def test_scramble_round_trip(tmp_path, g2_file):
    scrambled = tmp_path / "s.json"
    log = tmp_path / "ops.txt"
    assert (
        run(
            "scramble",
            str(g2_file),
            "--seed",
            "7",
            "--count",
            "30",
            "-o",
            str(scrambled),
            "--log",
            str(log),
        )
        == 0
    )
    assert len(log.read_text().splitlines()) == 30
    assert run("equivalent", str(g2_file), str(scrambled)) == 0


def test_analyze(g2_file):
    assert run("analyze", str(g2_file)) == 0


def test_export_formats(tmp_path, g2_file):
    for fmt in ("json", "csv", "latex"):
        out = tmp_path / f"out.{fmt}"
        assert run("export", str(g2_file), "--format", fmt, "-o", str(out)) == 0
        assert out.read_text()
