import json

import pytest

from codlib import BitVec, CodMatrix, Entry, construct_g, extend_g, scramble
from codlib.errors import MalformedFileError
from codlib.fileio import (
    certificate_from_json,
    certificate_to_json,
    design_from_json,
    design_to_csv,
    design_to_json,
    design_to_latex,
    op_from_line,
    op_to_line,
    ops_from_text,
    ops_to_text,
)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_design_round_trip(m):
    g = construct_g(m)
    assert design_from_json(design_to_json(g)) == g


def test_design_round_trip_after_scramble():
    s, _ = scramble(construct_g(3), seed=11, count=30)
    assert design_from_json(design_to_json(s)) == s


def test_serialization_is_deterministic():
    assert design_to_json(construct_g(3)) == design_to_json(construct_g(3))


def test_design_rejects_bad_json():
    with pytest.raises(MalformedFileError):
        design_from_json("not json at all")


def test_design_rejects_missing_field():
    with pytest.raises(MalformedFileError) as exc:
        design_from_json('{"format": "cod-design", "version": 1}')
    assert "m" in str(exc.value)


def test_design_rejects_out_of_range_cell():
    text = design_to_json(construct_g(1)).replace('"row": 1', '"row": 7')
    with pytest.raises(MalformedFileError) as exc:
        design_from_json(text)
    assert "entries[0]" in str(exc.value)


def test_design_rejects_wrong_variable_count():
    text = design_to_json(construct_g(2)).replace('"k": 3', '"k": 5')
    with pytest.raises(MalformedFileError):
        design_from_json(text)


@pytest.mark.parametrize(
    "load, text",
    [
        (design_from_json, design_to_json(construct_g(2))),
        (certificate_from_json, certificate_to_json(3, extend_g(3).certificate)),
    ],
    ids=["design", "certificate"],
)
def test_loaders_check_header(load, text):
    load(text)
    for bad in ("[]", text.replace('"version": 1', '"version": 2')):
        with pytest.raises(MalformedFileError):
            load(bad)


def test_certificate_round_trip():
    res = extend_g(3)
    text = certificate_to_json(3, res.certificate)
    m, constraints = certificate_from_json(text)
    assert m == 3
    assert constraints == res.certificate.constraints


def test_op_log_round_trip():
    _, ops = scramble(construct_g(2), seed=5, count=25)
    assert ops_from_text(ops_to_text(ops)) == ops


def test_op_log_format():
    from codlib import ColPerm, ConjVar, NegRow

    text = ops_to_text(
        [NegRow(3), ConjVar(construct_g(2).ids[0]), ColPerm((2, 1, 3))]
    )
    assert text == "negrow 3\nconjvar 1100\ncolperm 2 1 3\n"


def test_op_log_writes_and_reads_every_kind():
    from codlib import ColPerm, ConjVar, NegCol, NegRow, NegVar, RenameVar, RowPerm

    a, b = BitVec.from_string("1100"), BitVec.from_string("0011")
    ops = [RowPerm((2, 1)), ColPerm((1,)), ConjVar(a), NegVar(b), RenameVar(a, b),
           NegRow(3), NegCol(2)]
    text = ops_to_text(ops)
    assert text == ("rowperm 2 1\ncolperm 1\nconjvar 1100\nnegvar 0011\n"
                    "renamevar 1100 0011\nnegrow 3\nnegcol 2\n")
    assert ops_from_text(text) == ops
    with pytest.raises(TypeError):
        op_to_line(a)


@pytest.mark.parametrize("line", [
    "negrow 3 4", "negrow", "negcol 1 2", "conjvar 1100 junk", "conjvar",
    "negvar 1100 0011", "renamevar 1100 0011 1111", "renamevar 1100",
    "negrow x", "conjvar 12", "rowperm 1 x", "flip 1", "  ",
])
def test_op_line_rejects_a_malformed_line(line):
    with pytest.raises(MalformedFileError):
        op_from_line(line)


def test_op_log_error_names_its_line():
    with pytest.raises(MalformedFileError, match=r"\(at line 3\)$") as exc:
        ops_from_text("negrow 1\n\nnegrow 3 4\nnegcol 1\n")
    assert exc.value.location == "line 3"


def test_csv_and_latex_exports():
    g = construct_g(2)
    csv = design_to_csv(g)
    assert csv.splitlines()[0] == "-z3,-z2,z1"
    latex = design_to_latex(g)
    assert latex.startswith("\\begin{pmatrix}")
    assert "-z_{3} & -z_{2} & z_{1}" in latex


def _reference_json(cod):
    """The writer's bytes built the plain way: a dict per entry, then json.dumps."""
    entries = [
        {
            "row": r,
            "col": c,
            "var": str(e.var),
            "sign": "+" if e.sign > 0 else "-",
            "conj": e.conj,
        }
        for r in range(1, cod.p + 1)
        for c in range(1, cod.n + 1)
        if (e := cod.cells[r - 1][c - 1]) is not None
    ]
    doc = {
        "format": "cod-design",
        "version": 1,
        "m": cod.m,
        "p": cod.p,
        "n": cod.n,
        "k": cod.k,
        "entries": entries,
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "cod",
    [construct_g(m) for m in range(1, 7)]
    + [extend_g(4).design]
    + [scramble(construct_g(m), seed=m, count=40)[0] for m in range(2, 6)]
    + [CodMatrix.from_rows(1, [[None]])],
    ids=[f"g{m}" for m in range(1, 7)]
    + ["ext4"]
    + [f"scrambled{m}" for m in range(2, 6)]
    + ["no-entries"],
)
def test_writer_matches_json_dumps(cod):
    assert design_to_json(cod) == _reference_json(cod)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"conj": 0}, "conj must be boolean"),  # 0 == False as a dict key
        ({"sign": "*"}, "sign must be"),
        ({"col": 2}, "duplicate cell (1,2)"),
        ({"var": "10x0"}, "not a bit string"),
        ({"var": ["1100"]}, "var must be a bit string"),
    ],
    ids=["conj", "sign", "duplicate", "var-text", "var-type"],
)
def test_reused_var_text_is_still_checked_per_entry(bad, message):
    doc = json.loads(design_to_json(construct_g(2)))
    first, second, third = doc["entries"][:3]
    # entries[2] is a copy of the valid entries[0] moved to cell (1,3)
    again = {**first, "row": third["row"], "col": third["col"], **bad}
    text = json.dumps({**doc, "entries": [first, second, again]})
    with pytest.raises(MalformedFileError) as exc:
        design_from_json(text)
    assert "entries[2]" in str(exc.value)
    assert message in str(exc.value)


def test_loaded_cells_equal_fresh_entries():
    s, _ = scramble(construct_g(3), seed=4, count=40)
    loaded = design_from_json(design_to_json(s))
    for r, row in enumerate(loaded.cells):
        for c, e in enumerate(row):
            if e is not None:
                fresh = Entry(BitVec.from_string(str(e.var)), e.sign, e.conj)
                assert e == fresh == s.cells[r][c]
