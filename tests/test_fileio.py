import json
import math
import random
import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from codlib import BitVec, CodMatrix, Entry, construct_g, extend_g, scramble
from codlib.errors import MalformedFileError
from codlib.fileio import (
    DESIGN_FORMAT,
    _bitvec,
    _check_header,
    _decode,
    _int,
    _list,
    _reject_entry,
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
from codlib.model import M_MAX


@pytest.mark.parametrize(
    "cod, shuffle",
    [(construct_g(m), False) for m in range(1, 8)]
    + [(extend_g(4).design, False), (scramble(construct_g(4), seed=6, count=40)[0], True)],
    ids=[str(m) for m in range(1, 8)] + ["ext4", "scrambled-shuffled"],
)
def test_design_round_trip(cod, shuffle):
    text = design_to_json(cod)
    if shuffle:  # the entries meet the variables in another order than the table
        doc = json.loads(text)
        random.Random(3).shuffle(doc["entries"])
        first_use = list(dict.fromkeys(e["var"] for e in doc["entries"]))
        assert first_use != list(map(str, cod.ids))
        text = json.dumps(doc)
    assert design_from_json(text) == cod


def test_design_round_trip_after_scramble():
    s, _ = scramble(construct_g(3), seed=11, count=30)
    assert design_from_json(design_to_json(s)) == s


def test_serialization_is_deterministic():
    assert design_to_json(construct_g(3)) == design_to_json(construct_g(3))


def test_design_rejects_bad_json():
    with pytest.raises(MalformedFileError):
        design_from_json("not json at all")


# Texts that json.loads refuses with RecursionError or ValueError, not
# JSONDecodeError: nesting deeper than the recursion limit, and an integer
# literal longer than the 4300-digit conversion limit.
UNBUILDABLE_JSON = {"deep-nesting": "[" * 100_000 + "]" * 100_000, "long-integer": "1" * 5000}


@pytest.mark.parametrize("load", [design_from_json, certificate_from_json])
@pytest.mark.parametrize("name", sorted(UNBUILDABLE_JSON))
def test_loaders_reject_json_that_json_loads_cannot_build(load, name):
    with pytest.raises(MalformedFileError) as exc:
        load(UNBUILDABLE_JSON[name])
    assert exc.value.location == "document"


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


@pytest.mark.parametrize(
    "load, text",
    [
        (design_from_json, design_to_json(construct_g(2))),
        (certificate_from_json, certificate_to_json(3, extend_g(3).certificate)),
    ],
    ids=["design", "certificate"],
)
@pytest.mark.parametrize("version", ["true", "1.0"])
def test_loaders_reject_a_version_equal_to_1_that_is_not_an_int(load, text, version):
    with pytest.raises(MalformedFileError) as exc:
        load(text.replace('"version": 1', f'"version": {version}'))
    assert str(exc.value) == f"unsupported version {json.loads(version)!r} (at version)"


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
    "negrow x", "conjvar 12", "rowperm 1 x", "flip 1", "  ", "rowperm", "colperm",
])
def test_op_line_rejects_a_malformed_line(line):
    with pytest.raises(MalformedFileError):
        op_from_line(line)


def test_op_log_error_names_its_line():
    with pytest.raises(MalformedFileError, match=r"\(at line 3\)$") as exc:
        ops_from_text("negrow 1\n\nnegrow 3 4\nnegcol 1\n")
    assert exc.value.location == "line 3"


def _reference_rows(cod, name, star):
    """Each row's cell texts, built per cell from `cod.cells`."""
    def text(e):
        if e is None:
            return "0"
        sign = "-" if e.sign < 0 else ""
        return sign + name % (cod.ids.index(e.var) + 1) + (star if e.conj else "")

    return [[text(e) for e in row] for row in cod.cells]


def test_csv_and_latex_exports():
    g = construct_g(2)
    csv = design_to_csv(g)
    assert csv.splitlines()[0] == "-z3,-z2,z1"
    latex = design_to_latex(g)
    assert latex.startswith("\\begin{pmatrix}")
    assert "-z_{3} & -z_{2} & z_{1}" in latex
    for cod in (construct_g(5), scramble(construct_g(4), seed=8, count=60)[0]):
        rows = _reference_rows(cod, "z%d", "*")
        assert design_to_csv(cod) == "".join(",".join(row) + "\n" for row in rows)
        rows = _reference_rows(cod, "z_{%d}", "^*")
        assert design_to_latex(cod) == (
            "\\begin{pmatrix}\n"
            + " \\\\\n".join(" & ".join(row) for row in rows)
            + "\n\\end{pmatrix}\n"
        )


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
    [construct_g(m) for m in range(1, 8)]
    + [extend_g(4).design]
    + [scramble(construct_g(m), seed=m, count=40)[0] for m in range(2, 6)]
    + [CodMatrix.from_rows(1, [[None]])]
    # the first entry sits after a row of zeros
    + [CodMatrix.from_rows(2, [[None] * 3, *construct_g(2).cells])],
    ids=[f"g{m}" for m in range(1, 8)]
    + ["ext4"]
    + [f"scrambled{m}" for m in range(2, 6)]
    + ["no-entries", "zero-first-row"],
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


def _reference_design_from_json(text):
    """The loader as it was before cell entries were folded while decoding:
    json.loads keeps one dict per entry, one pass checks each dict and
    numbers the variables in order of first use, then a second pass
    rewrites every code to follow the sorted table."""
    doc = _check_header(_decode(text), DESIGN_FORMAT)
    m = _int(doc, "m", "document", 1)
    p = _int(doc, "p", "document", 1, math.comb(2 * M_MAX, M_MAX - 1))
    n = _int(doc, "n", "document", 1, 2 * M_MAX)
    k = _int(doc, "k", "document", 0)
    if m != (n + 1) // 2:
        raise MalformedFileError(f"m={m} but n={n} needs m={(n + 1) // 2}", "m")
    codes = array("q", bytes(8 * p * n))
    table = []
    var_ids = {}
    for idx, item in enumerate(_list(doc, "entries")):
        try:
            r, c, sign, conj, text = (
                item["row"], item["col"], item["sign"], item["conj"], item["var"]
            )
            ok = (
                type(r) is int and 0 < r <= p and type(c) is int and 0 < c <= n
                and not codes[pos := (r - 1) * n + c - 1]
                and (sign == "+" or sign == "-") and type(conj) is bool
                and type(text) is str
            )
        except (TypeError, KeyError):
            ok = False
        if not ok:
            _reject_entry(item, f"entries[{idx}]", p, n, codes)
        v = var_ids.get(text)
        if v is None:
            table.append(_bitvec(item, "var", f"entries[{idx}]"))
            v = var_ids[text] = len(table) << 2
        codes[pos] = v | conj << 1 | (sign == "-")
    if len(table) != k:
        raise MalformedFileError(
            f"declared k={k} but {len(table)} distinct variables appear", "k"
        )
    # renumber the variables, met in order of first use, by the sorted table
    order = sorted(range(k), key=lambda i: (table[i].mask, table[i].length))
    recode = [0] * (4 * k + 4)  # first-use code -> final code
    for new, old in enumerate(order, 1):
        for flags in range(4):
            recode[old + 1 << 2 | flags] = new << 2 | flags
    codes = array("q", map(recode.__getitem__, codes))
    return CodMatrix(n, codes, tuple(table[i] for i in order))


def _outcome(load, text):
    """The design `load` returns, or the type, message and location of its error."""
    try:
        return load(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "location", None)


def _assert_loaders_agree(text):
    assert _outcome(design_from_json, text) == _outcome(_reference_design_from_json, text)


G3_DOC = json.loads(design_to_json(construct_g(2)))
SCRAMBLED_DOC = json.loads(design_to_json(scramble(construct_g(3), seed=2, count=30)[0]))
ENTRY = G3_DOC["entries"][0]


def _with(doc, path, value):
    """A deep copy of `doc` with `value` at `path`, a list of keys and indices."""
    doc = json.loads(json.dumps(doc))
    *inner, last = path
    target = doc
    for key in inner:
        target = target[key]
    target[last] = value
    return doc


NAMED = {
    "cell-as-document": ENTRY,
    "cell-as-m": _with(G3_DOC, ["m"], ENTRY),
    "cell-as-row": _with(G3_DOC, ["entries", 1, "row"], ENTRY),
    "cell-under-unknown-key": _with(G3_DOC, ["notes"], ENTRY),
    "cell-in-unknown-list": _with(G3_DOC, ["notes"], [5, ENTRY]),
    "cell-as-format": _with(G3_DOC, ["format"], {"x": ENTRY}),
    "keys-reversed": _with(G3_DOC, ["entries"], [
        dict(reversed(e.items())) for e in G3_DOC["entries"]]),
    "extra-keys": _with(G3_DOC, ["entries"], [
        {**e, "note": [e["var"]], "rows": 0} for e in G3_DOC["entries"]]),
    "conj-0": _with(G3_DOC, ["entries", 2, "conj"], 0),
    "conj-1": _with(G3_DOC, ["entries", 0, "conj"], 1),
    "var-text-rejected-later": _with(G3_DOC, ["entries", 4, "var"], "01x0"),
    "duplicate-folded-cell": _with(G3_DOC, ["entries", 3], G3_DOC["entries"][0]),
    # k counts only the entries' variables, not a folded cell's elsewhere
    "unused-var-under-unknown-key": _with(G3_DOC, ["notes"], {**ENTRY, "var": "1111"}),
    # the refused text is parsed before the loop; the earlier entry still fails first
    "bad-row-before-bad-var-text": _with(
        _with(G3_DOC, ["entries", 1, "row"], 9), ["entries", 3, "var"], "10x0"),
}


@pytest.mark.parametrize("doc", list(NAMED.values()), ids=list(NAMED))
def test_loader_matches_the_reference_on_named_cases(doc):
    _assert_loaders_agree(json.dumps(doc))


CELL_VALUES = {  # cell field -> values of a valid type, then of another
    "row": ([1, 2, 3, 0, 5], [True, "1", 1.0]),
    "col": ([1, 2, 3, 4, -1], [False, None]),
    "sign": (["+", "-"], ["*", 1, None]),
    "conj": ([True, False], [0, 1, "true"]),
    "var": (["1100", "0110", "1010", "1111", "10x0", ""], [["1100"], 5]),
}
FIELD_VALUES = {  # any field -> values to set it to
    **{key: valid + other for key, (valid, other) in CELL_VALUES.items()},
    "m": [2, 3, "2"], "p": [4, 15, 0], "n": [3, 4, 5], "k": [3, 10, 4],
    "format": ["cod-design", "cod-certificate"], "version": [1, 2], "entries": [[]],
}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text("01+-x", max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(sorted(CELL_VALUES)), inner, max_size=3),
    max_leaves=4,
)


@st.composite
def cells(draw):
    """A cell-shaped object: the five fields in any order, each of a valid
    type or, half the time, of any type, and maybe one more key."""
    typed = draw(st.booleans())
    cell = {}
    for key in draw(st.permutations(sorted(CELL_VALUES))):
        valid, other = CELL_VALUES[key]
        cell[key] = draw(st.sampled_from(valid if typed else valid + other))
    if draw(st.booleans()):
        cell[draw(st.sampled_from(["note", "m", "entries"]))] = draw(JSON_VALUES)
    return cell


def _edit(data, doc):
    """Set or drop a field of the document or of one of its list items, or
    duplicate, remove or insert a list item.  A new value is one a field
    takes, a cell-shaped object or any JSON value."""
    lists = [v for v in doc.values() if isinstance(v, list)]
    how = data.draw(st.sampled_from(["set", "drop", "duplicate", "remove", "insert"]))
    target = doc
    if lists and data.draw(st.booleans()):
        items = data.draw(st.sampled_from(lists))
        i = data.draw(st.integers(0, len(items)))
        if how == "insert":
            items.insert(i, data.draw(cells() | JSON_VALUES))
            return
        if i == len(items):
            return
        if how == "duplicate":
            items.insert(i, json.loads(json.dumps(items[i])))
            return
        if how == "remove":
            del items[i]
            return
        if not isinstance(items[i], dict):
            return
        target = items[i]
    key = data.draw(st.sampled_from(sorted(set(target) | set(FIELD_VALUES) | {"notes"})))
    if how == "drop":
        target.pop(key, None)
    elif key in FIELD_VALUES and data.draw(st.booleans()):  # a copy: later edits change it
        target[key] = json.loads(json.dumps(data.draw(st.sampled_from(FIELD_VALUES[key]))))
    else:
        target[key] = data.draw(cells() | JSON_VALUES)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data())
def test_loader_matches_the_reference_on_edited_documents(data):
    doc = json.loads(json.dumps(data.draw(st.sampled_from([G3_DOC, SCRAMBLED_DOC]))))
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(data, doc)
    entries = doc.get("entries")
    if isinstance(entries, list) and data.draw(st.booleans()):  # keys in another order
        doc["entries"] = [dict(reversed(e.items())) if isinstance(e, dict) else e
                          for e in entries]
    _assert_loaders_agree(json.dumps(doc))


def _traced_peak(call, *args) -> int:
    """The most memory that `call(*args)` held at once, its result included."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_design_json_holds_no_object_per_cell():
    g = construct_g(6)
    text = design_to_json(g)
    assert _traced_peak(design_to_json, g) < 2.5 * len(text)
    assert _traced_peak(design_from_json, text) < 2.5 * len(text)
