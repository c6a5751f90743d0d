"""Versioned file formats: designs, certificates, op logs, exports.

The interchange format is JSON with a version field and one entry object
per nonzero cell, sorted by (row, col).  Output is deterministic: no
timestamps, stable key order.  The design writer emits the bytes of
json.dumps(doc, indent=1, sort_keys=True) directly, from one template per
cell code; the loader writes cell codes and parses each distinct variable
text once.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import compress
from typing import TYPE_CHECKING, Callable, NoReturn, Optional, Sequence

from .bitvec import BitVec
from .errors import MalformedFileError
from .model import M_MAX, CodMatrix

if TYPE_CHECKING:  # design I/O loads neither module
    from .equivalence import EquivOp
    from .generator import Constraint, InconsistencyCertificate

DESIGN_FORMAT = "cod-design"
CERT_FORMAT = "cod-certificate"
FORMAT_VERSION = 1


# One nonzero cell and the document around the cells, exactly as
# json.dumps(doc, indent=1, sort_keys=True) lays them out.  The column and
# row are filled in last, so each cell code's template is built once.
_ENTRY = (
    '  {\n   "col": %s,\n   "conj": %s,\n   "row": %s,\n'
    '   "sign": "%s",\n   "var": "%s"\n  }'
)
_DESIGN = (
    '{\n "entries": %s,\n "format": "%s",\n "k": %d,\n "m": %d,\n'
    ' "n": %d,\n "p": %d,\n "version": %d\n}\n'
)


def design_to_json(cod: CodMatrix) -> str:
    n, codes, names = cod.n, cod.codes, list(map(str, cod.ids))
    templates: dict[int, str] = {}
    entries = []
    for pos in compress(range(len(codes)), codes):
        code = codes[pos]
        t = templates.get(code)
        if t is None:
            t = templates[code] = _ENTRY % (
                "%d", "true" if code & 2 else "false", "%d",
                "-" if code & 1 else "+", names[(code >> 2) - 1],
            )
        r, c = divmod(pos, n)
        entries.append(t % (c + 1, r + 1))
    text = "[\n" + ",\n".join(entries) + "\n ]" if entries else "[]"
    return _DESIGN % (
        text, DESIGN_FORMAT, cod.k, cod.m, cod.n, cod.p, FORMAT_VERSION
    )


def _require(doc, key: str, where: str):
    if not isinstance(doc, dict):
        raise MalformedFileError("expected an object", where)
    if key not in doc:
        raise MalformedFileError(f"missing field {key!r}", where)
    return doc[key]


def _int(doc, key: str, where: str, low: int, high: float = math.inf) -> int:
    value = _require(doc, key, where)
    if type(value) is not int or not low <= value <= high:
        raise MalformedFileError(
            f"{key} {value!r} is not an integer in {low}..{high}", where
        )
    return value


def _list(doc: dict, key: str) -> list:
    value = _require(doc, key, "document")
    if not isinstance(value, list):
        raise MalformedFileError(f"{key} must be a list, got {value!r}", key)
    return value


def _bitvec(item, key: str, where: str) -> BitVec:
    text = _require(item, key, where)
    if not isinstance(text, str):
        raise MalformedFileError(f"{key} must be a bit string, got {text!r}", where)
    try:
        return BitVec.from_string(text)
    except ValueError as exc:
        raise MalformedFileError(str(exc), where)


def _load(text: str, fmt: str) -> dict:
    """Parse a versioned JSON document and check its format and version."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"not valid JSON: {exc}", f"line {exc.lineno}")
    if _require(doc, "format", "document") != fmt:
        raise MalformedFileError(f"unexpected format {doc['format']!r}", "format")
    if _require(doc, "version", "document") != FORMAT_VERSION:
        raise MalformedFileError(
            f"unsupported version {doc['version']!r}", "version"
        )
    return doc


def _reject_entry(item, where: str, p: int, n: int, codes: array) -> NoReturn:
    """Raise the error of the first check that the cell entry `item` fails."""
    r = _int(item, "row", where, 1, p)
    c = _int(item, "col", where, 1, n)
    if codes[(r - 1) * n + c - 1]:
        raise MalformedFileError(f"duplicate cell ({r},{c})", where)
    sign = _require(item, "sign", where)
    if sign not in ("+", "-"):
        raise MalformedFileError(f"sign must be '+' or '-', got {sign!r}", where)
    conj = _require(item, "conj", where)
    if not isinstance(conj, bool):
        raise MalformedFileError(f"conj must be boolean, got {conj!r}", where)
    _bitvec(item, "var", where)
    raise AssertionError(f"{where} passed every check")


def design_from_json(text: str) -> CodMatrix:
    doc = _load(text, DESIGN_FORMAT)
    m = _int(doc, "m", "document", 1)
    # no design codlib builds is larger than the m = M_MAX extension
    p = _int(doc, "p", "document", 1, math.comb(2 * M_MAX, M_MAX - 1))
    n = _int(doc, "n", "document", 1, 2 * M_MAX)
    k = _int(doc, "k", "document", 0)
    if m != (n + 1) // 2:
        raise MalformedFileError(f"m={m} but n={n} needs m={(n + 1) // 2}", "m")
    codes = array("q", bytes(8 * p * n))
    table: list[BitVec] = []  # var_id - 1 -> variable, in order of first use
    var_ids: dict[str, int] = {}  # var text -> var_id << 2
    for idx, item in enumerate(_list(doc, "entries")):
        # Inline checks; only an entry that fails one pays for a location.
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
        except (TypeError, KeyError):  # not an object, or a field is missing
            ok = False
        if not ok:
            _reject_entry(item, f"entries[{idx}]", p, n, codes)
        v = var_ids.get(text)
        if v is None:  # a text is known only once _bitvec has accepted it
            table.append(_bitvec(item, "var", f"entries[{idx}]"))
            v = var_ids[text] = len(table) << 2
        codes[pos] = v | conj << 1 | (sign == "-")
    if len(table) != k:
        raise MalformedFileError(
            f"declared k={k} but {len(table)} distinct variables appear", "k"
        )
    return CodMatrix._from_codes(n, codes, table)


# -- certificates ----------------------------------------------------------


def certificate_to_json(m: int, cert: InconsistencyCertificate) -> str:
    doc = {
        "format": CERT_FORMAT,
        "version": FORMAT_VERSION,
        "m": m,
        "constraints": [
            {"a": str(a), "b": str(b), "parity": c}
            for a, b, c in cert.constraints
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def certificate_from_json(text: str) -> tuple[int, list[Constraint]]:
    doc = _load(text, CERT_FORMAT)
    m = _int(doc, "m", "document", 1, M_MAX)
    constraints = []
    for idx, item in enumerate(_list(doc, "constraints")):
        where = f"constraints[{idx}]"
        a = _bitvec(item, "a", where)
        b = _bitvec(item, "b", where)
        constraints.append((a, b, _int(item, "parity", where, 0, 1)))
    return m, constraints


# -- op logs ---------------------------------------------------------------


def _op_kinds() -> dict[str, tuple[type, Callable[[str], object], Optional[int]]]:
    """kind -> (op class, argument parser, argument count or None for any)."""
    from .equivalence import ColPerm, ConjVar, NegCol, NegRow, NegVar, RenameVar, RowPerm

    bits = BitVec.from_string
    return {
        "rowperm": (RowPerm, int, None),
        "colperm": (ColPerm, int, None),
        "conjvar": (ConjVar, bits, 1),
        "negvar": (NegVar, bits, 1),
        "renamevar": (RenameVar, bits, 2),
        "negrow": (NegRow, int, 1),
        "negcol": (NegCol, int, 1),
    }


def op_to_line(op: EquivOp) -> str:
    for kind, (cls, _, count) in _op_kinds().items():
        if isinstance(op, cls):
            args = tuple(vars(op).values())
            return kind + " " + " ".join(map(str, args if count else args[0]))
    raise TypeError(f"unknown op {op!r}")


def op_from_line(line: str) -> EquivOp:
    parts = line.split()
    if not parts:
        raise MalformedFileError("empty op line")
    kind, args = parts[0], parts[1:]
    if kind not in (kinds := _op_kinds()):
        raise MalformedFileError(f"unknown op kind {kind!r}")
    cls, parse, count = kinds[kind]
    try:
        if count is not None and len(args) != count:
            raise ValueError(f"{kind} takes {count} argument(s), got {len(args)}")
        values = [parse(a) for a in args]
    except ValueError as exc:
        raise MalformedFileError(f"bad op line {line!r}: {exc}")
    return cls(*values) if count else cls(tuple(values))


def ops_to_text(ops: Sequence[EquivOp]) -> str:
    return "".join(op_to_line(op) + "\n" for op in ops)


def ops_from_text(text: str) -> list[EquivOp]:
    ops = []
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                ops.append(op_from_line(line))
            except MalformedFileError as exc:
                raise MalformedFileError(str(exc), f"line {number}") from None
    return ops


# -- human-readable exports ------------------------------------------------


def _cell_text(code: int, name: str, star: str) -> str:
    """A cell as text: 0, or the sign, `name` % var_id and the star if conjugated."""
    if not code:
        return "0"
    return ("-" if code & 1 else "") + name % (code >> 2) + (star if code & 2 else "")


def _rows_text(cod: CodMatrix, name: str, star: str, sep: str) -> list[str]:
    n, codes = cod.n, cod.codes
    return [
        sep.join(_cell_text(code, name, star) for code in codes[i:i + n])
        for i in range(0, len(codes), n)
    ]


def design_to_csv(cod: CodMatrix) -> str:
    return "".join(line + "\n" for line in _rows_text(cod, "z%d", "*", ","))


def design_to_latex(cod: CodMatrix) -> str:
    body = " \\\\\n".join(_rows_text(cod, "z_{%d}", "^*", " & "))
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"
