"""Versioned file formats: designs, certificates, op logs, exports.

The interchange format is JSON with a version field and one entry object
per nonzero cell, sorted by (row, col).  Output is deterministic: no
timestamps, stable key order.  The design writer emits the bytes of
json.dumps(doc, indent=1, sort_keys=True) directly, from one template per
entry; the loader builds each distinct (var, sign, conj) entry once.
"""

from __future__ import annotations

import json
import math
from typing import Sequence

from .bitvec import BitVec
from .equivalence import (
    ColPerm,
    ConjVar,
    EquivOp,
    NegCol,
    NegRow,
    NegVar,
    RenameVar,
    RowPerm,
)
from .errors import MalformedFileError
from .generator import M_MAX, Constraint, InconsistencyCertificate
from .model import CodMatrix, Entry

DESIGN_FORMAT = "cod-design"
CERT_FORMAT = "cod-certificate"
FORMAT_VERSION = 1


# One nonzero cell and the document around the cells, exactly as
# json.dumps(doc, indent=1, sort_keys=True) lays them out.
_ENTRY = (
    '  {\n   "col": %d,\n   "conj": %s,\n   "row": %d,\n'
    '   "sign": "%s",\n   "var": "%s"\n  }'
)
_DESIGN = (
    '{\n "entries": %s,\n "format": "%s",\n "k": %d,\n "m": %d,\n'
    ' "n": %d,\n "p": %d,\n "version": %d\n}\n'
)


def design_to_json(cod: CodMatrix) -> str:
    entries = ",\n".join(
        _ENTRY % (c, "true" if e.conj else "false", r, "+" if e.sign > 0 else "-", e.var)
        for r, row in enumerate(cod.cells, start=1)
        for c, e in enumerate(row, start=1)
        if e is not None
    )
    entries = f"[\n{entries}\n ]" if entries else "[]"
    return _DESIGN % (
        entries, DESIGN_FORMAT, cod.k, cod.m, cod.n, cod.p, FORMAT_VERSION
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


def design_from_json(text: str) -> CodMatrix:
    doc = _load(text, DESIGN_FORMAT)
    m = _int(doc, "m", "document", 1)
    # no design codlib builds is larger than the m = M_MAX extension
    p = _int(doc, "p", "document", 1, math.comb(2 * M_MAX, M_MAX - 1))
    n = _int(doc, "n", "document", 1, 2 * M_MAX)
    k = _int(doc, "k", "document", 0)
    if m != (n + 1) // 2:
        raise MalformedFileError(f"m={m} but n={n} needs m={(n + 1) // 2}", "m")
    rows: list[list] = [[None] * n for _ in range(p)]
    built: dict[tuple, Entry] = {}  # (var text, sign, conj) -> its Entry
    for idx, item in enumerate(_list(doc, "entries")):
        where = f"entries[{idx}]"
        r = _int(item, "row", where, 1, p)
        c = _int(item, "col", where, 1, n)
        if rows[r - 1][c - 1] is not None:
            raise MalformedFileError(f"duplicate cell ({r},{c})", where)
        sign = _require(item, "sign", where)
        if sign not in ("+", "-"):
            raise MalformedFileError(f"sign must be '+' or '-', got {sign!r}", where)
        conj = _require(item, "conj", where)
        if not isinstance(conj, bool):
            raise MalformedFileError(f"conj must be boolean, got {conj!r}", where)
        key = (item.get("var"), sign, conj)
        entry = built.get(key) if isinstance(key[0], str) else None
        if entry is None:  # cached only once _bitvec has accepted the text
            var = _bitvec(item, "var", where)
            entry = built[key] = Entry(var, 1 if sign == "+" else -1, conj)
        rows[r - 1][c - 1] = entry
    cod = CodMatrix.from_rows(m, rows)
    if cod.k != k:
        raise MalformedFileError(
            f"declared k={k} but {cod.k} distinct variables appear", "k"
        )
    return cod


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


def op_to_line(op: EquivOp) -> str:
    if isinstance(op, RowPerm):
        return "rowperm " + " ".join(map(str, op.perm))
    if isinstance(op, ColPerm):
        return "colperm " + " ".join(map(str, op.perm))
    if isinstance(op, ConjVar):
        return f"conjvar {op.var}"
    if isinstance(op, NegVar):
        return f"negvar {op.var}"
    if isinstance(op, RenameVar):
        return f"renamevar {op.old} {op.new}"
    if isinstance(op, NegRow):
        return f"negrow {op.row}"
    if isinstance(op, NegCol):
        return f"negcol {op.col}"
    raise TypeError(f"unknown op {op!r}")


def op_from_line(line: str) -> EquivOp:
    parts = line.split()
    if not parts:
        raise MalformedFileError("empty op line")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "rowperm":
            return RowPerm(tuple(int(a) for a in args))
        if kind == "colperm":
            return ColPerm(tuple(int(a) for a in args))
        if kind == "conjvar":
            return ConjVar(BitVec.from_string(args[0]))
        if kind == "negvar":
            return NegVar(BitVec.from_string(args[0]))
        if kind == "renamevar":
            return RenameVar(BitVec.from_string(args[0]), BitVec.from_string(args[1]))
        if kind == "negrow":
            return NegRow(int(args[0]))
        if kind == "negcol":
            return NegCol(int(args[0]))
    except (ValueError, IndexError) as exc:
        raise MalformedFileError(f"bad op line {line!r}: {exc}")
    raise MalformedFileError(f"unknown op kind {kind!r}")


def ops_to_text(ops: Sequence[EquivOp]) -> str:
    return "".join(op_to_line(op) + "\n" for op in ops)


def ops_from_text(text: str) -> list[EquivOp]:
    return [op_from_line(line) for line in text.splitlines() if line.strip()]


# -- human-readable exports ------------------------------------------------


def _cell_text(e, names, star: str = "*") -> str:
    if e is None:
        return "0"
    sign = "-" if e.sign < 0 else ""
    return f"{sign}{names[e.var]}{star if e.conj else ''}"


def design_to_csv(cod: CodMatrix) -> str:
    names = {v: f"z{i}" for i, v in enumerate(cod.variables(), start=1)}
    lines = (",".join(_cell_text(e, names) for e in row) for row in cod.cells)
    return "".join(line + "\n" for line in lines)


def design_to_latex(cod: CodMatrix) -> str:
    names = {v: f"z_{{{i}}}" for i, v in enumerate(cod.variables(), start=1)}
    body = " \\\\\n".join(
        " & ".join(_cell_text(e, names, star="^*") for e in row) for row in cod.cells
    )
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"
