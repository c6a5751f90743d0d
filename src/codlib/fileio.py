"""Versioned file formats: designs, certificates, op logs, exports.

The interchange format is JSON with a version field and one entry object
per nonzero cell, sorted by (row, col).  Output is deterministic: no
timestamps, stable key order.

Design I/O holds no dict or string per cell.  The writer emits the bytes of
json.dumps(doc, indent=1, sort_keys=True) in one "".join of shared parts: a
head per column and conjugation flag, each row number's text, made once per
row, and a tail per cell code.  The loader's object hook folds each cell
entry into a tuple of its fields as soon as json has parsed it, sharing one
text per variable.  The reader then parses each distinct variable text
once, numbers the variables by the sorted table and writes each cell's
final code.  At m = 8 (9.7 MB) the traced peak is 1.5x the output when
writing and 1.6x the input when reading.
"""

from __future__ import annotations

import json
import math
from array import array
from itertools import compress
from operator import countOf
from typing import TYPE_CHECKING, Callable, NoReturn, Optional, Sequence

from .bitvec import BitVec
from .errors import MalformedFileError
from .model import M_MAX, CodMatrix, id_order

if TYPE_CHECKING:  # design I/O loads neither module
    from .equivalence import EquivOp
    from .generator import Constraint, InconsistencyCertificate

DESIGN_FORMAT = "cod-design"
CERT_FORMAT = "cod-certificate"
FORMAT_VERSION = 1


# The bytes of json.dumps(doc, indent=1, sort_keys=True), in three parts per
# nonzero cell: a head per column and conjugation flag up to the row number,
# the row number, and a tail per cell code after it.  Each tail ends in the
# separator, which the last entry trades for the line break before "]".
_HEAD = '\n  {\n   "col": %d,\n   "conj": %s,\n   "row": '
_TAIL = ',\n   "sign": "%s",\n   "var": "%s"\n  },'
_FOOT = (
    '],\n "format": "%s",\n "k": %d,\n "m": %d,\n "n": %d,\n "p": %d,\n'
    ' "version": %d\n}\n'
)


def design_to_json(cod: CodMatrix) -> str:
    n, codes = cod.n, cod.codes
    # 0-based column << 1 | conj -> head
    heads = [_HEAD % (c, conj) for c in range(1, n + 1) for conj in ("false", "true")]
    tails = [""] * 4  # cell code -> tail; codes 0..3 name no variable
    for name in map(str, cod.ids):
        plus, minus = _TAIL % ("+", name), _TAIL % ("-", name)
        tails += plus, minus, plus, minus
    parts = ['{\n "entries": [']
    for base in range(0, len(codes), n):
        row = str(base // n + 1)
        for pos in compress(range(base, base + n), codes[base:base + n]):
            code = codes[pos]
            parts += heads[pos - base << 1 | code >> 1 & 1], row, tails[code]
    if len(parts) > 1:  # the last entry takes a line break, not a separator
        parts[-1] = parts[-1][:-1] + "\n "
    parts.append(_FOOT % (DESIGN_FORMAT, cod.k, cod.m, n, cod.p, FORMAT_VERSION))
    return "".join(parts)


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


def _decode(text: str, object_hook=None):
    """json.loads, with a malformed text's error located by line, or at
    `document` for nesting too deep or an integer literal too long."""
    try:
        return json.loads(text, object_hook=object_hook)
    except json.JSONDecodeError as exc:
        raise MalformedFileError(f"not valid JSON: {exc}", f"line {exc.lineno}")
    except (RecursionError, ValueError) as exc:
        raise MalformedFileError(f"not valid JSON: {exc}", "document") from None


def _check_header(doc, fmt: str) -> dict:
    """Check a versioned document's format and version."""
    if _require(doc, "format", "document") != fmt:
        raise MalformedFileError(f"unexpected format {doc['format']!r}", "format")
    version = _require(doc, "version", "document")
    if type(version) is not int or version != FORMAT_VERSION:  # not True or 1.0
        raise MalformedFileError(f"unsupported version {version!r}", "version")
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
    texts: dict[str, str] = {}  # var text -> the one copy that cells keep
    folds = 0

    def fold(obj):
        """(row, col, conj << 1 | neg, var) for an object with the five cell
        fields of valid types, counted in `folds`; any other object as it is.
        It is the object hook, or folds each item of `entries` after a
        decode without it."""
        nonlocal folds
        try:
            r, c, sign, conj, var = (
                obj["row"], obj["col"], obj["sign"], obj["conj"], obj["var"]
            )
        except (TypeError, KeyError):
            return obj
        if (
            type(r) is int and type(c) is int and (sign == "+" or sign == "-")
            and type(conj) is bool and type(var) is str
        ):
            folds += 1
            return r, c, conj << 1 | (sign == "-"), texts.setdefault(var, var)
        return obj

    doc = _decode(text, fold)
    entries = doc.get("entries") if type(doc) is dict else None
    # Each fold should be an item of `entries`.  One elsewhere (the whole
    # document, `m`, an entry's field) would change what an error message
    # shows of it, so then decode again, keep every object a dict and fold
    # only the items of `entries`.
    if folds != (countOf(map(type, entries), tuple) if type(entries) is list else 0):
        doc = _decode(text)
        entries = doc.get("entries") if type(doc) is dict else None
        texts.clear()
        if type(entries) is list:
            entries[:] = map(fold, entries)
    _check_header(doc, DESIGN_FORMAT)
    m = _int(doc, "m", "document", 1)
    # no design codlib builds is larger than the m = M_MAX extension
    p = _int(doc, "p", "document", 1, math.comb(2 * M_MAX, M_MAX - 1))
    n = _int(doc, "n", "document", 1, 2 * M_MAX)
    k = _int(doc, "k", "document", 0)
    if m != (n + 1) // 2:
        raise MalformedFileError(f"m={m} but n={n} needs m={(n + 1) // 2}", "m")
    # `texts` now holds the var text of each folded entry.  A text that
    # BitVec refuses gets no var_id; its first entry is rejected in the loop.
    accepted = []
    for var in texts:
        try:
            accepted.append((BitVec.from_string(var), var))
        except ValueError:
            pass
    accepted.sort(key=lambda pair: id_order(pair[0]))
    var_ids = {var: v << 2 for v, (_, var) in enumerate(accepted, 1)}
    codes = array("q", bytes(8 * p * n))
    for idx, item in enumerate(_list(doc, "entries")):
        if type(item) is tuple:  # a folded cell; if rejected, rebuilt as read
            r, c, flags, var = item
            if 0 < r <= p and 0 < c <= n and not codes[pos := (r - 1) * n + c - 1]:
                if v := var_ids.get(var):
                    codes[pos] = v | flags
                    continue
            item = {"row": r, "col": c, "sign": "-" if flags & 1 else "+",
                    "conj": bool(flags & 2), "var": var}
        _reject_entry(item, f"entries[{idx}]", p, n, codes)
    if len(accepted) != k:
        raise MalformedFileError(
            f"declared k={k} but {len(accepted)} distinct variables appear", "k"
        )
    return CodMatrix(n, codes, tuple(var for var, _ in accepted))


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
    doc = _check_header(_decode(text), CERT_FORMAT)
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
    """kind -> (op class, argument parser, argument count or None for one or more)."""
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
        if len(args) != count if count else not args:
            raise ValueError(f"{kind} takes {count or 'at least 1'} argument(s), got {len(args)}")
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


def _rows_text(cod: CodMatrix, name: str, star: str, sep: str) -> list[str]:
    """Each row's cells joined by `sep`: a cell is 0, or the sign, `name` %
    var_id and `star` if conjugated, from one text per cell code."""
    n, codes = cod.n, cod.codes
    texts = ["0"] * 4  # cell code -> text; codes 0..3 name no variable
    for v in range(1, cod.k + 1):
        texts += [sign + name % v + conj for conj in ("", star) for sign in ("", "-")]
    cell = texts.__getitem__
    return [sep.join(map(cell, codes[i:i + n])) for i in range(0, len(codes), n)]


def design_to_csv(cod: CodMatrix) -> str:
    return "".join(line + "\n" for line in _rows_text(cod, "z%d", "*", ","))


def design_to_latex(cod: CodMatrix) -> str:
    body = " \\\\\n".join(_rows_text(cod, "z_{%d}", "^*", " & "))
    return "\\begin{pmatrix}\n" + body + "\n\\end{pmatrix}\n"
