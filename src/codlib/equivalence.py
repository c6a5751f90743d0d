"""Equivalence operations and the canonical form.

Canonicalization normalizes a design of the maximal-rate minimal-delay
family [C(2m,m-1), 2m-1, C(2m-1,m-1)] to a unique representative:

1. restore conjugation separation (flip whole variables so that rows with
   m nonzero entries are conjugated, rows with m+1 are not);
2. rename every variable to the id forced by its instance positions;
3. replace the sign pattern by the lexicographically minimal element of
   its coset under row and variable negations (computed by GF(2)
   elimination over the nonzero cells);
4. sort rows ascending by row identifier.

After step 2 the cell structure is fully determined by the row ids, so the
result does not depend on the incoming row or column order; the mandated
search for a minimizing column permutation therefore degenerates to the
identity.  All valid sign patterns on the renamed structure form a single
coset, which makes step 3 a well-defined canonical choice.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb
from typing import Optional, Union

from .bitvec import BitVec
from .errors import InvalidDesignError, ParameterError
from .model import CodMatrix, Entry, row_id, verify_symbolic


@dataclass(frozen=True)
class RowPerm:
    perm: tuple[int, ...]  # new row r takes old row perm[r-1]


@dataclass(frozen=True)
class ColPerm:
    perm: tuple[int, ...]


@dataclass(frozen=True)
class ConjVar:
    var: BitVec


@dataclass(frozen=True)
class NegVar:
    var: BitVec


@dataclass(frozen=True)
class RenameVar:
    old: BitVec
    new: BitVec


@dataclass(frozen=True)
class NegRow:
    row: int


@dataclass(frozen=True)
class NegCol:
    col: int


EquivOp = Union[RowPerm, ColPerm, ConjVar, NegVar, RenameVar, NegRow, NegCol]


def _check_perm(perm: tuple[int, ...], size: int, what: str) -> None:
    if sorted(perm) != list(range(1, size + 1)):
        raise IndexError(f"{what} permutation {perm} is not a bijection of 1..{size}")


def apply_op(cod: CodMatrix, op: EquivOp) -> CodMatrix:
    """Apply one equivalence operation; (p, n, k) are preserved."""
    rows = [list(r) for r in cod.cells]
    if isinstance(op, RowPerm):
        _check_perm(op.perm, cod.p, "row")
        rows = [list(cod.cells[i - 1]) for i in op.perm]
    elif isinstance(op, ColPerm):
        _check_perm(op.perm, cod.n, "column")
        rows = [[r[i - 1] for i in op.perm] for r in rows]
    elif isinstance(op, ConjVar):
        rows = [
            [e.conjugated() if e is not None and e.var == op.var else e for e in r]
            for r in rows
        ]
    elif isinstance(op, NegVar):
        rows = [
            [e.negated() if e is not None and e.var == op.var else e for e in r]
            for r in rows
        ]
    elif isinstance(op, RenameVar):
        present = {e.var for r in rows for e in r if e is not None}
        if op.new != op.old and op.new in present:
            raise ValueError(f"rename target {op.new} already in use")
        rows = [
            [
                Entry(op.new, e.sign, e.conj)
                if e is not None and e.var == op.old
                else e
                for e in r
            ]
            for r in rows
        ]
    elif isinstance(op, NegRow):
        if not 1 <= op.row <= cod.p:
            raise IndexError(f"row {op.row} out of range")
        rows[op.row - 1] = [
            e.negated() if e is not None else None for e in rows[op.row - 1]
        ]
    elif isinstance(op, NegCol):
        if not 1 <= op.col <= cod.n:
            raise IndexError(f"column {op.col} out of range")
        for r in rows:
            if r[op.col - 1] is not None:
                r[op.col - 1] = r[op.col - 1].negated()
    else:
        raise TypeError(f"unknown operation {op!r}")
    return CodMatrix.from_rows(cod.m, rows)


def scramble(
    cod: CodMatrix, seed: int, count: int
) -> tuple[CodMatrix, list[EquivOp]]:
    """Apply `count` pseudorandom equivalence operations, uniform over the
    seven variants; returns the result and the op log."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    ops: list[EquivOp] = []
    out = cod
    for _ in range(count):
        kind = rng.randrange(7)
        variables = out.variables()
        length = variables[0].length
        if kind == 0:
            op: EquivOp = RowPerm(tuple(rng.sample(range(1, out.p + 1), out.p)))
        elif kind == 1:
            op = ColPerm(tuple(rng.sample(range(1, out.n + 1), out.n)))
        elif kind == 2:
            op = ConjVar(rng.choice(variables))
        elif kind == 3:
            op = NegVar(rng.choice(variables))
        elif kind == 4:
            used = {v.mask for v in variables}
            while True:
                mask = rng.randrange(1 << length)
                if mask not in used:
                    break
            op = RenameVar(rng.choice(variables), BitVec(length, mask))
        elif kind == 5:
            op = NegRow(rng.randrange(1, out.p + 1))
        else:
            op = NegCol(rng.randrange(1, out.n + 1))
        out = apply_op(out, op)
        ops.append(op)
    return out, ops


# -- canonical form --------------------------------------------------------


def _family_m(cod: CodMatrix) -> int:
    """m such that cod has the [C(2m,m-1), 2m-1, C(2m-1,m-1)] parameters."""
    if cod.n % 2 == 0:
        raise ParameterError(f"n must be odd (2m-1), got {cod.n}")
    m = (cod.n + 1) // 2
    if cod.p != comb(2 * m, m - 1) or cod.k != comb(2 * m - 1, m - 1):
        raise ParameterError(
            f"[{cod.p},{cod.n},{cod.k}] is not "
            f"[{comb(2 * m, m - 1)},{2 * m - 1},{comb(2 * m - 1, m - 1)}]"
        )
    return m


def _restore_separation(cod: CodMatrix, m: int) -> CodMatrix:
    """Flip whole variables so row conjugation matches row weight."""
    weights = [sum(1 for e in row if e is not None) for row in cod.cells]
    if any(w not in (m, m + 1) for w in weights):
        raise InvalidDesignError("row nonzero counts are not m or m+1")
    flip: set[BitVec] = set()
    for var in cod.variables():
        # desired: conjugated exactly in rows with m nonzero entries
        wanted = [(weights[r - 1] == m) == e.conj for r, _, e in cod.instances(var)]
        if all(wanted):
            continue
        if any(wanted):
            raise InvalidDesignError(
                f"variable {var} cannot be conjugation separated"
            )
        flip.add(var)
    rows = [
        [e.conjugated() if e is not None and e.var in flip else e for e in row]
        for row in cod.cells
    ]
    return CodMatrix.from_rows(cod.m, rows)


def _canonical_rename(cod: CodMatrix, m: int) -> CodMatrix:
    """Rename each variable to the id its instance positions force."""
    two_m = 2 * m
    e = BitVec.ones(two_m)
    ids = [row_id(cod, r) for r in range(1, cod.p + 1)]
    if len({v.mask for v in ids}) != cod.p or any(
        v.weight() != m + 1 for v in ids
    ):
        raise InvalidDesignError("row identifiers are not distinct weight-(m+1)")
    mapping: dict[BitVec, BitVec] = {}
    for var in cod.variables():
        forced = set()
        for r, c, entry in cod.instances(var):
            target = ids[r - 1] ^ BitVec.unit(two_m, c)
            if entry.conj:
                target = target ^ e
            forced.add(target)
        if len(forced) != 1:
            raise InvalidDesignError(
                f"instances of {var} disagree on the forced id"
            )
        mapping[var] = forced.pop()
    if len(set(mapping.values())) != len(mapping):
        raise InvalidDesignError("forced renaming is not a bijection")
    rows = [
        [
            Entry(mapping[e_.var], e_.sign, e_.conj) if e_ is not None else None
            for e_ in row
        ]
        for row in cod.cells
    ]
    return CodMatrix.from_rows(m, rows)


def _lexmin_signs(cod: CodMatrix) -> CodMatrix:
    """Canonical signs: lex-min coset element under row/variable negations.

    Rows are taken in row-id order and cells left to right; the negation
    moves span a GF(2) subspace over the nonzero cells, and the greedy
    pivot reduction yields the unique lexicographically minimal shift.
    """
    order = sorted(range(1, cod.p + 1), key=lambda r: row_id(cod, r).mask)
    cell_index: dict[tuple[int, int], int] = {}
    for r in order:
        for c in range(1, cod.n + 1):
            if cod.entry(r, c) is not None:
                cell_index[(r, c)] = len(cell_index)

    sign_vec = 0
    row_gen: dict[int, int] = {r: 0 for r in order}
    var_gen: dict[BitVec, int] = {v: 0 for v in cod.variables()}
    for (r, c), idx in cell_index.items():
        entry = cod.entry(r, c)
        if entry.sign < 0:
            sign_vec |= 1 << idx
        row_gen[r] |= 1 << idx
        var_gen[entry.var] |= 1 << idx

    pivots: dict[int, int] = {}
    for gen in list(row_gen.values()) + list(var_gen.values()):
        while gen:
            low = (gen & -gen).bit_length() - 1
            if low in pivots:
                gen ^= pivots[low]
            else:
                pivots[low] = gen
                break
    for low in sorted(pivots):
        if (sign_vec >> low) & 1:
            sign_vec ^= pivots[low]

    rows = []
    for r in order:
        row = []
        for c in range(1, cod.n + 1):
            entry = cod.entry(r, c)
            if entry is None:
                row.append(None)
            else:
                neg = (sign_vec >> cell_index[(r, c)]) & 1
                row.append(Entry(entry.var, -1 if neg else 1, entry.conj))
        rows.append(row)
    return CodMatrix.from_rows(cod.m, rows)


def canonicalize(cod: CodMatrix) -> CodMatrix:
    """Unique standard form of a maximal-rate minimal-delay design."""
    m = _family_m(cod)
    if not verify_symbolic(cod).ok:
        raise InvalidDesignError("input fails symbolic orthogonality")
    cod = _restore_separation(cod, m)
    cod = _canonical_rename(cod, m)
    return _lexmin_signs(cod)


def equivalent(a: CodMatrix, b: CodMatrix) -> bool:
    """True iff a and b canonicalize to the same standard form."""
    if (a.p, a.n, a.k) != (b.p, b.n, b.k):
        return False
    return canonicalize(a) == canonicalize(b)
