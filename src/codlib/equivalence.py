"""Equivalence operations and the canonical form.

Canonicalization normalizes a design of the maximal-rate minimal-delay
family [C(2m,m-1), 2m-1, C(2m-1,m-1)] to a unique representative.
`canonicalize` does the four steps below in one function: one pass over the
rows computes every row id, one reading-order pass over the cells checks the
instances and builds the sign forest, and only the output design is built.

1. restore conjugation separation (flip whole variables so that rows with
   m nonzero entries are conjugated, rows with m+1 are not);
2. rename every variable to the id forced by its instance positions;
3. replace the sign pattern by the lexicographically minimal element of
   its coset under row and variable negations: the signs become + on the
   greedy spanning forest of the row-variable graph (one edge per nonzero
   cell, joined in reading order by a union-find with parity), and the
   other cells follow;
4. sort rows ascending by row identifier.

After step 2 the cell structure is fully determined by the row ids, so the
result does not depend on the incoming row or column order; the mandated
search for a minimizing column permutation therefore degenerates to the
identity.  All valid sign patterns on the renamed structure form a single
coset, which makes step 3 a well-defined canonical choice.
"""

from __future__ import annotations

import bisect
import random
from array import array
from itertools import compress
from math import comb
from typing import Sequence, Union

from .bitvec import BitVec, FrozenRecord
from .errors import InvalidDesignError, ParameterError
from .model import CodMatrix, id_order, verify_symbolic


class RowPerm(FrozenRecord):
    def __init__(self, perm: tuple[int, ...]):  # new row r takes old row perm[r-1]
        self._set("perm", perm)


class ColPerm(FrozenRecord):
    def __init__(self, perm: tuple[int, ...]):
        self._set("perm", perm)


class ConjVar(FrozenRecord):
    def __init__(self, var: BitVec):
        self._set("var", var)


class NegVar(FrozenRecord):
    def __init__(self, var: BitVec):
        self._set("var", var)


class RenameVar(FrozenRecord):
    def __init__(self, old: BitVec, new: BitVec):
        self._set("old", old)
        self._set("new", new)


class NegRow(FrozenRecord):
    def __init__(self, row: int):
        self._set("row", row)


class NegCol(FrozenRecord):
    def __init__(self, col: int):
        self._set("col", col)


EquivOp = Union[RowPerm, ColPerm, ConjVar, NegVar, RenameVar, NegRow, NegCol]


def _check_perm(perm: tuple[int, ...], size: int, what: str) -> None:
    if sorted(perm) != list(range(1, size + 1)):
        raise IndexError(f"{what} permutation {perm} is not a bijection of 1..{size}")


def apply_ops(cod: CodMatrix, ops: Sequence[EquivOp]) -> CodMatrix:
    """Apply equivalence operations in order; (p, n, k) are preserved.

    The ops only update three small tables.  Then the output variables are
    numbered by the sorted table, and one lookup per cell writes its code.
    """
    rows = [[r, False] for r in range(cod.p)]  # [input row, negated]
    cols = [[c, False] for c in range(cod.n)]
    # variable id -> [input var_id, negated, conjugated]
    ids = {var: [v, False, False] for v, var in enumerate(cod.ids, 1)}
    for op in ops:
        if isinstance(op, RowPerm):
            _check_perm(op.perm, cod.p, "row")
            rows = [rows[i - 1] for i in op.perm]
        elif isinstance(op, ColPerm):
            _check_perm(op.perm, cod.n, "column")
            cols = [cols[i - 1] for i in op.perm]
        elif isinstance(op, (NegVar, ConjVar)):
            if op.var in ids:
                ids[op.var][1 if isinstance(op, NegVar) else 2] ^= True
        elif isinstance(op, RenameVar):
            if op.new != op.old and op.new in ids:
                raise ValueError(f"rename target {op.new} already in use")
            if op.old in ids:
                ids[op.new] = ids.pop(op.old)
        elif isinstance(op, NegRow):
            if not 1 <= op.row <= cod.p:
                raise IndexError(f"row {op.row} out of range")
            rows[op.row - 1][1] ^= True
        elif isinstance(op, NegCol):
            if not 1 <= op.col <= cod.n:
                raise IndexError(f"column {op.col} out of range")
            cols[op.col - 1][1] ^= True
        else:
            raise TypeError(f"unknown operation {op!r}")
    # plain[code]: the output code of a nonzero cell with no row or column
    # negation, its variable numbered by the sorted output table
    out_ids = sorted(ids, key=id_order)
    plain = [0] * (4 * cod.k + 4)
    for new, var in enumerate(out_ids, 1):
        old, neg, conj = ids[var]
        for flags in range(4):
            plain[old << 2 | flags] = new << 2 | flags ^ (conj << 1 | neg)
    # tables[t][code]: the output code of a nonzero cell whose row and
    # column negations add up to t
    tables = (plain, [code and code ^ 1 for code in plain])
    by_row = [[tables[cn] for _, cn in cols], [tables[not cn] for _, cn in cols]]
    picks = [c for c, _ in cols]
    src, n = cod.codes, cod.n
    codes = array("q")
    for r, rn in rows:
        base = r * n
        codes.extend(map(list.__getitem__, by_row[rn], [src[base + c] for c in picks]))
    return CodMatrix(n, codes, tuple(out_ids))


def scramble(
    cod: CodMatrix, seed: int, count: int
) -> tuple[CodMatrix, list[EquivOp]]:
    """Apply `count` pseudorandom equivalence operations, uniform over the
    seven variants; returns the result and the op log."""
    if count < 1:
        raise ParameterError(f"count must be >= 1, got {count}")
    if cod.k == 0:
        raise ParameterError("cannot scramble a design without variables")
    rng = random.Random(seed)
    ids = list(cod.ids)  # ascending by (mask, length); only renames change it
    ops: list[EquivOp] = []
    for _ in range(count):
        kind = rng.randrange(7)
        if kind == 0:
            op: EquivOp = RowPerm(tuple(rng.sample(range(1, cod.p + 1), cod.p)))
        elif kind == 1:
            op = ColPerm(tuple(rng.sample(range(1, cod.n + 1), cod.n)))
        elif kind == 2:
            op = ConjVar(rng.choice(ids))
        elif kind == 3:
            op = NegVar(rng.choice(ids))
        elif kind == 4:
            length = ids[0].length
            used = {v.mask for v in ids if v.length == length}  # each below 2^length
            if len(used) == 1 << length:
                raise ParameterError(
                    f"cannot rename: every variable id of length {length} is in use"
                )
            while True:
                mask = rng.randrange(1 << length)
                if mask not in used:
                    break
            op = RenameVar(rng.choice(ids), BitVec(length, mask))
            ids.remove(op.old)
            bisect.insort(ids, op.new, key=id_order)
        elif kind == 5:
            op = NegRow(rng.randrange(1, cod.p + 1))
        else:
            op = NegCol(rng.randrange(1, cod.n + 1))
        ops.append(op)
    return apply_ops(cod, ops), ops


# -- canonical form --------------------------------------------------------


def _family_m(p: int, n: int, k: int) -> int:
    """m such that [p, n, k] = [C(2m,m-1), 2m-1, C(2m-1,m-1)]."""
    if n % 2 == 0:
        raise ParameterError(f"n must be odd (2m-1), got {n}")
    m = (n + 1) // 2
    if p != comb(2 * m, m - 1) or k != comb(2 * m - 1, m - 1):
        raise ParameterError(
            f"[{p},{n},{k}] is not "
            f"[{comb(2 * m, m - 1)},{2 * m - 1},{comb(2 * m - 1, m - 1)}]"
        )
    return m


def canonicalize(cod: CodMatrix) -> CodMatrix:
    """Unique standard form of a maximal-rate minimal-delay design."""
    m = _family_m(cod.p, cod.n, cod.k)
    if not verify_symbolic(cod).ok:
        raise InvalidDesignError("input fails symbolic orthogonality")
    p, n, k, codes = cod.p, cod.n, cod.k, cod.codes
    e = (1 << (2 * m)) - 1
    bits = [1 << c for c in range(n)]

    # Rows: separation conjugates exactly the rows with m nonzero cells, so
    # the row id is the zero pattern plus that flag as bit 2m.
    ids: list[int] = []
    for pattern in cod.patterns:
        weight = pattern.bit_count()
        if weight not in (m, m + 1):
            raise InvalidDesignError("row nonzero counts are not m or m+1")
        ids.append(pattern | (weight == m) << n)
    order = sorted(range(p), key=ids.__getitem__)

    # One pass over the cells checks the instances and builds the forest.
    # Variables: a variable separates when all of its instances agree, or all
    # disagree, with their row's flag (the latter get flipped); an instance in
    # row r, column c forces the id ids[r] ^ e_c, ^ e if row r is conjugated.
    # Signs: rows are forest nodes 0..p-1 and var_id v is node p+v-1, one
    # edge per nonzero cell.  Row and variable negations span the cut space
    # of this graph.  Joining the cells in reading order (rows by id, cells
    # left to right) builds the greedy spanning forest: a cell is a forest
    # edge exactly when some combination of negations changes it and no
    # earlier cell.  So the coset element that is + on every forest edge is
    # the least one.  A union-find with parity, union by size, builds it:
    # parity[x] is x's potential relative to parent[x], fixed once x is linked.
    agree = [0] * (k + 1)  # per var_id: bit 0 if an instance agrees, bit 1 if one disagrees
    forced = [-1] * (k + 1)  # per var_id: the id its first instance forces
    clash = [False] * (k + 1)  # per var_id: a later instance forces another id
    parent, parity, size = list(range(p + k)), [0] * (p + k), [1] * (p + k)
    linked = []  # the nodes in the order they stopped being roots
    for r in order:
        conj = ids[r] >> n
        flip = ids[r] ^ e if conj else ids[r]
        row = codes[r * n:r * n + n]
        for c in compress(range(n), row):
            x = row[c]
            v = x >> 2
            agree[v] |= 1 << (conj ^ (x >> 1 & 1))
            if forced[v] < 0:
                forced[v] = flip ^ bits[c]
            elif forced[v] != flip ^ bits[c]:
                clash[v] = True
            a, pa, b, pb = r, 0, p - 1 + v, x & 1
            while parent[a] != a:
                pa ^= parity[a]
                a = parent[a]
            while parent[b] != b:
                pb ^= parity[b]
                b = parent[b]
            if a != b:
                if size[a] > size[b]:
                    a, b = b, a
                parent[a], parity[a] = b, pa ^ pb
                size[b] += size[a]
                linked.append(a)
    for v in range(1, k + 1):
        if agree[v] == 3:
            raise InvalidDesignError(
                f"variable {cod.ids[v - 1]} cannot be conjugation separated"
            )
    if len(set(ids)) != p:
        raise InvalidDesignError("row identifiers are not distinct weight-(m+1)")
    for v in range(1, k + 1):
        if clash[v]:
            raise InvalidDesignError(
                f"instances of {cod.ids[v - 1]} disagree on the forced id"
            )
    # The renaming is a bijection: the rows are now each weight-(m+1) id once,
    # so for a weight-m mask w below e_2m and a column c in w, conjugated row
    # w ^ e ^ e_c is nonzero at c and forces w.  Each variable forces one
    # mask, so the k variables take the k masks, one each.
    renamed = sorted(forced[1:])
    potential = [0] * (p + k)  # per node, its parity relative to its root
    for a in reversed(linked):  # a's parent was linked later, or is a root
        potential[a] = parity[a] ^ potential[parent[a]]
    # out[v]: the renamed var_id << 2 and the variable's negation
    new_id = {mask: i << 2 for i, mask in enumerate(renamed, 1)}
    out = [0] + [new_id[forced[v]] | potential[p - 1 + v] for v in range(1, k + 1)]
    result = array("q")
    for r in order:
        row_bits = ids[r] >> n << 1 | potential[r]  # conjugated, negated
        result.extend([
            x and out[x >> 2] ^ (x & 1) ^ row_bits for x in codes[r * n:r * n + n]
        ])
    return CodMatrix(n, result, tuple(BitVec(2 * m, mask) for mask in renamed))


def equivalent(a: CodMatrix, b: CodMatrix) -> bool:
    """True iff a and b canonicalize to the same standard form."""
    if (a.p, a.n, a.k) != (b.p, b.n, b.k):
        return False
    return canonicalize(a) == canonicalize(b)
