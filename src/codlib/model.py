"""Symbolic COD matrices and orthogonality verification.

A design is a p x n grid of cells, stored as one row-major array of int
cell codes and one table of its distinct variable ids (`BitVec`s), sorted
by (mask, length).  A zero cell has code 0; a signed, optionally
conjugated instance of a variable has code var_id << 2 | conj << 1 | neg,
where var_id is 1 + the variable's position in the table.  Equal designs
therefore have equal codes, and every kernel reads and writes the codes;
`Entry` cells are built only where the API hands cells out.

Orthogonality is checked exactly, over commuting symbols, with a seeded
numeric substitution as a secondary smoke test.  The diagonal Gram entry
(a, a) is right iff column a holds every variable once; then a monomial
conj(O[r,a]) O[r,b] can cancel only against the row where column a holds
O[r,b]'s variable, so one test per pair of nonzero cells in a row decides
every entry without expanding it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress
from typing import Optional, Sequence

from .bitvec import BitVec
from .errors import MixedConjugationError, ParameterError

M_MAX = 8  # desk-scale guard; p = C(2m, m-1) grows fast


@dataclass(frozen=True)
class Entry:
    """One nonzero cell: sign * var, conjugated if conj is set."""

    var: BitVec
    sign: int = 1
    conj: bool = False

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    def negated(self) -> "Entry":
        return Entry(self.var, -self.sign, self.conj)

    def conjugated(self) -> "Entry":
        return Entry(self.var, self.sign, not self.conj)


Cell = Optional[Entry]


def id_order(var: BitVec) -> tuple[int, int]:
    """The sort key of the variable table."""
    return var.mask, var.length


@dataclass(frozen=True)
class CodMatrix:
    """A p x n symbolic design with k distinct variables.

    `codes[r * n + c]` is the code of the 0-based cell (r, c), and `ids`
    holds each variable that appears, ascending by (mask, length).
    """

    p: int
    n: int
    codes: array
    ids: tuple[BitVec, ...]

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.codes.tobytes(), self.ids))

    @property
    def m(self) -> int:
        """The family index: n = 2m-1, or n = 2m for an extended design."""
        return (self.n + 1) // 2

    @property
    def k(self) -> int:
        """The number of distinct variables."""
        return len(self.ids)

    @classmethod
    def from_rows(cls, m: int, rows: Sequence[Sequence[Cell]]) -> "CodMatrix":
        """Build a design; `m` must equal (n+1)//2 for the rows' n columns."""
        p = len(rows)
        if p == 0:
            raise ParameterError("design needs at least one row")
        n = len(rows[0])
        if n == 0:
            raise ParameterError("design needs at least one column")
        if any(len(r) != n for r in rows):
            raise ParameterError("rows have unequal lengths")
        if m != (n + 1) // 2:
            raise ParameterError(f"m={m} but n={n} needs m={(n + 1) // 2}")
        ids = sorted({e.var for row in rows for e in row if e is not None}, key=id_order)
        var_ids = {v: i << 2 for i, v in enumerate(ids, 1)}
        codes = array("q", [
            0 if e is None else var_ids[e.var] | e.conj << 1 | (e.sign < 0)
            for row in rows for e in row
        ])
        return cls(p, n, codes, tuple(ids))

    @classmethod
    def _from_codes(
        cls, p: int, n: int, codes: array, ids: Sequence[BitVec]
    ) -> "CodMatrix":
        """A design whose codes name ids[i] by var_id i + 1, in any order of
        `ids`; the table is sorted and the codes follow it."""
        order = sorted(range(len(ids)), key=lambda i: id_order(ids[i]))
        if order != list(range(len(ids))):
            recode = [0] * (4 * len(ids) + 4)  # old code -> new code
            for new, old in enumerate(order, 1):
                for flags in range(4):
                    recode[old + 1 << 2 | flags] = new << 2 | flags
            codes = array("q", map(recode.__getitem__, codes))
        return cls(p, n, codes, tuple(ids[i] for i in order))

    def _entry(self, code: int) -> Cell:
        """The `Entry` a code stands for, or None for 0."""
        if not code:
            return None
        return Entry(self.ids[(code >> 2) - 1], -1 if code & 1 else 1, bool(code & 2))

    @cached_property
    def cells(self) -> tuple[tuple[Cell, ...], ...]:
        """The rows of `Entry` cells (None for zero), built on first use."""
        built = {code: self._entry(code) for code in set(self.codes)}
        flat = list(map(built.__getitem__, self.codes))
        n = self.n
        return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n))

    def entry(self, row: int, col: int) -> Cell:
        if not (1 <= row <= self.p and 1 <= col <= self.n):
            raise IndexError(f"cell ({row},{col}) out of range")
        return self._entry(self.codes[(row - 1) * self.n + col - 1])

    def row(self, row: int) -> tuple[Cell, ...]:
        if not 1 <= row <= self.p:
            raise IndexError(f"row {row} out of range 1..{self.p}")
        return tuple(map(self._entry, self.codes[(row - 1) * self.n:row * self.n]))

    def variables(self) -> tuple[BitVec, ...]:
        """Distinct variable ids, ascending by (mask, length)."""
        return self.ids

    def _var_id(self, var: BitVec) -> int:
        """The var_id of `var`, or 0 if it does not appear."""
        i = bisect_left(self.ids, id_order(var), key=id_order)
        return i + 1 if i < len(self.ids) and self.ids[i] == var else 0

    @cached_property
    def _instance_index(self) -> list[list[int]]:
        """index[var_id]: the positions r * n + c of its cells, row-major;
        index[0] is empty."""
        index: list[list[int]] = [[] for _ in range(len(self.ids) + 1)]
        for pos, code in enumerate(self.codes):
            if code:
                index[code >> 2].append(pos)
        return index

    def instances(self, var: BitVec) -> list[tuple[int, int, Entry]]:
        """All (row, col, entry) where the given variable appears, row-major.

        The var_id -> cells index is built on the first call and kept.
        """
        n = self.n
        return [
            (pos // n + 1, pos % n + 1, self._entry(self.codes[pos]))
            for pos in self._instance_index[self._var_id(var)]
        ]

    @cached_property
    def patterns(self) -> list[int]:
        """Per row, the mask of its nonzero columns (bit c for column c+1)."""
        bits = [1 << c for c in range(self.n)]
        codes, n = self.codes, self.n
        return [sum(compress(bits, codes[i:i + n])) for i in range(0, len(codes), n)]


def zero_pattern(cod: CodMatrix, row: int) -> BitVec:
    """Per-row bit vector: bit i set iff column i holds a nonzero entry."""
    if not 1 <= row <= cod.p:
        raise IndexError(f"row {row} out of range 1..{cod.p}")
    return BitVec(cod.n, cod.patterns[row - 1])


def row_id(cod: CodMatrix, row: int) -> BitVec:
    """Zero pattern extended by one bit recording the row's conjugation flag.

    Requires n = 2m-1 columns and a conjugation-uniform row.
    """
    if cod.n != 2 * cod.m - 1:
        raise ParameterError(
            f"row ids need n = 2m-1 columns, have n={cod.n}, m={cod.m}"
        )
    entries = [e for e in cod.row(row) if e is not None]
    flags = {e.conj for e in entries}
    if len(flags) > 1:
        raise MixedConjugationError(f"row {row} mixes conjugation flags")
    conj = flags.pop() if flags else False
    pat = zero_pattern(cod, row)
    return BitVec(2 * cod.m, pat.mask | (int(conj) << (2 * cod.m - 1)))


# -- symbolic verification -------------------------------------------------

# A symbol is (var mask, var length, conj); a monomial is a sorted pair of
# symbols with an integer coefficient.  Commutativity makes cancellation a
# multiset test.


def gram_entry(
    cells: Sequence[Sequence[Cell]], a: int, b: int, rows: Sequence[int]
) -> dict:
    """Nonzero monomials of the formal (a, b) entry of O^H O.

    `cells` is the raw row grid, `a` and `b` are 0-based columns and `rows`
    lists the 0-based rows where both columns are nonzero.
    """
    acc: dict = {}
    for r in rows:
        ea, eb = cells[r][a], cells[r][b]
        sa = (ea.var.mask, ea.var.length, not ea.conj)
        sb = (eb.var.mask, eb.var.length, eb.conj)
        mono = (sa, sb) if sa <= sb else (sb, sa)
        acc[mono] = acc.get(mono, 0) + ea.sign * eb.sign
    return {mono: c for mono, c in acc.items() if c}


@dataclass
class VerificationReport:
    ok: bool
    failures: list[tuple[tuple[int, ...], dict]] = field(default_factory=list)


def verify_symbolic(cod: CodMatrix) -> VerificationReport:
    """Exact orthogonality check: O^H O = (sum |z_j|^2) I, formally.

    Off-diagonal Gram entries must cancel to zero; every diagonal entry
    must be exactly the sum of z_j* z_j over all k variables, once each.
    Failure positions are 1-based columns.

    The diagonal entry (a, a) holds each variable of column a once per
    instance, so it is right iff column a holds every variable exactly once.
    Then the monomial conj(O[r,a]) O[r,b] can cancel only against row
    r' = the row where column a holds O[r,b]'s variable, and it does iff
    O[r',b] is O[r,a]'s variable with the other conjugation flag, O[r',a]
    has the other flag than O[r,b], and the two sign products differ.  One
    pass over the pairs of nonzero cells in each row checks this; only the
    entries it finds nonzero, and those of columns whose diagonal fails, are
    expanded by `gram_entry` to report their residual monomials.
    """
    n, codes = cod.n, cod.codes
    cols_all = range(n)
    rows = []  # per row: its nonzero columns
    # at[a][var_id] is r * n for the row r where column a holds that variable.
    at = [[-1] * (cod.k + 1) for _ in cols_all]
    bad_columns = set()
    for base in range(0, len(codes), n):
        cols = list(compress(cols_all, codes[base:base + n]))
        for a in cols:
            v = codes[base + a] >> 2
            if at[a][v] >= 0:
                bad_columns.add(a)
            at[a][v] = base
        rows.append(cols)
    bad_columns.update(a for a in cols_all if -1 in at[a][1:])

    bad_pairs = set()
    base = 0
    for cols in rows:
        for i, a in enumerate(cols, 1):
            if a in bad_columns:
                continue
            t = codes[base + a]
            col = at[a]
            for b in cols[i:]:
                # q is r' * n; O[r',b] must be t's variable with the other
                # flag (x >> 1 == 1), and O[r',a] must differ from u in flag
                # and, together with x, in sign parity.
                u = codes[base + b]
                q = col[u >> 2]
                x = codes[q + b] ^ t
                if x >> 1 != 1 or x ^ u ^ codes[q + a] != 1:
                    bad_pairs.add((a, b))
        base += n

    if not (bad_columns or bad_pairs):
        return VerificationReport(ok=True)
    cells = cod.cells
    failures = []
    for a in range(n):
        if a in bad_columns:
            support = [r for r, row in enumerate(cells) if row[a] is not None]
            residual = Counter(gram_entry(cells, a, a, support))
            residual.subtract({
                ((v.mask, v.length, False), (v.mask, v.length, True)): 1
                for v in cod.variables()
            })
            failures.append(((a + 1,), {k: v for k, v in residual.items() if v}))
        for b in range(a + 1, n):
            if (a, b) in bad_pairs or bad_columns & {a, b}:
                shared = [r for r, row in enumerate(cells)
                          if row[a] is not None and row[b] is not None]
                acc = gram_entry(cells, a, b, shared)
                if acc:
                    failures.append(((a + 1, b + 1), acc))
    return VerificationReport(ok=not failures, failures=failures)


def verify_numeric(
    cod: CodMatrix, trials: int = 10, seed: int = 0, tol: float = 1e-9
) -> bool:
    """Substitute seeded pseudorandom complex values and check the Gram residual."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if not (math.isfinite(tol) and tol > 0):
        raise ParameterError(f"tol must be finite and positive, got {tol}")
    import numpy as np  # only this check needs numpy; keep it off start-up

    rng = np.random.default_rng(seed)
    codes = np.asarray(cod.codes, dtype=np.int64)
    nonzero = np.flatnonzero(codes)
    rows, cols = np.divmod(nonzero, cod.n)
    code = codes[nonzero]
    var, conj = (code >> 2) - 1, code & 2
    sign = np.where(code & 1, -1, 1)
    for _ in range(trials):
        re = rng.uniform(-1.0, 1.0, size=cod.k)
        im = rng.uniform(-1.0, 1.0, size=cod.k)
        z = re + 1j * im
        mat = np.zeros((cod.p, cod.n), dtype=complex)
        mat[rows, cols] = sign * np.where(conj, z.conj()[var], z[var])
        norm = sum(abs(v) ** 2 for v in z.tolist())
        residual = mat.conj().T @ mat - norm * np.eye(cod.n)
        if np.abs(residual).max() >= tol:
            return False
    return True
