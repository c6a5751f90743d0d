"""Symbolic COD matrices and orthogonality verification.

A design is a p x n grid of cells; each cell is either zero (None) or a
signed, optionally conjugated instance of one complex variable.  Variables
are identified by bit vectors.  Orthogonality is checked exactly, over
commuting symbols, with a seeded numeric substitution as a secondary smoke
test.  The diagonal Gram entry (a, a) is right iff column a holds every
variable once; then a monomial conj(O[r,a]) O[r,b] can cancel only against
the row where column a holds O[r,b]'s variable, so one test per pair of
nonzero cells in a row decides every entry without expanding it.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from .bitvec import BitVec
from .errors import MixedConjugationError, ParameterError


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


@dataclass(frozen=True)
class CodMatrix:
    """A p x n symbolic design with k distinct variables."""

    p: int
    n: int
    cells: tuple[tuple[Cell, ...], ...]

    @property
    def m(self) -> int:
        """The family index: n = 2m-1, or n = 2m for an extended design."""
        return (self.n + 1) // 2

    @property
    def k(self) -> int:
        """The number of distinct variables."""
        return len(self._variables)

    @classmethod
    def from_rows(cls, m: int, rows: Sequence[Sequence[Cell]]) -> "CodMatrix":
        """Build a design; `m` must equal (n+1)//2 for the rows' n columns."""
        p = len(rows)
        if p == 0:
            raise ParameterError("design needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise ParameterError("rows have unequal lengths")
        if m != (n + 1) // 2:
            raise ParameterError(f"m={m} but n={n} needs m={(n + 1) // 2}")
        return cls(p=p, n=n, cells=tuple(tuple(r) for r in rows))

    def entry(self, row: int, col: int) -> Cell:
        if not (1 <= row <= self.p and 1 <= col <= self.n):
            raise IndexError(f"cell ({row},{col}) out of range")
        return self.cells[row - 1][col - 1]

    def row(self, row: int) -> tuple[Cell, ...]:
        if not 1 <= row <= self.p:
            raise IndexError(f"row {row} out of range 1..{self.p}")
        return self.cells[row - 1]

    @cached_property
    def _variables(self) -> tuple[BitVec, ...]:
        seen = {e.var for row in self.cells for e in row if e is not None}
        return tuple(sorted(seen, key=lambda v: v.mask))

    def variables(self) -> tuple[BitVec, ...]:
        """Distinct variable ids, ascending by mask; computed once."""
        return self._variables

    @cached_property
    def _instance_index(self) -> dict[BitVec, list[tuple[int, int, Entry]]]:
        index: dict[BitVec, list[tuple[int, int, Entry]]] = {}
        for r, row in enumerate(self.cells, start=1):
            for c, e in enumerate(row, start=1):
                if e is not None:
                    index.setdefault(e.var, []).append((r, c, e))
        return index

    def instances(self, var: BitVec) -> list[tuple[int, int, Entry]]:
        """All (row, col, entry) where the given variable appears, row-major.

        The var -> instances index is built on the first call and kept.
        """
        return list(self._instance_index.get(var, ()))


def zero_pattern(cod: CodMatrix, row: int) -> BitVec:
    """Per-row bit vector: bit i set iff column i holds a nonzero entry."""
    mask = sum(1 << i for i, e in enumerate(cod.row(row)) if e is not None)
    return BitVec(cod.n, mask)


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
    n = cod.n
    # grid[r * n + c] codes cell (r, c) as var_id << 2 | conj << 1 | neg with
    # var_id >= 1, or 0 for a zero cell.
    ids: dict[tuple[int, int], int] = {}  # (mask, length) -> var_id << 2
    grid = array("q", [0]) * (cod.p * n)
    rows = []  # per row: its nonzero columns
    base = 0
    for row in cod.cells:
        cols = []
        for c, e in enumerate(row):
            if e is not None:
                key = (e.var.mask, e.var.length)
                v = ids.get(key)
                if v is None:
                    v = ids[key] = len(ids) + 1 << 2
                grid[base + c] = v | e.conj << 1 | (e.sign < 0)
                cols.append(c)
        rows.append(cols)
        base += n
    # at[a][var_id] is r * n for the row r where column a holds that variable.
    at = [[-1] * (len(ids) + 1) for _ in range(n)]
    bad_columns = set()
    base = 0
    for cols in rows:
        for a in cols:
            v = grid[base + a] >> 2
            if at[a][v] >= 0:
                bad_columns.add(a)
            at[a][v] = base
        base += n
    bad_columns.update(a for a in range(n) if -1 in at[a][1:])

    bad_pairs = set()
    base = 0
    for cols in rows:
        for i, a in enumerate(cols, 1):
            if a in bad_columns:
                continue
            t = grid[base + a]
            col = at[a]
            for b in cols[i:]:
                # q is r' * n; O[r',b] must be t's variable with the other
                # flag (x >> 1 == 1), and O[r',a] must differ from u in flag
                # and, together with x, in sign parity.
                u = grid[base + b]
                q = col[u >> 2]
                x = grid[q + b] ^ t
                if x >> 1 != 1 or x ^ u ^ grid[q + a] != 1:
                    bad_pairs.add((a, b))
        base += n

    failures = []
    for a in range(n):
        if a in bad_columns:
            support = [r for r, row in enumerate(cod.cells) if row[a] is not None]
            residual = Counter(gram_entry(cod.cells, a, a, support))
            residual.subtract({
                ((v.mask, v.length, False), (v.mask, v.length, True)): 1
                for v in cod.variables()
            })
            failures.append(((a + 1,), {k: v for k, v in residual.items() if v}))
        for b in range(a + 1, n):
            if (a, b) in bad_pairs or bad_columns & {a, b}:
                shared = [r for r, row in enumerate(cod.cells)
                          if row[a] is not None and row[b] is not None]
                acc = gram_entry(cod.cells, a, b, shared)
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
    variables = cod.variables()
    index = {v: i for i, v in enumerate(variables)}
    nonzero = [(r, c, index[e.var], e.sign, e.conj) for r, row in enumerate(cod.cells)
               for c, e in enumerate(row) if e is not None]
    rows, cols, var, sign, conj = np.array(nonzero, dtype=np.intp).reshape(-1, 5).T
    for _ in range(trials):
        re = rng.uniform(-1.0, 1.0, size=len(variables))
        im = rng.uniform(-1.0, 1.0, size=len(variables))
        z = re + 1j * im
        mat = np.zeros((cod.p, cod.n), dtype=complex)
        mat[rows, cols] = sign * np.where(conj, z.conj()[var], z[var])
        norm = sum(abs(v) ** 2 for v in z.tolist())
        residual = mat.conj().T @ mat - norm * np.eye(cod.n)
        if np.abs(residual).max() >= tol:
            return False
    return True
