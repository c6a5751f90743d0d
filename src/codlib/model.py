"""Symbolic COD matrices and orthogonality verification.

A design is a p x n grid of cells, stored as one row-major array of int
cell codes and one table of its distinct variable ids (`BitVec`s), sorted
by (mask, length).  A zero cell has code 0; a signed, optionally
conjugated instance of a variable has code var_id << 2 | conj << 1 | neg,
where var_id is 1 + the variable's position in the table.  Equal designs
therefore have equal codes, and every kernel, the oracle's search
included, reads and writes the codes.  Every encoder numbers a design's
variables by the sorted table before it writes a code, and writes each
code once.  `CodMatrix.from_rows` is the one encoder of `Entry` rows and
`CodMatrix.cells` the one decoder.

Orthogonality is checked exactly, over commuting symbols, and by an exact
randomized identity test at seeded integer points.  The diagonal Gram entry
(a, a) is right iff column a holds every variable once; then a monomial
conj(O[r,a]) O[r,b] can cancel only against one row r', and one pass tests
each Alamouti block from one of its rows, since a failing untested pair
always leads down to a failing tested one.
"""

from __future__ import annotations

from array import array
from collections import Counter
from functools import cached_property
from itertools import compress
from typing import Optional, Sequence

from .bitvec import BitVec, FrozenRecord
from .errors import ParameterError

M_MAX = 8  # desk-scale guard; p = C(2m, m-1) grows fast


class Entry(FrozenRecord):
    """One nonzero cell: sign * var, conjugated if conj is set."""

    def __init__(self, var: BitVec, sign: int = 1, conj: bool = False):
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self._set("var", var)
        self._set("sign", sign)
        self._set("conj", conj)

    def negated(self) -> "Entry":
        return Entry(self.var, -self.sign, self.conj)

    def conjugated(self) -> "Entry":
        return Entry(self.var, self.sign, not self.conj)


Cell = Optional[Entry]


def id_order(var: BitVec) -> tuple[int, int]:
    """The sort key of the variable table."""
    return var.mask, var.length


class CodMatrix(FrozenRecord):
    """A p x n symbolic design with k distinct variables.

    `codes[r * n + c]` is the code of the 0-based cell (r, c), and `ids`
    holds each variable that appears, ascending by (mask, length).  `codes`
    is read-only after construction: derived state, the Gram report of
    `verify_symbolic` included, is computed once per design on first use
    and is no part of equality or the hash.
    """

    def __init__(self, n: int, codes: array, ids: tuple[BitVec, ...]):
        self._set("n", n)
        self._set("codes", codes)
        self._set("ids", ids)

    def __eq__(self, other):
        if other.__class__ is CodMatrix:
            return self.n == other.n and self.codes == other.codes and self.ids == other.ids
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.n, self.codes.tobytes(), self.ids))

    @property
    def p(self) -> int:
        """The number of rows."""
        return len(self.codes) // self.n

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
        if not rows:
            raise ParameterError("design needs at least one row")
        n = len(rows[0])
        if n == 0:
            raise ParameterError("design needs at least one column")
        if any(len(r) != n for r in rows):
            raise ParameterError("rows have unequal lengths")
        if m != (n + 1) // 2:
            raise ParameterError(f"m={m} but n={n} needs m={(n + 1) // 2}")
        ids = sorted({e.var for row in rows for e in row if e is not None}, key=id_order)
        var_ids = {var: v << 2 for v, var in enumerate(ids, 1)}
        codes = array("q", [
            0 if e is None else var_ids[e.var] | e.conj << 1 | (e.sign < 0)
            for row in rows for e in row
        ])
        return cls(n, codes, tuple(ids))

    @cached_property
    def cells(self) -> tuple[tuple[Cell, ...], ...]:
        """The rows of `Entry` cells (None for zero), built on first use."""
        ids = self.ids
        built = {
            code: Entry(ids[(code >> 2) - 1], -1 if code & 1 else 1, bool(code & 2))
            if code else None
            for code in set(self.codes)
        }
        flat = list(map(built.__getitem__, self.codes))
        n = self.n
        return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n))

    @cached_property
    def _gram_report(self) -> "VerificationReport":
        """The report of `verify_symbolic`, checked on first use."""
        return _check_gram(self)

    @cached_property
    def patterns(self) -> list[int]:
        """Per row, the mask of its nonzero columns (bit c for column c+1)."""
        bits = [1 << c for c in range(self.n)]
        codes, n = self.codes, self.n
        return [sum(compress(bits, codes[i:i + n])) for i in range(0, len(codes), n)]


# -- symbolic verification -------------------------------------------------

# A symbol is a factor's var_id << 1 | conj, so symbols sort like the
# variable table; a monomial is a sorted pair of symbols with an integer
# coefficient.  Commutativity makes cancellation a multiset test.


def gram_entry(
    codes: Sequence[int], n: int, a: int, b: int, rows: Sequence[int]
) -> dict:
    """Nonzero monomials of the formal (a, b) entry of O^H O.

    `codes` is a row-major grid of cell codes with `n` columns, `a` and `b`
    are 0-based columns and `rows` lists the 0-based rows to sum over; a
    row where either cell is zero adds nothing.
    """
    acc: dict = {}
    for r in rows:
        ca, cb = codes[r * n + a], codes[r * n + b]
        if not (ca and cb):
            continue
        sa, sb = ca >> 1 ^ 1, cb >> 1  # column a's factor is conjugated
        mono = (sa, sb) if sa <= sb else (sb, sa)
        acc[mono] = acc.get(mono, 0) + (-1 if (ca ^ cb) & 1 else 1)
    return {mono: c for mono, c in acc.items() if c}


class VerificationReport(FrozenRecord):
    """Per failing Gram entry, its 1-based column (a,) or columns (a, b) and
    its residual, a tuple of (monomial, coefficient) pairs."""

    def __init__(self, failures: tuple[tuple[tuple[int, ...], tuple], ...]):
        self._set("failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_symbolic(cod: CodMatrix) -> VerificationReport:
    """Exact orthogonality check: O^H O = (sum |z_j|^2) I, formally.

    Off-diagonal Gram entries must cancel to zero; every diagonal entry
    must be exactly the sum of z_j* z_j over all k variables, once each.
    Failure positions are 1-based columns.  Each design is checked once.
    """
    return cod._gram_report


def _check_gram(cod: CodMatrix) -> VerificationReport:
    """`verify_symbolic`'s check.  The diagonal entry (a, a) holds each
    variable of column a once per instance, so it is right iff column a
    holds every variable exactly once.  Then the monomial conj(O[r,a]) O[r,b]
    can cancel only against row r' = the row where column a holds O[r,b]'s
    variable, and it does iff O[r',b] is O[r,a]'s variable with the other
    conjugation flag, O[r',a] has the other flag than O[r,b], and the two
    sign products differ; never if r' = r or O[r',b] is zero.  The pass
    tests the pair (a, b) of row r unless r' comes earlier and O[r',b] is
    nonzero.  The test is symmetric, so if r fails, r' fails: were r' to
    pass, its own partner would be the row where column b holds O[r,b]'s
    variable, which is r.  Following partners down ends at a tested
    failure, so the pass finds every failing pair.  `gram_entry` expands
    only those entries, or every entry if a column's diagonal fails, to
    report their residuals.
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
    if not bad_columns:
        base = 0
        for cols in rows:
            for i, a in enumerate(cols, 1):
                t = codes[base + a]
                col = at[a]
                for b in cols[i:]:
                    # q is r' * n; O[r',b] must be t's variable with the other
                    # flag (x >> 1 == 1), and O[r',a] must differ from u in flag
                    # and, together with x, in sign parity.
                    u = codes[base + b]
                    q = col[u >> 2]
                    if q >= base or not codes[q + b]:
                        x = codes[q + b] ^ t
                        if x >> 1 != 1 or x ^ u ^ codes[q + a] != 1:
                            bad_pairs.add((a, b))
            base += n
        if not bad_pairs:
            return VerificationReport(())

    failures = []
    for a in range(n):
        if a in bad_columns:
            residual = Counter(gram_entry(codes, n, a, a, range(cod.p)))
            residual.subtract({(v << 1, v << 1 | 1): 1 for v in range(1, cod.k + 1)})
            failures.append(((a + 1,), residual))
        for b in range(a + 1, n):
            if bad_columns or (a, b) in bad_pairs:
                acc = gram_entry(codes, n, a, b, range(cod.p))
                if acc:
                    failures.append(((a + 1, b + 1), acc))
    # only the reported symbols are decoded, to (var mask, var length, conj);
    # tuples keep the report, cached on the design, read-only and picklable
    names = [(v.mask, v.length) for v in cod.ids]
    failures = tuple(
        (where, tuple(
            (tuple(names[(s >> 1) - 1] + (bool(s & 1),) for s in mono), c)
            for mono, c in monomials.items() if c))
        for where, monomials in failures
    )
    return VerificationReport(failures)


def check_numeric_options(trials: int, seed: int) -> None:
    """Raise ParameterError unless `verify_numeric` accepts `trials` and `seed`."""
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def verify_numeric(cod: CodMatrix, trials: int = 10, seed: int = 0) -> bool:
    """Check O^H O = (z . z*) I exactly at seeded random integer points.

    Each trial draws an integer in [-2^16, 2^16) for every z_v and, apart
    from it, for every z_v*, and compares the Gram matrix there with
    (z . z*) I by exact equality.  While p and k are below 2^21, every
    partial sum is an integer below 2^53, so float64 is exact; the loader
    caps p at 11440 and n at 16, so k <= 183040.  A non-orthogonal design's
    residual is a nonzero polynomial of degree 2, so it passes one trial
    with probability at most 2^-16 (Schwartz-Zippel).
    """
    check_numeric_options(trials, seed)
    import numpy as np  # only this check needs numpy; keep it off start-up

    rng = np.random.default_rng(seed)
    codes = np.asarray(cod.codes, dtype=np.int64).reshape(cod.p, cod.n)
    # values[code] is the cell's value: 0 for var_id 0, then per var_id v
    # z_v, -z_v, z_v*, -z_v* (the order of code & 3); code ^ 2 conjugates
    values = np.zeros(4 * cod.k + 4)
    for _ in range(trials):
        z, zs = rng.integers(-1 << 16, 1 << 16, size=(2, cod.k)).astype(float)
        values[4:] = np.stack([z, -z, zs, -zs], axis=1).ravel()
        gram = values[codes ^ 2].T @ values[codes]
        if not np.array_equal(gram, (z @ zs) * np.eye(cod.n)):
            return False
    return True
