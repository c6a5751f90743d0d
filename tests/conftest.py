import shutil
import tempfile
from collections import Counter
from typing import Optional

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from codlib import BitVec, CodMatrix, Entry
from codlib.analysis import CheckResult
from codlib.model import VerificationReport

# Hypothesis caches the constants it reads from the source in its home
# directory even without an example database; keep that out of the tree.
HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="codlib-hypothesis-")
set_hypothesis_home_dir(HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(HYPOTHESIS_HOME, ignore_errors=True)


def make_eq3() -> CodMatrix:
    """The well-known [4,3,3] design with rows
    (z1, z2, z3), (-z2*, z1*, 0), (-z3*, 0, z1*), (0, z3*, -z2*)."""
    z1, z2, z3 = (BitVec(4, 1 << (i - 1)) for i in (1, 2, 3))
    t = lambda v, s=1, c=False: Entry(v, s, c)
    rows = [
        [t(z1), t(z2), t(z3)],
        [t(z2, -1, True), t(z1, 1, True), None],
        [t(z3, -1, True), None, t(z1, 1, True)],
        [None, t(z3, 1, True), t(z2, -1, True)],
    ]
    return CodMatrix.from_rows(2, rows)


@pytest.fixture
def eq3() -> CodMatrix:
    return make_eq3()


def instances(cod: CodMatrix, var: BitVec) -> list[tuple[int, int, Entry]]:
    """All 1-based (row, col, entry) where `var` appears, row-major."""
    return [(r, c, e) for r, row in enumerate(cod.cells, 1)
            for c, e in enumerate(row, 1) if e is not None and e.var == var]


def row_ids(cod: CodMatrix) -> list[BitVec]:
    """Each row's zero pattern, plus bit n+1 if it holds a conjugated cell."""
    n, codes = cod.n, cod.codes
    conj = [any(code & 2 for code in codes[i:i + n]) for i in range(0, len(codes), n)]
    return [BitVec(n + 1, pat | flag << n) for pat, flag in zip(cod.patterns, conj)]


def theta(alpha: BitVec, i: int) -> int:
    """The sign parity of G's cell at row id alpha, 1-based column i, where
    alpha has bit i set: wt_{i..2m}(alpha) + floor(i/2), plus alpha's bit 2m
    at odd i, mod 2."""
    a = alpha.mask
    return ((a >> (i - 1)).bit_count() + i // 2 + i % 2 * (a >> (alpha.length - 1))) % 2


def reference_gram_entry(cells, a, b, rows) -> dict:
    """Nonzero monomials of the formal (a, b) entry of O^H O, on `Entry` rows.

    `cells` is the row grid, `a` and `b` are 0-based columns and `rows`
    lists the 0-based rows where both columns are nonzero.  A symbol is
    (var mask, var length, conj); a monomial is a sorted pair of symbols.
    """
    acc: dict = {}
    for r in rows:
        ea, eb = cells[r][a], cells[r][b]
        sa = (ea.var.mask, ea.var.length, not ea.conj)
        sb = (eb.var.mask, eb.var.length, eb.conj)
        mono = (sa, sb) if sa <= sb else (sb, sa)
        acc[mono] = acc.get(mono, 0) + ea.sign * eb.sign
    return {mono: c for mono, c in acc.items() if c}


def reference_verify_symbolic(cod):
    """The column-pair check: expand every Gram entry of the `Entry` rows."""
    expected_diag = {
        ((v.mask, v.length, False), (v.mask, v.length, True)): 1
        for v in cod.ids
    }
    support = [
        [r for r, row in enumerate(cod.cells) if row[c] is not None]
        for c in range(cod.n)
    ]
    failures = []
    for a in range(cod.n):
        in_a = set(support[a])
        for b in range(a, cod.n):
            shared = [r for r in support[b] if r in in_a]
            acc = reference_gram_entry(cod.cells, a, b, shared)
            if a == b:
                residual = Counter(acc)
                residual.subtract(expected_diag)
                residual = tuple((k, v) for k, v in residual.items() if v)
                if residual:
                    failures.append(((a + 1,), residual))
            elif acc:
                failures.append(((a + 1, b + 1), tuple(acc.items())))
    return VerificationReport(tuple(failures))


class ParityForest:
    """Union-find with parity over the nodes 0..size-1, union by size.

    Each node has a potential relative to its root; `join` records
    x[a] ^ x[b] = c on top of the relations already joined.
    """

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size
        self.size = [1] * size

    def find(self, x: int) -> tuple[int, int]:
        """(root, potential) of node x."""
        p = 0
        while self.parent[x] != x:
            p ^= self.parity[x]
            x = self.parent[x]
        return x, p

    def join(self, a: int, b: int, c: int) -> Optional[int]:
        """None if the edge joined two trees, else x[a] ^ x[b] ^ c (0: agrees)."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa ^ pb ^ c
        if self.size[ra] > self.size[rb]:
            ra, rb = rb, ra
        self.parent[ra] = rb
        self.parity[ra] = pa ^ pb ^ c
        self.size[rb] += self.size[ra]
        return None


def reference_pattern_relations(cod) -> CheckResult:
    """The zero-pattern relations tested pair by pair: every two instances
    of a variable, in row-major order, read off the `Entry` cells."""
    n = cod.n
    full = (1 << n) - 1
    patterns = [sum(1 << c for c, e in enumerate(row) if e is not None) for row in cod.cells]
    found: dict = {var: [] for var in cod.ids}  # var -> its (row, col, conj), 0-based
    for r, row in enumerate(cod.cells):
        for c, e in enumerate(row):
            if e is not None:
                found[e.var].append((r, c, e.conj))
    witnesses = []
    for var, inst in found.items():
        for a, (ra, ca, xa) in enumerate(inst, 1):
            for rb, cb, xb in inst[a:]:
                got = patterns[ra] ^ patterns[rb]
                if xa != xb:
                    got ^= full
                if got != 1 << ca | 1 << cb:
                    cols = [i for i in range(1, n + 1) if got >> (i - 1) & 1]
                    witnesses.append((var, (ra + 1, ca + 1), (rb + 1, cb + 1), cols))
    return CheckResult("zero_pattern_relations", witnesses)
