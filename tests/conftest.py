import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

from codlib import BitVec, CodMatrix, Entry
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
    z1, z2, z3 = (BitVec.unit(4, i) for i in (1, 2, 3))
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
                residual = {k: v for k, v in residual.items() if v}
                if residual:
                    failures.append(((a + 1,), residual))
            elif acc:
                failures.append(((a + 1, b + 1), acc))
    return VerificationReport(ok=not failures, failures=failures)
