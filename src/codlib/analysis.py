"""Structural inspectors and rate/delay bound calculators."""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

from .bitvec import BitVec, Record
from .errors import ParameterError

if TYPE_CHECKING:  # `bounds` runs without the model, `analyze` without `fractions`
    from fractions import Fraction

    from .model import CodMatrix


def max_rate(n: int) -> Fraction:
    """Tight rate bound (m+1)/(2m) with m = ceil(n/2)."""
    from fractions import Fraction  # it loads `decimal`; only `bounds` prints a rate

    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    m = (n + 1) // 2
    return Fraction(m + 1, 2 * m)


def min_delay(n: int) -> int:
    """Tight delay bound at maximal rate; doubled when n = 2 (mod 4)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    m = (n + 1) // 2
    base = comb(2 * m, m - 1)
    return 2 * base if n % 4 == 2 else base


class CheckResult(Record):
    def __init__(self, name: str, witnesses: list):
        self.name, self.witnesses = name, witnesses

    @property
    def ok(self) -> bool:
        return not self.witnesses


class StructuralReport(Record):
    def __init__(self, checks: list[CheckResult]):
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _check_pattern_completeness(cod: CodMatrix) -> CheckResult:
    """Minimal-delay designs carry every admissible zero pattern once:
    weights m and m+1 for n = 2m-1, weight m+1 for n = 2m."""
    m = cod.m
    admissible = {m, m + 1} if cod.n == 2 * m - 1 else {m + 1}  # n = 2m
    witnesses = []
    seen = set()
    for r, pat in enumerate(cod.patterns, start=1):
        if pat.bit_count() not in admissible:
            witnesses.append(("bad-weight", r, str(BitVec(cod.n, pat))))
        elif pat in seen:
            witnesses.append(("repeated", r, str(BitVec(cod.n, pat))))
        seen.add(pat)
    expected = sum(comb(cod.n, w) for w in admissible)
    if not witnesses and len(seen) != expected:
        witnesses.append(("missing-patterns", expected - len(seen)))
    return CheckResult("zero_pattern_completeness", witnesses)


def structural_report(cod: CodMatrix) -> StructuralReport:
    """Check the zero-pattern structure in one pass over each variable's
    instances, split into plain (`top`) and conjugated (`bottom`) ones.

    zero_pattern_relations: same-variable instance pairs.  Equal
    conjugation means the two zero patterns differ exactly at the instance
    columns; opposite conjugation means they agree exactly there.  Keyed by
    w = P[r] ^ e_c ^ (full if conjugated), two instances in columns
    c_i != c_j meet the condition P[r_i] ^ P[r_j] ^ (full if the flags
    differ) == e_{c_i} ^ e_{c_j} iff w_i == w_j (move one e and one flag
    term to each side), so only a variable with two keys or a repeated
    column needs the pair loop.

    block_structure: maximal-rate shape.  Each variable splits
    (m,m-1)/(m-1,m) across plain and conjugate instances ((m,m) for
    n = 2m), and the coupling block has no zero entries."""
    m, n, codes, patterns = cod.m, cod.n, cod.codes, cod.patterns
    full = (1 << n) - 1
    shapes = {(m, m - 1), (m - 1, m)} if n == 2 * m - 1 else {(m, m)}
    # index[var_id - 1]: the (top, bottom) positions r * n + c of the variable's cells, row-major
    index: list[tuple[list[int], list[int]]] = [([], []) for _ in cod.ids]
    for pos, code in enumerate(codes):
        if code:
            index[(code >> 2) - 1][code >> 1 & 1].append(pos)
    relations, blocks = [], []
    for var, (top, bottom) in zip(cod.ids, index):
        keys = {patterns[pos // n] ^ 1 << pos % n for pos in top}
        keys.update(patterns[pos // n] ^ full ^ 1 << pos % n for pos in bottom)
        if len(keys) > 1 or len({pos % n for pos in top + bottom}) < len(top) + len(bottom):
            inst = [(*divmod(pos, n), codes[pos] & 2) for pos in sorted(top + bottom)]
            for a, (ra, ca, xa) in enumerate(inst, 1):
                for rb, cb, xb in inst[a:]:
                    got = patterns[ra] ^ patterns[rb]
                    if xa != xb:
                        got ^= full
                    if got != 1 << ca | 1 << cb:
                        cols = [i for i in range(1, n + 1) if got >> (i - 1) & 1]
                        relations.append((var, (ra + 1, ca + 1), (rb + 1, cb + 1), cols))
        if (len(top), len(bottom)) not in shapes:
            blocks.append(("shape", var, (len(top), len(bottom))))
            continue
        block = sum({1 << pos % n for pos in bottom})  # the conjugate-instance columns
        if any(patterns[pos // n] & block != block for pos in top):
            blocks.append(("zero-in-coupling-block", var))
    return StructuralReport(
        checks=[
            CheckResult("zero_pattern_relations", relations),
            _check_pattern_completeness(cod),
            CheckResult("block_structure", blocks),
        ]
    )
