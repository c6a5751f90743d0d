"""Structural inspectors and rate/delay bound calculators."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import TYPE_CHECKING

from .bitvec import BitVec, Record
from .errors import ParameterError

if TYPE_CHECKING:  # `bounds` runs without the model
    from .model import CodMatrix


def max_rate(n: int) -> Fraction:
    """Tight rate bound (m+1)/(2m) with m = ceil(n/2)."""
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


def _check_pattern_relations(cod: CodMatrix) -> CheckResult:
    """Same-variable instance pairs: equal conjugation means the two zero
    patterns differ exactly at the instance columns; opposite conjugation
    means they agree exactly there.  Keyed by w = P[r] ^ e_c ^ (full if
    conjugated), two instances in columns c_i != c_j meet the condition
    P[r_i] ^ P[r_j] ^ (full if the flags differ) == e_{c_i} ^ e_{c_j} iff
    w_i == w_j (move one e and one flag term to each side), so only a
    variable with two keys or a repeated column needs the pair loop."""
    n, codes, patterns = cod.n, cod.codes, cod.patterns
    full = (1 << n) - 1
    flip, bits = [0, 0, full], [1 << c for c in range(n)]  # flip[conj flag << 1]
    witnesses = []
    for var, positions in zip(cod.ids, cod._instance_index[1:]):
        keys = {patterns[pos // n] ^ bits[pos % n] ^ flip[codes[pos] & 2] for pos in positions}
        if len(keys) == 1 and len({pos % n for pos in positions}) == len(positions):
            continue
        inst = [(*divmod(pos, n), codes[pos] & 2) for pos in positions]
        for a, (ra, ca, xa) in enumerate(inst, 1):
            for rb, cb, xb in inst[a:]:
                got = patterns[ra] ^ patterns[rb]
                if xa != xb:
                    got ^= full
                if got != 1 << ca | 1 << cb:
                    cols = [i for i in range(1, n + 1) if got >> (i - 1) & 1]
                    witnesses.append((var, (ra + 1, ca + 1), (rb + 1, cb + 1), cols))
    return CheckResult("zero_pattern_relations", witnesses)


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


def _check_block_structure(cod: CodMatrix) -> CheckResult:
    """Maximal-rate shape: each variable splits (m,m-1)/(m-1,m) across
    plain and conjugate instances ((m,m) for n = 2m), and the coupling
    block has no zero entries."""
    m, n, codes, patterns = cod.m, cod.n, cod.codes, cod.patterns
    if n == 2 * m - 1:
        shapes = {(m, m - 1), (m - 1, m)}
    else:
        shapes = {(m, m)}
    witnesses = []
    for var, positions in zip(cod.ids, cod._instance_index[1:]):
        top = [pos for pos in positions if not codes[pos] & 2]
        bottom = [pos for pos in positions if codes[pos] & 2]
        if (len(top), len(bottom)) not in shapes:
            witnesses.append(("shape", var, (len(top), len(bottom))))
            continue
        block = sum({1 << pos % n for pos in bottom})  # the conjugate-instance columns
        if any(patterns[pos // n] & block != block for pos in top):
            witnesses.append(("zero-in-coupling-block", var))
    return CheckResult("block_structure", witnesses)


def structural_report(cod: CodMatrix) -> StructuralReport:
    return StructuralReport(
        checks=[
            _check_pattern_relations(cod),
            _check_pattern_completeness(cod),
            _check_block_structure(cod),
        ]
    )
