"""Structural inspectors and rate/delay bound calculators."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Optional

from .bitvec import BitVec
from .errors import DesignError, ParameterError
from .model import CodMatrix, Entry, zero_pattern


@dataclass
class BjForm:
    """All instances of one variable: plain block, conjugate block, coupling."""

    var: BitVec
    n1: int  # rows carrying the plain instance
    n2: int  # rows carrying the conjugate instance
    top_rows: list[int]
    bottom_rows: list[int]
    block: list[list[Optional[Entry]]]  # top rows x conjugate-instance columns


def extract_bj(cod: CodMatrix, var: BitVec) -> BjForm:
    """Partition the rows containing `var` by conjugation of its instance."""
    instances = cod.instances(var)
    if not instances:
        raise DesignError(f"variable {var} does not appear")
    top = [(r, c) for r, c, e in instances if not e.conj]
    bottom = [(r, c) for r, c, e in instances if e.conj]
    bottom_cols = sorted(c for _, c in bottom)
    block = [
        [cod.entry(r, c) for c in bottom_cols] for r, _ in sorted(top)
    ]
    return BjForm(
        var=var,
        n1=len(top),
        n2=len(bottom),
        top_rows=sorted(r for r, _ in top),
        bottom_rows=sorted(r for r, _ in bottom),
        block=block,
    )


def shares_alamouti(
    cod: CodMatrix, row_a: int, row_b: int
) -> Optional[tuple[int, int]]:
    """Column pair where the two rows form an Alamouti 2x2, if any.

    The 2x2 block ((z_a, z_b), (-z_b*, z_a*)) is matched up to negation or
    conjugation of either variable: cross-diagonal cells carry the same
    variable with opposite conjugation, and the sign product over the four
    cells is -1.
    """
    if row_a == row_b:
        return None
    for i in range(1, cod.n + 1):
        for j in range(i + 1, cod.n + 1):
            ai, aj = cod.entry(row_a, i), cod.entry(row_a, j)
            bi, bj = cod.entry(row_b, i), cod.entry(row_b, j)
            if None in (ai, aj, bi, bj):
                continue
            if ai.var != bj.var or aj.var != bi.var or ai.var == aj.var:
                continue
            if ai.conj == bj.conj or aj.conj == bi.conj:
                continue
            if ai.sign * bj.sign * aj.sign * bi.sign == -1:
                return (i, j)
    return None


@dataclass
class BoundsReport:
    n: int
    m: int
    max_rate: Fraction
    min_delay: Optional[int]


def max_rate(n: int) -> Fraction:
    """Tight rate bound (m+1)/(2m) with m = ceil(n/2)."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    m = (n + 1) // 2
    return Fraction(m + 1, 2 * m)


def min_delay(n: int) -> int:
    """Tight delay bound at maximal rate; doubled when n = 2 (mod 4)."""
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    m = (n + 1) // 2
    base = comb(2 * m, m - 1)
    return 2 * base if n % 4 == 2 else base


BOUNDS_N_MAX = 10000  # the delay C(2m,m-1) stays below Python's 4300-digit str limit


def bounds(n: int) -> BoundsReport:
    if n > BOUNDS_N_MAX:
        raise ParameterError(f"n must be <= {BOUNDS_N_MAX}, got {n}")
    m = (n + 1) // 2
    return BoundsReport(
        n=n, m=m, max_rate=max_rate(n), min_delay=min_delay(n) if n >= 2 else None
    )


@dataclass
class CheckResult:
    name: str
    ok: bool
    witnesses: list = field(default_factory=list)


@dataclass
class StructuralReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _check_pattern_relations(cod: CodMatrix, patterns: list[int]) -> CheckResult:
    """Same-variable instance pairs: equal conjugation means the two zero
    patterns differ exactly at the instance columns; opposite conjugation
    means they agree exactly there."""
    witnesses = []
    for var in cod.variables():
        inst = cod.instances(var)
        for a in range(len(inst)):
            ra, ca, ea = inst[a]
            for rb, cb, eb in inst[a + 1:]:
                got = patterns[ra - 1] ^ patterns[rb - 1]
                if ea.conj != eb.conj:
                    got ^= (1 << cod.n) - 1
                if got != 1 << (ca - 1) | 1 << (cb - 1):
                    cols = [i for i in range(1, cod.n + 1) if got >> (i - 1) & 1]
                    witnesses.append((var, (ra, ca), (rb, cb), cols))
    return CheckResult("zero_pattern_relations", not witnesses, witnesses)


def _check_pattern_completeness(cod: CodMatrix, patterns: list[int]) -> CheckResult:
    """Minimal-delay designs carry every admissible zero pattern once:
    weights m and m+1 for n = 2m-1, weight m+1 for n = 2m."""
    m = cod.m
    admissible = {m, m + 1} if cod.n == 2 * m - 1 else {m + 1}  # n = 2m
    witnesses = []
    seen = set()
    for r, pat in enumerate(patterns, start=1):
        if pat.bit_count() not in admissible:
            witnesses.append(("bad-weight", r, str(BitVec(cod.n, pat))))
        elif pat in seen:
            witnesses.append(("repeated", r, str(BitVec(cod.n, pat))))
        seen.add(pat)
    expected = sum(comb(cod.n, w) for w in admissible)
    if not witnesses and len(seen) != expected:
        witnesses.append(("missing-patterns", expected - len(seen)))
    return CheckResult("zero_pattern_completeness", not witnesses, witnesses)


def _check_block_structure(cod: CodMatrix) -> CheckResult:
    """Maximal-rate shape: each variable splits (m,m-1)/(m-1,m) across
    plain and conjugate instances ((m,m) for n = 2m), and the coupling
    block has no zero entries."""
    m = cod.m
    if cod.n == 2 * m - 1:
        shapes = {(m, m - 1), (m - 1, m)}
    else:
        shapes = {(m, m)}
    witnesses = []
    for var in cod.variables():
        bj = extract_bj(cod, var)
        if (bj.n1, bj.n2) not in shapes:
            witnesses.append(("shape", var, (bj.n1, bj.n2)))
            continue
        for row in bj.block:
            if any(e is None for e in row):
                witnesses.append(("zero-in-coupling-block", var))
                break
    return CheckResult("block_structure", not witnesses, witnesses)


def structural_report(cod: CodMatrix) -> StructuralReport:
    patterns = [zero_pattern(cod, r).mask for r in range(1, cod.p + 1)]
    return StructuralReport(
        checks=[
            _check_pattern_relations(cod, patterns),
            _check_pattern_completeness(cod, patterns),
            _check_block_structure(cod),
        ]
    )
