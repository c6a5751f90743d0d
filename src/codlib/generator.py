"""Explicit construction of the standard design and the column extension.

G_{2m-1} has one row per weight-(m+1) vector in F_2^{2m}; entry signs come
from the parity function theta.  A 2m-th column must hold +-(a ^ e_2m) in
each conjugated row a, and each Alamouti block of G ties two of those signs
by one XOR constraint phi(a) ^ phi(b) = i mod 2, where b = a ^ e ^ e_2m ^ e_i
is the step from a along column i.  `extend_g` answers this system in closed
form: for even m, phi is a's parity on the even columns; for odd m, a closed
walk that steps once along every column has odd parity and is returned as
the certificate that no such column exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from .bitvec import BitVec
from .errors import ParameterError
from .model import CodMatrix, Entry

M_MAX = 8  # desk-scale guard; p = C(2m, m-1) grows fast

Constraint = tuple[BitVec, BitVec, int]


def theta(alpha: BitVec, i: int) -> int:
    """Sign exponent for the nonzero entry at (alpha, i); requires alpha(i)=1."""
    two_m, a = alpha.length, alpha.mask
    if not 1 <= i <= two_m - 1:
        raise IndexError(f"column {i} out of range 1..{two_m - 1}")
    if not a >> (i - 1) & 1:
        raise ValueError(f"theta undefined: bit {i} of {alpha} is 0")
    w = (a >> (i - 1)).bit_count()  # bits i..2m
    if i % 2 == 0:
        return (w + i // 2) % 2
    return (w + (i - 1) // 2 + (a >> (two_m - 1))) % 2


def _check_m(m: int) -> None:
    if not 1 <= m <= M_MAX:
        raise ParameterError(f"m must be in 1..{M_MAX}, got {m}")


def row_ids_for(m: int) -> list[BitVec]:
    """All weight-(m+1) vectors in F_2^{2m}, ascending by mask."""
    ids = [
        BitVec(2 * m, sum(1 << (i - 1) for i in pos))
        for pos in combinations(range(1, 2 * m + 1), m + 1)
    ]
    ids.sort(key=lambda v: v.mask)
    return ids


def construct_g(m: int) -> CodMatrix:
    """Build the standard [C(2m,m-1), 2m-1, C(2m-1,m-1)] design."""
    _check_m(m)
    return _build_g(m, row_ids_for(m))


def _build_g(m: int, ids: list[BitVec]) -> CodMatrix:
    """G with one row per id of `ids`, which must be `row_ids_for(m)`."""
    two_m = 2 * m
    rows = []
    variables: dict[int, BitVec] = {}  # mask -> its one BitVec
    for alpha in ids:
        conj = alpha.mask >> (two_m - 1) == 1
        flip = (1 << two_m) - 1 if conj else 0  # e, for a conjugated row
        row: list[Optional[Entry]] = []
        for i in range(1, two_m):
            if not alpha.mask >> (i - 1) & 1:
                row.append(None)
                continue
            v = alpha.mask ^ 1 << (i - 1) ^ flip
            var = variables.get(v) or variables.setdefault(v, BitVec(two_m, v))
            sign = -1 if theta(alpha, i) else 1
            row.append(Entry(var=var, sign=sign, conj=conj))
        rows.append(row)
    return CodMatrix.from_rows(m, rows)


# -- the extension column --------------------------------------------------


@dataclass
class InconsistencyCertificate:
    """Closed walk of constraints whose parities XOR to 1."""

    constraints: list[Constraint]

    def parity(self) -> int:
        return sum(c for _, _, c in self.constraints) % 2


def check_certificate(m: int, constraints: list[Constraint]) -> bool:
    """Independent validation of an inconsistency certificate.

    Re-derives each constraint's parity from its endpoints alone, checks the
    sequence closes a walk, and checks the parities XOR to 1.
    """
    if not constraints:
        return False
    two_m = 2 * m
    e = BitVec.ones(two_m)
    e_2m = BitVec.unit(two_m, two_m)
    for a, b, c in constraints:
        if a.length != two_m or b.length != two_m:
            return False
        if a.weight() != m + 1 or b.weight() != m + 1:
            return False
        if a.bit(two_m) != 1 or b.bit(two_m) != 1:
            return False
        diff = a ^ b ^ e_2m ^ e
        if diff.weight() != 1:
            return False
        i = diff.support()[0]
        if i > two_m - 1 or a.bit(i) != 1 or c != i % 2:
            return False
    if sum(c for _, _, c in constraints) % 2 != 1:
        return False

    def closes_from(start: BitVec) -> bool:
        at = start
        for a, b, _ in constraints:
            if a == at:
                at = b
            elif b == at:
                at = a
            else:
                return False
        return at == start

    # the first constraint's orientation is not fixed; try both ends
    return closes_from(constraints[0][0]) or closes_from(constraints[0][1])


@dataclass
class ExtensionResult:
    """Outcome of attempting to append column 2m to the standard design.

    Exactly one of (design, solution_count_log2) or certificate is set; the
    new column is the last column of `design`.
    """

    design: Optional[CodMatrix] = None
    solution_count_log2: Optional[int] = None
    certificate: Optional[InconsistencyCertificate] = None

    @property
    def exists(self) -> bool:
        return self.design is not None


def _odd_walk(m: int) -> list[Constraint]:
    """Closed walk of 2m-1 constraints that steps once along every column.

    Its parity is the number of odd columns, m mod 2, so for odd m it is an
    inconsistency certificate.  It starts at the row with ones at 1..m-1,
    2m-1 and 2m and steps along the columns 1, m, 2, m+1, ..., m-1, 2m-2,
    2m-1.  Each pair of steps along i and m-1+i moves a 1 of the row from i
    to m-1+i, and the last step along 2m-1 leads back to the start.
    """
    two_m = 2 * m
    flip = (1 << (two_m - 1)) - 1  # e ^ e_2m
    a = (1 << (m - 1)) - 1 | 3 << (two_m - 2)
    columns = [c for i in range(1, m) for c in (i, m - 1 + i)] + [two_m - 1]
    walk: list[Constraint] = []
    for i in columns:
        b = a ^ flip ^ 1 << (i - 1)
        lo, hi = sorted((a, b))
        walk.append((BitVec(two_m, lo), BitVec(two_m, hi), i % 2))
        a = b
    return walk


def extend_g(m: int) -> ExtensionResult:
    """Decide existence of the [C(2m,m-1), 2m, C(2m-1,m-1)] extension.

    A step along column i maps conjugated row a to b = a ^ e ^ e_2m ^ e_i
    and requires phi(a) ^ phi(b) = i mod 2.  Let phi(a) be the parity of a
    on the even columns 2, 4, ..., 2m-2, pinned to 0 on the smallest
    conjugated row.
    - Two steps along columns i and j move a 1 of a from i to j, so the
      constraint graph is connected and phi is unique up to a global flip.
    - One step flips phi by (m-1-[i even]) mod 2, which equals i mod 2
      exactly when m is even; for odd m, `_odd_walk` is the certificate.
    """
    _check_m(m)
    if m % 2:
        return ExtensionResult(certificate=InconsistencyCertificate(_odd_walk(m)))
    ids = row_ids_for(m)
    g = _build_g(m, ids)
    two_m = 2 * m
    top = 1 << (two_m - 1)  # e_2m: the row is conjugated
    even = sum(1 << (i - 1) for i in range(2, two_m - 1, 2))
    pin = None
    column: list[Optional[Entry]] = []
    for alpha in ids:  # the rows of g, in order
        if not alpha.mask & top:
            column.append(None)
            continue
        phi = (alpha.mask & even).bit_count() % 2
        if pin is None:
            pin = phi
        sign = -1 if phi ^ pin else 1
        column.append(Entry(var=BitVec(two_m, alpha.mask ^ top), sign=sign, conj=False))
    rows = [list(row) + [x] for row, x in zip(g.cells, column)]
    return ExtensionResult(design=CodMatrix.from_rows(m, rows), solution_count_log2=1)
