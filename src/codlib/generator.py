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

from array import array
from itertools import combinations
from typing import Optional

from .bitvec import BitVec, Record
from .errors import ParameterError
from .model import M_MAX, CodMatrix

Constraint = tuple[BitVec, BitVec, int]


def theta(alpha: BitVec, i: int) -> int:
    """Sign exponent for the nonzero entry at (alpha, i); requires alpha(i)=1."""
    two_m, a = alpha.length, alpha.mask
    if not 1 <= i <= two_m - 1:
        raise IndexError(f"column {i} out of range 1..{two_m - 1}")
    if not a >> (i - 1) & 1:
        raise ValueError(f"theta undefined: bit {i} of {alpha} is 0")
    return _theta(a, two_m, i - 1)


def _theta(a: int, two_m: int, c: int) -> int:
    """theta of the row with mask a at the 0-based column c."""
    w = (a >> c).bit_count()  # bits c+1..2m
    if c % 2:
        return (w + (c + 1) // 2) % 2
    return (w + c // 2 + (a >> (two_m - 1))) % 2


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
    return _build_g(m)


def _build_g(m: int, extend: bool = False) -> CodMatrix:
    """G, one row per id of `row_ids_for(m)`; with `extend`, also the 2m-th
    column that `extend_g` derives for even m."""
    ids = row_ids_for(m)
    two_m, n = 2 * m, 2 * m - 1
    e = (1 << two_m) - 1
    top = 1 << n  # e_2m: the row is conjugated
    even = sum(1 << c for c in range(1, n, 2))  # the even columns 2, 4, ..., 2m-2
    # the variables are the weight-m masks below e_2m
    masks = sorted(sum(1 << c for c in pos) for pos in combinations(range(n), m))
    var_ids = {v: i << 2 for i, v in enumerate(masks, 1)}
    codes = array("q")
    pin = None
    for alpha in ids:
        a = alpha.mask
        conj = a >> n
        flip = e if conj else 0
        codes.extend([
            var_ids[a ^ 1 << c ^ flip] | conj << 1 | _theta(a, two_m, c) if a >> c & 1 else 0
            for c in range(n)
        ])
        if extend:
            if conj:
                phi = (a & even).bit_count() % 2
                if pin is None:
                    pin = phi
                codes.append(var_ids[a ^ top] | phi ^ pin)
            else:
                codes.append(0)
    return CodMatrix(n + 1 if extend else n, codes, tuple(BitVec(two_m, v) for v in masks))


# -- the extension column --------------------------------------------------


class InconsistencyCertificate(Record):
    """Closed walk of constraints whose parities XOR to 1."""

    def __init__(self, constraints: list[Constraint]):
        self.constraints = constraints


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


class ExtensionResult(Record):
    """Outcome of attempting to append column 2m to the standard design.

    Exactly one of design or certificate is set; the new column is the
    last column of `design`.
    """

    def __init__(
        self,
        design: Optional[CodMatrix] = None,
        certificate: Optional[InconsistencyCertificate] = None,
    ):
        self.design, self.certificate = design, certificate

    @property
    def exists(self) -> bool:
        return self.design is not None

    @property
    def solution_count_log2(self) -> Optional[int]:
        """log2 of the number of sign solutions: phi and its global flip."""
        return 1 if self.exists else None


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
    return ExtensionResult(design=_build_g(m, extend=True))
