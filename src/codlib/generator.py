"""Explicit construction of the standard design and the column extension.

G_{2m-1} has one row per weight-(m+1) vector a in F_2^{2m}.  Where a_i = 1,
i < 2m, column i holds a ^ e_i, or its complement conjugated if a_2m = 1,
with sign parity theta(a, i) = wt_{i..2m}(a) + floor(i/2) + a_2m [i odd]
mod 2: along a row, a per-column constant flipped once per set bit below i.
A 2m-th column must hold +-(a ^ e_2m) in each conjugated row a, and each
Alamouti block of G ties two of those signs by one XOR constraint
phi(a) ^ phi(b) = i mod 2, where b = a ^ e ^ e_2m ^ e_i is the step from a
along column i.  `extend_g` answers this system in closed form: for even m,
phi is a's parity on the even columns; for odd m, a closed walk that steps
once along every column has odd parity and is returned as the certificate
that no such column exists.
"""

from __future__ import annotations

from array import array
from typing import Optional

from .bitvec import BitVec, Record
from .errors import ParameterError
from .model import M_MAX, CodMatrix

Constraint = tuple[BitVec, BitVec, int]


def _check_m(m: int) -> None:
    if not 1 <= m <= M_MAX:
        raise ParameterError(f"m must be in 1..{M_MAX}, got {m}")


def _masks(length: int, weight: int) -> list[int]:
    """The masks of `length` bits with `weight` ones, ascending, by Gosper's
    hack; weight must be at least 1, as each step divides by the lowest set bit."""
    masks, a, end = [], (1 << weight) - 1, 1 << length
    while a < end:
        masks.append(a)
        low = a & -a
        ripple = a + low
        a = ripple | (a ^ ripple) // low >> 2
    return masks


def construct_g(m: int) -> CodMatrix:
    """Build the standard [C(2m,m-1), 2m-1, C(2m-1,m-1)] design."""
    _check_m(m)
    return _build_g(m)


def _build_g(m: int, extend: bool = False) -> CodMatrix:
    """G, one row per weight-(m+1) mask of 2m bits, ascending; with `extend`,
    also the 2m-th column that `extend_g` derives for even m."""
    two_m, n = 2 * m, 2 * m - 1
    e = (1 << two_m) - 1
    top = 1 << n  # e_2m: the row is conjugated
    even = sum(1 << c for c in range(1, n, 2))  # the even columns 2, 4, ..., 2m-2
    # the variables are the weight-m masks below e_2m
    masks = _masks(n, m)
    var_ids = {v: i << 2 for i, v in enumerate(masks, 1)}
    # flags[conj][c] is conj << 1 | theta at column c if no set bit is below c
    flags = [[j << 1 | (m + 1 + (c + 1) // 2 + j * (1 - c % 2)) % 2 for c in range(n)]
             for j in (0, 1)]
    bits = [(c, 1 << c) for c in range(n)]
    pin = m // 2 % 2  # see extend_g
    codes = array("q")
    for a in _masks(two_m, m + 1):
        conj = a >> n
        x = a ^ e if conj else a  # the cell at set bit c holds variable x ^ e_c
        f = flags[conj]
        row = [0] * n
        below = 0  # parity of the set bits below c
        for c, bit in bits:
            if a & bit:
                row[c] = var_ids[x ^ bit] | f[c] ^ below
                below ^= 1
        codes.extend(row)
        if extend:
            codes.append(var_ids[a ^ top] | ((a & even).bit_count() + pin) % 2 if conj else 0)
    return CodMatrix(n + 1 if extend else n, codes, tuple(BitVec(two_m, v) for v in masks))


# -- the extension column --------------------------------------------------


class InconsistencyCertificate(Record):
    """Closed walk of constraints whose parities XOR to 1."""

    def __init__(self, constraints: list[Constraint]):
        self.constraints = constraints


def check_certificate(m: int, constraints: list[Constraint]) -> bool:
    """Independent validation of an inconsistency certificate, in one pass.

    Re-derives each constraint (a, b, c) from its ends alone, in this order:
    a and b have length 2m, weight m+1 and bit 2m set; a ^ b ^ e ^ e_2m is
    e_i for one column i <= 2m-1; bit i of a is 1; c = i mod 2.  The
    parities must XOR to 1, and the constraints, in order, must close a walk
    from one of the first constraint's ends.  An empty list, or any m < 1,
    is not a certificate.
    """
    if not constraints or m < 1:
        return False
    two_m = 2 * m
    top = 1 << (two_m - 1)  # e_2m
    flip = top - 1  # e ^ e_2m
    at0 = s0 = constraints[0][0].mask
    at1 = s1 = constraints[0][1].mask
    parity = 0
    for a, b, c in constraints:
        if a.length != two_m or b.length != two_m:
            return False
        x, y = a.mask, b.mask
        if x.bit_count() != m + 1 or y.bit_count() != m + 1:
            return False
        if not x & top or not y & top:
            return False
        step = x ^ y ^ flip  # e_i
        if step.bit_count() != 1:
            return False
        i = step.bit_length()
        if i > two_m - 1 or not x >> (i - 1) & 1 or c != i % 2:
            return False
        parity ^= i % 2  # c == i % 2 here, but c may be a float, which ^ refuses
        # each walker steps to the other end, or is None once off the walk
        at0 = at0 ^ x ^ y if at0 == x or at0 == y else None
        at1 = at1 ^ x ^ y if at1 == x or at1 == y else None
    return parity == 1 and (at0 == s0 or at1 == s1)


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
    conjugated row.  That row has ones at 1..m and 2m, so m/2 of its ones
    sit on even columns and the pin adds m/2 mod 2 to every phi.
    - Two steps along columns i and j move a 1 of a from i to j, so the
      constraint graph is connected and phi is unique up to a global flip.
    - One step flips phi by (m-1-[i even]) mod 2, which equals i mod 2
      exactly when m is even; for odd m, `_odd_walk` is the certificate.
    """
    _check_m(m)
    if m % 2:
        return ExtensionResult(certificate=InconsistencyCertificate(_odd_walk(m)))
    return ExtensionResult(design=_build_g(m, extend=True))
