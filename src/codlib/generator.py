"""Explicit construction of the standard design and the column extension.

G_{2m-1} has one row per weight-(m+1) vector in F_2^{2m}; entry signs come
from the parity function theta.  Appending a 2m-th column reduces to an XOR
constraint system over unknown sign bits phi, solved by `ParityForest`, a
union-find with parity that `equivalence.canonicalize` also uses for its
signs.  Inconsistency is witnessed by a closed walk of constraints whose
parities XOR to 1, which happens exactly when m is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Union

from .bitvec import BitVec
from .errors import ParameterError
from .model import CodMatrix, Entry, row_id

M_MAX = 8  # desk-scale guard; p = C(2m, m-1) grows fast

Constraint = tuple[BitVec, BitVec, int]


def theta(alpha: BitVec, i: int) -> int:
    """Sign exponent for the nonzero entry at (alpha, i); requires alpha(i)=1."""
    two_m = alpha.length
    if not 1 <= i <= two_m - 1:
        raise IndexError(f"column {i} out of range 1..{two_m - 1}")
    if alpha.bit(i) != 1:
        raise ValueError(f"theta undefined: bit {i} of {alpha} is 0")
    w = alpha.partial_weight(i, two_m)
    if i % 2 == 0:
        return (w + i // 2) % 2
    return (w + (i - 1) // 2 + alpha.bit(two_m)) % 2


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
    two_m = 2 * m
    e = BitVec.ones(two_m)
    rows = []
    for alpha in row_ids_for(m):
        conj = bool(alpha.bit(two_m))
        row: list[Optional[Entry]] = []
        for i in range(1, two_m):
            if alpha.bit(i) == 0:
                row.append(None)
                continue
            var = alpha ^ BitVec.unit(two_m, i)
            if conj:
                var = var ^ e
            sign = -1 if theta(alpha, i) else 1
            row.append(Entry(var=var, sign=sign, conj=conj))
        rows.append(row)
    cod = CodMatrix.from_rows(m, rows)
    assert cod.p == comb(two_m, m - 1) and cod.k == comb(two_m - 1, m - 1)
    return cod


# -- parity system over the extension-column signs -------------------------


@dataclass(frozen=True)
class ParitySystem:
    """XOR constraints phi(a) ^ phi(b) = c over unknown bits phi."""

    unknowns: tuple[BitVec, ...]
    constraints: tuple[Constraint, ...]


@dataclass
class ParitySolution:
    assignment: dict[BitVec, int]
    components: int


@dataclass
class InconsistencyCertificate:
    """Closed walk of constraints whose parities XOR to 1."""

    constraints: list[Constraint]

    def parity(self) -> int:
        return sum(c for _, _, c in self.constraints) % 2


ParityOutcome = Union[ParitySolution, InconsistencyCertificate]


def build_extension_system(g: CodMatrix) -> ParitySystem:
    """Constraints forced on the hypothetical 2m-th column of g.

    For each conjugated row a and each column i where a is nonzero, the
    Alamouti block joining a to row a ^ e_i ^ e_2m ^ e fixes the relative
    sign: equal for even i, opposite for odd i.
    """
    m = g.m
    two_m = 2 * m
    if g.n != two_m - 1:
        raise ParameterError("extension system needs the n = 2m-1 design")
    e = BitVec.ones(two_m)
    e_2m = BitVec.unit(two_m, two_m)
    ids = [row_id(g, r) for r in range(1, g.p + 1)]
    unknowns = sorted((a for a in ids if a.bit(two_m) == 1), key=lambda v: v.mask)
    constraints: list[Constraint] = []
    for alpha in unknowns:
        for i in range(1, two_m):
            if alpha.bit(i) == 0:
                continue
            beta = alpha ^ BitVec.unit(two_m, i) ^ e_2m ^ e
            # beta leads back to alpha through the same i: keep the edge once,
            # from its smaller end
            if beta.mask >= alpha.mask:
                constraints.append((alpha, beta, i % 2))
    return ParitySystem(tuple(unknowns), tuple(constraints))


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


def solve_parity(sys: ParitySystem) -> ParityOutcome:
    """Union-find with parity; returns an assignment or an odd closed walk."""
    index = {v: i for i, v in enumerate(sys.unknowns)}
    forest = ParityForest(len(sys.unknowns))
    adj: dict[BitVec, list] = {v: [] for v in sys.unknowns}  # forest edges
    for con in sys.constraints:
        a, b, c = con
        clash = forest.join(index[a], index[b], c)
        if clash is None:
            adj[a].append((b, con))
            adj[b].append((a, con))
        elif clash:
            # the forest path from a to b is unique; walk it from a
            via: dict[BitVec, tuple[BitVec, Constraint]] = {a: (a, con)}
            stack = [a]
            while b not in via:
                u = stack.pop()
                for v, edge in adj[u]:
                    if v not in via:
                        via[v] = (u, edge)
                        stack.append(v)
            path = [con]
            while b != a:
                b, edge = via[b]
                path.append(edge)
            return InconsistencyCertificate(path[::-1])

    # pin the smallest member of each component to 0
    pins: dict[int, int] = {}
    assignment: dict[BitVec, int] = {}
    for v in sorted(sys.unknowns, key=lambda v: v.mask):
        root, pv = forest.find(index[v])
        assignment[v] = pv ^ pins.setdefault(root, pv)
    return ParitySolution(assignment=assignment, components=len(pins))


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

    Exactly one of (column, design, solution_count_log2) or certificate is set.
    """

    column: Optional[tuple[Optional[Entry], ...]] = None
    design: Optional[CodMatrix] = None
    solution_count_log2: Optional[int] = None
    certificate: Optional[InconsistencyCertificate] = None

    @property
    def exists(self) -> bool:
        return self.column is not None


def extend_g(m: int) -> ExtensionResult:
    """Decide existence of the [C(2m,m-1), 2m, C(2m-1,m-1)] extension."""
    _check_m(m)
    g = construct_g(m)
    outcome = solve_parity(build_extension_system(g))
    if isinstance(outcome, InconsistencyCertificate):
        return ExtensionResult(certificate=outcome)
    two_m = 2 * m
    e_2m = BitVec.unit(two_m, two_m)
    column: list[Optional[Entry]] = []
    for r in range(1, g.p + 1):
        alpha = row_id(g, r)
        if alpha.bit(two_m) == 0:
            column.append(None)
        else:
            sign = -1 if outcome.assignment[alpha] else 1
            column.append(Entry(var=alpha ^ e_2m, sign=sign, conj=False))
    rows = [list(g.row(r)) + [column[r - 1]] for r in range(1, g.p + 1)]
    design = CodMatrix.from_rows(m, rows)
    return ExtensionResult(
        column=tuple(column),
        design=design,
        solution_count_log2=outcome.components,
    )
