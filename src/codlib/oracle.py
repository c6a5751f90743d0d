"""Exhaustive search for small CODs.

Two modes, each a depth-first search that sets the cells in row-major order,
tries each cell's options in a fixed order and rejects a partial grid as soon
as one of its Gram entries is complete and fails.  The designs it keeps come
out in the order of the flat product over all cells.

* family support: the zero patterns and variable placement of the
  [C(2m,m-1), 2m-1, C(2m-1,m-1)] family are forced (up to signs and
  conjugations) by the pairwise pattern relations, so only the per-cell
  sign and conjugation bits are searched: 4^(#nonzero cells) candidates.
  Each column pair is checked at the cell that completes it.  The support
  itself is taken from `construct_g`, so this mode is not independent of
  the generator it cross-checks (ROADMAP item 2).
* free: every cell ranges over zero and all signed, optionally conjugated
  variables.  A column may not repeat a variable and must hold all k once
  its last row is set; its Gram entries with the columns before it are
  checked then too.  Every design kept still passes `verify_symbolic`.
  Only sensible for very small p*n; guarded by the budget.

Valid designs are grouped by canonical form, giving ground truth for the
uniqueness and nonexistence claims at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, Optional

from .bitvec import BitVec
from .equivalence import _family_m, canonicalize
from .errors import BudgetExceededError, ParameterError
from .generator import construct_g
from .model import CodMatrix, Entry, gram_entry, verify_symbolic

DEFAULT_BUDGET = 1 << 26


@dataclass
class SearchSpec:
    p: int
    n: int
    k: int
    mode: str = "family"  # "family" or "free"
    budget: int = DEFAULT_BUDGET


@dataclass
class EquivalenceClass:
    canonical: CodMatrix
    count: int
    sample: CodMatrix


def _depth_first(
    choices: list[list], place: Callable[[int, object], bool]
) -> Iterator[None]:
    """Yield once per full assignment that `place` accepts at every position.

    `choices[i]` lists position i's options in search order.  `place(i, x)`
    records option x at position i and returns False to prune every
    assignment below it; it may read only positions before i, which hold
    the current prefix.  Accepted assignments come out in the order
    `product(*choices)` lists them.
    """
    depth = len(choices)
    tried = [0] * depth  # options taken so far at each position
    i = 0
    while i >= 0:
        if i == depth:
            yield
            i -= 1
        elif tried[i] == len(choices[i]):
            tried[i] = 0
            i -= 1
        else:
            x = choices[i][tried[i]]
            tried[i] += 1
            if place(i, x):
                i += 1


def _classify(classes: dict[CodMatrix, EquivalenceClass], cand: CodMatrix) -> None:
    canon = canonicalize(cand)
    if canon in classes:
        classes[canon].count += 1
    else:
        classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)


def _enumerate_family(spec: SearchSpec) -> list[EquivalenceClass]:
    support = construct_g(_family_m(spec.p, spec.n, spec.k))
    cells = [
        (r, c)
        for r, row in enumerate(support.cells)
        for c, e in enumerate(row)
        if e is not None
    ]
    estimate = 4 ** len(cells)
    if estimate > spec.budget:
        raise BudgetExceededError(estimate, spec.budget)
    # Only off-diagonal cancellation is checked: diagonals are automatic
    # because every column of the forced support holds each variable once.
    # Each column pair is checked at the cell that completes it: the later
    # of its two cells in the last row both columns share.
    index = {cell: i for i, cell in enumerate(cells)}
    checks: list[list] = [[] for _ in cells]
    for a, b in combinations(range(support.n), 2):
        shared = [r for r, row in enumerate(support.cells)
                  if row[a] is not None and row[b] is not None]
        if shared:
            checks[index[shared[-1], b]].append((a, b, shared))
    # the four sign/conjugation variants of each support cell
    variants = [
        [Entry(e.var, sign, conj) for conj in (False, True) for sign in (1, -1)]
        for e in (support.cells[r][c] for r, c in cells)
    ]
    rows = [list(row) for row in support.cells]

    def place(i: int, entry: Entry) -> bool:
        r, c = cells[i]
        rows[r][c] = entry
        return not any(gram_entry(rows, a, b, shared) for a, b, shared in checks[i])

    classes: dict[CodMatrix, EquivalenceClass] = {}
    for _ in _depth_first(variants, place):
        _classify(classes, CodMatrix.from_rows(support.m, rows))
    return list(classes.values())


def _enumerate_free(spec: SearchSpec) -> list[EquivalenceClass]:
    if spec.n > 3:
        raise ParameterError("free mode is limited to n <= 3")
    length = max(2, spec.k.bit_length() + 1, spec.k)  # room for k unit ids
    variables = [BitVec.unit(length, i + 1) for i in range(spec.k)]
    options: list[Optional[Entry]] = [None]
    for v in variables:
        for sign in (1, -1):
            for conj in (False, True):
                options.append(Entry(v, sign, conj))
    n_cells = spec.p * spec.n
    estimate = len(options) ** n_cells
    if estimate > spec.budget:
        raise BudgetExceededError(estimate, spec.budget)
    if spec.k and not n_cells:
        return []  # no cell to hold the k variables
    # A diagonal Gram entry is the multiset of its column's variables, so a
    # valid design holds each of the k variables exactly once per column.
    # Once a column's last row is set, its Gram entries with the columns
    # before it are complete too.
    rows: list[list[Optional[Entry]]] = [[None] * spec.n for _ in range(spec.p)]
    last = spec.p - 1

    def place(i: int, entry: Optional[Entry]) -> bool:
        r, c = divmod(i, spec.n)
        above = [row[c] for row in rows[:r] if row[c] is not None]
        if entry is not None and any(e.var == entry.var for e in above):
            return False
        rows[r][c] = entry
        if r < last:
            return True
        if len(above) + (entry is not None) != spec.k:
            return False
        return not any(
            gram_entry(rows, a, c, [q for q, row in enumerate(rows)
                                    if row[a] is not None and row[c] is not None])
            for a in range(c)
        )

    classes: dict[CodMatrix, EquivalenceClass] = {}
    singles: list[EquivalenceClass] = []
    for _ in _depth_first([options] * n_cells, place):
        cand = CodMatrix.from_rows((spec.n + 1) // 2, rows)
        if not verify_symbolic(cand).ok:
            continue
        try:
            _classify(classes, cand)
        except ParameterError:
            # outside the canonicalizable family: count each as its own class
            singles.append(EquivalenceClass(cand, 1, cand))
    return list(classes.values()) + singles


def enumerate_cods(spec: SearchSpec) -> list[EquivalenceClass]:
    """All equivalence classes of CODs matching the spec, with member counts."""
    if spec.mode == "family":
        return _enumerate_family(spec)
    if spec.mode == "free":
        return _enumerate_free(spec)
    raise ParameterError(f"unknown mode {spec.mode!r}")
