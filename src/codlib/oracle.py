"""Exhaustive search for small CODs.

Two modes, each a depth-first search over one mutable grid of cell codes
(see `model`).  It sets the cells in row-major order, tries each cell's
options in a fixed order and rejects a partial grid as soon as one of its
Gram entries is complete and fails.  Each design it keeps is a copy of the
grid, and they come out in the order of the flat product over all cells.

* family support: the zero patterns and variable placement of the
  [C(2m,m-1), 2m-1, C(2m-1,m-1)] family are forced (up to signs and
  conjugations) by the pairwise pattern relations, so only the per-cell
  sign and conjugation bits are searched: 4^(#nonzero cells) candidates,
  each cell's variable with flags 0..3 in that order (code & ~3 | flags).
  Each column pair is checked at the cell that completes it.  The support
  itself is taken from `construct_g`, so this mode is not independent of
  the generator it cross-checks (ROADMAP item 2).
* free: every cell ranges over zero and all signed, optionally conjugated
  variables, in the order 0, then v << 2 | flags for each var_id v and
  flags in (0, 2, 1, 3).  A column may not repeat a variable and must hold
  all k once its last row is set; its Gram entries with the columns before
  it are checked then too.  Every design kept still passes `verify_symbolic`.
  Only sensible for very small p*n; guarded by the budget.

Valid designs are grouped by canonical form, giving ground truth for the
uniqueness and nonexistence claims at desk scale.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .bitvec import BitVec
from .equivalence import _family_m, canonicalize
from .errors import BudgetExceededError, ParameterError
from .generator import construct_g
from .model import CodMatrix, gram_entry, verify_symbolic

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
    p, n, grid = support.p, support.n, array("q", support.codes)
    cells = [pos for pos, code in enumerate(grid) if code]
    estimate = 4 ** len(cells)
    if estimate > spec.budget:
        raise BudgetExceededError(estimate, spec.budget)
    # Only off-diagonal cancellation is checked: diagonals are automatic
    # because every column of the forced support holds each variable once.
    # Each column pair is checked at the cell that completes it: the later
    # of its two cells in the last row both columns share.
    index = {pos: i for i, pos in enumerate(cells)}
    checks: list[list] = [[] for _ in cells]
    for a, b in combinations(range(n), 2):
        shared = [r for r in range(p) if grid[r * n + a] and grid[r * n + b]]
        if shared:
            checks[index[shared[-1] * n + b]].append((a, b, shared))
    # the four sign/conjugation variants of each support cell
    variants = [[grid[pos] & ~3 | flags for flags in range(4)] for pos in cells]

    def place(i: int, code: int) -> bool:
        grid[cells[i]] = code
        return not any(gram_entry(grid, n, a, b, shared) for a, b, shared in checks[i])

    classes: dict[CodMatrix, EquivalenceClass] = {}
    for _ in _depth_first(variants, place):
        _classify(classes, CodMatrix(p, n, array("q", grid), support.ids))
    return list(classes.values())


def _enumerate_free(spec: SearchSpec) -> list[EquivalenceClass]:
    if spec.n > 3:
        raise ParameterError("free mode is limited to n <= 3")
    p, n, k = spec.p, spec.n, spec.k
    length = max(2, k.bit_length() + 1, k)  # room for k unit ids
    ids = tuple(BitVec.unit(length, v) for v in range(1, k + 1))
    # zero, then each variable with + and -, each plain and conjugated
    options = [0] + [v << 2 | flags for v in range(1, k + 1) for flags in (0, 2, 1, 3)]
    n_cells = p * n
    estimate = len(options) ** n_cells
    if estimate > spec.budget:
        raise BudgetExceededError(estimate, spec.budget)
    if k and not n_cells:
        return []  # no cell to hold the k variables
    if p < 1 or n < 1:
        raise ParameterError(f"design needs at least one {'row' if p < 1 else 'column'}")
    # A diagonal Gram entry is the multiset of its column's variables, so a
    # valid design holds each of the k variables exactly once per column.
    # Once a column's last row is set, its Gram entries with the columns
    # before it are complete too.
    grid = array("q", bytes(8 * n_cells))
    last = p - 1

    def place(i: int, code: int) -> bool:
        r, c = divmod(i, n)
        above = [grid[q] >> 2 for q in range(c, i, n) if grid[q]]
        if code and code >> 2 in above:
            return False
        grid[i] = code
        if r < last:
            return True
        if len(above) + (code != 0) != k:
            return False
        in_c = [q for q in range(p) if grid[q * n + c]]
        return not any(
            gram_entry(grid, n, a, c, [q for q in in_c if grid[q * n + a]]) for a in range(c)
        )

    classes: dict[CodMatrix, EquivalenceClass] = {}
    singles: list[EquivalenceClass] = []
    for _ in _depth_first([options] * n_cells, place):
        # a kept grid holds all k variables in each column
        cand = CodMatrix(p, n, array("q", grid), ids)
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
