"""Exhaustive search for small CODs.

One depth-first search over one mutable grid of cell codes (see `model`);
the two modes differ only in each cell's table of options.  The search
sets the cells in row-major order, tries each cell's options in table
order and rejects a partial grid as soon as one of its Gram entries is
complete and fails.  Each design it keeps is a copy of the grid, and they
come out in the order of the flat product over all cells.

* family support: the zero patterns and variable placement of the
  [C(2m,m-1), 2m-1, C(2m-1,m-1)] family are forced (up to signs and
  conjugations) by the pairwise pattern relations, so a support cell
  holds its variable with flags 0..3 in that order (code & ~3 | flags)
  and a zero cell stays 0: 4^(#nonzero cells) candidates.  The support
  itself is taken from `construct_g`, so this mode is not independent of
  the generator it cross-checks (ROADMAP item 2).
* free: every cell ranges over zero and all signed, optionally conjugated
  variables, in the order 0, then v << 2 | flags for each var_id v and
  flags in (0, 2, 1, 3).  Only sensible for very small p*n; guarded by
  `BUDGET`, like the family mode.

Column pair (a, b) is checked at the later of its two cells in the last
row where both may be nonzero.  Where some cell has a choice of variable,
a column must also hold each of the k variables once when its last row is
set.  Every design kept passes `verify_symbolic`, and valid designs are
grouped by canonical form, giving ground truth for the uniqueness and
nonexistence claims at desk scale.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import prod
from typing import Callable, Iterator

from .bitvec import BitVec, Record
from .equivalence import _family_m, canonicalize
from .errors import BudgetExceededError, ParameterError
from .generator import construct_g
from .model import CodMatrix, gram_entry, verify_symbolic

BUDGET = 1 << 26  # candidates in the flat product


class SearchSpec(Record):
    def __init__(self, p: int, n: int, k: int, mode: str = "family"):  # or "free"
        self.p, self.n, self.k, self.mode = p, n, k, mode


class EquivalenceClass(Record):
    def __init__(self, canonical: CodMatrix, count: int, sample: CodMatrix):
        self.canonical, self.count, self.sample = canonical, count, sample


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


def _classify(classes: dict, cand: CodMatrix, canon: CodMatrix) -> None:
    if canon in classes:
        classes[canon].count += 1
    else:
        classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)


def _choices(spec: SearchSpec) -> tuple[list[list[int]], tuple[BitVec, ...]]:
    """Each cell's options in search order, row-major, and the variable table."""
    if spec.mode == "family":
        support = construct_g(_family_m(spec.p, spec.n, spec.k))
        # the four sign/conjugation variants of each support cell
        return [
            [code & ~3 | flags for flags in range(4)] if code else [0]
            for code in support.codes
        ], support.ids
    if spec.mode == "free":
        if spec.n > 3:
            raise ParameterError("free mode is limited to n <= 3")
        k = spec.k
        length = max(2, k.bit_length() + 1, k)  # room for k unit ids
        ids = tuple(BitVec.unit(length, v) for v in range(1, k + 1))
        # zero, then each variable with + and -, each plain and conjugated
        options = [0] + [v << 2 | flags for v in range(1, k + 1) for flags in (0, 2, 1, 3)]
        return [options] * (spec.p * spec.n), ids
    raise ParameterError(f"unknown mode {spec.mode!r}")


def enumerate_cods(spec: SearchSpec) -> list[EquivalenceClass]:
    """All equivalence classes of CODs matching the spec, with member counts."""
    choices, ids = _choices(spec)
    estimate = prod(map(len, choices))
    if estimate > BUDGET:
        raise BudgetExceededError(estimate, BUDGET)
    p, n = spec.p, spec.n
    if spec.k and not p * n:
        return []  # no cell to hold the k variables
    if p < 1 or n < 1:
        raise ParameterError(f"design needs at least one {'row' if p < 1 else 'column'}")
    grid = array("q", bytes(8 * p * n))
    # each column pair at the cell that completes its Gram entry
    checks: list[list] = [[] for _ in choices]
    for a, b in combinations(range(n), 2):
        shared = [r for r in range(p) if any(choices[r * n + a]) and any(choices[r * n + b])]
        if shared:
            checks[shared[-1] * n + b].append((a, b, shared))
    # A diagonal Gram entry is its column's multiset of variables, so a valid
    # design holds each variable once per column.  Without a choice of
    # variable the table fixes that, and the test would only cost leaf time.
    every = list(range(1, len(ids) + 1))
    choose = any(len({x >> 2 for x in options if x}) > 1 for options in choices)
    column_end = [choose and i >= (p - 1) * n for i in range(p * n)]

    def place(i: int, code: int) -> bool:
        grid[i] = code
        if column_end[i] and sorted(x >> 2 for x in grid[i % n::n] if x) != every:
            return False
        for a, b, rows in checks[i]:
            if gram_entry(grid, n, a, b, rows):
                return False
        return True

    # Every candidate has the spec's [p, n, k]; outside the canonicalizable
    # family each design is its own class.
    try:
        _family_m(p, n, spec.k)
        canonical = canonicalize
    except ParameterError:
        canonical = lambda cod: cod  # the search keeps no design twice

    classes: dict[CodMatrix, EquivalenceClass] = {}
    for _ in _depth_first(choices, place):
        cand = CodMatrix(n, array("q", grid), ids)
        if verify_symbolic(cand).ok:
            _classify(classes, cand, canonical(cand))
    return list(classes.values())
