"""Exhaustive search for small CODs.

One depth-first loop over one mutable grid of cell codes (see `model`);
the two modes differ only in each cell's table of options.  The loop sets
the cells in row-major order, tries each cell's options in table order and
keeps its place in a list, not in recursion, so the depth is not bounded
by the recursion limit.  The designs it keeps are copies of the grid, and
they come out in the order of the flat product over all cells.

* family support: the zero patterns and variable placement of the
  [C(2m,m-1), 2m-1, C(2m-1,m-1)] family are forced (up to signs and
  conjugations) by the pairwise pattern relations, so a support cell
  holds its variable with flags 0..3 in that order (code & ~3 | flags)
  and a zero cell stays 0: 4^(#nonzero cells) candidates.  The support
  itself is taken from `construct_g`, so this mode is not independent of
  the generator it cross-checks (ROADMAP item 2).
* free: every cell ranges over zero and all signed, optionally conjugated
  variables, in the order 0, then v << 2 | flags for each var_id v and
  flags in (0, 2, 1, 3).  Only sensible for very small p*n.

`BUDGET` is the one size guard, for both modes.  One rule prunes, and it
alone decides which designs are kept: O^H O = (sum |z_v|^2) I, entry by
entry.  A partial grid is rejected as soon as one Gram entry is complete
and its `gram_entry` expansion differs from its target: {} off the
diagonal, and one z_v* z_v for each of the k variables on it.  Column
pair (a, b) is complete at the later of its two cells in the last row
where both may be nonzero, and column c at its last row.  Diagonals are
checked wherever some cell's options name more than one variable, zero
counting as one; family mode's support fixes each column's variables, so
it checks none.  Every design kept is cross-checked by `verify_symbolic`,
whose partner rule is a different kernel; a failure raises
`AssertionError`.  Valid designs are grouped by canonical form, giving
ground truth for the uniqueness and nonexistence claims at desk scale.
"""

from __future__ import annotations

from array import array
from itertools import combinations
from math import prod

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
        k = spec.k
        length = max(2, k.bit_length() + 1, k)  # room for k unit ids
        ids = tuple(BitVec(length, 1 << (v - 1)) for v in range(1, k + 1))
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
    if spec.k < 0:
        raise ParameterError(f"k must be >= 0, got {spec.k}")
    if spec.k and not p * n:
        return []  # no cell to hold the k variables
    if p < 1 or n < 1:
        raise ParameterError(f"design needs at least one {'row' if p < 1 else 'column'}")
    grid = array("q", bytes(8 * p * n))
    # each Gram entry (a, b, rows, target) at the cell that completes it;
    # where no cell has a choice of variable, zero counting as one, the
    # table fixes every diagonal entry
    checks: list[list] = [[] for _ in choices]
    if any(len({x >> 2 for x in options}) > 1 for options in choices):
        diagonal = {(v << 1, v << 1 | 1): 1 for v in range(1, len(ids) + 1)}
        for c in range(n):
            checks[(p - 1) * n + c].append((c, c, range(p), diagonal))
    for a, b in combinations(range(n), 2):
        shared = [r for r in range(p) if any(choices[r * n + a]) and any(choices[r * n + b])]
        if shared:
            checks[shared[-1] * n + b].append((a, b, shared, {}))

    # Every candidate has the spec's [p, n, k]; outside the canonicalizable
    # family each design is its own class.
    try:
        _family_m(p, n, spec.k)
        canonical = canonicalize
    except ParameterError:
        canonical = lambda cod: cod  # the search keeps no design twice

    tally: dict[CodMatrix, list] = {}  # canonical form -> [count, first design]
    depth = len(choices)
    tried = [0] * depth  # options taken so far at each cell
    i = 0
    while i >= 0:
        if i == depth:
            cand = CodMatrix(n, array("q", grid), ids)
            if not verify_symbolic(cand).ok:
                raise AssertionError(f"the search kept a non-orthogonal design {cand}")
            tally.setdefault(canonical(cand), [0, cand])[0] += 1
            i -= 1
        elif tried[i] == len(choices[i]):
            tried[i] = 0
            i -= 1
        else:
            grid[i] = choices[i][tried[i]]
            tried[i] += 1
            for a, b, rows, target in checks[i]:
                if gram_entry(grid, n, a, b, rows) != target:
                    break
            else:
                i += 1
    return [EquivalenceClass(canon, count, sample) for canon, (count, sample) in tally.items()]
