"""Brute-force enumeration of small CODs.

Two modes:

* family support: the zero patterns and variable placement of the
  [C(2m,m-1), 2m-1, C(2m-1,m-1)] family are forced (up to signs and
  conjugations) by the pairwise pattern relations, so only the per-cell
  sign and conjugation bits are searched: 4^(#nonzero cells) candidates.
  The support itself is taken from `construct_g`, so this mode is not
  independent of the generator it cross-checks (ROADMAP item 4).
* free: every cell ranges over zero and all signed, optionally conjugated
  variables.  Only sensible for very small p*n; guarded by the budget.

Valid designs are grouped by canonical form, giving ground truth for the
uniqueness and nonexistence claims at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import Optional

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
    pairs = [
        (a, b, [r for r, row in enumerate(support.cells)
                if row[a] is not None and row[b] is not None])
        for a, b in combinations(range(support.n), 2)
    ]
    # the four sign/conjugation variants of each support cell
    variants = [
        [Entry(e.var, sign, conj) for conj in (False, True) for sign in (1, -1)]
        for e in (support.cells[r][c] for r, c in cells)
    ]

    classes: dict[CodMatrix, EquivalenceClass] = {}
    base_rows = [list(row) for row in support.cells]
    for choice in product(*variants):
        rows = [row[:] for row in base_rows]
        for (r, c), entry in zip(cells, choice):
            rows[r][c] = entry
        if any(gram_entry(rows, a, b, shared) for a, b, shared in pairs):
            continue
        cand = CodMatrix.from_rows(support.m, rows)
        canon = canonicalize(cand)
        if canon in classes:
            classes[canon].count += 1
        else:
            classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)
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

    classes: dict[CodMatrix, EquivalenceClass] = {}
    singles: list[EquivalenceClass] = []
    for choice in product(options, repeat=n_cells):
        rows = [
            list(choice[r * spec.n : (r + 1) * spec.n]) for r in range(spec.p)
        ]
        used = {e.var for row in rows for e in row if e is not None}
        if len(used) != spec.k:
            continue
        cand = CodMatrix.from_rows((spec.n + 1) // 2, rows)
        if not verify_symbolic(cand).ok:
            continue
        try:
            canon = canonicalize(cand)
        except ParameterError:
            # outside the canonicalizable family: count each as its own class
            singles.append(EquivalenceClass(cand, 1, cand))
            continue
        if canon in classes:
            classes[canon].count += 1
        else:
            classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)
    return list(classes.values()) + singles


def enumerate_cods(spec: SearchSpec) -> list[EquivalenceClass]:
    """All equivalence classes of CODs matching the spec, with member counts."""
    if spec.mode == "family":
        return _enumerate_family(spec)
    if spec.mode == "free":
        return _enumerate_free(spec)
    raise ParameterError(f"unknown mode {spec.mode!r}")
