from itertools import combinations, product
from typing import Optional

import pytest

import codlib.oracle as oracle
from codlib import (
    BitVec,
    BudgetExceededError,
    CodMatrix,
    Entry,
    SearchSpec,
    canonicalize,
    construct_g,
    enumerate_cods,
    verify_symbolic,
)
from codlib.equivalence import _family_m
from codlib.errors import ParameterError
from codlib.model import gram_entry
from codlib.oracle import EquivalenceClass
from conftest import make_eq3


@pytest.fixture(scope="module")
def classes_433():
    return enumerate_cods(SearchSpec(p=4, n=3, k=3, mode="family"))


def test_family_enumeration_433_single_class(classes_433):
    classes = classes_433
    assert len(classes) == 1
    cls = classes[0]
    assert cls.canonical == canonicalize(construct_g(2))
    assert cls.canonical == canonicalize(make_eq3())
    # negation/conjugation freedom: 2^3 conj orientations x 2^6 sign coset
    assert cls.count == 512


def test_free_enumeration_121_empty():
    assert enumerate_cods(SearchSpec(p=1, n=2, k=1, mode="free")) == []


def test_free_enumeration_with_more_variables_than_cells_is_empty():
    assert enumerate_cods(SearchSpec(p=1, n=1, k=5, mode="free")) == []


def test_free_enumeration_111():
    classes = enumerate_cods(SearchSpec(p=1, n=1, k=1, mode="free"))
    assert len(classes) == 1
    assert classes[0].count == 4  # +-z and +-z*


def test_budget_refusal():
    with pytest.raises(BudgetExceededError):
        enumerate_cods(SearchSpec(p=4, n=3, k=3, mode="family", budget=100))


def test_family_mode_rejects_non_family_parameters():
    with pytest.raises(ParameterError):
        enumerate_cods(SearchSpec(p=5, n=3, k=3, mode="family"))


def test_free_mode_size_guard():
    with pytest.raises(ParameterError):
        enumerate_cods(SearchSpec(p=4, n=5, k=3, mode="free"))


def test_generated_design_is_in_its_enumerated_class(classes_433):
    g = construct_g(2)
    assert classes_433[0].canonical == canonicalize(g)


# -- the flat product loops the depth-first searches replaced ---------------


def flat_family(spec):
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
    pairs = [
        (a, b, [r for r, row in enumerate(support.cells)
                if row[a] is not None and row[b] is not None])
        for a, b in combinations(range(support.n), 2)
    ]
    variants = [
        [Entry(e.var, sign, conj) for conj in (False, True) for sign in (1, -1)]
        for e in (support.cells[r][c] for r, c in cells)
    ]
    classes = {}
    base_rows = [list(row) for row in support.cells]
    for choice in product(*variants):
        rows = [row[:] for row in base_rows]
        for (r, c), entry in zip(cells, choice):
            rows[r][c] = entry
        if any(oracle.gram_entry(rows, a, b, shared) for a, b, shared in pairs):
            continue
        cand = CodMatrix.from_rows(support.m, rows)
        canon = canonicalize(cand)
        if canon in classes:
            classes[canon].count += 1
        else:
            classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)
    return list(classes.values())


def flat_free(spec):
    if spec.n > 3:
        raise ParameterError("free mode is limited to n <= 3")
    length = max(2, spec.k.bit_length() + 1, spec.k)
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
    classes = {}
    singles = []
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
            singles.append(EquivalenceClass(cand, 1, cand))
            continue
        if canon in classes:
            classes[canon].count += 1
        else:
            classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)
    return list(classes.values()) + singles


def outcome(search, spec):
    try:
        return search(spec)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def test_family_search_matches_the_flat_loop_with_a_tenth_of_the_gram_entries(
    monkeypatch,
):
    calls = []

    def counting_gram_entry(*args):
        calls.append(1)
        return gram_entry(*args)

    monkeypatch.setattr(oracle, "gram_entry", counting_gram_entry)
    spec = SearchSpec(4, 3, 3, "family")
    want = flat_family(spec)
    flat_calls = len(calls)
    calls.clear()
    got = enumerate_cods(spec)
    assert got == want  # order, count, canonical and sample
    assert [c.count for c in got] == [512]
    assert flat_calls >= 290_000  # 4^9 candidates, most rejected at the first pair
    assert 10 * len(calls) <= flat_calls


@pytest.mark.parametrize(
    "p, n, k",
    [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (1, 1, 5),
     (1, 3, 1), (3, 2, 1), (2, 1, 0), (1, 0, 1), (0, 2, 1)],
)
def test_free_search_matches_the_flat_loop(p, n, k):
    spec = SearchSpec(p, n, k, "free")
    assert outcome(enumerate_cods, spec) == outcome(flat_free, spec)


@pytest.mark.parametrize(
    "spec, flat",
    [
        (SearchSpec(4, 3, 3, "family", budget=100), flat_family),
        (SearchSpec(5, 3, 3, "family"), flat_family),
        (SearchSpec(2, 2, 2, "free", budget=100), flat_free),
        (SearchSpec(4, 5, 3, "free"), flat_free),
    ],
)
def test_search_refuses_like_the_flat_loop(spec, flat):
    want = outcome(flat, spec)
    assert isinstance(want, tuple) and want[0] in (BudgetExceededError, ParameterError)
    assert outcome(enumerate_cods, spec) == want
