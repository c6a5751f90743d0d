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
)
from codlib.equivalence import _family_m
from codlib.errors import ParameterError
from codlib.model import gram_entry
from codlib.oracle import EquivalenceClass
from conftest import make_eq3, reference_gram_entry, reference_verify_symbolic


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
    assert oracle.BUDGET == 1 << 26
    with pytest.raises(BudgetExceededError):
        enumerate_cods(SearchSpec(p=15, n=5, k=10, mode="family"))  # 4^50


def test_search_depth_is_not_bounded_by_the_recursion_limit():
    # 1,200 one-option cells: the one candidate is the all-zero design
    classes = enumerate_cods(SearchSpec(400, 3, 0, "free"))
    assert [c.count for c in classes] == [1]
    assert classes[0].canonical == classes[0].sample
    assert not any(classes[0].sample.codes)


@pytest.mark.parametrize("p, n, k", [(1, 1, -1), (2, 2, -3), (0, 2, -1)])
def test_free_mode_rejects_a_negative_k(p, n, k):
    with pytest.raises(ParameterError, match=f"^k must be >= 0, got {k}$"):
        enumerate_cods(SearchSpec(p, n, k, "free"))


def test_search_spec_fields():
    assert SearchSpec._fields == ("p", "n", "k", "mode")


def test_family_mode_rejects_non_family_parameters():
    with pytest.raises(ParameterError):
        enumerate_cods(SearchSpec(p=5, n=3, k=3, mode="family"))


def test_free_mode_size_guard():
    with pytest.raises(BudgetExceededError):  # 13^20 candidates
        enumerate_cods(SearchSpec(p=4, n=5, k=3, mode="free"))


def test_generated_design_is_in_its_enumerated_class(classes_433):
    g = construct_g(2)
    assert classes_433[0].canonical == canonicalize(g)


# -- the flat product loops the depth-first searches replaced ---------------

# The loops below build `Entry` rows and expand Gram entries with
# `reference_gram_entry`, sharing no search or Gram code with codlib.


def flat_family(spec, gram=reference_gram_entry, kept=None):
    support = construct_g(_family_m(spec.p, spec.n, spec.k))
    cells = [
        (r, c)
        for r, row in enumerate(support.cells)
        for c, e in enumerate(row)
        if e is not None
    ]
    estimate = 4 ** len(cells)
    if estimate > oracle.BUDGET:
        raise BudgetExceededError(estimate, oracle.BUDGET)
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
        if any(gram(rows, a, b, shared) for a, b, shared in pairs):
            continue
        cand = CodMatrix.from_rows(support.m, rows)
        if kept is not None:
            kept.append(cand)
        canon = canonicalize(cand)
        if canon in classes:
            classes[canon].count += 1
        else:
            classes[canon] = EquivalenceClass(canonical=canon, count=1, sample=cand)
    return list(classes.values())


def flat_free(spec, kept=None):
    length = max(2, spec.k.bit_length() + 1, spec.k)
    variables = [BitVec(length, 1 << i) for i in range(spec.k)]
    options: list[Optional[Entry]] = [None]
    for v in variables:
        for sign in (1, -1):
            for conj in (False, True):
                options.append(Entry(v, sign, conj))
    n_cells = spec.p * spec.n
    estimate = len(options) ** n_cells
    if estimate > oracle.BUDGET:
        raise BudgetExceededError(estimate, oracle.BUDGET)
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
        if not reference_verify_symbolic(cand).ok:
            continue
        if kept is not None:
            kept.append(cand)
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
    flat_calls, search_calls = [], []

    def counting_reference(*args):
        flat_calls.append(1)
        return reference_gram_entry(*args)

    def counting_gram_entry(*args):
        search_calls.append(1)
        return gram_entry(*args)

    monkeypatch.setattr(oracle, "gram_entry", counting_gram_entry)
    searched, verify = [], oracle.verify_symbolic

    def recording_verify(cand):
        searched.append(cand)
        return verify(cand)

    monkeypatch.setattr(oracle, "verify_symbolic", recording_verify)
    spec = SearchSpec(4, 3, 3, "family")
    flat = []
    want = flat_family(spec, counting_reference, flat)
    got = enumerate_cods(spec)
    assert got == want  # order, count, canonical and sample
    assert searched == flat  # every kept design, in the flat product's order
    assert [c.count for c in got] == [512]
    assert len(flat_calls) >= 290_000  # 4^9 candidates, most rejected at the first pair
    assert 10 * len(search_calls) <= len(flat_calls)


@pytest.mark.parametrize(
    "p, n, k",
    [(1, 1, 1), (2, 1, 1), (1, 2, 1), (2, 2, 1), (2, 2, 2), (1, 1, 5),
     (1, 3, 1), (3, 2, 1), (1, 4, 1), (2, 1, 0), (1, 0, 1), (0, 2, 1), (2, 0, 0),
     (0, 2, 0)],
)
def test_free_search_matches_the_flat_loop(p, n, k):
    spec = SearchSpec(p, n, k, "free")
    assert outcome(enumerate_cods, spec) == outcome(flat_free, spec)


@pytest.mark.parametrize("p, n, k", [(2, 2, 2), (3, 2, 1)])
def test_free_search_keeps_designs_in_the_flat_order(monkeypatch, p, n, k):
    searched, verify = [], oracle.verify_symbolic

    def recording_verify(cand):
        searched.append(cand)
        return verify(cand)

    monkeypatch.setattr(oracle, "verify_symbolic", recording_verify)
    spec, flat = SearchSpec(p, n, k, "free"), []
    assert enumerate_cods(spec) == flat_free(spec, flat)
    assert searched == flat and flat


def test_the_leaf_check_raises_on_a_design_the_search_kept(monkeypatch):
    # a prune that passes every entry sends all 625 candidates to the leaf,
    # whose verify_symbolic must raise on the first invalid one, not keep
    # the 32 valid ones
    def passing(grid, n, a, b, rows):
        return {(2, 3): 1} if a == b else {}  # the target of each entry at k=1

    monkeypatch.setattr(oracle, "gram_entry", passing)
    with pytest.raises(AssertionError, match="the search kept a non-orthogonal design"):
        enumerate_cods(SearchSpec(2, 2, 1, "free"))


@pytest.mark.parametrize(
    "spec, flat",
    [
        (SearchSpec(15, 5, 10, "family"), flat_family),  # 4^50 candidates
        (SearchSpec(5, 3, 3, "family"), flat_family),
        (SearchSpec(3, 3, 3, "free"), flat_free),  # 13^9 candidates
        (SearchSpec(4, 5, 3, "free"), flat_free),
        (SearchSpec(1, 1, 1, "bogus"), None),
    ],
)
def test_search_refuses_like_the_flat_loop(spec, flat):
    want = outcome(flat, spec) if flat else (ParameterError, "unknown mode 'bogus'")
    assert isinstance(want, tuple) and want[0] in (BudgetExceededError, ParameterError)
    assert outcome(enumerate_cods, spec) == want
