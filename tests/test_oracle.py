import pytest

from codlib import (
    BudgetExceededError,
    SearchSpec,
    canonicalize,
    construct_g,
    enumerate_cods,
)
from codlib.errors import ParameterError
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
