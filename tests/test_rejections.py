"""Exact exception types and messages of the rejections that the benchmark
workloads and the README exercise."""

import pytest

from codlib import CodMatrix, canonicalize, construct_g, extend_g
from codlib.errors import InvalidDesignError, MalformedFileError, ParameterError
from codlib.fileio import design_from_json, design_to_json


def _sign_flipped_g3():
    rows = [list(row) for row in construct_g(3).cells]
    rows[4][1] = rows[4][1].negated()
    return CodMatrix.from_rows(3, rows)


CASES = {
    "canonicalize-sign-flipped-g3": (
        lambda: canonicalize(_sign_flipped_g3()),
        InvalidDesignError,
        "input fails symbolic orthogonality",
    ),
    "canonicalize-extension-m2": (
        lambda: canonicalize(extend_g(2).design),
        ParameterError,
        "n must be odd (2m-1), got 4",
    ),
    "load-wrong-declared-k": (
        lambda: design_from_json(design_to_json(construct_g(2)).replace('"k": 3', '"k": 5')),
        MalformedFileError,
        "declared k=5 but 3 distinct variables appear (at k)",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rejection_type_and_message(name):
    call, kind, message = CASES[name]
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message
