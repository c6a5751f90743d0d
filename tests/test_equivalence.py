import random

import pytest

from codlib import (
    BitVec,
    CodMatrix,
    ColPerm,
    ConjVar,
    Entry,
    InvalidDesignError,
    NegCol,
    NegRow,
    NegVar,
    RenameVar,
    RowPerm,
    apply_op,
    canonicalize,
    construct_g,
    equivalent,
    scramble,
    verify_symbolic,
)
from codlib.errors import ParameterError


def test_negrow_on_known_design(eq3):
    out = apply_op(eq3, NegRow(1))
    assert [e.sign for e in out.row(1)] == [-1, -1, -1]
    assert verify_symbolic(out).ok


def test_conjvar_on_known_design(eq3):
    z1 = BitVec.unit(4, 1)
    out = apply_op(eq3, ConjVar(z1))
    flags = [e.conj for _, _, e in out.instances(z1)]
    assert flags == [True, False, False]
    assert verify_symbolic(out).ok


def test_colperm_on_known_design(eq3):
    out = apply_op(eq3, ColPerm((2, 1, 3)))
    assert out.entry(1, 1) == eq3.entry(1, 2)
    assert out.entry(1, 2) == eq3.entry(1, 1)
    assert verify_symbolic(out).ok


def test_rowperm_is_validated(eq3):
    with pytest.raises(IndexError):
        apply_op(eq3, RowPerm((1, 1, 2, 3)))
    with pytest.raises(IndexError):
        apply_op(eq3, NegRow(5))
    with pytest.raises(IndexError):
        apply_op(eq3, NegCol(0))


def test_rename_rejects_collision(eq3):
    z1, z2 = BitVec.unit(4, 1), BitVec.unit(4, 2)
    with pytest.raises(ValueError):
        apply_op(eq3, RenameVar(z1, z2))


def test_all_ops_preserve_orthogonality():
    rng = random.Random(42)
    g = construct_g(2)
    designs = [g, construct_g(3)]
    for _ in range(200):
        cod = rng.choice(designs)
        out, _ = scramble(cod, seed=rng.randrange(10**6), count=1)
        assert verify_symbolic(out).ok


def test_scramble_is_reproducible():
    g = construct_g(2)
    a, ops_a = scramble(g, seed=7, count=20)
    b, ops_b = scramble(g, seed=7, count=20)
    assert a == b and ops_a == ops_b
    c, _ = scramble(g, seed=8, count=20)
    assert c != a


def test_scramble_rejects_zero_count():
    with pytest.raises(ValueError):
        scramble(construct_g(2), seed=0, count=0)


@pytest.mark.parametrize("ids", [["0", "1"], ["0", "1", "01"]])
def test_scramble_rename_without_free_id_raises(ids):
    # every length-1 id is taken (the longer "01" frees none); seed 5 draws
    # a rename first
    full = CodMatrix.from_rows(1, [[Entry(BitVec.from_string(v))] for v in ids])
    with pytest.raises(ParameterError, match="cannot rename"):
        scramble(full, seed=5, count=1)
    out, ops = scramble(full, seed=0, count=1)  # NegCol: no id needed
    assert ops == [NegCol(1)]


def test_canonicalize_idempotent():
    for m in (1, 2, 3):
        cg = canonicalize(construct_g(m))
        assert canonicalize(cg) == cg


def test_canonicalize_known_design_equals_standard(eq3):
    assert canonicalize(eq3) == canonicalize(construct_g(2))


def test_canonicalize_invariant_under_each_op_kind():
    g = construct_g(2)
    cg = canonicalize(g)
    z = g.variables()[0]
    fresh = BitVec.from_string("1111")
    ops = [
        RowPerm((2, 1, 4, 3)),
        ColPerm((3, 1, 2)),
        ConjVar(z),
        NegVar(z),
        RenameVar(z, fresh),
        NegRow(2),
        NegCol(3),
    ]
    for op in ops:
        assert canonicalize(apply_op(g, op)) == cg, op


def test_canonicalize_scramble_round_trip():
    for m in (2, 3):
        g = construct_g(m)
        cg = canonicalize(g)
        for seed in range(10):
            s, _ = scramble(g, seed=seed, count=50)
            assert canonicalize(s) == cg


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_canonical_form_has_the_support_of_g(m):
    # zero cells, variables and conjugation flags are those of G in G's row
    # order; only the signs are left to the canonical choice
    g = construct_g(m)
    for seed in range(3):
        canon = canonicalize(scramble(g, seed=seed, count=40)[0])
        for canon_row, g_row in zip(canon.cells, g.cells):
            for x, y in zip(canon_row, g_row):
                assert (x is None) == (y is None)
                if x is not None:
                    assert (x.var, x.conj) == (y.var, y.conj)


def _brute_force_min_signs(cod):
    """Least sign pattern (True for -) in reading order over the coset of
    row and variable negations.  Rows are contiguous in that order, so after
    each of the 2^k variable negations the best row negations are those
    that make every row start with +."""
    variables = cod.variables()
    best = None
    for subset in range(1 << len(variables)):
        neg = {v for i, v in enumerate(variables) if subset >> i & 1}
        pattern = []
        for row in cod.cells:
            signs = [-x.sign if x.var in neg else x.sign for x in row if x]
            pattern += [s != signs[0] for s in signs]
        if best is None or pattern < best:
            best = pattern
    return best


@pytest.mark.parametrize("m", [1, 2, 3])
def test_canonical_signs_are_lexicographically_minimal(m):
    g = construct_g(m)
    for seed in range(3):
        canon = canonicalize(scramble(g, seed=seed, count=40)[0])
        signs = [x.sign < 0 for row in canon.cells for x in row if x]
        assert signs == _brute_force_min_signs(canon)


def test_canonicalize_rejects_wrong_parameters(eq3):
    bad = CodMatrix.from_rows(2, [list(eq3.row(r)) for r in (1, 2, 3)])
    with pytest.raises(ParameterError):
        canonicalize(bad)


def test_canonicalize_rejects_invalid_design(eq3):
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()
    bad = CodMatrix.from_rows(2, rows)
    with pytest.raises(InvalidDesignError):
        canonicalize(bad)


def test_equivalent_known_design_and_standard(eq3):
    assert equivalent(eq3, construct_g(2))


def test_equivalent_under_column_negation():
    g = construct_g(2)
    assert equivalent(g, apply_op(g, NegCol(2)))


def test_equivalent_parameter_mismatch_is_false(eq3):
    assert not equivalent(eq3, construct_g(3))


def test_equivalent_invalid_design_raises(eq3):
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()
    bad = CodMatrix.from_rows(2, rows)
    with pytest.raises(InvalidDesignError):
        equivalent(construct_g(2), bad)
