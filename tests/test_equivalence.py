from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

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
    apply_ops,
    canonicalize,
    construct_g,
    equivalent,
    scramble,
    verify_symbolic,
)
from codlib.equivalence import _check_perm
from codlib.errors import ParameterError
from conftest import make_eq3


def test_negrow_on_known_design(eq3):
    out = apply_ops(eq3, [NegRow(1)])
    assert [e.sign for e in out.row(1)] == [-1, -1, -1]
    assert verify_symbolic(out).ok


def test_conjvar_on_known_design(eq3):
    z1 = BitVec.unit(4, 1)
    out = apply_ops(eq3, [ConjVar(z1)])
    flags = [e.conj for _, _, e in out.instances(z1)]
    assert flags == [True, False, False]
    assert verify_symbolic(out).ok


def test_colperm_on_known_design(eq3):
    out = apply_ops(eq3, [ColPerm((2, 1, 3))])
    assert out.entry(1, 1) == eq3.entry(1, 2)
    assert out.entry(1, 2) == eq3.entry(1, 1)
    assert verify_symbolic(out).ok


def test_rowperm_is_validated(eq3):
    with pytest.raises(IndexError):
        apply_ops(eq3, [RowPerm((1, 1, 2, 3))])
    with pytest.raises(IndexError):
        apply_ops(eq3, [NegRow(5)])
    with pytest.raises(IndexError):
        apply_ops(eq3, [NegCol(0)])


def test_rename_rejects_collision(eq3):
    z1, z2 = BitVec.unit(4, 1), BitVec.unit(4, 2)
    with pytest.raises(ValueError):
        apply_ops(eq3, [RenameVar(z1, z2)])


def reference_apply_op(cod, op):
    """One operation at a time, rebuilding the whole grid: the definition
    that `apply_ops` folds."""
    rows = [list(r) for r in cod.cells]
    if isinstance(op, RowPerm):
        _check_perm(op.perm, cod.p, "row")
        rows = [list(cod.cells[i - 1]) for i in op.perm]
    elif isinstance(op, ColPerm):
        _check_perm(op.perm, cod.n, "column")
        rows = [[r[i - 1] for i in op.perm] for r in rows]
    elif isinstance(op, (ConjVar, NegVar)):
        flip = Entry.conjugated if isinstance(op, ConjVar) else Entry.negated
        rows = [[flip(e) if e is not None and e.var == op.var else e for e in r]
                for r in rows]
    elif isinstance(op, RenameVar):
        if op.new != op.old and op.new in cod.variables():
            raise ValueError(f"rename target {op.new} already in use")
        rows = [[Entry(op.new, e.sign, e.conj) if e is not None and e.var == op.old
                 else e for e in r] for r in rows]
    elif isinstance(op, NegRow):
        if not 1 <= op.row <= cod.p:
            raise IndexError(f"row {op.row} out of range")
        rows[op.row - 1] = [e and e.negated() for e in rows[op.row - 1]]
    elif isinstance(op, NegCol):
        if not 1 <= op.col <= cod.n:
            raise IndexError(f"column {op.col} out of range")
        for r in rows:
            r[op.col - 1] = r[op.col - 1] and r[op.col - 1].negated()
    else:
        raise TypeError(f"unknown operation {op!r}")
    return CodMatrix.from_rows(cod.m, rows)


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (IndexError, ValueError, TypeError) as exc:
        return type(exc), str(exc)


DESIGNS = {"eq3": make_eq3(), "G_2": construct_g(2), "G_3": construct_g(3)}


def op_lists(name):
    """(name, ops) for DESIGNS[name]: valid ops of every kind, where a rename
    may hit an id in use, and at most one op that is out of range or not a
    bijection."""
    cod = DESIGNS[name]
    length = cod.variables()[0].length
    any_id = st.builds(BitVec, st.just(length), st.integers(0, (1 << length) - 1))
    var = st.sampled_from(cod.variables()) | any_id

    def perm(size):
        return st.permutations(range(1, size + 1)).map(tuple)

    def bad_perm(size):
        return st.lists(st.integers(0, size + 1), min_size=size - 1,
                        max_size=size + 1).map(tuple)

    def bad_index(size):
        return st.sampled_from([-1, 0, size + 1])

    valid = st.one_of(
        st.builds(RowPerm, perm(cod.p)), st.builds(ColPerm, perm(cod.n)),
        st.builds(ConjVar, var), st.builds(NegVar, var), st.builds(RenameVar, var, any_id),
        st.builds(NegRow, st.integers(1, cod.p)), st.builds(NegCol, st.integers(1, cod.n)),
    )
    bad = st.one_of(
        st.builds(RowPerm, bad_perm(cod.p)), st.builds(ColPerm, bad_perm(cod.n)),
        st.builds(NegRow, bad_index(cod.p)), st.builds(NegCol, bad_index(cod.n)),
    )
    return st.builds(
        lambda ops, at, op: (name, ops if op is None else ops[:at] + [op] + ops[at:]),
        st.lists(valid, max_size=12), st.integers(0, 12), st.none() | bad)


@settings(derandomize=True, database=None, deadline=None)
@given(st.sampled_from(sorted(DESIGNS)).flatmap(op_lists))
def test_all_ops_preserve_orthogonality(case):
    name, ops = case
    cod = DESIGNS[name]
    out = outcome(apply_ops, cod, ops)
    assert out == outcome(reduce, reference_apply_op, ops, cod)
    if isinstance(out, CodMatrix):
        assert verify_symbolic(out).ok


def test_unknown_op_is_rejected(eq3):
    ops = [NegRow(1), "negrow 1"]
    expected = (TypeError, "unknown operation 'negrow 1'")
    assert outcome(apply_ops, eq3, ops) == expected == outcome(reduce, reference_apply_op, ops, eq3)


def test_apply_ops_and_scramble_build_once(monkeypatch):
    g = construct_g(3)
    built = []
    from_rows = CodMatrix.from_rows.__func__
    monkeypatch.setattr(CodMatrix, "from_rows",
                        classmethod(lambda cls, m, rows: built.append(m) or from_rows(cls, m, rows)))
    _, ops = scramble(g, seed=4, count=50)
    assert len(built) == 1
    apply_ops(g, ops)
    assert len(built) == 2


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
        assert canonicalize(apply_ops(g, [op])) == cg, op


CANONICAL_G = {m: canonicalize(construct_g(m)) for m in (1, 2, 3)}


@settings(derandomize=True, database=None, deadline=None)
@given(st.integers(1, 3), st.integers(0, 10**6), st.integers(1, 60))
@example(2, 0, 50)
@example(3, 9, 50)
@example(3, 5, 1)
def test_canonicalize_scramble_round_trip(m, seed, count):
    g = construct_g(m)
    s, ops = scramble(g, seed=seed, count=count)
    assert s == reduce(reference_apply_op, ops, g)
    assert verify_symbolic(s).ok
    assert canonicalize(s) == CANONICAL_G[m]


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
    assert equivalent(g, apply_ops(g, [NegCol(2)]))


def test_equivalent_parameter_mismatch_is_false(eq3):
    assert not equivalent(eq3, construct_g(3))


def test_equivalent_invalid_design_raises(eq3):
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()
    bad = CodMatrix.from_rows(2, rows)
    with pytest.raises(InvalidDesignError):
        equivalent(construct_g(2), bad)


@settings(derandomize=True, database=None, deadline=None)
@given(
    st.integers(1, 3), st.integers(0, 10**6), st.integers(1, 60), st.integers(0, 10**6)
)
@example(4, 3, 40, 17)
@example(5, 7, 40, 1234)
def test_equivalent_to_every_scramble_and_no_sign_flip_of_one(m, seed, count, cell):
    g = construct_g(m)
    s, _ = scramble(g, seed=seed, count=count)
    assert equivalent(s, g) and equivalent(g, s)
    if m == 1:
        return  # -z is as orthogonal as z
    # every nonzero cell shares a row with another column, and flipping it
    # leaves its monomial in that column pair's Gram entry uncancelled
    nonzero = [(r, c) for r, row in enumerate(s.cells) for c, x in enumerate(row) if x]
    r, c = nonzero[cell % len(nonzero)]
    rows = [list(row) for row in s.cells]
    rows[r][c] = rows[r][c].negated()
    with pytest.raises(InvalidDesignError):
        equivalent(CodMatrix.from_rows(m, rows), g)
