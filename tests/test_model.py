import copy
import functools
import json
import pickle
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

import codlib.model as model
from codlib import (
    BitVec,
    CodMatrix,
    Entry,
    construct_g,
    extend_g,
    scramble,
    verify_numeric,
    verify_symbolic,
)
from codlib.equivalence import canonicalize
from codlib.errors import InvalidDesignError, ParameterError
from codlib.fileio import design_from_json, design_to_json
from codlib.generator import row_ids_for
from codlib.model import gram_entry
from conftest import (
    instances, make_eq3, reference_gram_entry, reference_verify_symbolic, row_ids,
)


def test_zero_patterns_of_known_design(eq3):
    assert [str(BitVec(eq3.n, pat)) for pat in eq3.patterns] == ["111", "110", "101", "011"]


def test_zero_pattern_all_zero_row():
    v = BitVec.unit(2, 1)
    cod = CodMatrix.from_rows(1, [[Entry(v)], [None]])
    assert cod.patterns == [1, 0]


def test_row_id_examples():
    # read off G_2's codes, the ids are the generator's, in its row order
    g = construct_g(2)
    assert [str(a) for a in row_ids(g)] == ["1110", "1101", "1011", "0111"]
    assert row_ids(g) == row_ids_for(2)


def test_verify_symbolic_known_design(eq3):
    assert verify_symbolic(eq3).ok


def test_verify_symbolic_sign_flip_localized(eq3):
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()  # flip cell (2,1)
    bad = CodMatrix.from_rows(2, rows)
    report = verify_symbolic(bad)
    assert not report.ok
    assert [where for where, _ in report.failures] == [(1, 2)]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_verify_symbolic_negated_cell_fails_exactly_its_pairs(m):
    g = construct_g(m)
    nonzero = [
        (r, c)
        for r in range(1, g.p + 1)
        for c in range(1, g.n + 1)
        if g.cells[r - 1][c - 1] is not None
    ]
    for r, c in random.Random(m).sample(nonzero, 6):
        rows = [list(row) for row in g.cells]
        rows[r - 1][c - 1] = rows[r - 1][c - 1].negated()
        report = verify_symbolic(CodMatrix.from_rows(m, rows))
        expected = {
            tuple(sorted((c, b)))
            for b in range(1, g.n + 1)
            if b != c and g.cells[r - 1][b - 1] is not None
        }
        got = [where for where, _ in report.failures]
        assert got == sorted(expected)


def test_verify_symbolic_trivial_design():
    cod = CodMatrix.from_rows(1, [[Entry(BitVec.unit(2, 1))]])
    assert verify_symbolic(cod).ok


def test_verify_symbolic_keeps_equal_masks_of_different_lengths_apart():
    cod = CodMatrix.from_rows(1, [[Entry(BitVec(2, 1))], [Entry(BitVec(3, 1))]])
    assert cod.k == 2
    assert verify_symbolic(cod).ok


def test_verify_symbolic_catches_bad_diagonal():
    # same variable twice in one column: diagonal coefficient becomes 2
    v = BitVec.unit(2, 1)
    cod = CodMatrix.from_rows(1, [[Entry(v)], [Entry(v)]])
    report = verify_symbolic(cod)
    assert not report.ok


def assert_matches_reference(cod):
    """Same verdict, positions, residuals and insertion order as the reference."""
    got, want = verify_symbolic(cod), reference_verify_symbolic(cod)
    assert got.ok == want.ok
    assert got.failures == want.failures
    return got


@functools.cache
def mutation_bases():
    bases = []
    for m in range(1, 6):
        g = construct_g(m)
        bases += [g, scramble(g, seed=m, count=40)[0]]
    return bases + [extend_g(m).design for m in (2, 4)]


MUTATIONS = ("negate", "conjugate", "other-variable", "swap", "flip-mask-bit", "zero")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_verify_symbolic_matches_the_column_pair_reference(data):
    cod = data.draw(st.sampled_from(mutation_bases()))
    rows = [list(row) for row in cod.cells]
    nonzero = st.sampled_from(
        [(r, c) for r in range(cod.p) for c in range(cod.n) if rows[r][c] is not None]
    )
    anywhere = st.tuples(st.integers(0, cod.p - 1), st.integers(0, cod.n - 1))
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        r, c = data.draw(nonzero)
        e = rows[r][c]
        if kind == "swap":
            r2, c2 = data.draw(anywhere)
            rows[r][c], rows[r2][c2] = rows[r2][c2], e
        elif e is None:  # zeroed or swapped away by an earlier mutation
            continue
        elif kind == "negate":
            rows[r][c] = e.negated()
        elif kind == "conjugate":
            rows[r][c] = e.conjugated()
        elif kind == "other-variable":
            r2, c2 = data.draw(nonzero)
            if rows[r2][c2] is not None:
                rows[r][c] = Entry(rows[r2][c2].var, e.sign, e.conj)
        elif kind == "flip-mask-bit":
            bit = 1 << data.draw(st.integers(0, e.var.length - 1))
            rows[r][c] = Entry(BitVec(e.var.length, e.var.mask ^ bit), e.sign, e.conj)
        else:
            rows[r][c] = None
    assert_matches_reference(CodMatrix.from_rows(cod.m, rows))


def _eq3_edited(edit):
    rows = [list(r) for r in make_eq3().cells]
    edit(rows)
    return CodMatrix.from_rows(2, rows)


Z1, Z2, Z3 = (BitVec.unit(4, i) for i in (1, 2, 3))

EDGE_CASES = {
    # a row holding one variable twice: its monomial z* z has no partner row
    "variable-twice-in-a-row": (
        CodMatrix.from_rows(1, [[Entry(Z1), Entry(Z1)], [Entry(Z2), Entry(Z2)]]), False),
    "variable-twice-in-a-row-opposite-flags": (
        CodMatrix.from_rows(1, [[Entry(Z1), Entry(Z1, -1, True)],
                                [Entry(Z2, 1, True), Entry(Z2)]]), False),
    "variable-missing-from-a-column": (
        _eq3_edited(lambda rows: rows[1].__setitem__(0, None)), False),
    "column-holds-a-variable-twice": (
        _eq3_edited(lambda rows: rows.append([Entry(Z1), None, None])), False),
    "k-0-all-zero": (CodMatrix.from_rows(2, [[None] * 3] * 4), True),
    "n-1": (CodMatrix.from_rows(1, [[Entry(Z1)], [None], [Entry(Z2, -1, True)]]), True),
    "n-1-variable-twice": (CodMatrix.from_rows(1, [[Entry(Z1)], [Entry(Z1, -1)]]), False),
    # ids of two lengths and one mask, the longer one seen first: the table
    # order (mask, length) puts it last, and the residual monomial of
    # columns 1,2 pairs it with the shorter one
    "equal-masks-two-lengths": (
        CodMatrix.from_rows(1, [[Entry(BitVec(3, 1)), Entry(BitVec(2, 1))],
                                [Entry(BitVec(2, 1), 1, True), Entry(BitVec(3, 1), 1, True)]]),
        False),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_verify_symbolic_edge_cases_match_the_reference(name):
    cod, ok = EDGE_CASES[name]
    assert assert_matches_reference(cod).ok == ok


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_gram_entry_skips_rows_with_a_zero_cell(data):
    m = data.draw(st.integers(2, 4))
    cod = scramble(construct_g(m), seed=data.draw(st.integers(0, 1 << 16)), count=10)[0]
    codes = array("q", cod.codes)
    for pos in data.draw(st.lists(st.integers(0, len(codes) - 1), max_size=cod.p)):
        codes[pos] = 0
    zeroed = CodMatrix(cod.n, codes, cod.ids)
    names = [(v.mask, v.length) for v in cod.ids]
    decode = lambda s: names[(s >> 1) - 1] + (bool(s & 1),)
    cells = zeroed.cells
    for a in range(cod.n):
        for b in range(a, cod.n):
            got = gram_entry(codes, cod.n, a, b, range(cod.p))
            rows = [r for r in range(cod.p) if None not in (cells[r][a], cells[r][b])]
            want = reference_gram_entry(cells, a, b, rows)
            assert [(tuple(map(decode, mono)), c) for mono, c in got.items()] == list(
                want.items()
            )


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_verify_symbolic_expands_only_the_failing_entries(monkeypatch, m):
    calls = []

    def counting_gram_entry(codes, n, a, b, rows):
        calls.append((a + 1, b + 1))
        return gram_entry(codes, n, a, b, rows)

    monkeypatch.setattr(model, "gram_entry", counting_gram_entry)
    g = construct_g(m)
    assert verify_symbolic(g).ok
    if m % 2 == 0:
        assert verify_symbolic(extend_g(m).design).ok
    assert calls == []
    rows = [list(row) for row in g.cells]
    r = random.Random(m).randrange(g.p)
    c = next(c for c, e in enumerate(rows[r]) if e is not None)
    rows[r][c] = rows[r][c].negated()
    report = verify_symbolic(CodMatrix.from_rows(m, rows))
    assert calls == [where for where, _ in report.failures]
    assert len(calls) == sum(e is not None for e in rows[r]) - 1


def _sign_flipped_g3():
    rows = [list(row) for row in construct_g(3).cells]
    rows[0][0] = rows[0][0].negated()
    return CodMatrix.from_rows(3, rows)


def test_verify_symbolic_checks_each_design_once(monkeypatch):
    calls = []

    def counting_check(cod):
        calls.append(cod)
        return check(cod)

    check = model._check_gram
    monkeypatch.setattr(model, "_check_gram", counting_check)
    good, bad = scramble(construct_g(3), seed=5, count=20)[0], _sign_flipped_g3()
    report = verify_symbolic(good)
    assert report.ok and verify_symbolic(good) is report
    canonicalize(good)
    assert len(calls) == 1
    assert not verify_symbolic(bad).ok and verify_symbolic(bad) is verify_symbolic(bad)
    with pytest.raises(InvalidDesignError):
        canonicalize(bad)
    assert calls == [good, bad] and calls[0] is good


def test_canonicalize_rejects_alike_with_or_without_a_prior_check():
    checked, fresh = _sign_flipped_g3(), _sign_flipped_g3()
    assert not verify_symbolic(checked).ok
    errors = []
    for cod in (checked, fresh):
        with pytest.raises(InvalidDesignError) as info:
            canonicalize(cod)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]


def test_verification_report_is_read_only():
    report = verify_symbolic(_sign_flipped_g3())
    assert isinstance(report.failures, tuple)
    failures = report.failures
    with pytest.raises(AttributeError):
        report.ok = True
    with pytest.raises(AttributeError):
        report.failures = ()
    assert report.ok is False and report.failures is failures


def test_cached_residuals_are_read_only():
    design = _sign_flipped_g3()
    residual = verify_symbolic(design).failures[0][1]
    with pytest.raises(AttributeError):
        residual.clear()
    with pytest.raises(TypeError):
        residual[next(iter(residual))] = 0
    assert residual
    assert verify_symbolic(design) == reference_verify_symbolic(design)


def test_checked_designs_pickle_and_deepcopy():
    for design in (_sign_flipped_g3(), construct_g(3)):
        report = verify_symbolic(design)
        for copied in (pickle.loads(pickle.dumps(design)), copy.deepcopy(design)):
            assert copied == design and verify_symbolic(copied) == report


def test_equality_and_hash_ignore_derived_state():
    used, fresh = construct_g(3), CodMatrix.from_rows(3, construct_g(3).cells)
    verify_symbolic(used), used.patterns, used.cells, used._instance_index
    assert used == fresh and hash(used) == hash(fresh)
    assert "_gram_report" in vars(used) and "_gram_report" not in vars(fresh)


def test_verify_numeric(eq3):
    assert verify_numeric(eq3, trials=10, seed=0, tol=1e-9)
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()
    bad = CodMatrix.from_rows(2, rows)
    assert not verify_numeric(bad, trials=10, seed=0, tol=1e-9)
    rows = [list(r) for r in eq3.cells]
    rows[2][2] = rows[2][2].conjugated()
    assert not verify_numeric(CodMatrix.from_rows(2, rows), trials=10, seed=0)
    assert verify_numeric(CodMatrix.from_rows(1, [[None]]))  # no nonzero cell


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_verify_numeric_rejects_bad_tolerance(eq3, tol):
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()
    with pytest.raises(ParameterError):
        verify_numeric(CodMatrix.from_rows(2, rows), tol=tol)


def test_m_is_derived_from_n(eq3):
    assert eq3.m == 2
    with pytest.raises(ParameterError):
        CodMatrix.from_rows(3, [list(r) for r in eq3.cells])
    # p is the number of rows of the grid and k the size of the variable
    # table; neither is stored
    assert CodMatrix._fields == ("n", "codes", "ids")
    z1, z2 = BitVec.unit(4, 1), BitVec.unit(4, 2)
    cod = CodMatrix.from_rows(1, [[Entry(z2)], [Entry(z1, -1, True)], [Entry(z2, -1)]])
    assert cod.k == 2 and cod.ids == (z1, z2)
    for m in (2, 4):
        assert extend_g(m).design.k == construct_g(m).k


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_p_is_derived_from_the_grid(m):
    g = construct_g(m)
    for cod in (g, scramble(g, seed=m, count=20)[0]):
        assert cod.p * cod.n == len(cod.codes) and cod.p == len(cod.cells)


def test_verification_report_ok_is_derived_from_its_failures(eq3):
    assert model.VerificationReport._fields == ("failures",)
    assert model.VerificationReport(()).ok
    rows = [list(r) for r in eq3.cells]
    rows[1][0] = rows[1][0].negated()
    failures = verify_symbolic(CodMatrix.from_rows(2, rows)).failures
    assert model.VerificationReport(failures[:1]).ok is False


def test_verify_numeric_trivial():
    cod = CodMatrix.from_rows(1, [[Entry(BitVec.unit(2, 1))]])
    assert verify_numeric(cod, trials=3, seed=5, tol=1e-9)


def test_symbolic_implies_numeric_for_generated_designs():
    for m in (1, 2, 3):
        g = construct_g(m)
        assert verify_symbolic(g).ok
        assert verify_numeric(g, trials=5, seed=m, tol=1e-9)


@pytest.mark.parametrize("m", [2, 3])
def test_instance_pair_pattern_relations(m):
    # same conjugation: patterns differ exactly at the two instance columns;
    # opposite conjugation: patterns agree exactly there
    g = construct_g(m)
    patterns = [BitVec(g.n, pat) for pat in g.patterns]
    for var in g.ids:
        inst = instances(g, var)
        for a in range(len(inst)):
            for b in range(a + 1, len(inst)):
                ra, ca, ea = inst[a]
                rb, cb, eb = inst[b]
                diff = patterns[ra - 1] ^ patterns[rb - 1]
                if ea.conj == eb.conj:
                    assert set(diff.support()) == {ca, cb}
                else:
                    same = (diff ^ BitVec.ones(g.n)).support()
                    assert set(same) == {ca, cb}


def test_variable_occurrence_counts():
    for m in (2, 3):
        g = construct_g(m)
        for var in g.ids:
            inst = instances(g, var)
            assert len(inst) == 2 * m - 1
            cols = [c for _, c, _ in inst]
            assert sorted(cols) == list(range(1, 2 * m))


@functools.cache
def boundary_designs():
    """Scrambles of G_1..G_5, and a design whose variables share one mask
    at three lengths."""
    designs = [scramble(construct_g(m), seed=m, count=40)[0] for m in range(1, 6)]
    a, b, c = BitVec(2, 1), BitVec(3, 1), BitVec(1, 1)
    designs.append(CodMatrix.from_rows(2, [
        [Entry(b), None, Entry(a, -1, True)],
        [Entry(c, 1, True), Entry(a), None],
        [None, Entry(b, -1), Entry(c)],
    ]))
    return designs


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(data=st.data())
def test_code_grid_matches_its_cells(data):
    cod = data.draw(st.sampled_from(boundary_designs()))
    cells = cod.cells
    rebuilt = CodMatrix.from_rows(cod.m, cells)
    assert rebuilt == cod and hash(rebuilt) == hash(cod)
    # the same cells with the variables first seen in another order
    order = data.draw(st.permutations(range(cod.k)))
    ids = [cod.ids[i] for i in order]
    recode = {v << 2 | flags: order.index(v - 1) + 1 << 2 | flags
              for v in range(1, cod.k + 1) for flags in range(4)}
    codes = array("q", [recode.get(code, 0) for code in cod.codes])
    other = CodMatrix._from_codes(cod.n, codes, ids)
    assert other == cod and hash(other) == hash(cod)
    doc = json.loads(design_to_json(cod))
    data.draw(st.randoms(use_true_random=False)).shuffle(doc["entries"])
    loaded = design_from_json(json.dumps(doc))
    assert loaded == cod and hash(loaded) == hash(cod)
    # the table is the cells' variables, ascending by (mask, length)
    seen = {e.var for row in cells for e in row if e is not None}
    assert cod.ids == tuple(sorted(seen, key=lambda v: (v.mask, v.length)))
