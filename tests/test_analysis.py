import functools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from codlib import (
    BitVec,
    CodMatrix,
    Entry,
    construct_g,
    extend_g,
    max_rate,
    min_delay,
    structural_report,
    scramble,
)
from codlib.analysis import CheckResult
from conftest import instances, reference_pattern_relations, row_ids


def _reference_shares_alamouti(cod, row_a, row_b):
    """The 2x2 Alamouti test on `Entry` cells, column pair by column pair."""
    a, b = cod.cells[row_a - 1], cod.cells[row_b - 1]
    for i in range(cod.n):
        for j in range(i + 1, cod.n):
            if None in (a[i], a[j], b[i], b[j]) or row_a == row_b:
                continue
            if a[i].var != b[j].var or a[j].var != b[i].var or a[i].var == a[j].var:
                continue
            if a[i].conj == b[j].conj or a[j].conj == b[i].conj:
                continue
            if a[i].sign * b[j].sign * a[j].sign * b[i].sign == -1:
                return (i + 1, j + 1)
    return None


def test_shares_alamouti_characterization_on_g():
    # rows share an Alamouti 2x2 exactly when their ids differ by e^e_i^e_j
    for m in (2, 3):
        g = construct_g(m)
        ids = row_ids(g)
        e = (1 << 2 * m) - 1
        for x in range(1, g.p + 1):
            for y in range(x + 1, g.p + 1):
                diff = ids[x - 1].mask ^ ids[y - 1].mask ^ e
                predicted = None
                if diff.bit_count() == 2:
                    i, j = [c for c in range(1, 2 * m + 1) if diff >> (c - 1) & 1]
                    if j <= 2 * m - 1 and all(
                        v.mask >> (i - 1) & 1 and v.mask >> (j - 1) & 1
                        for v in (ids[x - 1], ids[y - 1])
                    ):
                        predicted = (i, j)
                assert _reference_shares_alamouti(g, x, y) == predicted


def test_max_rate_values():
    assert max_rate(3) == Fraction(3, 4)
    assert max_rate(6) == Fraction(2, 3)
    assert max_rate(1) == 1


def test_min_delay_values():
    assert min_delay(5) == 15
    assert min_delay(6) == 30
    assert min_delay(4) == 4


def test_bounds_relations():
    for m in range(1, 6):
        assert max_rate(2 * m - 1) == max_rate(2 * m)
    for m in range(2, 6):
        if m % 2 == 0:
            assert min_delay(2 * m) == min_delay(2 * m - 1)
        else:
            assert min_delay(2 * m) == 2 * min_delay(2 * m - 1)


def test_bounds_input_validation():
    with pytest.raises(ValueError):
        max_rate(0)
    with pytest.raises(ValueError):
        min_delay(0)
    assert min_delay(1) == 1  # C(2,0), the p of construct_g(1)


def test_check_result_ok_is_derived_from_its_witnesses():
    assert CheckResult._fields == ("name", "witnesses")
    assert CheckResult("x", []).ok
    assert not CheckResult("x", ["w"]).ok


def test_structural_report_known_design(eq3):
    report = structural_report(eq3)
    assert report.ok


def test_structural_report_g5():
    g = construct_g(3)
    report = structural_report(g)
    assert report.ok
    weights = [pat.bit_count() for pat in g.patterns]
    assert weights.count(4) == 5 and weights.count(3) == 10


def test_structural_report_extended_design():
    assert structural_report(extend_g(2).design).ok


def test_structural_report_missing_row(eq3):
    truncated = CodMatrix.from_rows(2, eq3.cells[:3])
    report = structural_report(truncated)
    completeness = next(
        c for c in report.checks if c.name == "zero_pattern_completeness"
    )
    assert not completeness.ok
    assert completeness.witnesses


def _reference_pattern_witnesses(cod):
    """Both zero-pattern checks bit by bit, on each pattern's support."""
    patterns = [BitVec(cod.n, pat) for pat in cod.patterns]
    relations = []
    for var in cod.ids:
        inst = instances(cod, var)
        for a in range(len(inst)):
            for b in range(a + 1, len(inst)):
                (ra, ca, ea), (rb, cb, eb) = inst[a], inst[b]
                diff = patterns[ra - 1].mask ^ patterns[rb - 1].mask
                if ea.conj != eb.conj:
                    diff ^= (1 << cod.n) - 1
                support = [c for c in range(1, cod.n + 1) if diff >> (c - 1) & 1]
                if set(support) != {ca, cb}:
                    relations.append((var, (ra, ca), (rb, cb), support))
    m = cod.m
    admissible = {m, m + 1} if cod.n == 2 * m - 1 else {m + 1}
    completeness, seen = [], set()
    for r, pat in enumerate(patterns, start=1):
        if pat.mask.bit_count() not in admissible:
            completeness.append(("bad-weight", r, str(pat)))
        elif pat in seen:
            completeness.append(("repeated", r, str(pat)))
        seen.add(pat)
    expected = sum(comb(cod.n, w) for w in admissible)
    if not completeness and len(seen) != expected:
        completeness.append(("missing-patterns", expected - len(seen)))
    return [relations, completeness]


def _edited_g3(edit):
    rows = [list(row) for row in construct_g(3).cells]
    edit(rows)
    return CodMatrix.from_rows(3, rows)


def _swap_two_cells(rows):
    rows[0][0], rows[0][1] = rows[0][1], rows[0][0]


def _rename_one_cell(rows):
    e, other = rows[0][0], next(x for x in rows[-1] if x is not None)
    rows[0][0] = Entry(other.var, e.sign, e.conj)


@pytest.mark.parametrize(
    "design",
    [
        lambda: construct_g(3),
        lambda: extend_g(2).design,
        lambda: _edited_g3(_swap_two_cells),
        lambda: _edited_g3(_rename_one_cell),
        lambda: _edited_g3(lambda rows: rows.pop(4)),
    ],
    ids=["g3", "extended", "swapped-cells", "renamed-cell", "dropped-row"],
)
def test_pattern_witnesses_match_bitwise_reference(design):
    cod = design()
    checks = structural_report(cod).checks
    assert [c.witnesses for c in checks[:2]] == _reference_pattern_witnesses(cod)


def _reference_block_witnesses(cod):
    """The block-structure check on `Entry` cells: each variable's split
    into plain and conjugate instances, then its coupling block."""
    m = cod.m
    shapes = {(m, m - 1), (m - 1, m)} if cod.n == 2 * m - 1 else {(m, m)}
    witnesses = []
    for var in cod.ids:
        inst = instances(cod, var)
        top = [r for r, _, e in inst if not e.conj]
        cols = [c for _, c, e in inst if e.conj]
        if (len(top), len(cols)) not in shapes:
            witnesses.append(("shape", var, (len(top), len(cols))))
        elif any(cod.cells[r - 1][c - 1] is None for r in top for c in cols):
            witnesses.append(("zero-in-coupling-block", var))
    return witnesses


def _move_a_cell_to_a_zero_column(rows):
    r = next(r for r, row in enumerate(rows) if None in row)
    c = next(c for c, e in enumerate(rows[r]) if e is not None)
    rows[r][rows[r].index(None)], rows[r][c] = rows[r][c], None


@pytest.mark.parametrize("edit, kinds", [
    (lambda rows: None, set()),
    (lambda rows: rows[0].__setitem__(0, rows[0][0].conjugated()), {"shape"}),
    (lambda rows: rows[0].__setitem__(0, None), {"shape", "zero-in-coupling-block"}),
    (_move_a_cell_to_a_zero_column, {"zero-in-coupling-block"}),
    (lambda rows: rows.pop(4), {"shape"}),
], ids=["g3", "conjugated-cell", "zeroed-cell", "moved-cell", "dropped-row"])
def test_block_witnesses_match_the_cell_reference(edit, kinds):
    cod = _edited_g3(edit)
    checks = structural_report(cod).checks
    got = checks[2]
    assert got.witnesses == _reference_block_witnesses(cod)
    assert [c.witnesses for c in checks[:2]] == _reference_pattern_witnesses(cod)
    assert {w[0] for w in got.witnesses} == kinds and got.ok == (not kinds)


@functools.cache
def relation_bases():
    """Scrambles of G_1..G_6 and the extended designs at m = 2, 4, 6."""
    designs = [scramble(construct_g(m), seed=m, count=30)[0] for m in range(1, 7)]
    return designs + [extend_g(m).design for m in (2, 4, 6)]


RELATION_EDITS = (
    "none", "negate", "conjugate", "zero", "swap", "twice-in-a-column", "repeated-row",
)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(data=st.data())
def test_pattern_relations_match_the_pairwise_reference(data):
    cod = data.draw(st.sampled_from(relation_bases()))
    rows = [list(row) for row in cod.cells]
    nonzero = [(r, c) for r in range(cod.p) for c in range(cod.n) if rows[r][c] is not None]
    kind = data.draw(st.sampled_from(RELATION_EDITS))
    r, c = data.draw(st.sampled_from(nonzero))
    e = rows[r][c]
    if kind == "negate":
        rows[r][c] = e.negated()
    elif kind == "conjugate":
        rows[r][c] = e.conjugated()
    elif kind == "zero":
        rows[r][c] = None
    elif kind == "swap":
        r2, c2 = data.draw(st.sampled_from(nonzero))
        rows[r][c], rows[r2][c2] = rows[r2][c2], e
    elif kind == "twice-in-a-column":
        # another cell of column c takes e's variable: two instances share
        # a column, the case the one-key rule leaves to the pair loop
        others = [r2 for r2 in range(cod.p) if r2 != r and rows[r2][c] is not None]
        if others:
            r2 = data.draw(st.sampled_from(others))
            rows[r2][c] = Entry(e.var, rows[r2][c].sign, rows[r2][c].conj)
    elif kind == "repeated-row":
        # each variable of row r then sits twice in one column with one key
        rows.append(rows[r])
    edited = CodMatrix.from_rows(cod.m, rows)
    got, want = structural_report(edited).checks[0], reference_pattern_relations(edited)
    assert (got.name, got.ok, got.witnesses) == (want.name, want.ok, want.witnesses)
