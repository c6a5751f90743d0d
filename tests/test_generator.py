from math import comb

import pytest

from codlib import (
    BitVec,
    CodMatrix,
    Entry,
    check_certificate,
    construct_g,
    extend_g,
    row_id,
    theta,
    verify_symbolic,
)
from codlib.equivalence import ParityForest
from codlib.errors import ParameterError
import codlib.generator as generator
from codlib.generator import _odd_walk, row_ids_for


def bv(s: str) -> BitVec:
    return BitVec.from_string(s)


def test_theta_examples():
    assert theta(bv("1110"), 2) == 1
    assert theta(bv("1110"), 3) == 0
    assert theta(bv("1011"), 1) == 0


def test_theta_requires_nonzero_bit():
    with pytest.raises(ValueError):
        theta(bv("1011"), 2)


def test_construct_g_m1():
    g = construct_g(1)
    assert (g.p, g.n, g.k) == (1, 1, 1)
    e = g.entry(1, 1)
    # the entry rules put the single weight-2 row in the conjugated class
    assert e.var == bv("10") and e.conj and e.sign == -1
    assert verify_symbolic(g).ok


def test_construct_g_m2_matches_hand_evaluation():
    g = construct_g(2)
    a, b, c = bv("1100"), bv("1010"), bv("0110")
    expected = [
        [Entry(c, -1), Entry(b, -1), Entry(a, 1)],
        [Entry(b, 1, True), Entry(c, -1, True), None],
        [Entry(a, 1, True), None, Entry(c, 1, True)],
        [None, Entry(a, 1, True), Entry(b, 1, True)],
    ]
    assert [list(r) for r in g.cells] == expected
    assert verify_symbolic(g).ok


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_construct_g_dimensions_and_validity(m):
    g = construct_g(m)
    assert (g.p, g.n, g.k) == (
        comb(2 * m, m - 1),
        2 * m - 1,
        comb(2 * m - 1, m - 1),
    )
    assert verify_symbolic(g).ok


def test_construct_g_row_conjugation_split():
    for m in (2, 3):
        g = construct_g(m)
        for r in range(1, g.p + 1):
            rid = row_id(g, r)
            entries = [e for e in g.row(r) if e is not None]
            if rid.bit(2 * m):
                assert len(entries) == m and all(e.conj for e in entries)
            else:
                assert len(entries) == m + 1 and not any(e.conj for e in entries)


def test_construct_g_rejects_out_of_range():
    with pytest.raises(ParameterError):
        construct_g(0)
    with pytest.raises(ParameterError):
        construct_g(9)


def test_theta_pair_identity():
    # for Alamouti-sharing rows a, b and shared column i:
    # theta(a,i) + theta(b,i) = wt_{i,2m}(a^b) + i (mod 2)
    for m in (2, 3, 4):
        g = construct_g(m)
        ids = [row_id(g, r) for r in range(1, g.p + 1)]
        e = BitVec.ones(2 * m)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                diff = ids[x] ^ ids[y] ^ e
                if diff.weight() != 2:
                    continue
                i, j = diff.support()
                if j > 2 * m - 1:
                    continue
                if not all(v.bit(i) and v.bit(j) for v in (ids[x], ids[y])):
                    continue
                for col in (i, j):
                    lhs = (theta(ids[x], col) + theta(ids[y], col)) % 2
                    rhs = ((ids[x] ^ ids[y]).partial_weight(col, 2 * m) + col) % 2
                    assert lhs == rhs


def test_alamouti_sign_parity():
    # the 2x2 determinant-sign condition: the four thetas sum to 1 (mod 2)
    for m in (2, 3, 4):
        g = construct_g(m)
        ids = [row_id(g, r) for r in range(1, g.p + 1)]
        e = BitVec.ones(2 * m)
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                diff = ids[x] ^ ids[y] ^ e
                if diff.weight() != 2:
                    continue
                i, j = diff.support()
                if j > 2 * m - 1:
                    continue
                if not all(v.bit(i) and v.bit(j) for v in (ids[x], ids[y])):
                    continue
                total = (
                    theta(ids[x], i)
                    + theta(ids[y], i)
                    + theta(ids[x], j)
                    + theta(ids[y], j)
                )
                assert total % 2 == 1


def test_zero_pattern_completeness_of_g():
    from codlib import zero_pattern

    for m in (2, 3):
        g = construct_g(m)
        pats = {zero_pattern(g, r).mask for r in range(1, g.p + 1)}
        assert len(pats) == g.p
        expected = {
            v
            for v in range(1 << g.n)
            if v.bit_count() in (m, m + 1)
        }
        assert pats == expected


def build_extension_system(m: int):
    """Reference XOR system of the 2m-th column: (unknowns, edges).

    For each conjugated row a and each column i where a is nonzero, the
    Alamouti block joining a to row a ^ e_i ^ e_2m ^ e fixes the relative
    sign: equal for even i, opposite for odd i.  Each edge is kept once,
    from its smaller end.
    """
    two_m = 2 * m
    e = BitVec.ones(two_m)
    e_2m = BitVec.unit(two_m, two_m)
    unknowns = [a for a in row_ids_for(m) if a.bit(two_m)]
    edges = []
    for alpha in unknowns:
        for i in range(1, two_m):
            if alpha.bit(i):
                beta = alpha ^ BitVec.unit(two_m, i) ^ e_2m ^ e
                if beta.mask >= alpha.mask:
                    edges.append((alpha, beta, i % 2))
    return unknowns, edges


def test_build_extension_system_m2():
    unknowns, constraints = build_extension_system(2)
    r2, r3, r4 = bv("1101"), bv("1011"), bv("0111")
    assert unknowns == [r2, r3, r4]
    edges = {frozenset((a.mask, b.mask)): c for a, b, c in constraints}
    assert edges == {
        frozenset((r2.mask, r3.mask)): 1,
        frozenset((r2.mask, r4.mask)): 0,
        frozenset((r3.mask, r4.mask)): 1,
    }


def test_build_extension_system_m1_self_loop():
    a = bv("11")
    assert build_extension_system(1) == ([a], [(a, a, 1)])


@pytest.mark.parametrize("m", range(1, 9))
def test_closed_form_solves_the_extension_system(m):
    unknowns, edges = build_extension_system(m)
    index = {a: i for i, a in enumerate(unknowns)}
    forest = ParityForest(len(unknowns))
    clashes = [forest.join(index[a], index[b], c) for a, b, c in edges]
    res = extend_g(m)
    if m % 2:
        assert not res.exists and 1 in clashes
        return
    assert 1 not in clashes
    assert len({forest.find(i)[0] for i in range(len(unknowns))}) == 1
    # read the row ids off the first 2m-1 columns of the extended design
    g = CodMatrix.from_rows(m, [row[:-1] for row in res.design.cells])
    e_2m = BitVec.unit(2 * m, 2 * m)
    phi = {}
    for r, x in enumerate((row[-1] for row in res.design.cells), start=1):
        alpha = row_id(g, r)
        if not alpha.bit(2 * m):
            assert x is None
            continue
        assert x.var == alpha ^ e_2m and not x.conj
        phi[alpha] = int(x.sign < 0)
    assert set(phi) == set(unknowns) and phi[unknowns[0]] == 0
    assert all(phi[a] ^ phi[b] == c for a, b, c in edges)


def test_odd_walk_certifies_exactly_the_odd_m():
    # beyond M_MAX too: the walk never builds G
    for m in range(1, 102):
        assert check_certificate(m, _odd_walk(m)) == (m % 2 == 1)


def test_extend_even_m():
    res = extend_g(2)
    assert res.exists
    assert res.solution_count_log2 == 1
    col = tuple(row[-1] for row in res.design.cells)
    a, b, c = bv("1100"), bv("1010"), bv("0110")
    assert col == (
        None,
        Entry(a, 1, False),
        Entry(b, -1, False),
        Entry(c, 1, False),
    )
    assert (res.design.p, res.design.n, res.design.k) == (4, 4, 3)
    assert verify_symbolic(res.design).ok


@pytest.mark.parametrize("m", [1, 3, 5])
def test_extend_odd_m_certified_impossible(m):
    res = extend_g(m)
    assert not res.exists
    assert res.certificate.parity() == 1
    assert check_certificate(m, res.certificate.constraints)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_extend_lists_the_row_ids_once(monkeypatch, m):
    # G and the new column share one list; odd m builds neither
    calls = []

    def counting_row_ids_for(m):
        calls.append(m)
        return row_ids_for(m)

    monkeypatch.setattr(generator, "row_ids_for", counting_row_ids_for)
    res = extend_g(m)
    assert calls == ([] if m % 2 else [m])
    if res.exists:
        assert [row[:-1] for row in res.design.cells] == list(construct_g(m).cells)


def test_extend_m4():
    res = extend_g(4)
    assert res.exists and res.solution_count_log2 == 1
    assert verify_symbolic(res.design).ok


def test_check_certificate_rejects_tampering():
    res = extend_g(3)
    cons = list(res.certificate.constraints)
    a, b, c = cons[0]
    cons[0] = (a, b, c ^ 1)  # even parity sum
    assert not check_certificate(3, cons)
    cons = list(res.certificate.constraints)[:-1]  # open walk
    assert not check_certificate(3, cons)
    assert not check_certificate(3, [])
