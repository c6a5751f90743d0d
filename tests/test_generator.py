from itertools import combinations
from math import comb
import random

import pytest

from codlib import (
    BitVec,
    CodMatrix,
    Entry,
    check_certificate,
    construct_g,
    extend_g,
    verify_symbolic,
)
from codlib.errors import ParameterError
import codlib.generator as generator
from codlib.generator import _odd_walk
from conftest import ParityForest, row_ids, theta


def bv(s: str) -> BitVec:
    return BitVec.from_string(s)


def test_theta_examples():
    assert theta(bv("1110"), 2) == 1
    assert theta(bv("1110"), 3) == 0
    assert theta(bv("1011"), 1) == 0


@pytest.mark.parametrize("m", range(1, 8))
def test_every_sign_bit_of_g_is_theta(m):
    g = construct_g(m)
    for r, rid in enumerate(row_ids(g)):
        for c, code in enumerate(g.codes[r * g.n:(r + 1) * g.n], 1):
            assert not code or code & 1 == theta(rid, c)


def test_masks_lists_every_weight_ascending():
    for length in range(1, 17):
        for weight in range(1, length + 1):
            want = sorted(sum(1 << c for c in pos) for pos in combinations(range(length), weight))
            assert generator._masks(length, weight) == want


def test_construct_g_m1():
    g = construct_g(1)
    assert (g.p, g.n, g.k) == (1, 1, 1)
    e = g.cells[0][0]
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
        for rid, row in zip(row_ids(g), g.cells):
            entries = [e for e in row if e is not None]
            if rid.mask >> (2 * m - 1) & 1:
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
        ids = row_ids(g)
        e = (1 << 2 * m) - 1
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                diff = ids[x].mask ^ ids[y].mask ^ e
                if diff.bit_count() != 2:
                    continue
                i, j = [c for c in range(1, 2 * m + 1) if diff >> (c - 1) & 1]
                if j > 2 * m - 1:
                    continue
                if not all(
                    v.mask >> (i - 1) & 1 and v.mask >> (j - 1) & 1 for v in (ids[x], ids[y])
                ):
                    continue
                for col in (i, j):
                    lhs = (theta(ids[x], col) + theta(ids[y], col)) % 2
                    rhs = (((ids[x].mask ^ ids[y].mask) >> (col - 1)).bit_count() + col) % 2
                    assert lhs == rhs


def test_alamouti_sign_parity():
    # the 2x2 determinant-sign condition: the four thetas sum to 1 (mod 2)
    for m in (2, 3, 4):
        g = construct_g(m)
        ids = row_ids(g)
        e = (1 << 2 * m) - 1
        for x in range(len(ids)):
            for y in range(x + 1, len(ids)):
                diff = ids[x].mask ^ ids[y].mask ^ e
                if diff.bit_count() != 2:
                    continue
                i, j = [c for c in range(1, 2 * m + 1) if diff >> (c - 1) & 1]
                if j > 2 * m - 1:
                    continue
                if not all(
                    v.mask >> (i - 1) & 1 and v.mask >> (j - 1) & 1 for v in (ids[x], ids[y])
                ):
                    continue
                total = (
                    theta(ids[x], i)
                    + theta(ids[y], i)
                    + theta(ids[x], j)
                    + theta(ids[y], j)
                )
                assert total % 2 == 1


def test_zero_pattern_completeness_of_g():
    for m in (2, 3):
        g = construct_g(m)
        pats = set(g.patterns)
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
    e = (1 << two_m) - 1
    e_2m = 1 << (two_m - 1)
    row_ids = [BitVec(two_m, a) for a in range(1 << two_m) if a.bit_count() == m + 1]
    unknowns = [a for a in row_ids if a.mask >> (two_m - 1) & 1]
    edges = []
    for alpha in unknowns:
        for i in range(1, two_m):
            if alpha.mask >> (i - 1) & 1:
                beta = BitVec(two_m, alpha.mask ^ 1 << (i - 1) ^ e_2m ^ e)
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
    e_2m = 1 << (2 * m - 1)
    phi = {}
    for alpha, x in zip(row_ids(g), (row[-1] for row in res.design.cells)):
        if not alpha.mask & e_2m:
            assert x is None
            continue
        assert x.var == BitVec(2 * m, alpha.mask ^ e_2m) and not x.conj
        phi[alpha] = int(x.sign < 0)
    assert set(phi) == set(unknowns) and phi[unknowns[0]] == 0
    assert all(phi[a] ^ phi[b] == c for a, b, c in edges)


def test_odd_walk_certifies_exactly_the_odd_m():
    # beyond M_MAX too: the walk never builds G
    for m in range(1, 102):
        assert check_certificate(m, _odd_walk(m)) == (m % 2 == 1)


def test_check_certificate_with_m_below_1_is_false():
    for m in (0, -1):
        for walk in (_odd_walk(1), _odd_walk(3), []):
            assert check_certificate(m, walk) is False


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
    assert sum(c for *_, c in res.certificate.constraints) % 2 == 1
    assert check_certificate(m, res.certificate.constraints)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 6])
def test_extend_lists_the_row_ids_once(monkeypatch, m):
    # G and the new column read one listing of the row masks; odd m builds neither
    calls = []
    masks = generator._masks

    def counting_masks(length, weight):
        calls.append((length, weight))
        return masks(length, weight)

    monkeypatch.setattr(generator, "_masks", counting_masks)
    res = extend_g(m)
    assert calls.count((2 * m, m + 1)) == (0 if m % 2 else 1)
    if res.exists:
        assert [row[:-1] for row in res.design.cells] == list(construct_g(m).cells)


def test_extend_m4():
    res = extend_g(4)
    assert res.exists and res.solution_count_log2 == 1
    assert verify_symbolic(res.design).ok


def test_check_certificate_rejects_tampering():
    for m in (3, 5):
        walk = list(extend_g(m).certificate.constraints)
        two_m, top = 2 * m, 1 << (2 * m - 1)
        (a, b, c), rest = walk[0], walk[1:]
        x, y = a.mask, b.mask
        step = x ^ y ^ (top - 1)  # e_i for the step column i
        a_zero = next(1 << k for k in range(two_m - 1) if not x >> k & 1)
        b_one = next(1 << k for k in range(two_m - 1) if y >> k & 1 and 1 << k != step)
        b_zero = next(1 << k for k in range(two_m - 1) if not y >> k & 1)
        tampered = [
            [(a, b, c ^ 1)] + rest,  # even parity sum
            walk[:-1],  # open walk
            [],
            [(BitVec(two_m + 1, x), b, c)] + rest,  # an end of length 2m+1
            [(BitVec(two_m, x | a_zero), b, c)] + rest,  # weight m+2, bit 2m kept
            [(BitVec(two_m, x ^ top | a_zero), b, c)] + rest,  # weight m+1, no bit 2m
            [(a, BitVec(two_m, y ^ b_one ^ b_zero), c)] + rest,  # ends differ in 3 columns
            [(p, q, r ^ (n < 2)) for n, (p, q, r) in enumerate(walk)],  # 2 flipped: odd total
            [walk[1], walk[0]] + walk[2:],  # the walk no longer closes
        ]
        for cons in tampered:
            assert not check_certificate(m, cons)
        accepted = [walk[r:] + walk[:r] for r in range(len(walk))]
        accepted += [walk[::-1], [(q, p, r) for p, q, r in walk]]
        for cons in accepted:
            assert check_certificate(m, cons)


def _reference_check_certificate(m, constraints):
    """check_certificate as three passes: every rule, the parity sum, the walk."""
    if not constraints or m < 1:
        return False
    two_m = 2 * m
    top = 1 << (two_m - 1)  # e_2m
    flip = top - 1  # e ^ e_2m
    for a, b, c in constraints:
        if a.length != two_m or b.length != two_m:
            return False
        x, y = a.mask, b.mask
        if x.bit_count() != m + 1 or y.bit_count() != m + 1:
            return False
        if not x & top or not y & top:
            return False
        step = x ^ y ^ flip  # e_i
        if step.bit_count() != 1:
            return False
        i = step.bit_length()
        if i > two_m - 1 or not x >> (i - 1) & 1 or c != i % 2:
            return False
    if sum(c for _, _, c in constraints) % 2 != 1:
        return False

    def closes_from(start: int) -> bool:
        at = start
        for a, b, _ in constraints:
            if at != a.mask and at != b.mask:
                return False
            at ^= a.mask ^ b.mask  # the other end
        return at == start

    # the first constraint's orientation is not fixed; try both ends
    return closes_from(constraints[0][0].mask) or closes_from(constraints[0][1].mask)


def _mutate(rng, walk):
    """`walk` after one random edit: a constraint's parity or its type, ends,
    presence, copy, one bit or length, or the list's order or length."""
    walk = list(walk)
    if not walk:
        return walk
    k = rng.randrange(len(walk))
    a, b, c = walk[k]
    edit = rng.randrange(10)
    if edit == 0:
        walk[k] = (a, b, 1 - c)
    elif edit == 1:
        walk[k] = (b, a, c)
    elif edit == 2:
        del walk[k]
    elif edit == 3:
        walk.insert(rng.randrange(len(walk) + 1), walk[k])
    elif edit == 4:
        end = rng.randrange(2)
        v = (a, b)[end]
        v = BitVec(v.length, v.mask ^ 1 << rng.randrange(v.length))
        walk[k] = (v, b, c) if end == 0 else (a, v, c)
    elif edit == 5:
        walk[k] = (BitVec(a.length + 1, a.mask), b, c)
    elif edit == 6:
        rng.shuffle(walk)
    elif edit == 7:
        walk.reverse()
    elif edit == 8:
        walk = walk * 2
    else:
        walk[k] = (a, b, float(c))  # equal to c, so no rule refuses it
    return walk


def test_check_certificate_matches_the_three_pass_reference():
    rng = random.Random(34)
    walks = {m: _odd_walk(m) for m in range(1, 8)}
    outcomes = set()
    for _ in range(20000):
        m = rng.randrange(1, 8)
        cons = walks[m]
        for _ in range(rng.randrange(4)):
            cons = _mutate(rng, cons)
        if rng.randrange(10) == 0:
            m = rng.randrange(9)
        got = check_certificate(m, cons)
        assert got is _reference_check_certificate(m, cons), (m, cons)
        outcomes.add(got)
    assert outcomes == {False, True}
