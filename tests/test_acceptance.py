"""Acceptance suite: one test per criterion, one printed line per result."""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from codlib import (
    SearchSpec,
    canonicalize,
    check_certificate,
    construct_g,
    enumerate_cods,
    extend_g,
    max_rate,
    min_delay,
    scramble,
    verify_numeric,
    verify_symbolic,
)
from codlib.bitvec import BitVec
from codlib.fileio import design_to_json
from conftest import make_eq3, row_ids, theta


def report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_generation_and_verification():
    expected = {
        1: (1, 1, 1),
        2: (4, 3, 3),
        3: (15, 5, 10),
        4: (56, 7, 35),
        5: (210, 9, 126),
    }
    start = time.time()
    ok = True
    for m, dims in expected.items():
        g = construct_g(m)
        ok &= (g.p, g.n, g.k) == dims
        ok &= (g.p, g.n, g.k) == (
            comb(2 * m, m - 1),
            2 * m - 1,
            comb(2 * m - 1, m - 1),
        )
        ok &= verify_symbolic(g).ok
    elapsed = time.time() - start
    ok &= elapsed < 10.0
    report("1 generation+verification (m=1..5, <10s)", ok)


def test_criterion_2_paper_golden_design():
    eq3 = make_eq3()
    ok = verify_symbolic(eq3).ok
    patterns = [str(BitVec(eq3.n, pat)) for pat in eq3.patterns]
    ok &= patterns == ["111", "110", "101", "011"]
    report("2 golden [4,3,3] design", ok)


def test_criterion_3_extension_even_m():
    res = extend_g(2)
    ok = res.exists
    ok &= (res.design.p, res.design.n, res.design.k) == (4, 4, 3)
    ok &= verify_symbolic(res.design).ok
    ok &= res.solution_count_log2 == 1
    report("3 extension m=2 ([4,4,3], 2 sign solutions)", ok)


def test_criterion_4_extension_odd_m():
    ok = True
    for m in (1, 3, 5):
        res = extend_g(m)
        ok &= not res.exists
        ok &= sum(c for *_, c in res.certificate.constraints) % 2 == 1
        ok &= check_certificate(m, res.certificate.constraints)
    report("4 nonexistence m=1,3,5 (certified)", ok)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_criterion_5_uniqueness_round_trip(m):
    start = time.time()
    g = construct_g(m)
    golden = design_to_json(canonicalize(g))
    ok = True
    for seed in range(100):
        scrambled, _ = scramble(g, seed=seed, count=50)
        ok &= design_to_json(canonicalize(scrambled)) == golden
    elapsed = time.time() - start
    if m == 4:
        ok &= elapsed < 60.0
    report(f"5 uniqueness round-trip m={m} (100 scrambles)", ok)


def test_criterion_6_oracle_cross_validation():
    start = time.time()
    classes = enumerate_cods(SearchSpec(p=4, n=3, k=3, mode="family"))
    ok = len(classes) == 1
    ok &= classes[0].canonical == canonicalize(construct_g(2))
    ok &= classes[0].canonical == canonicalize(make_eq3())
    ok &= enumerate_cods(SearchSpec(p=1, n=2, k=1, mode="free")) == []
    ok &= time.time() - start < 60.0
    report("6 oracle [4,3,3] unique / [1,2,1] empty (<60s)", ok)


def test_criterion_7_bounds_table():
    rates = [max_rate(n) for n in range(2, 11)]
    expected_rates = [
        Fraction(1),
        Fraction(3, 4),
        Fraction(3, 4),
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(5, 8),
        Fraction(5, 8),
        Fraction(3, 5),
        Fraction(3, 5),
    ]
    ok = rates == expected_rates
    delays = [min_delay(n) for n in range(2, 11)]
    ok &= delays == [2, 4, 4, 15, 30, 56, 56, 210, 420]
    report("7 bounds table n=2..10", ok)


def _alamouti_column_pairs(g, ids):
    two_m = ids[0].length
    e = (1 << two_m) - 1
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            diff = ids[x].mask ^ ids[y].mask ^ e
            if diff.bit_count() != 2:
                continue
            i, j = [c for c in range(1, two_m + 1) if diff >> (c - 1) & 1]
            if j > two_m - 1:
                continue
            if all(v.mask >> (i - 1) & 1 and v.mask >> (j - 1) & 1 for v in (ids[x], ids[y])):
                yield ids[x], ids[y], i, j


def test_criterion_8a_sign_identities():
    ok = True
    for m in (2, 3, 4):
        g = construct_g(m)
        two_m = 2 * m
        ids = row_ids(g)
        for a, b, i, j in _alamouti_column_pairs(g, ids):
            for col in (i, j):
                lhs = (theta(a, col) + theta(b, col)) % 2
                rhs = (((a.mask ^ b.mask) >> (col - 1)).bit_count() + col) % 2
                ok &= lhs == rhs
            total = theta(a, i) + theta(b, i) + theta(a, j) + theta(b, j)
            ok &= total % 2 == 1
    report("8a theta pair identity + Alamouti parity (m<=4)", ok)


def test_criterion_8b_random_op_preservation():
    rng = random.Random(20240824)
    designs = [make_eq3(), construct_g(2), construct_g(3)]
    ok = True
    for _ in range(1000):
        cod = rng.choice(designs)
        out, _ = scramble(cod, seed=rng.randrange(1 << 30), count=1)
        ok &= verify_symbolic(out).ok
    report("8b 1000 random (design, op) draws stay orthogonal", ok)


def test_criterion_8c_numeric_residuals():
    ok = True
    for cod in [make_eq3(), construct_g(2), construct_g(3), construct_g(4)]:
        ok &= verify_numeric(cod, trials=10, seed=1)
    report("8c exact numeric identity at seeded integer points (10 trials)", ok)
