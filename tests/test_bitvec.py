import random

import pytest

from codlib import BitVec


def test_partial_weight_examples():
    assert BitVec.from_string("1110").partial_weight(2, 4) == 2
    assert BitVec.from_string("1111").partial_weight(1, 4) == 4
    assert BitVec.from_string("0111").partial_weight(3, 4) == 2


def test_partial_weight_equals_weight_on_full_range():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randrange(1, 20)
        v = BitVec(n, rng.randrange(1 << n))
        assert v.partial_weight(1, n) == v.weight()
        # cross-check against bit-by-bit summation
        s, t = sorted((rng.randrange(1, n + 1), rng.randrange(1, n + 1)))
        assert v.partial_weight(s, t) == sum(v.bit(i) for i in range(s, t + 1))


def test_partial_weight_range_errors():
    v = BitVec.from_string("101")
    with pytest.raises(IndexError):
        v.partial_weight(0, 2)
    with pytest.raises(IndexError):
        v.partial_weight(2, 4)


def test_xor_properties():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randrange(1, 16)
        a = BitVec(n, rng.randrange(1 << n))
        b = BitVec(n, rng.randrange(1 << n))
        c = BitVec(n, rng.randrange(1 << n))
        assert a ^ b == b ^ a
        assert (a ^ b) ^ c == a ^ (b ^ c)
        assert a ^ a == BitVec(n)
        assert (a ^ b).weight() % 2 == (a.weight() + b.weight()) % 2


def test_string_round_trip():
    for mask in range(1 << 5):
        v = BitVec(5, mask)
        assert BitVec.from_string(str(v)) == v


def test_unit_and_ones():
    e = BitVec.ones(6)
    assert e.weight() == 6
    acc = BitVec(6)
    for i in range(1, 7):
        acc = acc ^ BitVec.unit(6, i)
    assert acc == e


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        BitVec(3) ^ BitVec(4)


def test_text_form_matches_bit_by_bit_reference():
    for length in range(1, 11):
        for mask in range(1 << length):
            text = "".join(str((mask >> i) & 1) for i in range(length))
            v = BitVec(length, mask)
            assert str(v) == text
            assert BitVec.from_string(text) == v


@pytest.mark.parametrize("text", ["", " 01", "0\n", "١", "0b1", "1_0"])
def test_from_string_rejects_non_bit_strings(text):
    with pytest.raises(ValueError, match="not a bit string"):
        BitVec.from_string(text)
