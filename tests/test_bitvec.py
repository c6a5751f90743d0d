import random

import pytest

from codlib import BitVec


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
