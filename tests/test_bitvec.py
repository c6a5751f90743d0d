import pytest

from codlib import BitVec


def test_string_round_trip():
    for mask in range(1 << 5):
        v = BitVec(5, mask)
        assert BitVec.from_string(str(v)) == v


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
