"""Fixed-length bit vectors over F_2, indexed 1..length.

These are used for zero patterns, row identifiers and variable indices.
All indexing is 1-based; the text form writes bit 1 leftmost, e.g. "1101".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BitVec:
    """Immutable element of F_2^length.  Bit i is stored at mask bit i-1."""

    length: int
    mask: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValueError(f"length must be positive, got {self.length}")
        if not 0 <= self.mask < (1 << self.length):
            raise ValueError(f"mask {self.mask} out of range for length {self.length}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def unit(cls, length: int, i: int) -> "BitVec":
        """e_i: the vector with a single 1 at position i."""
        if not 1 <= i <= length:
            raise IndexError(f"unit index {i} out of range 1..{length}")
        return cls(length, 1 << (i - 1))

    @classmethod
    def ones(cls, length: int) -> "BitVec":
        """e: the all-ones vector."""
        return cls(length, (1 << length) - 1)

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Parse the text form, bit 1 leftmost: "1101" -> (1,1,0,1)."""
        if not s or s.strip("01"):
            raise ValueError(f"not a bit string: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    # -- queries -----------------------------------------------------------

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.length:
            raise IndexError(f"index {i} out of range 1..{self.length}")
        return (self.mask >> (i - 1)) & 1

    def weight(self) -> int:
        return self.mask.bit_count()

    def partial_weight(self, s: int, t: int) -> int:
        """Sum of bits s..t inclusive."""
        if not 1 <= s <= t <= self.length:
            raise IndexError(f"range {s}..{t} invalid for length {self.length}")
        window = ((1 << (t - s + 1)) - 1) << (s - 1)
        return (self.mask & window).bit_count()

    def support(self) -> list[int]:
        """1-based positions of the set bits."""
        return [i for i in range(1, self.length + 1) if self.bit(i)]

    # -- arithmetic --------------------------------------------------------

    def __xor__(self, other: "BitVec") -> "BitVec":
        if self.length != other.length:
            raise ValueError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitVec(self.length, self.mask ^ other.mask)

    def __str__(self) -> str:
        return format(self.mask, f"0{self.length}b")[::-1]

    def __repr__(self) -> str:
        return f"BitVec('{self}')"
