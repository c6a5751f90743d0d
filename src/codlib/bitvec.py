"""Fixed-length bit vectors over F_2, indexed 1..length.

These are used for zero patterns, row identifiers and variable indices.
All indexing is 1-based; the text form writes bit 1 leftmost, e.g. "1101".
It also holds `Record` and `FrozenRecord`, the package's record bases.
"""

from __future__ import annotations


class Record:
    """A mutable record.  Its fields, `_fields`, are the parameters of its
    `__init__`, in order; it compares equal to a record of the same class
    with equal fields, and its repr is `Name(field=value, ...)`."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        init = cls.__dict__.get("__init__")
        if init is not None:
            cls._fields = init.__code__.co_varnames[1:init.__code__.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    __hash__ = None  # mutable, so unhashable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose `__init__` sets each field with `self._set(name, value)`
    and that refuses every later write; it hashes by its fields.  A subclass
    that defines `__eq__` defines `__hash__` too."""

    _set = object.__setattr__  # not `__dict__`, which would build a dict per record

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class BitVec(FrozenRecord):
    """Immutable element of F_2^length.  Bit i is stored at mask bit i-1."""

    def __init__(self, length: int, mask: int = 0):
        if length < 1:
            raise ValueError(f"length must be positive, got {length}")
        if not 0 <= mask < (1 << length):
            raise ValueError(f"mask {mask} out of range for length {length}")
        self._set("length", length)
        self._set("mask", mask)

    def __eq__(self, other):
        if other.__class__ is BitVec:
            return self.mask == other.mask and self.length == other.length
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.length, self.mask))

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
