"""`BitVec`: a variable id, or a certificate's row, with its text form.

A `BitVec` is `length` bits held as an int `mask`; the kernels work on the
masks.  The text form writes bit 1 leftmost, e.g. "1101" has mask 0b1011.
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
    """An immutable id of `length` bits.  Bit i is stored at mask bit i-1."""

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

    @classmethod
    def from_string(cls, s: str) -> "BitVec":
        """Parse the text form, bit 1 leftmost: "1101" -> (1,1,0,1)."""
        if not s or s.strip("01"):
            raise ValueError(f"not a bit string: {s!r}")
        return cls(len(s), int(s[::-1], 2))

    def __str__(self) -> str:
        return format(self.mask, f"0{self.length}b")[::-1]

    def __repr__(self) -> str:
        return f"BitVec('{self}')"
