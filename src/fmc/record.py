"""Base of the package's immutable records.

A record's fields are its ``__slots__``, in order.  Two records are equal
when they have the same class and equal fields, and the hash is the hash of
the field tuple, so a record holding a dict is unhashable.  ``repr`` reads
``Name(field=value, ...)``.  Assigning or deleting an attribute raises
``AttributeError``.  ``__init__`` is the one place a field is set: it takes
the fields in slot order, first by position and then by name, each exactly
once, and raises ``TypeError`` on a missing, extra, repeated or unknown one.
A record with invariants checks them in its own ``__init__`` and passes its
fields on to this one.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        slots = self.__slots__
        kind = self.__class__.__qualname__
        if len(values) > len(slots):
            raise TypeError(f"{kind}() takes {len(slots)} fields but {len(values)} were given")
        for name in slots[len(values):]:
            if name not in named:
                raise TypeError(f"{kind}() missing field {name!r}")
            values += (named.pop(name),)
        for name in named:
            how = "repeated" if name in slots else "unknown"
            raise TypeError(f"{kind}() got {how} field {name!r}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Copies and pickles rebuild through __init__, which takes the fields
        # in slot order.
        return self.__class__, self._fields()
