"""Slotted value classes whose equality, hash and repr read their fields.

A subclass lists its fields as its own ``__slots__``, in order; a slot
whose name starts with ``_`` holds private state and is not a field.  Two
instances are equal when they are of the same class and their fields are
equal, ``repr`` reads ``Name(field=value, ...)``, and a `FrozenRecord`
hashes the tuple of its fields and refuses assignment.  Each subclass
writes its own ``__init__``; a frozen one sets its slots through
``object.__setattr__`` and takes its fields positionally, in order, which
is how `copy` and `pickle` rebuild it.
"""
from __future__ import annotations

from operator import attrgetter


class Record:
    """A mutable value: equal by fields, unhashable."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(n for n in cls.__dict__.get("__slots__", ())
                            if not n.startswith("_"))
        if len(cls._fields) > 1:
            cls._values = staticmethod(attrgetter(*cls._fields))
        elif cls._fields:
            get = attrgetter(cls._fields[0])
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = staticmethod(lambda obj: ())

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{n}={v!r}"
                         for n, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"


class FrozenRecord(Record):
    """An immutable value: equal and hashed by fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values(self)
