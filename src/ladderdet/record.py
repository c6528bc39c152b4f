"""Immutable records: the one base of the package's value classes.

A record class lists the attributes it stores in `__slots__` and sets them
in its own `__init__` through `set_field`, which bypasses the record's
`__setattr__`.  Its compared fields are `_fields`, by default its own
`__slots__`; a class names them itself when a slot is a cache or a field
is a class constant.  Records of one class are equal when their compared
fields are equal, and a record never equals an object of another class;
a record hashes as the tuple of its compared fields and prints as
``Name(field=value, ...)``.  Assigning or deleting an attribute raises
AttributeError.
"""

from __future__ import annotations

from operator import attrgetter

# Sets a slot of a record in its `__init__`, or fills a cache slot later.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        fields = own.get("_fields") or own.get("__slots__")
        if not fields:  # a subclass that stores nothing new compares as its parent
            return
        cls._fields = fields = tuple(fields)
        values = attrgetter(*fields)
        cls._values = staticmethod(values if len(fields) > 1 else lambda r: (values(r),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the slots through here, not `__setattr__`.
        for name, value in state[1].items():
            set_field(self, name, value)
