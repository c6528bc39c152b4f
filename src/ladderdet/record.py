"""Immutable records: the one base of the package's value classes.

A record class lists the attributes it stores in `__slots__`.  Its public
slots, those whose names do not start with an underscore, are its fields,
and `Record.__init__` is the one constructor: it binds positional and then
keyword arguments to the fields in slot order, fills the trailing fields
that are left out from the class's `_defaults` dict, and raises TypeError
on a missing, unknown or repeated field.  A slot whose name starts with an
underscore is a cache, filled later through `set_field`.  A class whose
constructor normalises or validates its arguments keeps its own `__init__`
and sets its slots through `set_field`, which bypasses the record's
`__setattr__`.

The compared fields are `_fields`, by default the fields; a class names
them itself when a field is derived from the others or a class constant
is compared too.  Records of one class are equal when their compared
fields are equal, and a record never equals an object of another class;
a record hashes as the tuple of its compared fields and prints as
``Name(field=value, ...)``.  Assigning or deleting an attribute raises
AttributeError.

`Check` is the one checked line of the package: a ladder's running
assumptions, the splitting certificate's invariants, the node checks of a
Knutson derivation and the lines of every acceptance criterion are each a
`Check`.  Each report's verdict is that all of its checks are ok, except
that a ladder's leaves out assumption (4).
"""

from __future__ import annotations

from operator import attrgetter

# Sets a slot of a record in a normalising `__init__`, or fills a cache slot later.
set_field = object.__setattr__


class Record:
    __slots__ = ()
    _params: tuple[str, ...] = ()
    _setters: tuple = ()
    _defaults: dict = {}
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = vars(cls)
        public = tuple(name for name in own.get("__slots__", ()) if name[0] != "_")
        if not public:  # a subclass with no new field builds and compares as its parent
            return
        cls._params = params = cls._params + public
        # The slots' own descriptor setters, bound once: the constructor's
        # fast path calls them with no lookup by name.
        cls._setters = tuple(getattr(cls, name).__set__ for name in params)
        cls._fields = fields = tuple(own.get("_fields") or params)
        values = attrgetter(*fields)
        cls._values = staticmethod(values if len(fields) > 1 else lambda r: (values(r),))

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for setter, value in zip(setters, args):
            setter(self, value)

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """The field values in slot order: `args` first, then each later
        field from `kwargs` or `_defaults`."""
        params, name = cls._params, cls.__qualname__
        if len(args) > len(params):
            raise TypeError(f"{name}() takes {len(params)} fields, got {len(args)} positional")
        values = list(args)
        for field in params[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing field {field!r}")
        if kwargs:
            field = next(iter(kwargs))
            raise TypeError(f"{name}() got {'repeated' if field in params else 'unknown'} field {field!r}")
        return values

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


class Check(Record):
    """One checked line: what was checked, whether it holds, and a detail."""

    __slots__ = ("name", "ok", "detail")
    _defaults = {"detail": ""}
