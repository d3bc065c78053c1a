"""The one base of the package's frozen value records.

A record names its fields, in order, as its __slots__; a subclass adds
its own after those of its base. Its own __init__ keeps the keyword
names and defaults, validates, and stores the fields with _freeze,
which sets them through the class's slot setters, _setters. Record
then gives it value semantics:

- == between records of one class with equal fields, and a hash that
  agrees with it;
- the repr ``Name(field=value, ...)``;
- pickle and copy by field values, rebuilt through __init__;
- FrozenInstanceError, an AttributeError, on assignment or deletion.

The standard module that defines that error is imported on the error
path only: it imports inspect, ast and dis, which no command needs.
"""

from __future__ import annotations

from operator import attrgetter


def _refuse(action: str, name: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {action} field {name!r}")


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The fields: the slots of the class and of its bases, base first.
        cls._fields = fields = tuple(name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ()))
        get = attrgetter(*fields)
        # The field values as one tuple, in field order.
        cls._values = property(get if len(fields) > 1 else lambda self: (get(self),))
        # Each field's slot setter, in field order: the member descriptor's __set__, which stores past
        # Record.__setattr__ at about a third of the cost of object.__setattr__.
        cls._setters = tuple(getattr(cls, name).__set__ for name in fields)

    def _freeze(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values

    def __setattr__(self, name, value):
        _refuse("assign to", name)

    def __delattr__(self, name):
        _refuse("delete", name)
