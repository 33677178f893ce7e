"""
Slotted immutable value records, with no generated code.

A subclass lists its fields in `_fields`, declares them in `__slots__`, and
writes an `__init__` that checks its arguments and stores them: through
Record.__init__, in field order, or, on hot paths, through the class's slot
setters.  For every slot a class declares, Record gives it `_set_<slot>`,
the slot descriptor's own `__set__`, so `self._set_inside(self, w)` stores
the slot at C level, without the name lookup of object.__setattr__.
Records of one class are equal when their field tuples are, hash as that
tuple, print as a dataclass does, and refuse assignment and deletion.
Copying and pickling rebuild through the constructor, so they repeat its
checks.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # _values(record) is the field tuple; attrgetter of one name returns the bare value
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda record: (get(record),))
        for name in cls.__dict__.get("__slots__", ()):
            setattr(cls, f"_set_{name}", cls.__dict__[name].__set__)

    def __init__(self, *values):
        """Store the values in field order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
