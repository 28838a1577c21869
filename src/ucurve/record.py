"""Plain value classes for the package's records.

SampleTable, Instance, SearchReport and ExperimentConfig derive from
Record instead of being dataclasses: the dataclasses module loads inspect,
ast, dis and tokenize into every process that imports it. A Record's
fields are its ``__slots__``, in constructor order; it gets a
dataclass-style repr, field-wise ``==`` against its own class, pickling
and ``replace`` through its constructor (so the constructor's checks run
again). A FrozenRecord also refuses assignment and hashes its fields.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, built and checked by the constructor."""
        values = {name: getattr(self, name) for name in self.__slots__}
        values.update(changes)
        return type(self)(**values)


class FrozenRecord(Record):
    """A Record whose fields are set once, by its constructor through _init."""

    __slots__ = ()

    def _init(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__qualname__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__qualname__} is frozen")

    def __hash__(self) -> int:
        return hash(self._values())
