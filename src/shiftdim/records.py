"""Immutable records with ``__slots__``.

The records read per state or per map point subclass :class:`Frozen`,
whose field reads cost what a slot read costs; the others, built and read
a few times per stage, are ``typing.NamedTuple``s.  No record class is
generated by a decorator, whose import and class processing every command
would pay at start-up.
"""

from __future__ import annotations


class Frozen:
    """Base of an immutable ``__slots__`` record.  ``_fields`` names the
    constructor's arguments, which decide equality, the hash and the repr
    and rebuild a copy; the constructor sets every slot past this
    ``__setattr__``, with ``object.__setattr__`` or the slot's descriptor,
    and any later assignment or deletion raises ``AttributeError``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({shown})"
