"""The base of solred's immutable records: plain classes, no generated code."""
from __future__ import annotations


class Record:
    """An immutable record, compared, hashed and printed by its fields.

    The contract: a subclass lists its value fields in ``_fields``, in the
    order of its ``__init__`` parameters, and its ``__init__`` runs its
    checks and then passes one value per field, in that order, to
    ``Record.__init__``.  Two records are equal when they have the same
    type and equal fields, and equal records hash equal; an attribute
    outside ``_fields``, such as a cache or a ``cached_property`` (which
    writes the instance dict directly), is never compared, hashed or
    printed.  Assigning or deleting any attribute raises AttributeError.
    ``replace``, ``copy`` and ``pickle`` build the new record through
    ``__init__``, so it is validated again.  Nothing is generated per
    class: no ``exec``, no ``eval``, so defining a record costs no more
    than defining a plain class.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def replace(self, **changes: object) -> Record:
        return type(self)(**dict(zip(self._fields, self._values()), **changes))
