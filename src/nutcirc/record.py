"""Immutable value records that generate no code when a class is defined.

``Record`` stands in for ``@dataclass(frozen=True)``: a subclass lists its
fields (two or more) in ``__slots__`` and optional defaults in
``_defaults``, and gets positional or keyword construction, value equality
within its own class, a hash over the field tuple, the dataclass-style repr
and pickling. A subclass may override ``_check`` to validate the fields once
they are set. Python's ``dataclasses`` builds each class's methods by
``exec``-ing generated source, which costs milliseconds of start-up per
class; this base class builds none.
"""
from __future__ import annotations

from operator import attrgetter

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any


class Record:
    __slots__ = ()
    _defaults: dict[str, Any] = {}  # field name -> default value

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The field tuple, read in C; attrgetter is not a descriptor, so
        # self._values(self) calls it on self.
        cls._values = attrgetter(*cls.__slots__)

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self._check()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict[str, Any]) -> tuple:
        fields = cls.__slots__
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} positional arguments but {len(args)} were given"
            )
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
            values[name] = value
        missing = [f for f in fields if f not in values and f not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        return tuple(values[f] if f in values else cls._defaults[f] for f in fields)

    def _check(self) -> None:
        """Validate the fields; called once they are set."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._values(self)
