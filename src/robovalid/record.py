"""Immutable value classes whose methods are written once.

`dataclasses` compiles an `__init__`, `__eq__`, `__hash__`, `__repr__`,
`__setattr__` and `__delattr__` from source text for every class it
decorates, about half a millisecond each, and that was most of the
package's import time.  A `Record` subclass only declares its fields as
annotations; `Record.__init_subclass__` reads them and builds an
`__init__` that stores them, and the other methods are `Record`'s own.
"""

from __future__ import annotations

_set = object.__setattr__  # the stores `__setattr__` refuses


class Record:
    """A frozen value with the fields its class annotates, in order, a
    base class's fields first.

    - Construction takes every field, positionally or by keyword, and
      then calls the class's `__post_init__`, if it has one; a missing,
      extra, repeated or unknown argument is a TypeError.
    - Two records are equal when they are of exactly the same class and
      their fields are equal; any other comparison is NotImplemented.
    - The hash is `hash` of the tuple of the fields, and the repr is
      `Name(field=value, ...)`.
    - Assigning or deleting an attribute raises AttributeError.

    Equality, hash and repr read `_values`, the tuple of the fields that
    construction keeps, never the instance `__dict__`, so a
    `cached_property` value does not count.  Fields take no defaults."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        inherited = cls._fields
        own = tuple(name for name in cls.__dict__.get("__annotations__", {})
                    if name not in inherited)
        for name in own:
            if name in cls.__dict__ or name in ("_fields", "_values"):
                raise TypeError("%s.%s: a record field takes no default and "
                                "no reserved name" % (cls.__qualname__, name))
        cls._fields = inherited + own
        cls.__init__ = _initializer(cls, getattr(cls, "__post_init__", None))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % item for item in zip(self._fields, self._values)))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of a `cls(*args, **kwargs)` call, in field order;
    a missing, extra, repeated or unknown argument is a TypeError."""
    names = cls._fields
    given = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names or name in given:
            raise TypeError("%s() got an unexpected or repeated argument %r"
                            % (cls.__qualname__, name))
        given[name] = value
    if len(args) > len(names) or len(given) < len(names):
        raise TypeError("%s() takes the %d arguments (%s), but %d were given"
                        % (cls.__qualname__, len(names), ", ".join(names),
                           len(args) + len(kwargs)))
    return tuple(given[name] for name in names)


def _initializer(cls, post):
    """The `__init__` of `cls`: store the tuple of the fields as `_values`
    and each field as an instance attribute, which `object.__setattr__`
    keeps in the instance's own value slots, as a dataclass does, so
    reading a field stays a plain attribute load.  Looping over the
    (position, name) pairs costs about 0.2 microseconds less per
    construction than zipping the names with the values, on Python 3.11."""
    n = len(cls._fields)
    positions = tuple(enumerate(cls._fields))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = _bind(cls, args, kwargs)
        _set(self, "_values", args)
        for i, name in positions:
            _set(self, name, args[i])
        if post is not None:
            post(self)
    return __init__
