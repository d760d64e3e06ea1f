"""Value records: frozen classes declared by their annotated fields.

``@record`` is the one way this package declares a value class.  It
reads the class body's annotated fields and their defaults once and
installs shared, hand-written methods, so that no class is built by
compiling generated source at import (as ``@dataclass`` does, at close
to a millisecond a class):

* ``__init__`` takes the fields by position or by keyword, in
  declaration order, fills missing ones from their defaults (a
  :class:`factory` default makes a fresh object per instance), raises
  the ``TypeError`` Python raises for a bad call of the equivalent
  ``def __init__``, and runs ``__post_init__`` when the class has one;
* ``__eq__`` and ``__hash__`` compare and hash the tuple of field
  values, ``__eq__`` only against the same class;
* ``__repr__`` reads ``Name(field=value, ...)``;
* assigning or deleting any attribute raises ``AttributeError``.

Instances keep their fields in ``__dict__`` in declaration order, which
is the state protocol-5 pickles carry, so a record pickles byte for byte
as ``@dataclass(frozen=True)`` did with the same fields.  Mutable state
(counters, leases) is a plain ``__slots__`` class, not a record.
"""

from __future__ import annotations

__all__ = ["factory", "record", "replace"]

_set = object.__setattr__


class factory:
    """A field default made afresh per instance: ``x: dict = factory(dict)``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make


def record(cls: type) -> type:
    """Make ``cls`` a frozen value record of its annotated fields."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls._fields = fields
    cls._field_defaults = {
        name: cls.__dict__[name] for name in fields if name in cls.__dict__
    }
    cls.__init__ = _init
    cls.__eq__ = _eq
    cls.__hash__ = _hash
    cls.__repr__ = _repr
    cls.__setattr__ = _setattr
    cls.__delattr__ = _delattr
    return cls


def replace(obj, /, **changes):
    """A copy of record ``obj`` with ``changes`` to its fields.

    Built through ``__init__``, so ``__post_init__`` checks the copy.
    """
    for name in obj._fields:
        changes.setdefault(name, getattr(obj, name))
    return type(obj)(**changes)


def _init(self, *args, **kwargs) -> None:
    cls = type(self)
    fields, defaults = cls._fields, cls._field_defaults
    if len(args) > len(fields):
        raise _call_error(cls, args, kwargs)
    for name, value in zip(fields, args):
        _set(self, name, value)
    used = 0
    for name in fields[len(args):]:
        if name in kwargs:
            value = kwargs[name]
            used += 1
        elif name in defaults:
            value = defaults[name]
            if type(value) is factory:
                value = value.make()
        else:
            raise _call_error(cls, args, kwargs)
        _set(self, name, value)
    if used != len(kwargs):
        raise _call_error(cls, args, kwargs)
    post_init = getattr(cls, "__post_init__", None)
    if post_init is not None:
        post_init(self)


def _call_error(cls: type, args: tuple, kwargs: dict) -> TypeError:
    """The ``TypeError`` of this call, worded and ordered as Python's."""
    fields, defaults = cls._fields, cls._field_defaults
    call = f"{cls.__qualname__}.__init__()"
    for name in kwargs:
        if name not in fields:
            return TypeError(f"{call} got an unexpected keyword argument {name!r}")
        if fields.index(name) < len(args):
            return TypeError(f"{call} got multiple values for argument {name!r}")
    if len(args) > len(fields):
        most = len(fields) + 1
        takes = f"from {most - len(defaults)} to {most}" if defaults else most
        return TypeError(
            f"{call} takes {takes} positional arguments "
            f"but {len(args) + 1} were given"
        )
    missing = [
        repr(name) for name in fields[len(args):]
        if name not in kwargs and name not in defaults
    ]
    count, s = len(missing), "" if len(missing) == 1 else "s"
    if count > 2:  # 'a', 'b', and 'c'
        missing = [", ".join(missing[:-1]) + ",", missing[-1]]
    return TypeError(
        f"{call} missing {count} required positional argument{s}: "
        + " and ".join(missing)
    )


def _values(self) -> tuple:
    return tuple([getattr(self, name) for name in self._fields])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self) == _values(other)
    return NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__qualname__}({shown})"


def _setattr(self, name: str, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")
