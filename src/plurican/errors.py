"""Error types shared across the package, the integer rule, and `Record`,
the one frozen value type of the package: its fields are the names
annotated in a subclass body.

The CLI maps these onto exit codes: any :class:`DomainError` is exit 1,
except :class:`MalformedInputError` which is exit 2.

For library arguments and JSON input alike, an integer is exactly an ``int``,
never a ``bool`` (:func:`is_int`; :func:`all_int` for a whole column of
values at once; :func:`check_int` for parameters).
"""

from __future__ import annotations

import sys


class DomainError(ValueError):
    """Input violates a documented mathematical rule of some operation."""

    kind = "domain-error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def as_json(self) -> dict:
        out: dict = {"kind": self.kind, "message": str(self)}
        if self.details:
            out["details"] = self.details
        return out


class ValidationError(DomainError):
    """A domain object is inconsistent: wrong size, duplicates, mismatched
    dimensions, non-invertible matrix, non-integral invariant, and so on."""

    kind = "validation"


class HypothesisError(DomainError):
    """A stated hypothesis of the requested criterion does not hold."""

    kind = "hypothesis-violation"


class MalformedInputError(DomainError):
    """Input file or value cannot be parsed against its documented schema."""

    kind = "malformed-input"


def digit_limit_error() -> MalformedInputError:
    """The error for a result that holds an integer with more digits than
    the interpreter converts to text; the integer itself is not quoted."""
    limit = sys.get_int_max_str_digits()
    return MalformedInputError(
        f"the result has an integer with more than {limit} digits, the "
        "interpreter's limit for converting an integer to text",
        limit=limit,
    )


def is_int(x) -> bool:
    """True iff x is exactly an int: bool and other int subclasses are not."""
    return type(x) is int


def all_int(values) -> bool:
    """True iff every value is exactly an int: :func:`is_int` for a whole
    column in one pass over the types."""
    return set(map(type, values)) <= {int}


def check_int(x, message: str, lo: int | None = None, hi: int | None = None) -> int:
    """x if it is an integer in lo..hi (bounds optional), else ValidationError
    with details ``value`` and the bounds given, ``lo`` and ``hi``."""
    if not is_int(x) or (lo is not None and x < lo) or (hi is not None and x > hi):
        bounds = {name: b for name, b in (("lo", lo), ("hi", hi)) if b is not None}
        raise ValidationError(f"{message}, got {x!r}", value=x, **bounds)
    return x


class Record:
    """A frozen value record: fields set once, by position or keyword,
    equality and hash by value, a ``Name(field=value, ...)`` repr.  A
    subclass declares its fields as annotations in its class body, which set
    ``_fields`` in order (without annotations it keeps its parent's), and
    validates them in ``__post_init__``; one with defaults or derived values
    defines ``__init__`` and passes the values on to ``Record.__init__``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__annotations__" in vars(cls):
            cls._fields = tuple(vars(cls)["__annotations__"])

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs:  # keywords fill the positions after the positional arguments
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if kwargs or len(args) != len(fields):
            raise TypeError(f"{type(self).__name__}() takes each of {fields} once")
        # object.__setattr__ keeps the values inline; in CPython 3.11 reading
        # self.__dict__ builds a dict per instance (64 bytes, reads ~2x slower)
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

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

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
