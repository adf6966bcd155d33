"""Exception types shared across the package, and the checked JSON reader."""

import json


class DomainError(ValueError):
    """An operation was requested outside its mathematical domain.

    Examples: a non-stable graph, mismatched ambient spaces in a product,
    double ramification data whose weights do not sum to zero.
    """


class ConsistencyError(RuntimeError):
    """An internal cross-check failed.

    Raised when two evaluation routes that must agree do not, e.g. when a
    polynomial interpolated from sample values fails to reproduce a fresh
    sample.  This always indicates a bug or a violated assumption, never
    bad user input.
    """


def json_loads(text):
    """Parse JSON text; invalid JSON raises DomainError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError("invalid JSON: %s" % exc) from None


def json_field(obj, key, kind, default=None):
    """obj[key], where obj must be an object and the value of type kind.

    A key out of place or a value of another type raises DomainError; an
    integer is an `int`, never a bool, float or string.
    """
    if type(obj) is not dict:
        raise DomainError("expected an object with %r, not %r" % (key, obj))
    value = obj.get(key, default)
    if type(value) is not kind:
        raise DomainError("%r must be %s, not %r" % (key, kind.__name__, value))
    return value


def json_ints(value, length=None):
    """value as a tuple, where it must be a list of ints (of that length)."""
    if type(value) is not list or any(type(x) is not int for x in value):
        raise DomainError("expected a list of integers, not %r" % (value,))
    if length is not None and len(value) != length:
        raise DomainError("expected %d integers, not %r" % (length, value))
    return tuple(value)
