"""The one strict reader of the JSON config objects.

Each reader takes a JSON value and its path in the config, such as
``target.sobolev.terms[0].N``, and returns what the value describes or
raises ConfigError naming that path.  An object takes no unknown key, a
count is an integer (never a bool or a fraction), a real is a finite
number and a complex number is the pair [re, im] every to_json_dict writes.

Its two error types are the CLI's exits 3 and 4, ConfigError and Refusal;
they live here, in a module that imports no other, so that any module can
raise them.
"""
from __future__ import annotations

import math
import numbers


class ConfigError(ValueError):
    """A config value that describes no valid object; the message names its path."""


class Refusal(ValueError):
    """A numerical limit a construction gives out at: the CLI exits 4 on it,
    and a ladder row is flagged with its kind, which names the cause
    ("overflow", "underflow", "degree_collapse", "unconverged", or
    "pre_asymptotic" for a degree the construction cannot reach yet)."""

    def __init__(self, message: str, kind: str = "pre_asymptotic"):
        super().__init__(message)
        self.kind = kind


def obj(data, path: str, fields: dict | None = None, required=()) -> dict:
    """The JSON object data, with every required key.  With fields, a map
    of key to reader, any other key is refused, and each present key's
    value comes back as its reader reads it, in the order of fields."""
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'config'} must be a JSON object, got {data!r}")
    at = f"{path}." if path else ""
    for key in required:
        if key not in data:
            raise ConfigError(f"missing key {at}{key}")
    if fields is None:
        return data
    for key in data:
        if key not in fields:
            raise ConfigError(f"unknown key {at}{key}")
    return {key: read(data[key], at + key) for key, read in fields.items() if key in data}


def record(**fields):
    """A reader of a JSON object with exactly these keys: their values, in this order."""
    return lambda data, path: tuple(obj(data, path, fields, fields).values())


def seq_of(read, length: int | None = None):
    """A reader of a JSON list, of exactly length entries if given: the
    tuple of its entries, each read by read."""
    def read_list(data, path: str) -> tuple:
        if not isinstance(data, (list, tuple)) or length not in (None, len(data)):
            of = f" of {length}" if length else ""
            raise ConfigError(f"{path} must be a JSON list{of}, got {data!r}")
        return tuple(read(value, f"{path}[{i}]") for i, value in enumerate(data))
    return read_list


def _number(value) -> bool:
    # an exact int or float first: the ABC check costs several times more
    return (type(value) in (float, int)
            or isinstance(value, numbers.Real) and not isinstance(value, bool))


def number(value, what: str, error: type) -> complex:
    """value as a complex number, refusing a bool or a string, which
    complex() reads as 1 or parses, and anything else that is not a
    number; a refusal raises error naming what."""
    if type(value) not in (complex, float, int) and (
            not isinstance(value, numbers.Complex) or isinstance(value, bool)):
        raise error(f"{what} must be a number, got {value!r}")
    return complex(value)


def integral(value, path: str, error: type = ConfigError) -> int:
    """value as an int, refusing a bool or a value that is not integral,
    which int() would read as 1 or truncate; a refusal raises error."""
    try:
        if _number(value) and int(value) == value:
            return int(value)
    except (OverflowError, ValueError):
        pass
    raise error(f"{path} must be an integer, got {value!r}")


def real(value, path: str, error: type = ConfigError) -> float:
    """value as a finite float, refusing a bool; a refusal raises error."""
    try:
        if _number(value) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise error(f"{path} must be a finite number, got {value!r}")


def cpx(value, path: str) -> complex:
    return complex(*seq_of(real, 2)(value, path))


def text(value, path: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{path} must be a string, got {value!r}")


def build(cls, path: str, **fields):
    """cls(**fields), a value its constructor refuses raising ConfigError at path."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc
