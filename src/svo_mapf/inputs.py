"""The input boundary: how a JSON value becomes a checked Python value. A
refusal is a ValueError naming the file or the field."""

from __future__ import annotations

import json
import sys
from dataclasses import is_dataclass
from functools import cache
from numbers import Integral, Real
from typing import get_origin, get_type_hints


def parse_json(text: str, source: str, line: int = 1):
    """The JSON value text holds. A syntax error raises ValueError naming
    source (the file) and the file line, text starting on the given line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source} line {line + exc.lineno - 1}: {exc.msg} "
                         f"at column {exc.colno}") from None


def is_int(x) -> bool:
    return isinstance(x, Integral) and not isinstance(x, bool)


def is_number(x) -> bool:
    """Is x a number that a float holds finitely? A bool is not; NaN fails
    the comparison."""
    return isinstance(x, Real) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def is_position(x) -> bool:
    """Is x a (row, col) tuple of two integers, as the library holds a cell?"""
    return (isinstance(x, tuple) and len(x) == 2 and (type(x[0]) is int or is_int(x[0]))
            and (type(x[1]) is int or is_int(x[1])))


def is_cell(x) -> bool:
    """Is x a [row, col] pair of integers, as a JSON file holds a cell?"""
    return isinstance(x, list) and len(x) == 2 and is_int(x[0]) and is_int(x[1])


def read_object(obj, source: str, required=(), optional=()) -> dict:
    """obj, checked to be a JSON object with every key of required and no key
    outside required and optional. A ValueError names source and the first
    missing key, in required order, or else the first unknown key."""
    if not isinstance(obj, dict):
        keys = ", ".join(required[:-1]) + " and " + required[-1] if len(required) > 1 else "".join(required)
        raise ValueError(f"{source}: need a JSON object{' with ' + keys if keys else ''}, "
                         f"got {type(obj).__name__}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{source}: missing key {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"{source}: unknown field {key!r}")
    return obj


def read_dataclass(obj, cls, source: str):
    """cls built from a JSON object of its fields; absent fields keep their
    defaults. A dataclass field is read from its nested object, the field's
    name as source, and a list for a tuple field becomes a tuple."""
    types = get_type_hints(cls)
    values = dict(read_object(obj, source, optional=types))
    for name, value in values.items():
        if is_dataclass(types[name]):
            values[name] = read_dataclass(value, types[name], name)
        elif get_origin(types[name]) is tuple and isinstance(value, list):
            values[name] = tuple(value)
    return cls(**values)


def finite_numbers(values, source: str, what: str, parse=None) -> list[float]:
    """values, each read with parse if given, as floats; a ValueError names
    source and the first entry (what and its index) that is no finite number."""
    numbers = []
    for i, x in enumerate(values):
        try:
            value = parse(x) if parse else x
        except ValueError:
            value = None
        if not is_number(value):
            raise ValueError(f"{source}: {what} {i} ({x!r}) is not a finite number")
        numbers.append(float(value))
    return numbers


_CHECKS = {int: (is_int, "an integer"), float: (is_number, "a finite number"),
           bool: (lambda x: isinstance(x, bool), "true or false"),
           tuple[int, int]: (is_position, "a pair of integers")}


def check_fields(instance) -> None:
    """Raise ValueError naming the first int, float, bool or tuple[int, int]
    field of a dataclass instance that holds a value of another type. An int
    passes as a float."""
    for name, check, kind in _checked_fields(type(instance)):
        value = getattr(instance, name)
        if not check(value):
            raise ValueError(f"{name}: {value!r} is not {kind}")


@cache
def _checked_fields(cls) -> tuple:
    """(name, check, kind) per checked field of cls, resolved once per class."""
    return tuple((name, *_CHECKS[t]) for name, t in get_type_hints(cls).items() if t in _CHECKS)
