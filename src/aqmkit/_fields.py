"""Typed readers for the fields of the JSON input formats.

Device profiles, Ising problems and measurement patterns parse their text
with `read_json` and read every field through these functions, so one rule
decides what a JSON object, list, number, integer, boolean and string is.
Each reader returns the value (a number as a float) or raises ValueError
naming the field as `what`. The message shows the offending value through
`reprlib`, so a huge list or string stays a short line.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys


def _require(ok: bool, what: str, kind: str, value) -> None:
    if not ok:
        raise ValueError(f"{what} must be {kind}, got {reprlib.repr(value)}")


def read_json(text: str, what: str):
    """Parse JSON text; every failure is a ValueError.

    A syntax error is json's own JSONDecodeError; too deep a nesting and an
    over-long integer raise a ValueError naming `what`.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None
    except ValueError:
        # The only other ValueError json.loads raises is int()'s refusal of
        # an integer longer than the interpreter's digit limit.
        raise ValueError(f"{what} has an integer of more than "
                         f"{sys.get_int_max_str_digits()} digits") from None


def read_object(value, what: str, required, optional=()) -> dict:
    """A JSON object with every `required` key and no key outside `required` and `optional`."""
    _require(isinstance(value, dict), what, "an object", value)
    unknown = set(value).difference(required, optional)
    if unknown:
        raise ValueError(f"{what} has unknown field(s) {reprlib.repr(sorted(unknown))}")
    missing = set(required).difference(value)
    if missing:
        raise ValueError(f"{what} is missing field(s) {sorted(missing)}")
    return value


def read_list(value, what: str, length: int | None = None) -> list:
    """A JSON array, of exactly `length` items when one is given."""
    ok = isinstance(value, list) and (length is None or len(value) == length)
    _require(ok, what, "a list" if length is None else f"a list of length {length}", value)
    return value


def read_number(value, what: str) -> float:
    """A finite JSON number as a float; booleans, strings and null are refused."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             what, "a number", value)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} is out of range") from None
    _require(math.isfinite(number), what, "finite", value)
    return number


def read_integer(value, what: str) -> int:
    """A JSON integer; an integral float such as 3.0 reads as 3, while 2.7 and true are refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    _require(isinstance(value, int) and not isinstance(value, bool), what, "an integer", value)
    return value


def read_boolean(value, what: str) -> bool:
    _require(isinstance(value, bool), what, "a boolean", value)
    return value


def read_string(value, what: str) -> str:
    _require(isinstance(value, str), what, "a string", value)
    return value


def read_qubits(value, what: str) -> tuple[int, ...]:
    """A JSON array of qubit indices; an index is named "<what> qubit" in errors."""
    return tuple(read_integer(q, f"{what} qubit") for q in read_list(value, what))
