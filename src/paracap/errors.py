"""Shared exception types, which the CLI maps onto exit codes, the readers
that turn JSON files into checked objects, and the one way files are written."""

import contextlib
import json
import math
import os
import typing


class ShapeError(ValueError):
    """Operands with incompatible shapes, named in the message."""


class ValidationError(ValueError):
    """Bad configuration, malformed file, or mismatched artifacts."""


class NumericalError(RuntimeError):
    """NaN input, training divergence, or a failed gradient check."""


@contextlib.contextmanager
def atomic_write(path: str):
    """Text file handle whose contents replace ``path`` only once the block ends
    without an exception.

    The text goes to a temporary file beside ``path``, which ``os.replace``
    then moves over it in one step, so a failed or interrupted write leaves
    the earlier file as it was. There is no fsync: this guards against a
    partial write, not against power loss.
    """
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_json_object(path: str, what: str, required=()) -> dict:
    """Parse a UTF-8 JSON file whose top level is an object with the ``required`` keys."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:   # UTF-8 whatever the locale, as the manifest reader does
        payload = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    for key in required:
        if key not in payload:
            raise ValidationError(f"{path}: missing key {key!r}")
    return payload


def is_finite_number(v) -> bool:
    """A JSON number, not a bool, that converts to a finite float."""
    if type(v) not in (int, float):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:   # an int beyond the float range
        return False


def require_finite_numbers(values, where: str):
    """Reject a JSON list, or list of lists, unless every entry is a finite number."""
    for row in values if type(values) is list else [values]:
        for v in row if type(row) is list else [row]:
            if not is_finite_number(v):
                raise ValidationError(f"{where} holds a non-finite value: "
                                      f"{v!r} is not a finite number")


# JSON values each field type takes: bools are not numbers, and every int
# field is a size, a count or a seed
_ACCEPTS = {
    int: ("a non-negative integer", lambda v: type(v) is int and v >= 0),
    float: ("a finite number", is_finite_number),
    bool: ("true or false", lambda v: type(v) is bool),
    tuple: ("a list", lambda v: type(v) is list),
}


def build_dataclass(cls, mapping: dict, where: str, **overrides):
    """Config dataclass ``cls`` from a JSON object and the overrides that are
    not None; every fault raises ``ValidationError`` prefixed with ``where``."""
    if not isinstance(mapping, dict):
        raise ValidationError(f"{where} must be a JSON object")
    merged = dict(mapping, **{k: v for k, v in overrides.items() if v is not None})
    types = typing.get_type_hints(cls)
    for key in (k for k in merged if k in types):   # cls() names an unknown key
        expected, accepts = _ACCEPTS[types[key]]
        if not accepts(merged[key]):
            raise ValidationError(f"{where}: {key} must be {expected}, got {merged[key]!r}")
    try:
        return cls(**merged)
    except (TypeError, ValidationError) as exc:   # TypeError: unknown or missing keys
        raise ValidationError(f"{where}: {exc}") from None


def require_at_least(obj, low, *names):
    """Reject the first of the ``names`` attributes of ``obj`` below ``low``."""
    for name in names:
        if getattr(obj, name) < low:
            raise ValidationError(f"{name} must be >= {low}, got {getattr(obj, name)}")
