"""One reader and one set of checks for model files and spec files.

``read_json`` reads every JSON file weapo reads except datasets, and
names the path in each error. ``check_keys``, ``numbers``, ``integer``
and ``json_object`` check the value and name the offending key; a bool,
string or null is never a number. ``json_scalars`` picks the diagnostics
a model file writes. ``not_utf8`` also serves the dataset loader.
"""

from __future__ import annotations

import json
from typing import Any, Sequence

import numpy as np


def not_utf8(err: UnicodeDecodeError) -> str:
    """The message for a file that is not UTF-8 text, for the reader to
    prefix with the path. It names the bad byte but not its position,
    which ``err`` counts from the start of a decoded chunk."""
    return f"not UTF-8 text (byte {err.object[err.start]:#04x}: {err.reason})"


def read_json(path: str) -> Any:
    """The JSON value of the file at ``path``.

    Bytes that are not UTF-8, invalid JSON, nesting deeper than the stack
    and an integer with more digits than ``int()`` converts raise
    ``ValueError("<path>: ...")``; an ``OSError`` passes through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as err:
            raise ValueError(f"{path}: {not_utf8(err)}") from None
        # json raises RecursionError on input nested deeper than the stack,
        # and ValueError on an integer too long to convert.
        except (ValueError, RecursionError) as err:
            raise ValueError(f"{path}: invalid JSON ({err})") from None


def check_keys(
    obj: Any, where: str, required: Sequence[str], optional: Sequence[str] = ()
) -> None:
    """Raise ``ValueError`` unless ``obj`` (described as ``where``) is a
    JSON object with every ``required`` key and no key outside
    ``required`` and ``optional``. The message names the first missing
    key in ``required`` order, else the first unknown key in sorted order."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where} must be a JSON object")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"{where} lacks key {missing[0]!r}")
    unknown = sorted(obj.keys() - {*required, *optional})
    if unknown:
        raise ValueError(f"unknown {where} key {unknown[0]!r}")


def _json_numbers(value: Any) -> bool:
    """True for a JSON number or nested lists of them; a bool is not one.
    Walks the lists with a stack, so any nesting depth JSON allows is fine."""
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is list:
            stack.extend(item)
        elif type(item) not in (int, float):
            return False
    return True


_SHAPES = {0: "be a number", 1: "be a list of numbers"}


def numbers(payload: dict[str, Any], key: str, ndim: int | None = None) -> np.ndarray:
    """``payload[key]`` as a float64 array: a JSON number, or nested lists
    of them of equal length, with ``ndim`` levels of lists when given. A
    bool, string or null anywhere in it, or an integer beyond the float
    range, is an error that names the key."""
    value = payload[key]
    if _json_numbers(value):
        try:
            array = np.array(value, dtype=np.float64)
        except (ValueError, OverflowError):
            pass
        else:
            if ndim is None or array.ndim == ndim:
                return array
    shape = _SHAPES.get(ndim, "hold only numbers, in lists of equal length")
    raise ValueError(f"key {key!r} must {shape}")


def integer(payload: dict[str, Any], key: str, minimum: int | None = None) -> int:
    """``payload[key]``, which must be a JSON integer (not a bool, not a
    float such as 10.0) of at least ``minimum`` when given."""
    value = payload[key]
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" of at least {minimum}"
        raise ValueError(f"key {key!r} must be an integer{bound}")
    return value


def json_object(payload: dict[str, Any], key: str) -> dict[str, Any]:
    """A copy of the JSON object ``payload[key]``, empty when the key is absent."""
    value = payload.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"key {key!r} must be a JSON object")
    return dict(value)


def json_scalars(values: dict[str, Any]) -> dict[str, Any]:
    """The entries of ``values`` that are JSON scalars: int, float, bool or str."""
    return {k: v for k, v in values.items() if isinstance(v, (int, float, bool, str))}
