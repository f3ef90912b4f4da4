"""Error types raised across the toolkit.

Every failure mode callers are expected to handle has a named exception.
Parse-time errors carry the 1-based line number of the offending row
(the header counts as line 1).  ``check_field_types`` is the one type check
the config dataclasses share; ``read_input`` and ``load_json`` are the one
way an input file is read and a JSON document parsed.
"""

import json
import sys
from dataclasses import fields
from pathlib import Path


class RobofpError(Exception):
    """Base class for all toolkit errors."""


# ---------------------------------------------------------------------------
# trace ingestion / dataset loading


class TraceFormatError(RobofpError):
    """A trace or manifest file violates the declared grammar."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)


class MalformedHeader(TraceFormatError):
    pass


class MalformedRow(TraceFormatError):
    pass


class NonMonotonicTime(TraceFormatError):
    pass


class BadDirection(TraceFormatError):
    pass


class SizeOutOfRange(TraceFormatError):
    pass


class UnknownLabel(RobofpError):
    pass


class MissingFile(RobofpError):
    pass


class EmptyDataset(RobofpError):
    pass


class DuplicateTrace(RobofpError):
    """Two traces of one dataset would be written to the same file."""


# ---------------------------------------------------------------------------
# signal processing


class EmptyKernel(RobofpError):
    pass


class KernelTooShort(RobofpError):
    pass


class EmptyWindow(RobofpError):
    pass


# ---------------------------------------------------------------------------
# feature extraction


class EmptyTrace(RobofpError):
    pass


class MissingKernel(RobofpError):
    pass


# ---------------------------------------------------------------------------
# classification


class SingleClass(RobofpError):
    pass


class SchemaMismatch(RobofpError):
    pass


class TooFewSamples(RobofpError):
    pass


# ---------------------------------------------------------------------------
# defenses / configuration


class OutOfRange(RobofpError):
    pass


class InvalidConfig(RobofpError):
    pass


# annotation (a string under postponed evaluation) -> (admitted types, wording)
_FIELD_TYPES = {
    "bool": (bool, "true or false"),
    "int": (int, "an integer"),
    "float": ((int, float), "a finite number"),
    "str": (str, "a string"),
    "str | None": ((str, type(None)), "a string or null"),
}


def check_field_types(config) -> None:
    """Raise InvalidConfig for a dataclass field whose value its annotation refuses.

    Only a bool field takes a bool, and a float field takes a finite int or
    float; fields of other annotations are left to their class."""
    for f in fields(config):
        if f.type not in _FIELD_TYPES:
            continue
        admits, wording = _FIELD_TYPES[f.type]
        value = getattr(config, f.name)
        if (
            not isinstance(value, admits)
            or isinstance(value, bool) != (f.type == "bool")
            or f.type == "float" and not _finite(value)
        ):
            raise InvalidConfig(f"{f.name} must be {wording}, got {value!r}")


def _finite(number) -> bool:
    # comparing, not converting, so NaN, inf and ints past float range all fail
    return -sys.float_info.max <= number <= sys.float_info.max


def _json_array(name: str, value, items: str) -> list:
    """``value`` if it is a JSON array of ``items`` ("integers", "numbers" or
    "strings"), else InvalidConfig; nothing is converted, a bool is no number,
    and numbers must be finite, as a float config field must."""
    admits = {"integers": (int,), "numbers": (int, float), "strings": (str,)}[items]
    if not isinstance(value, list) or not all(type(v) in admits for v in value):
        raise InvalidConfig(f"{name} must be an array of {items}")
    if items == "numbers" and not all(_finite(v) for v in value):
        raise InvalidConfig(f"{name} holds a non-finite value")
    return value


def read_input(path) -> bytes:
    """The bytes of the regular file at ``path``; MissingFile, quoting the path
    as given, for anything else (``Path("")`` is ``.``, a directory)."""
    if not Path(path).is_file():
        raise MissingFile(f"no file at {str(path)!r}")
    return Path(path).read_bytes()


def load_json(data: str | bytes, what: str):
    """The document in ``data``; InvalidConfig naming ``what`` if it is not JSON.

    Bad syntax and bad UTF-8 are ValueErrors; deep nesting is a RecursionError."""
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as e:
        raise InvalidConfig(f"{what} is not valid JSON: {e}") from None
