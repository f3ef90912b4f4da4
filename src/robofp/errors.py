"""Error types raised across the toolkit.

Every failure mode callers are expected to handle has a named exception.
Parse-time errors carry the 1-based line number of the offending row
(the header counts as line 1).
"""


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
    def __init__(self, kind):
        self.kind = kind
        super().__init__(f"kernel bank has no kernel for command kind {kind!r}")


# ---------------------------------------------------------------------------
# classification


class SingleClass(RobofpError):
    pass


class SchemaMismatch(RobofpError):
    pass


class TooFewSamples(RobofpError):
    def __init__(self, label, count, folds):
        self.label = label
        self.count = count
        self.folds = folds
        super().__init__(
            f"class {label!r} has {count} samples, fewer than {folds} folds"
        )


# ---------------------------------------------------------------------------
# defenses / configuration


class OutOfRange(RobofpError):
    pass


class InvalidConfig(RobofpError):
    pass
