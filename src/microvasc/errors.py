"""Exception hierarchy shared across the toolkit."""

import dataclasses
import math


class MicrovascError(Exception):
    """Base class for all toolkit errors."""


class ParseError(MicrovascError):
    """Malformed input file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class TopologyError(MicrovascError):
    """Inconsistent network connectivity (unknown node, self-loop, ...)."""


class ValidationError(MicrovascError):
    """A value violates a type invariant (non-positive radius, ...)."""


class StateError(MicrovascError):
    """An operation was called before its required state existed."""


class SolverError(MicrovascError):
    """A linear solve failed or did not reach the requested residual."""


class ConvergenceError(MicrovascError):
    """An iterative procedure exhausted its iteration budget."""

    def __init__(self, message: str, history=None):
        self.history = list(history) if history is not None else []
        super().__init__(message)


def require_finite(params):
    """Reject a NaN or infinite float field of the dataclass `params`."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValidationError(f"{f.name} must be finite, got {value}")
