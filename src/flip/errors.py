"""Exception hierarchy shared by all flip modules."""

from __future__ import annotations


class FlipError(Exception):
    """Base class for every error raised by this package."""

    code = "error"


class ParseError(FlipError):
    """A structured document (topology, coverage, command log) is malformed."""

    code = "parse_error"


class ValidationError(FlipError):
    """A document parsed but violates an invariant (dangling link, bad id, ...)."""

    code = "validation_error"


class NotFoundError(FlipError):
    """A graph query has no answer (no switch neighbor, no unvisited candidate)."""

    code = "not_found"


class DslSyntaxError(FlipError):
    """Request text failed to parse. Carries 1-based line/column."""

    code = "syntax_error"

    def __init__(self, message: str, line: int = 1, col: int = 0):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UnknownOperationError(DslSyntaxError):
    code = "unknown_operation"


class ArityError(DslSyntaxError):
    code = "arity_error"


class UnknownNodeError(FlipError):
    code = "unknown_node"


class UnknownRegionError(FlipError):
    code = "unknown_region"


class EmptyRangeError(FlipError):
    code = "empty_range"


class PlacementError(FlipError):
    code = "placement_error"


class CompileError(FlipError):
    code = "compile_error"


class RejectedByDelay(FlipError):
    """The worst leaf-to-destination path exceeds the requested delay bound."""

    code = "rejected_by_delay"

    def __init__(self, worst_path_delay_ms: float, delay_ms: float):
        super().__init__(
            f"worst path delay {worst_path_delay_ms:g} ms exceeds bound {delay_ms:g} ms"
        )
        self.worst_path_delay_ms = worst_path_delay_ms
        self.delay_ms = delay_ms


class UnknownSwitchError(FlipError):
    code = "unknown_switch"


class UnknownVerbError(FlipError):
    code = "unknown_verb"


class AuditFailure(FlipError):
    """A value delivered by the fabric disagrees with the reference evaluation."""

    code = "audit_failure"
