"""Error taxonomy shared by the library and the CLI.

Each error carries a stable machine-readable code and the CLI exit code
associated with it.
"""

from __future__ import annotations


class NbwalkError(Exception):
    """Base class for all nbwalk errors."""

    code = "error"
    exit_code = 1


class ParseError(NbwalkError):
    """Malformed edge-list input."""

    code = "parse_error"
    exit_code = 1

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class TreeGraphError(NbwalkError):
    """Graph is a tree; the non-backtracking leading eigenvalue is zero."""

    code = "tree_graph"
    exit_code = 2


class NotConnectedError(NbwalkError):
    """Graph is not connected (or has isolated nodes)."""

    code = "not_connected"
    exit_code = 3


class ZeroDenominatorError(NbwalkError):
    """A node's neighborhood has vanishing non-backtracking centrality."""

    code = "zero_denominator"
    exit_code = 4

    def __init__(self, node, message=None):
        super().__init__(message or f"zero transition denominator at node {node}")
        self.node = node


class ConvergenceFailureError(NbwalkError):
    """An iterative eigensolver failed to reach the requested tolerance."""

    code = "convergence_failure"
    exit_code = 5

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class InvalidParamsError(NbwalkError):
    """Invalid parameters for a generator or an operation."""

    code = "invalid_params"
    exit_code = 6


class IllConditionedError(NbwalkError):
    """A matrix that is nonsingular in exact arithmetic is singular in floating point."""

    code = "ill_conditioned"
    exit_code = 7
