"""Exception types shared across the library.

Each class carries the process exit code of its failures in ``exit_code``,
the one table the command line reads:

* 2 for violated preconditions or invalid argument values,
* 3 for constructive searches that exhaust their budget (collar assembly,
  smoothing, bending) and for any other library error,
* 4 for verification failures and internal cross-check breakdowns.

The command line adds 2 for usage errors and 1 for I/O failures.
"""

from __future__ import annotations


class ExtensionError(Exception):
    """Base class for all library errors; ``diagnostics`` holds the figures
    of the failing case (empty when the raiser gives none)."""

    exit_code = 3

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class DomainError(ExtensionError):
    """An argument value lies outside the mathematical domain of an operation."""

    exit_code = 2


class PreconditionError(ExtensionError):
    """A documented precondition of an operation does not hold."""

    exit_code = 2


class NotApplicableError(PreconditionError):
    """The operation is undefined for this parameter configuration.

    Raised, for example, when the arclength change of variables is requested
    for parameters whose model geometry has no non-degenerate horizon.
    """


class ConstructionError(ExtensionError):
    """A constructive search failed; carries diagnostics for the worst case."""

    exit_code = 3


class InternalConsistencyError(ExtensionError):
    """Two independent evaluation routes disagree beyond tolerance.

    Signals numerical breakdown rather than a user fault.
    """

    exit_code = 4


class VerificationError(ExtensionError):
    """A final verification stage rejected an otherwise assembled object."""

    exit_code = 4
