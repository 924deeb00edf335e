"""Exception types shared across the package.

Every error raised deliberately by crosscheck derives from ``CrosscheckError``
so callers can catch the whole family at the CLI boundary. Rejections that
are ordinary outcomes (a gated-out trace, an exhausted audit budget) are
*results*, not exceptions, and never appear here.
"""

from __future__ import annotations


class CrosscheckError(Exception):
    """Base class for all crosscheck errors."""


class CycleError(CrosscheckError):
    """The step graph contains a directed cycle."""


class UnknownStepError(CrosscheckError):
    """An edge or lookup references a step absent from the graph."""


class DuplicateIdError(CrosscheckError):
    """An identifier was registered twice in a uniqueness domain."""


class UnknownIdError(CrosscheckError):
    """A lookup references an id that does not resolve."""


class BrokenChainError(CrosscheckError):
    """A provenance reference dangles; the store is corrupt."""


class InvalidPlanError(CrosscheckError):
    """An expert config violates its own constraints."""


class BackendError(CrosscheckError):
    """An expert backend failed at the transport level."""


class SchemaError(CrosscheckError):
    """A payload does not conform to the expected shape or ranges."""


class AllExpertsFailedError(CrosscheckError):
    """Every expert invocation failed; there is nothing to verify."""


class InvalidThetaError(CrosscheckError):
    """The anchor quorum is not an int of at least 2."""


class NoFeasibleCandidateError(CrosscheckError):
    """No candidate response survives the constraint set; the run abstains.

    Carries the partial run result (audit log included) so the harness can
    still persist what happened before the abstention.
    """

    def __init__(self, message: str, result: object | None = None) -> None:
        super().__init__(message)
        self.result = result


class InvalidConfigError(CrosscheckError):
    """A configuration combination is contradictory or out of range."""


class ParseError(CrosscheckError):
    """A file or literal failed to parse; message carries the position."""


class ValidationError(CrosscheckError):
    """A parsed file contains dangling or inconsistent references."""
