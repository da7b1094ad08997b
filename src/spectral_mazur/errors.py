"""Exception types shared across the package.

The CLI maps these onto its exit-code contract:

* usage / config / parse problems        -> exit 2
* numerical failures (incl. solver)      -> exit 3
* violated mathematical preconditions    -> exit 4
"""

from __future__ import annotations


class SpectralMazurError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# parse / config errors (CLI exit 2)


class ConfigError(SpectralMazurError):
    """Bad user-supplied configuration (files, flags, descriptors)."""


class GaugeParseError(ConfigError):
    """A gauge descriptor string could not be parsed."""


class MatrixFormatError(ConfigError):
    """A matrix JSON payload is malformed."""


class UnknownSuite(ConfigError):
    """Requested verification suite does not exist."""


# ---------------------------------------------------------------------------
# numerical failures (CLI exit 3)


class NumericalFailure(SpectralMazurError):
    """A numerical kernel (eigensolver, SVD, ...) failed or returned NaN/Inf."""


class NoConvergence(NumericalFailure):
    """Iterative solver did not reach its target residual.

    Carries the last residual so callers can report how close it got.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual={residual:.3e})")
        self.residual = residual


# ---------------------------------------------------------------------------
# precondition violations (CLI exit 4)


class PreconditionError(SpectralMazurError):
    """An input violates a documented mathematical precondition.

    ``name`` is the stable identifier printed by the CLI.
    """

    name = "precondition"


class NotSmooth(PreconditionError):
    name = "smooth-gauge"


class ZeroVector(PreconditionError):
    name = "nonzero-vector"


class ZeroMatrix(PreconditionError):
    name = "nonzero-matrix"


class NotPositive(PreconditionError):
    name = "positive-semidefinite"


class NotState(PreconditionError):
    name = "density-matrix"


class NotProbability(PreconditionError):
    name = "probability-vector"


class NotUnitNorm(PreconditionError):
    name = "unit-gauge-norm"


class NotUnitTraceNorm(PreconditionError):
    name = "unit-trace-norm"


class DimensionTooLarge(PreconditionError):
    name = "dimension-bound"
