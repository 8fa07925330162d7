"""Exception hierarchy shared across the package.

Everything raised on purpose derives from GraphLiftError so callers can
catch one base class.  The CLI maps subtrees to exit codes: bad input data
exits 2, numeric failures exit 3, and every other graphlift error exits 1
as a usage error.
"""


class GraphLiftError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(GraphLiftError):
    """Operands have incompatible shapes."""


class DomainError(GraphLiftError):
    """An argument value is outside the range the operation accepts, or an
    unusable combination of command-line options."""


class NumericError(GraphLiftError):
    """A computation produced NaN or infinity."""


class TrainingDiverged(NumericError):
    """The training loss became non-finite; parameters keep their last good values."""


class DegenerateGeometryError(DomainError):
    """A point cloud is too flat or too small for a stable oriented box."""


class DatasetFormatError(GraphLiftError):
    """A dataset file is malformed or has an unsupported schema version."""


class CheckpointFormatError(GraphLiftError):
    """A checkpoint manifest or blob is malformed or inconsistent."""
