"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map it to a diagnostic message and a stable exit code.
"""


class PhotonlocError(Exception):
    """Base class for all package-specific errors."""


class GridMismatchError(PhotonlocError):
    """Two objects that must live on the same grid do not."""


class DimensionError(PhotonlocError):
    """An operation defined only in three dimensions was applied in one,
    or vice versa."""


class ZeroWaveVectorError(PhotonlocError):
    """A direction-dependent quantity was requested at k = 0."""


class DomainError(PhotonlocError):
    """A field is in the wrong domain (position vs frequency) for an operation."""


class ZeroModeError(PhotonlocError):
    """A negative frequency power was requested for a field with a significant
    zero-frequency component, which the inverse operator cannot represent."""


class TransversalityError(PhotonlocError):
    """A three-dimensional field that must be divergence-free is not."""


class ZeroStateError(PhotonlocError):
    """An identically vanishing state was passed where a nonzero one is required."""


class NotEigenfieldError(PhotonlocError):
    """A helicity scan was requested for a field that is not a helicity eigenfield."""


class SupportError(PhotonlocError):
    """A field leaks outside the region it was required to be supported in."""


class VolumeOutOfDomainError(PhotonlocError):
    """A detector volume extends beyond the periodic simulation box."""


class ProbeCellError(PhotonlocError, ValueError):
    """A Knight probe's source region meets every probe cell.  It is also a
    ValueError: the source is an impossible geometry for the probe."""


class InsufficientWindowError(PhotonlocError):
    """A fit or scan window contains too few usable samples, or overlaps a
    region (wrap-around zone, field support) that would bias the result."""


class ProfileTooWideError(PhotonlocError):
    """A compactly supported profile does not fit inside the simulation box."""


class SchemaError(PhotonlocError):
    """A file being read does not conform to the expected schema."""
