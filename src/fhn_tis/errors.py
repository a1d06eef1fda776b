"""Exception types raised across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class FoldUndefinedError(DomainError):
    """The cubic nullcline has no fold because its linear gain is nonpositive."""


class NearFoldError(DomainError):
    """A slow vector field was evaluated too close to the fold curve.

    Carries the offending point so callers can report where the field blew up.
    """

    def __init__(self, message, s=None, v=None, w=None, c=None):
        super().__init__(message)
        self.s = s
        self.v = v
        self.w = w
        self.c = c


class UndefinedCoordinateError(DomainError):
    """The envelope coordinate is undefined at v = 0 (all nullclines meet there)."""


class BandEdgeError(DomainError):
    """An escape test was requested at the edge of the envelope band (c = +/-1)."""


class RegionPreconditionError(ValueError):
    """A geometric condition was evaluated outside the region where it applies."""


class UnsupportedDriveError(TypeError):
    """The drive variant does not support the requested operation."""


class InvalidStartError(ValueError):
    """An arc start point does not satisfy its on-nullcline constraint."""


class DivergenceError(RuntimeError):
    """The integration produced a non-finite state or its adaptive step collapsed.

    ``t`` and ``state`` hold the last recorded sample before the failure.
    """

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


class EmptyTrajectoryError(ValueError):
    """An operation that needs samples received an empty trajectory."""


class ConfigError(DomainError):
    """A setting failed validation; ``key`` names the offending entry.

    It is also a DomainError, so ``except DomainError`` catches it.
    """

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
