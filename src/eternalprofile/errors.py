"""Exception hierarchy for the eternal-profile solver."""


class ProfileError(Exception):
    """Base class for all solver errors."""


class DomainError(ProfileError, ValueError):
    """Input parameter outside the supported regime."""


class BracketFailure(ProfileError):
    """Geometric scan exhausted its range without bracketing beta*."""


class CaseError(ProfileError):
    """Operation invoked for an unsupported interface case."""


class WindowError(ProfileError):
    """Fit window contains too few grid points."""


class TailError(ProfileError):
    """Phase trajectory never enters the asymptotic ball."""


class RegionError(ProfileError):
    """Finite-difference stencil leaves the smooth positivity region."""


class PlotError(ProfileError, ValueError):
    """Chart has no finite data to draw."""


class StepFailureError(ProfileError):
    """Adaptive step controller underflowed."""


class ConfigError(ProfileError, ValueError):
    """Malformed or invalid run configuration."""
