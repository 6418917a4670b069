"""Exception types shared across the package."""


class DoesimError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DoesimError):
    """Malformed or inconsistent configuration input."""


class FeederError(DoesimError):
    """Feeder description violates a structural invariant (radiality, mapping, impedance)."""


class PowerFlowDivergence(DoesimError):
    """Load flow failed to converge within the iteration cap."""


class EnvelopeError(DoesimError):
    """Envelope construction failed (e.g. no feasible scenario for a household)."""


class ProfileError(DoesimError):
    """Time-series input is malformed, has gaps, or does not cover the study window."""
