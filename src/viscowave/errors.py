"""Exception hierarchy for the viscowave package."""


class ViscowaveError(Exception):
    """Base class for all viscowave errors."""


class InvalidParameterError(ViscowaveError):
    """Model parameters violate their constraints (e.g. gamma <= 1)."""


class MissingParameterError(InvalidParameterError):
    """An operation needs a parameter (e.g. tau) that is absent."""


class DomainError(ViscowaveError):
    """Arguments lie outside the mathematical domain of an operation."""


class NearDegenerateError(ViscowaveError):
    """Characteristic roots too close for the closed-form kernel path.

    Callers should fall back to the time-domain integrator in
    :mod:`viscowave.oracle`.
    """


class StabilityError(ViscowaveError):
    """Requested integrator step exceeds the stability bound."""


class TruncationError(ViscowaveError):
    """A radial integral tail could not be bounded below tolerance."""


class InsufficientDataError(ViscowaveError):
    """Too few points inside a fit window."""


class RefinementError(ViscowaveError):
    """A discretised term failed its refinement check: a time grid against
    its every other point, or a radial sum against its own G10-K21 error
    estimate within the panel budget."""


class PreconditionError(ViscowaveError):
    """Inputs violate the hypotheses an experiment relies on."""


class ConfigError(ViscowaveError):
    """Malformed configuration file or command line."""
