"""Exception types shared across the package."""


class EdslabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(EdslabError):
    """Inconsistent dimensions, malformed configs, or invalid arguments."""


class EvaluationError(EdslabError):
    """An oracle or derivative evaluation produced non-finite values."""


class RegularityError(EdslabError):
    """A matrix that must be regular (full rank / correct inertia) is not.
    Raised by Newton, it carries the last iterate."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class NonconvergenceError(EdslabError):
    """Newton hit its iteration limit.  Carries the last iterate."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class FitError(EdslabError):
    """Not enough usable data to fit a decay envelope."""
