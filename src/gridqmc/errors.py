"""Exception hierarchy shared across the package."""


class GridQmcError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(GridQmcError):
    """Invalid network, distribution or analysis configuration."""


class DisconnectedNetworkError(GridQmcError):
    """The reduced susceptance matrix is singular (network not connected)."""


class EnumerationBoundError(ConfigurationError):
    """Study over the qubit limit: too large to enumerate or to simulate."""


class EstimationFailureError(GridQmcError):
    """Amplitude estimation did not converge within the round cap.

    Carries the partial confidence interval reached so far.
    """

    def __init__(self, message, partial_interval=None):
        super().__init__(message)
        self.partial_interval = partial_interval
