"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class TopologyError(ReproError):
    """A topology was constructed or queried inconsistently."""


class RoutingError(ReproError):
    """A routing function could not produce a legal output channel."""


class SimulationError(ReproError):
    """A simulator was driven into an illegal state."""


class ProtocolError(ReproError):
    """A cache-protocol invariant was violated during simulation."""


class TraceError(ReproError):
    """A workload trace is malformed or could not be generated.

    ``row`` is the index of the offending access, when there is one.
    """

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class TelemetryError(ReproError):
    """The telemetry layer was configured or driven inconsistently."""


class ValidationError(ReproError):
    """A validation invariant was violated during a checked run."""
