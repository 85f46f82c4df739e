"""Exception hierarchy shared by all twinarch subsystems.

Parsers and adapters report malformed input through ``ParseError``
subclasses instead of letting stdlib exceptions escape, so callers can
treat "bad input" uniformly and fuzzing can assert structured failure.
"""


class TwinArchError(Exception):
    """Base class for all errors raised by this package."""


# --- catalog ---------------------------------------------------------------

class InvalidRelationship(TwinArchError):
    """Relationship kind is not legal for the views of its endpoints."""


# --- wire formats ----------------------------------------------------------

class ParseError(TwinArchError):
    """Common base for wire-format parsing failures."""


class MalformedPayload(ParseError):
    """Non-JSON payload does not follow its key|value grammar."""


class MalformedJson(ParseError):
    """Payload is not decodable as UTF-8 JSON."""


class SchemaViolation(ParseError):
    """JSON decoded fine but does not match the expected document shape."""


class UnknownKey(ParseError):
    """Short key has no entry in the attribute map."""


class UndeclaredTelemetry(ParseError):
    """Telemetry name is absent from the declaring interface model."""


class Unrepresentable(TwinArchError):
    """Value cannot be expressed in the requested wire format."""


# --- storage ---------------------------------------------------------------

class DuplicateKey(TwinArchError):
    """Create attempted for a key that is already present."""


class NotFound(TwinArchError):
    """Key, shadow, model, scenario, or entity does not exist."""


class InvalidQuery(TwinArchError):
    """Query constraints are internally inconsistent (e.g. from >= to)."""


class JournalCorrupt(TwinArchError):
    """A complete journal line is not a record; names the line number."""


# --- shadows / models ------------------------------------------------------

class DuplicateShadow(TwinArchError):
    """A shadow already exists for this (type, entity) pair."""


class InvalidSpec(TwinArchError):
    """Model spec or simulation scenario fails validation."""


class NumericalFailure(TwinArchError):
    """Simulation produced a non-finite state; carries the partial series."""

    def __init__(self, message: str, partial_series=None):
        super().__init__(message)
        self.partial_series = partial_series or []


# --- services --------------------------------------------------------------

class InsufficientHistory(TwinArchError):
    """Shadow trace is shorter than the forecaster's minimum window."""


class MissingThreshold(TwinArchError):
    """A metric is present but no expectation band is configured for it."""


class UnmappableAction(TwinArchError):
    """Candidate action cannot be translated into scenario overrides."""


class NoFeasibleSolution(TwinArchError):
    """No simulated candidate restores the metric to its desired band."""


class DeliveryFailed(TwinArchError):
    """Outbound payload was rejected by the receiving side."""


class MalformedCommand(TwinArchError):
    """Inbound command payload does not match the command envelope."""


# --- configuration ---------------------------------------------------------

class ConfigError(TwinArchError):
    """Run manifest or one of its referenced config files is invalid."""
