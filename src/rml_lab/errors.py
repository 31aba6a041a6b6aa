"""Exception taxonomy shared by all modules."""


class RmlError(Exception):
    """Base class for all rml-lab errors."""

    category = "internal"


class ConfigError(RmlError):
    """Invalid configuration value or unknown option.

    ``field`` names the config field at fault, when there is one.
    """

    category = "config"

    def __init__(self, msg: str, field: str | None = None):
        super().__init__(msg)
        self.field = field


class InputError(RmlError):
    """Caller handed an operation malformed data (shape/range violations)."""

    category = "input"


class StateError(RmlError):
    """Operation called on an object in the wrong state."""

    category = "state"


class FormatError(RmlError):
    """On-disk artifact does not match its documented format."""

    category = "format"


class TrainingError(RmlError):
    """Training diverged or produced non-finite values."""

    category = "training"


class InternalError(RmlError):
    """Invariant violated inside the library itself."""

    category = "internal"
