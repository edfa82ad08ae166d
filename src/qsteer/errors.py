"""Exception types shared by the simulator modules."""


class QsteerError(Exception):
    """Base class for all library errors."""


class DimensionMismatchError(QsteerError):
    """Operands have incompatible or unsupported dimensions."""


class NonHermitianError(QsteerError):
    """A matrix required to be Hermitian is not, within tolerance."""


class ConfigError(QsteerError):
    """Invalid run configuration (bad flags, malformed files, unknown keys)."""


class NumericalError(QsteerError):
    """A numerical routine failed to meet its accuracy contract."""
