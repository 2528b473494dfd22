"""Exception types shared across the package."""


class IadtError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(IadtError, ValueError):
    """Operand shapes are incompatible."""


class ParameterError(IadtError, ValueError):
    """An argument is outside its valid range."""


class ParseError(IadtError, ValueError):
    """An input file violates its format contract."""


class ModelFormatError(IadtError, ValueError):
    """A model file is malformed or has an unsupported version."""


class ConfigError(IadtError, ValueError):
    """A configuration file or value is invalid."""
