"""Exception types shared across the package.

Every error raised deliberately by this package derives from ModopError,
so callers can catch one base class at CLI boundaries while still
distinguishing failure modes programmatically.
"""


class ModopError(Exception):
    """Base class for all errors raised by this package."""


class OffLattice(ModopError):
    """A requested shift or frequency does not lie on the grid lattice."""


class GridMismatch(ModopError):
    """Operands were sampled on different grids."""


class ZeroWindow(ModopError):
    """A window with vanishing norm was supplied where a nonzero one is required."""


class DimensionUnsupported(ModopError):
    """The operation is not implemented for this spatial dimension."""


class WrongQuantization(ModopError):
    """A symbol carries the wrong quantization tag for this operation."""


class TooLarge(ModopError):
    """The requested dense computation exceeds the supported problem size."""


class UnsupportedExponent(ModopError):
    """The Lebesgue exponent is outside the range this routine accepts."""


class TooManyModes(ModopError):
    """Bump centers would overflow the frequency box of the grid."""


class OrderTooHigh(ModopError):
    """A derivative order beyond the supported range was requested."""


class ConfigError(ModopError):
    """A sweep configuration file is malformed or inconsistent."""


class FileFormatError(ModopError):
    """A data file does not conform to its declared format."""
