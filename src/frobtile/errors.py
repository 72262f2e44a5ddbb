"""Exception types shared across the library.

Every domain error derives from FrobtileError so callers (and the CLI)
can catch the whole family at once.  Arithmetic overflow beyond the
64-bit contract is reported with the builtin OverflowError.
"""


class FrobtileError(Exception):
    """Base class for all frobtile domain errors."""


class NonCoprimeError(FrobtileError):
    """Generator set has gcd != 1 where coprimality is required."""


class NotPrimeError(FrobtileError):
    """An input that must be prime is not."""


class DimensionMismatchError(FrobtileError):
    """Vectors or bricks of inconsistent dimension."""


class DimensionUnsupportedError(FrobtileError):
    """Operation defined only for a specific dimension (e.g. 2-D rendering)."""


class DivisibilityError(FrobtileError):
    """A required divisibility relation does not hold."""


class NotAdmissibleError(FrobtileError):
    """Brick system fails the axis-wise coprimality needed to construct."""


class BoundNotMetError(FrobtileError):
    """A box side does not exceed the required Frobenius bound."""

    def __init__(self, axis: int, required: int, got: int):
        self.axis = axis
        self.required = required  # smallest acceptable side
        self.got = got
        super().__init__(
            f"side {got} on axis {axis} is below the required minimum {required}"
        )


class PreconditionError(FrobtileError):
    """Input violates a documented operation precondition."""


class CapExceededError(FrobtileError):
    """Instance exceeds a documented resource cap (e.g. oracle cell count)."""


class SearchLimitError(FrobtileError):
    """A search hit its node or time limit before reaching a verdict."""


class TilingParseError(FrobtileError):
    """Malformed tiling document; message carries line/field diagnostics."""
