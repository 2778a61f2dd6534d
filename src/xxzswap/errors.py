"""Exception types shared across the package, and the one field check of
its frozen value types."""

import cmath
from dataclasses import fields


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class SingularityError(ArithmeticError):
    """A parameter combination hits an exact physical singularity.

    Raised for degenerate perturbation denominators, the charge-gap /
    qubit-splitting resonance, and a vanishing tunneling product.
    """


def check_finite(obj, names=None, cast=float) -> None:
    """Coerce the named fields of the frozen dataclass ``obj`` (by default
    all of them) with ``cast``, and reject any infinite or nan value."""
    for name in names or [f.name for f in fields(obj)]:
        value = cast(getattr(obj, name))
        if not cmath.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")
        object.__setattr__(obj, name, value)
