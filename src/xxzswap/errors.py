"""Exception types shared across the package, the one real-number check and
the field check built on it, the one integer check, the one type check and
the one sequence check."""

import cmath
import numbers
from dataclasses import fields


class ValidationError(ValueError):
    """An input violates a documented precondition or invariant."""


class SingularityError(ArithmeticError):
    """A parameter combination hits an exact physical singularity.

    Raised for degenerate perturbation denominators, perturbed levels that
    overflow, the charge-gap / qubit-splitting resonance, a vanishing
    tunneling product, and an inhomogeneity ratio g_j b_j / g_i b_i that is
    undefined because dot i has zero gradient while f_- is nonzero.
    """


def _in_bound(number, bound: str) -> bool:
    return not bound or (number > 0 if bound == "positive" else number >= 0)


def check_integer(value, name: str, bound: str = "") -> int:
    """``value`` as an int: an integer, not a bool, that is > 0 or >= 0 where
    ``bound`` is "positive" or "nonnegative"."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    number = int(value)
    if not _in_bound(number, bound):
        raise ValidationError(f"{name} must be {bound}, got {number!r}")
    return number


def check_type(value, cls, name: str):
    """``value``, if it is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise ValidationError(f"{name} must be a {cls.__name__}, got {value!r}")
    return value


def check_iterable(value, name: str) -> list:
    """The items of ``value`` as a list, if it is iterable."""
    try:
        items = iter(value)
    except TypeError:
        raise ValidationError(f"{name} must be iterable, got {value!r}") from None
    return list(items)


def check_real(value, name: str, bound: str = "", cast=float):
    """``value`` as a float: a finite real number, not a bool, that is > 0 or >= 0
    where ``bound`` is "positive" or "nonnegative"; as a complex for ``cast=complex``."""
    kind = numbers.Real if cast is float else numbers.Complex
    if type(value) is not float and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ValidationError(f"{name} must be a {kind.__name__.lower()} number, got {value!r}")
    try:
        number = cast(value)
    except OverflowError:  # an int beyond the float range
        number = cast("inf")
    if not (cmath.isfinite(number) and _in_bound(number, bound)):
        requirement = f"finite and {bound}" if bound else "finite"
        raise ValidationError(f"{name} must be {requirement}, got {number!r}")
    return number


def check_finite(obj, names=None, bound: str = "", cast=float) -> None:
    """Set the named fields (all by default) of dataclass ``obj`` to their check_real values."""
    for name in names or [f.name for f in fields(obj)]:
        object.__setattr__(obj, name, check_real(getattr(obj, name), name, bound, cast))
