"""Exception hierarchy shared by all coilkin modules.

Each class carries the CLI exit code it maps to: configuration and scene
problems exit 2, unreachable or infeasible requests exit 3. I/O failures
(OSError) exit 4.

finite_number is the one number rule for every input record: a field
passes only as a finite real number, stored as a Python float.
"""

import math
import numbers


class CoilkinError(Exception):
    """Base class for all coilkin errors."""

    exit_code = 3


class ConfigError(CoilkinError):
    """Bad geometry document or run configuration."""

    exit_code = 2


class SceneError(CoilkinError):
    """Malformed or inconsistent scene description."""

    exit_code = 2


class InvalidStateError(CoilkinError):
    """Arc state violates its invariants (bend angle or length bounds)."""


class UnreachableTargetError(CoilkinError):
    """Target lies outside the reachable set of the backbone."""


class DegenerateTargetError(CoilkinError):
    """Target too close to the base for the inverse equations."""


class ServoRangeError(CoilkinError):
    """Required tendon shortening exceeds the servo pulley travel."""


class EmptyWorkspaceError(CoilkinError):
    """No feasible samples to summarize."""


class ArmTooLowError(CoilkinError):
    """Probe is already past the surface at minimum extension."""


class EmptyCloudError(CoilkinError):
    """Contact cloud holds no contact events."""


def finite_number(value, what: str, error: type) -> float:
    """value as a Python float; raises error unless it is a finite real
    number. A bool, a numeric string and an int beyond float range are not;
    an int or a numpy scalar is."""
    number, shown = value, None
    if type(value) is not float:
        number = math.nan
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            try:
                number = float(value)
            except OverflowError:  # an int whose repr may pass the int digit limit
                shown = "a value beyond float range"
    if not math.isfinite(number):
        raise error(f"{what} must be a number (finite real numbers only, not a bool or a string), "
                    f"got {shown or repr(value)}")
    return number


def finite_numbers(values, size: int, what: str, error: type) -> tuple:
    """A sequence of `size` values as a tuple of floats, each by finite_number."""
    try:
        items = tuple(values)
    except TypeError:
        items = ()
    if len(items) != size:
        raise error(f"{what} must be {size} finite numbers (a list of {size} numbers), got {values!r}")
    return tuple(finite_number(v, what, error) for v in items)
