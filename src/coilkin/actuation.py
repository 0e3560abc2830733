"""Tendon-space actuation: servo pulley mapping, the servo bound and the step rule."""

import math

import numpy as np

from .errors import ConfigError, finite_number
from .geometry import RobotGeometry


def max_payout(geom: RobotGeometry) -> float:
    """Largest tendon shortening the servo travel allows, in mm."""
    return geom.servo_range / 360.0 * math.pi * geom.pulley_diameter


def servo_winding(q, geom: RobotGeometry):
    """Pulley winding in degrees of each tendon set's most-shortened tendon,
    from the straight s_max home: (s_max - min q) * 360 / (pi * D) over the
    last axis of the tendon lengths q, 0 where no tendon is shorter than
    s_max (a slack tendon pays out freely). A winding that overflows, as on
    a subnormal pulley, is inf, without a warning."""
    shortening = geom.s_max - np.min(q, axis=-1)
    per_mm = 360.0 / (math.pi * geom.pulley_diameter)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf where not taken
        return np.where(shortening > 0.0, shortening * per_mm, 0.0)


def beyond_servo_range(angle_deg, geom: RobotGeometry):
    """The servo bound: True where a pulley angle exceeds the range; broadcasts."""
    return angle_deg > geom.servo_range + 1e-9


def step_count(start, stop, max_step_mm: float):
    """Step count from start to stop: ceil(largest |stop - start| /
    max_step_mm), at least 1, so that the endpoints differ by at most
    max_step_mm per step in every tendon. The four lengths sit in the last
    axis; leading axes broadcast over a batch. Counts are whole floats, so
    a caller can check one too large for an int (or inf) before casting.
    A max_step_mm that is not a finite number > 0 raises ConfigError."""
    max_step_mm = finite_number(max_step_mm, "max_step_mm", ConfigError)
    if max_step_mm <= 0.0:
        raise ConfigError(f"max_step_mm must be > 0, got {max_step_mm}")
    biggest = np.abs(np.subtract(stop, start)).max(axis=-1)
    return np.maximum(np.ceil(biggest / max_step_mm), 1.0)
