"""Tendon-space actuation: servo pulley mapping, the servo bound and the step rule."""

import math

import numpy as np

from .geometry import RobotGeometry


def max_payout(geom: RobotGeometry) -> float:
    """Largest tendon shortening the servo travel allows, in mm."""
    return geom.servo_range / 360.0 * math.pi * geom.pulley_diameter


def pulley_angle(shortening_mm, geom: RobotGeometry):
    """Pulley winding in degrees for a tendon shortening in mm, 0 where the
    shortening is not positive; broadcasts. An angle that overflows, as on a
    subnormal pulley, is inf, without a warning."""
    per_mm = 360.0 / (math.pi * geom.pulley_diameter)
    with np.errstate(over="ignore", invalid="ignore"):  # inf, and 0 * inf where not taken
        return np.where(np.greater(shortening_mm, 0.0), np.multiply(shortening_mm, per_mm), 0.0)


def beyond_servo_range(angle_deg, geom: RobotGeometry):
    """The servo bound: True where a pulley angle exceeds the range; broadcasts."""
    return angle_deg > geom.servo_range + 1e-9


def servo_angles(q, home, geom: RobotGeometry):
    """The servo rule: (angles, slack) of tendon lengths q, shape (..., 4),
    against home lengths that broadcast with q; raises nothing.

    angles is pulley_angle(home - q); a slack tendon, longer than home,
    stays at 0 degrees and pays out freely. beyond_servo_range bounds the
    angles. The home is an argument, not a geometry field: the workspace
    and the ring path pass geom.s_max, the straight, fully extended backbone.
    """
    shortening = np.subtract(home, q)
    return pulley_angle(shortening, geom), shortening < 0.0


def step_count(start, stop, max_step_mm: float):
    """Step count from start to stop: ceil(largest |stop - start| /
    max_step_mm), at least 1, so that the endpoints differ by at most
    max_step_mm per step in every tendon. The four lengths sit in the last
    axis; leading axes broadcast over a batch. Counts are whole floats, so
    a caller can check one too large for an int (or inf) before casting."""
    if max_step_mm <= 0.0:
        raise ValueError(f"max_step_mm must be > 0, got {max_step_mm}")
    biggest = np.abs(np.subtract(stop, start)).max(axis=-1)
    return np.maximum(np.ceil(biggest / max_step_mm), 1.0)
