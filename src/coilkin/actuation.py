"""Tendon-space actuation: servo pulley mapping, the servo bound and the step rule."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ServoRangeError
from .geometry import RobotGeometry
from .kinematics import TendonSet


@dataclass(frozen=True)
class ServoCommand:
    """Pulley angles in degrees, one per tendon, with slack payout flags.

    A slack flag marks a tendon that must run longer than its home length;
    the pulley stays at 0 degrees and the line pays out freely.
    """

    angle1: float
    angle2: float
    angle3: float
    angle4: float
    slack1: bool = False
    slack2: bool = False
    slack3: bool = False
    slack4: bool = False

    @property
    def angles(self) -> tuple:
        return (self.angle1, self.angle2, self.angle3, self.angle4)

    @property
    def slack(self) -> tuple:
        return (self.slack1, self.slack2, self.slack3, self.slack4)

    def to_csv_line(self) -> str:
        """One-line record: angle1..angle4, then slack flags as 0/1."""
        parts = [repr(a) for a in self.angles] + ["1" if f else "0" for f in self.slack]
        return ",".join(parts)


def max_payout(geom: RobotGeometry) -> float:
    """Largest tendon shortening the servo travel allows, in mm."""
    return geom.servo_range / 360.0 * math.pi * geom.pulley_diameter


def pulley_angle(shortening_mm, geom: RobotGeometry):
    """Pulley winding in degrees for a tendon shortening in mm; broadcasts."""
    return shortening_mm * (360.0 / (math.pi * geom.pulley_diameter))


def beyond_servo_range(angle_deg, geom: RobotGeometry):
    """The servo bound: True where a pulley angle exceeds the range; broadcasts."""
    return angle_deg > geom.servo_range + 1e-9


def tendon_to_servo(target: TendonSet, home: TendonSet, geom: RobotGeometry) -> ServoCommand:
    """Map tendon lengths to pulley angles relative to the home lengths.

    Shortening winds the pulley by angle = delta / (pi * diameter) * 360;
    tendons longer than home clamp to 0 degrees with a slack flag. Raises
    ServoRangeError when a required angle exceeds the servo range.
    """
    angles = []
    slack = []
    for q_home, q_target in zip(home.as_tuple(), target.as_tuple()):
        delta = q_home - q_target
        if delta <= 0.0:
            angles.append(0.0)
            slack.append(delta < 0.0)
            continue
        angle = pulley_angle(delta, geom)
        if beyond_servo_range(angle, geom):
            raise ServoRangeError(
                f"tendon needs {delta:.3f} mm of shortening ({angle:.2f} deg), "
                f"servo range is {geom.servo_range} deg"
            )
        angles.append(angle)
        slack.append(False)
    return ServoCommand(*angles, *slack)


def servo_to_tendon(command: ServoCommand, home: TendonSet, geom: RobotGeometry) -> TendonSet:
    """Tendon lengths produced by a servo command (slack tendons stay at home)."""
    mm_per_deg = math.pi * geom.pulley_diameter / 360.0
    qs = [q - a * mm_per_deg for q, a in zip(home.as_tuple(), command.angles)]
    return TendonSet(*qs)


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
