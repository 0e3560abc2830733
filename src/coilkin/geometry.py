"""Physical description of the robot and its JSON configuration format."""

import json
import math
from dataclasses import dataclass, fields

from .errors import ConfigError, finite_number


@dataclass(frozen=True)
class RobotGeometry:
    """Immutable hardware description. Lengths in mm unless noted.

    d is the tendon attachment radius around the backbone axis, s_min and
    s_max the compressed and fully extended backbone lengths, l the offset
    from the spring top to the tip mount. pulley_diameter (mm) and
    servo_range (degrees) bound the tendon payout, and bristle_length
    extends the probe past the tip mount. Every field passes
    errors.finite_number and is stored as a float.
    """

    d: float = 12.0
    s_min: float = 20.0
    s_max: float = 70.0
    l: float = 53.0
    pulley_diameter: float = 70.0
    servo_range: float = 120.0
    bristle_length: float = 53.0

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            object.__setattr__(self, name, finite_number(value, f"geometry field {name}", ConfigError))
        if not 0.0 < self.s_min < self.s_max:
            raise ConfigError(
                f"need 0 < s_min < s_max, got s_min={self.s_min}, s_max={self.s_max}"
            )
        if self.d <= 0.0:
            raise ConfigError(f"attachment radius d must be > 0, got {self.d}")
        if self.l < 0.0:
            raise ConfigError(f"tip offset l must be >= 0, got {self.l}")
        if self.pulley_diameter <= 0.0:
            raise ConfigError("pulley_diameter must be > 0")
        if self.servo_range < 0.0:
            raise ConfigError("servo_range must be >= 0")
        if self.bristle_length < 0.0:
            raise ConfigError("bristle_length must be >= 0")
        # Bounds every length formed: a tendon s + d*theta (theta <= pi/2), the tip s + l + bristle.
        if not math.isfinite(self.s_max + self.l + self.bristle_length + self.d * math.pi / 2.0):
            raise ConfigError("geometry too large: s_max + l + bristle_length + d*pi/2 overflows")
        # The servo's largest payout, as actuation.max_payout forms it.
        if not math.isfinite(self.servo_range / 360.0 * math.pi * self.pulley_diameter):
            raise ConfigError("geometry too large: servo_range / 360 * pi * pulley_diameter overflows")

    @property
    def probe_offset(self) -> float:
        """Distance from the spring top to the bristle tip along the tip tangent."""
        return self.l + self.bristle_length

    @classmethod
    def from_dict(cls, doc: dict) -> "RobotGeometry":
        """Build a geometry from a JSON-style dict.

        Missing fields take the defaults; unknown fields are rejected.
        """
        unknown = set(doc) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown geometry fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_json(cls, text: str) -> "RobotGeometry":
        try:
            doc = json.loads(text)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise ConfigError(f"geometry document is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("geometry document must be a JSON object")
        return cls.from_dict(doc)

    @classmethod
    def load(cls, path) -> "RobotGeometry":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())
