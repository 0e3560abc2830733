"""Exception hierarchy shared by all coilkin modules.

Each class carries the CLI exit code it maps to: configuration and scene
problems exit 2, unreachable or infeasible requests exit 3. I/O failures
(OSError) exit 4.
"""


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
