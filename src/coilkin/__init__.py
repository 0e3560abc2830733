"""coilkin: constant-curvature kinematics, tendon actuation and contact
missions for a spring-backbone continuum robot."""

from .actuation import max_payout, servo_winding
from .errors import (
    ArmTooLowError,
    CoilkinError,
    ConfigError,
    DegenerateTargetError,
    EmptyCloudError,
    EmptyWorkspaceError,
    InvalidStateError,
    SceneError,
    ServoRangeError,
    UnreachableTargetError,
)
from .geometry import RobotGeometry
from .kinematics import (
    ArcState,
    arc_kernel,
    fk,
    ik,
    ik_kernel,
)
from .perception import (
    ErrorReport,
    FeatureVector,
    HeightMap,
    error_stats,
    reconstruct,
    resample_average,
    to_feature,
)
from .scenes import Cube, HeightField, Tube, load_scene, scene_from_dict
from .simulator import (
    ContactCloud,
    ExploreConfig,
    ExploreResult,
    MissionLog,
    RingPath,
    ScanConfig,
    explore_tube,
    probe_columns,
    ring_path,
    surface_scan,
)
from .workspace import (
    Workspace,
    WorkspaceSample,
    sample_workspace,
    workspace_extents,
)

__version__ = "0.1.0"
