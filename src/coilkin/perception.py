"""Contact clouds to height maps, fixed-size feature vectors and error stats."""

import math
from dataclasses import dataclass

import numpy as np

from .columns import check_node_count, text_column, write_rows
from .errors import ConfigError, EmptyCloudError, finite_number, finite_numbers
from .ply import write_points
from .simulator import ContactCloud

FEATURE_NX = 20
FEATURE_NY = 15
FEATURE_LEN = FEATURE_NX * FEATURE_NY


@dataclass(frozen=True, eq=False)
class HeightMap:
    """Grid of surface heights (mm) cropped to the contacted bounding box.

    heights[i, j] is the cell at (origin[0] + i*cell_mm,
    origin[1] + j*cell_mm); NaN marks cells probed without contact. The
    origin places the bounding-box centroid at (0, 0). origin and cell_mm
    pass errors.finite_number and are stored as floats; cell_mm is > 0.
    """

    heights: np.ndarray
    origin: tuple
    cell_mm: float

    def __post_init__(self):
        object.__setattr__(self, "origin", finite_numbers(self.origin, 2, "height map origin", ConfigError))
        object.__setattr__(self, "cell_mm", finite_number(self.cell_mm, "height map cell_mm", ConfigError))
        if self.cell_mm <= 0.0:
            raise ConfigError(f"height map cell_mm must be > 0, got {self.cell_mm}")

    @property
    def contact_mask(self) -> np.ndarray:
        return ~np.isnan(self.heights)

    def write_csv(self, path):
        """The height-map CSV: an origin and cell-size comment, then one line
        per row of heights."""
        with open(path, "wb") as fh:
            fh.write(f"# origin_x={self.origin[0]!r} origin_y={self.origin[1]!r} cell_mm={self.cell_mm!r}\n".encode())
            table, codes = text_column(self.heights.ravel())  # one sort for the whole map
            write_rows(fh, [(table, codes.reshape(self.heights.shape))])

    def write_ply(self, path):
        """ASCII PLY of the contacted cells."""
        i, j = np.nonzero(self.contact_mask)
        points = np.column_stack([self.origin[0] + i * self.cell_mm, self.origin[1] + j * self.cell_mm,
                                  self.heights[i, j]])
        del i, j  # freed before the writer allocates its scratch memory
        write_points(points, path)


@dataclass(frozen=True)
class FeatureVector:
    """Flattened 20x15 down-sampled height map; always 300 finite values."""

    values: tuple
    provenance: str = ""

    def __post_init__(self):
        if len(self.values) != FEATURE_LEN:
            raise ValueError(f"feature vector must hold {FEATURE_LEN} values")
        if not all(math.isfinite(v) for v in self.values):
            raise ValueError("feature vector values must be finite")

    def to_csv_row(self) -> str:
        """provenance, then the 300 values; the provenance cell is quoted as
        RFC 4180 asks when it holds a comma, a quote or a line break."""
        name = self.provenance
        if any(c in name for c in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        return ",".join([name] + [repr(float(v)) for v in self.values])


def reconstruct(cloud: ContactCloud) -> HeightMap:
    """Height map from a grid scan's contact points, log.point where log.contact.

    Crops to the contacted bounding box (preserving grid adjacency, with NaN
    inside the box where nothing was touched), zeroes the lowest contact
    height and recenters x-y on the box centroid. A box of more than
    columns.MAX_NODES cells raises ConfigError.
    """
    points = cloud.log.point[cloud.log.contact]  # (C, 3)
    if not len(points):
        raise EmptyCloudError("no contact events in cloud")
    with np.errstate(over="ignore", invalid="ignore"):  # an inf or NaN box size fails the cap too
        i = np.round((points[:, 0] - cloud.origin[0]) / cloud.step_mm)
        j = np.round((points[:, 1] - cloud.origin[1]) / cloud.step_mm)
        i0, i1, j0, j1 = i.min(), i.max(), j.min(), j.max()
        check_node_count((i1 - i0 + 1.0) * (j1 - j0 + 1.0), "height map")
    i0, i1, j0, j1 = (int(v) for v in (i0, i1, j0, j1))
    heights = np.full((i1 - i0 + 1, j1 - j0 + 1), np.nan)
    heights[i.astype(np.intp) - i0, j.astype(np.intp) - j0] = points[:, 2]
    heights -= np.nanmin(heights)
    origin = (-(i1 - i0) * cloud.step_mm / 2.0, -(j1 - j0) * cloud.step_mm / 2.0)
    return HeightMap(heights, origin, cloud.step_mm)


def _overlap_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row-stochastic matrix averaging n_in cells into n_out covering bins."""
    edges = np.linspace(0.0, n_in, n_out + 1)
    i = np.arange(n_in)
    # Overlap of bin [edges[o], edges[o + 1]) with cell [i, i + 1), 0 if none.
    w = np.maximum(np.minimum(edges[1:, None], i + 1.0) - np.maximum(edges[:-1, None], i), 0.0)
    return w / w.sum(axis=1, keepdims=True)


def resample_average(grid: np.ndarray, nx_out: int, ny_out: int) -> np.ndarray:
    """Area-weighted average resampling of a 2-D grid to (nx_out, ny_out)."""
    wx = _overlap_weights(grid.shape[0], nx_out)
    wy = _overlap_weights(grid.shape[1], ny_out)
    return wx @ grid @ wy.T


def to_feature(hmap: HeightMap, provenance: str = "") -> FeatureVector:
    """Fixed-size feature from a height map.

    The map is anchored at its least-x / least-y contact corner (the crop
    already put it there), non-contact sentinels contribute 0, and the
    grid is resampled to 20x15 by cell averaging, then flattened with x
    as the slow axis.
    """
    if hmap.heights.size == 0:
        raise EmptyCloudError("empty height map")
    grid = np.nan_to_num(hmap.heights, nan=0.0)
    down = resample_average(grid, FEATURE_NX, FEATURE_NY)
    return FeatureVector(tuple(float(v) for v in down.ravel()), provenance)


@dataclass(frozen=True, eq=False)
class ErrorReport:
    """Per-sample position errors with their Mean/SD summary.

    dis holds Euclidean distances, axes the per-axis absolute errors
    (columns x, y, z). Summaries use the population standard deviation.
    """

    dis: np.ndarray
    axes: np.ndarray

    @property
    def mean_dis(self) -> float:
        return float(np.mean(self.dis))

    @property
    def sd_dis(self) -> float:
        return float(np.std(self.dis))

    @property
    def mean_axes(self) -> np.ndarray:
        return np.mean(self.axes, axis=0)

    @property
    def sd_axes(self) -> np.ndarray:
        return np.std(self.axes, axis=0)

    def to_csv(self) -> str:
        """Mean/SD rows by DIS/X/Y/Z columns; SD is the population form."""
        mean = [self.mean_dis, *self.mean_axes]
        sd = [self.sd_dis, *self.sd_axes]
        return (
            "# SD is the population standard deviation\n"
            ",DIS,X,Y,Z\n"
            "Mean (mm)," + ",".join(repr(float(v)) for v in mean) + "\n"
            "SD (mm)," + ",".join(repr(float(v)) for v in sd) + "\n"
        )


def error_stats(pairs) -> ErrorReport:
    """Euclidean and per-axis absolute errors for (desired, actual) pairs."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("error_stats needs at least one pair")
    desired = np.asarray([p[0] for p in pairs], dtype=float)
    actual = np.asarray([p[1] for p in pairs], dtype=float)
    diff = actual - desired
    return ErrorReport(np.linalg.norm(diff, axis=1), np.abs(diff))
