"""Simulated environments: height fields for surface scans, tubes for exploration.

Scenes load from JSON. A height field document looks like

    {"type": "height_field", "origin": [0, 0], "cell_mm": 10,
     "heights": [[0, 0], [0, 40]]}

where heights[i][j] is the cell at (origin[0] + i*cell_mm,
origin[1] + j*cell_mm). A tube document looks like

    {"type": "tube", "inner_radius_mm": 174,
     "obstacle": {"center": [45, 0, -206], "edge_mm": 40}}

with "obstacle" optional.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import SceneError, finite_number, finite_numbers


@dataclass(frozen=True, eq=False)
class HeightField:
    """Non-negative height grid over the floor plane; outside cells read 0.

    heights must be a grid of numbers: a bool among numbers casts to 0 or
    1, but a grid of bools alone, of text or of an int beyond int64 (an
    object array) raises SceneError, as does a ragged grid.
    """

    origin: tuple
    cell_mm: float
    heights: np.ndarray

    def __post_init__(self):
        try:
            h = np.asarray(self.heights)
        except ValueError as exc:  # a ragged grid
            raise SceneError(f"heights must be a grid of numbers, in rows of one length: {exc}") from exc
        if h.dtype.kind not in "iuf":
            raise SceneError("heights must be a grid of numbers")
        h = np.asarray(h, dtype=float)
        if h.ndim != 2 or h.size == 0:
            raise SceneError("heights must be a non-empty 2-D grid")
        if not np.isfinite(h).all() or (h < 0).any():
            raise SceneError("heights must be finite and >= 0")
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "origin", finite_numbers(self.origin, 2, "height_field origin", SceneError))
        object.__setattr__(self, "cell_mm", finite_number(self.cell_mm, "height_field cell_mm", SceneError))
        if self.cell_mm <= 0.0:
            raise SceneError(f"height_field cell_mm must be > 0, got {self.cell_mm}")

    def height_at(self, x, y):
        """Height of the cell under (x, y); broadcasts over arrays of x and y.

        A scalar call returns a float. Points outside the grid read 0.
        """
        # With a subnormal cell a cell index can overflow to inf, which lies
        # outside the grid as it should.
        with np.errstate(over="ignore"):
            i = np.floor((np.asarray(x, dtype=float) - self.origin[0]) / self.cell_mm)
            j = np.floor((np.asarray(y, dtype=float) - self.origin[1]) / self.cell_mm)
        nx, ny = self.heights.shape
        inside = (0 <= i) & (i < nx) & (0 <= j) & (j < ny)
        i, j = (np.where(inside, k, 0).astype(np.intp) for k in (i, j))
        h = np.where(inside, self.heights[i, j], 0.0)
        return float(h) if h.ndim == 0 else h


@dataclass(frozen=True)
class Cube:
    """Axis-aligned cube obstacle."""

    center: tuple
    edge_mm: float

    def __post_init__(self):
        object.__setattr__(self, "center", finite_numbers(self.center, 3, "cube center", SceneError))
        object.__setattr__(self, "edge_mm", finite_number(self.edge_mm, "cube edge_mm", SceneError))
        if self.edge_mm <= 0.0:
            raise SceneError(f"cube edge_mm must be > 0, got {self.edge_mm}")

    def contains(self, p):
        """Closed-cube test of one point, or of each row of an (N, 3) array."""
        half = self.edge_mm / 2.0
        return np.all(np.abs(np.asarray(p, dtype=float) - self.center) <= half, axis=-1)


@dataclass(frozen=True)
class Tube:
    """Vertical tube around the arm start axis with an optional obstacle."""

    inner_radius_mm: float
    obstacle: Cube | None = None

    def __post_init__(self):
        radius = finite_number(self.inner_radius_mm, "tube inner_radius_mm", SceneError)
        if radius <= 0.0:
            raise SceneError(f"tube inner_radius_mm must be > 0, got {radius}")
        object.__setattr__(self, "inner_radius_mm", radius)


def _require_fields(doc, allowed: set, required: set, what: str):
    if not isinstance(doc, dict):
        raise SceneError(f"{what} must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - allowed
    if unknown:
        raise SceneError(f"unknown {what} fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SceneError(f"missing {what} fields: {sorted(missing)}")


def scene_from_dict(doc: dict):
    """Build a HeightField or Tube from a JSON-style dict; any malformed
    document raises SceneError. The records check their own values by
    errors.finite_number: a bool or a numeric string is not a number."""
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    kind = doc.get("type")
    if kind == "height_field":
        _require_fields(doc, {"type", "origin", "cell_mm", "heights"}, {"cell_mm", "heights"}, "height_field")
        return HeightField(doc.get("origin", (0.0, 0.0)), doc["cell_mm"], doc["heights"])
    if kind == "tube":
        _require_fields(doc, {"type", "inner_radius_mm", "obstacle"}, {"inner_radius_mm"}, "tube")
        obstacle = doc.get("obstacle")
        if obstacle is not None:
            _require_fields(obstacle, {"center", "edge_mm"}, {"center", "edge_mm"}, "obstacle")
            obstacle = Cube(obstacle["center"], obstacle["edge_mm"])
        return Tube(doc["inner_radius_mm"], obstacle)
    raise SceneError(f"scene type must be 'height_field' or 'tube', got {kind!r}")


def load_scene(path):
    """Load a scene JSON document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise SceneError(f"scene document is not valid JSON: {exc}") from exc
    return scene_from_dict(doc)
