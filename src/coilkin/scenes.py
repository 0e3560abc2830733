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
import math
from dataclasses import dataclass

import numpy as np

from .errors import SceneError


@dataclass(frozen=True)
class HeightField:
    """Non-negative height grid over the floor plane; outside cells read 0."""

    origin: tuple
    cell_mm: float
    heights: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.heights, dtype=float)
        if h.ndim != 2 or h.size == 0:
            raise SceneError("heights must be a non-empty 2-D grid")
        if not np.isfinite(h).all() or (h < 0).any():
            raise SceneError("heights must be finite and >= 0")
        origin = (float(self.origin[0]), float(self.origin[1]))
        if not all(map(math.isfinite, origin)):
            raise SceneError(f"origin must be finite, got {origin}")
        if not (math.isfinite(self.cell_mm) and self.cell_mm > 0):
            raise SceneError(f"cell_mm must be finite and > 0, got {self.cell_mm}")
        object.__setattr__(self, "heights", h)
        object.__setattr__(self, "origin", origin)

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
        center = tuple(float(c) for c in self.center)
        if not all(map(math.isfinite, center)):
            raise SceneError(f"cube center must be finite, got {center}")
        if not (math.isfinite(self.edge_mm) and self.edge_mm > 0):
            raise SceneError(f"cube edge must be finite and > 0, got {self.edge_mm}")
        object.__setattr__(self, "center", center)

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
        if not (math.isfinite(self.inner_radius_mm) and self.inner_radius_mm > 0):
            raise SceneError(
                f"tube inner radius must be finite and > 0, got {self.inner_radius_mm}"
            )


def _require_fields(doc: dict, allowed: set, required: set, what: str):
    unknown = set(doc) - allowed
    if unknown:
        raise SceneError(f"unknown {what} fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise SceneError(f"missing {what} fields: {sorted(missing)}")


def _number(value, what: str) -> float:
    """value as a float; SceneError unless it is an int or a float (a bool
    or a numeric string is not a number)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(values, size: int, what: str) -> tuple:
    """A list of `size` numbers as a tuple of floats."""
    if len(values) != size:
        raise SceneError(f"{what} must be a list of {size} numbers")
    return tuple(_number(v, what) for v in values)


def scene_from_dict(doc: dict):
    """Build a HeightField or Tube from a JSON-style dict; any malformed
    document, a value of the wrong type or size included, raises SceneError.
    Every number must be a JSON number: a bool or a numeric string raises
    SceneError, and so does a height grid whose array is not of integers or
    floats (a bool among numbers in the grid still casts to 0 or 1)."""
    if not isinstance(doc, dict):
        raise SceneError("scene document must be a JSON object")
    kind = doc.get("type")
    try:
        if kind == "height_field":
            _require_fields(
                doc, {"type", "origin", "cell_mm", "heights"}, {"cell_mm", "heights"}, "height_field"
            )
            origin = _numbers(doc.get("origin", (0.0, 0.0)), 2, "height_field origin")
            heights = np.asarray(doc["heights"])
            if heights.dtype.kind not in "iuf":
                raise SceneError("heights must be a grid of numbers")
            return HeightField(origin, _number(doc["cell_mm"], "cell_mm"), heights)
        if kind == "tube":
            _require_fields(doc, {"type", "inner_radius_mm", "obstacle"}, {"inner_radius_mm"}, "tube")
            obstacle = doc.get("obstacle")
            cube = None
            if obstacle is not None:
                _require_fields(obstacle, {"center", "edge_mm"}, {"center", "edge_mm"}, "obstacle")
                center = _numbers(obstacle["center"], 3, "obstacle center")
                cube = Cube(center, _number(obstacle["edge_mm"], "obstacle edge_mm"))
            return Tube(_number(doc["inner_radius_mm"], "inner_radius_mm"), cube)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneError(f"bad {kind} document: {exc}") from exc
    raise SceneError(f"scene type must be 'height_field' or 'tube', got {kind!r}")


def load_scene(path):
    """Load a scene JSON document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            raise SceneError(f"scene document is not valid JSON: {exc}") from exc
    return scene_from_dict(doc)
