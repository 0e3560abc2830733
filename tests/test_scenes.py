"""Scene types and their JSON documents, and the number rule that every
input record applies to its own fields."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coilkin import (
    ConfigError,
    Cube,
    ExploreConfig,
    HeightField,
    RobotGeometry,
    ScanConfig,
    SceneError,
    Tube,
    load_scene,
    scene_from_dict,
)


def test_height_lookup_inside_and_outside():
    field = HeightField((10.0, 20.0), 5.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert field.height_at(10.0, 20.0) == 1.0
    assert field.height_at(14.9, 24.9) == 1.0
    assert field.height_at(15.0, 20.0) == 3.0
    assert field.height_at(10.0, 25.0) == 2.0
    assert field.height_at(0.0, 0.0) == 0.0
    assert field.height_at(100.0, 100.0) == 0.0


def test_height_lookup_broadcasts_like_scalar_calls():
    field = HeightField((10.0, 20.0), 5.0, np.array([[1.0, 2.0], [3.0, 4.0]]))
    xs = np.array([10.0, 14.9, 15.0, 10.0, 0.0, 100.0, 9.999, 19.999])
    ys = np.array([20.0, 24.9, 20.0, 25.0, 0.0, 100.0, 20.0, 29.999])
    assert field.height_at(xs, ys).tolist() == [field.height_at(x, y) for x, y in zip(xs, ys)]
    assert field.height_at(xs[:, None], ys).shape == (8, 8)
    assert type(field.height_at(15.0, 25.0)) is float


def test_height_field_validation():
    with pytest.raises(SceneError):
        HeightField((0, 0), 10.0, np.array([[-1.0]]))
    with pytest.raises(SceneError):
        HeightField((0, 0), 0.0, np.array([[1.0]]))
    with pytest.raises(SceneError):
        HeightField((0, 0), 10.0, np.array([1.0, 2.0]))
    for origin, cell in (((0, 0), math.nan), ((0, 0), math.inf), ((math.nan, 0), 10.0)):
        with pytest.raises(SceneError):
            HeightField(origin, cell, np.array([[1.0]]))
    for origin in ((0,), (0, 0, 5), ()):
        with pytest.raises(SceneError, match="origin must be 2 finite numbers"):
            HeightField(origin, 10.0, np.array([[1.0]]))


def test_cube_contains():
    cube = Cube((0.0, 0.0, -100.0), 40.0)
    assert cube.contains((0.0, 0.0, -100.0))
    assert cube.contains((20.0, 20.0, -80.0))  # faces count as contact
    assert not cube.contains((20.1, 0.0, -100.0))
    rows = np.array([(0.0, 0.0, -100.0), (20.1, 0.0, -100.0), (20.0, -20.0, -120.0)])
    assert cube.contains(rows).tolist() == [True, False, True]
    for center, edge in (((0, 0, 0), 0.0), ((0, 0, 0), math.nan), ((0, math.inf, 0), 1.0)):
        with pytest.raises(SceneError):
            Cube(center, edge)
    for center in ((0, 0), (0, 0, 0, 0), ()):
        with pytest.raises(SceneError, match="center must be 3 finite numbers"):
            Cube(center, 5.0)


def test_tube_validation():
    Tube(174.0)
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(SceneError):
            Tube(radius)


def test_height_field_json_round_trip(tmp_path):
    doc = {
        "type": "height_field",
        "origin": [0, 0],
        "cell_mm": 10,
        "heights": [[0, 0, 0], [0, 40, 0]],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(path)
    assert isinstance(scene, HeightField)
    assert scene.height_at(10.0, 10.0) == 40.0


def test_tube_json(tmp_path):
    doc = {
        "type": "tube",
        "inner_radius_mm": 174,
        "obstacle": {"center": [45, 0, -206], "edge_mm": 40},
    }
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(doc))
    scene = load_scene(path)
    assert isinstance(scene, Tube)
    assert scene.obstacle.edge_mm == 40.0

    path.write_text(json.dumps({"type": "tube", "inner_radius_mm": 174}))
    assert load_scene(path).obstacle is None


def test_unknown_fields_and_types_rejected():
    with pytest.raises(SceneError, match="unknown"):
        scene_from_dict({"type": "tube", "inner_radius_mm": 174, "color": "grey"})
    with pytest.raises(SceneError, match="type"):
        scene_from_dict({"inner_radius_mm": 174})
    with pytest.raises(SceneError, match="missing"):
        scene_from_dict({"type": "height_field", "cell_mm": 10})


def test_bad_json_file(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text("{oops")
    with pytest.raises(SceneError, match="JSON"):
        load_scene(path)


HEIGHT_FIELD = {"type": "height_field", "origin": [0, 5], "cell_mm": 10, "heights": [[1, 2], [3, 4]]}
TUBE = {"type": "tube", "inner_radius_mm": 174, "obstacle": {"center": [45, 0, -206], "edge_mm": 40}}


def with_field(doc, path, value):
    """A copy of doc with the field at `path` (keys and list indices) set to value."""
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


@pytest.mark.parametrize("doc,path", [
    (HEIGHT_FIELD, ["cell_mm"]),
    (HEIGHT_FIELD, ["origin", 0]),
    (HEIGHT_FIELD, ["origin", 1]),
    (TUBE, ["inner_radius_mm"]),
    (TUBE, ["obstacle", "center", 0]),
    (TUBE, ["obstacle", "center", 2]),
    (TUBE, ["obstacle", "edge_mm"]),
])
@pytest.mark.parametrize("value", [True, False, "174", "0"])
def test_bool_or_text_is_not_a_number(doc, path, value):
    """Each numeric field rejects a bool and a numeric string, as
    RobotGeometry.from_dict does; the same document with a number loads."""
    scene_from_dict(with_field(doc, path, 7))
    with pytest.raises(SceneError, match="must be a number"):
        scene_from_dict(with_field(doc, path, value))


@pytest.mark.parametrize("heights", [
    [["1", "2"]], [[1, "2"]], [[True, False]], [[1, None]], [[10**400]], [[1, 2], [3]], [[1, [2]]],
])
def test_heights_must_be_a_numeric_grid(heights):
    with pytest.raises(SceneError, match="grid of numbers"):
        scene_from_dict({**HEIGHT_FIELD, "heights": heights})


def test_bool_among_numbers_in_the_grid_casts():
    """numpy casts a bool in a grid of numbers, so that grid still loads."""
    assert scene_from_dict({**HEIGHT_FIELD, "heights": [[1.5, True]]}).heights.tolist() == [[1.5, 1.0]]


def test_origin_and_center_need_lists_of_numbers():
    with pytest.raises(SceneError, match="list of 2 numbers"):
        scene_from_dict({**HEIGHT_FIELD, "origin": [0, 0, 0]})
    with pytest.raises(SceneError, match="must be a number"):
        scene_from_dict({**HEIGHT_FIELD, "origin": "05"})
    with pytest.raises(SceneError, match="list of 3 numbers"):
        scene_from_dict(with_field(TUBE, ["obstacle", "center"], [45, 0]))


# Each input record, the error it raises, and valid whole-number values of
# its float fields; a tuple field is a list of numbers, one case per item.
RECORDS = [
    (RobotGeometry, ConfigError, {"d": 12, "s_min": 20, "s_max": 70, "l": 53, "pulley_diameter": 70,
                                  "servo_range": 120, "bristle_length": 53, "contact_threshold": 15}),
    (HeightField, SceneError, {"origin": (0, 5), "cell_mm": 10, "heights": [[1.0]]}),
    (Cube, SceneError, {"center": (45, 0, -206), "edge_mm": 40}),
    (Tube, SceneError, {"inner_radius_mm": 174}),
    (ScanConfig, ConfigError, {"width": 20, "height": 30, "step_mm": 10, "origin": (0, 5), "arm_z": 170,
                               "quantum": 1}),
    (ExploreConfig, ConfigError, {"descent_step": 20, "compressed_s": 45, "target_radial": 15,
                                  "target_z": 60, "max_step_mm": 2}),
]
NUMBER_FIELDS = [
    (record, error, fields, name, index)
    for record, error, fields in RECORDS
    for name, value in fields.items() if name != "heights"
    for index in (range(len(value)) if isinstance(value, tuple) else [None])
]
NOT_NUMBERS = [True, False, np.bool_(True), "12", "nan", math.nan, math.inf, -math.inf, np.float64(math.inf),
               10**400, -(10**400), [1.0]]


def with_number(fields, name, index, value):
    """fields with `name` set to value, or item `index` of that tuple field."""
    if index is not None:
        value = tuple(value if k == index else v for k, v in enumerate(fields[name]))
    return {**fields, name: value}


@given(case=st.sampled_from(NUMBER_FIELDS), value=st.sampled_from(NOT_NUMBERS))
@settings(max_examples=300, deadline=None)
def test_every_number_field_raises_its_typed_error(case, value):
    """A bool, a numeric string, a non-finite float or an int beyond float
    range raises the record's own error, never TypeError, ValueError or
    OverflowError."""
    record, error, fields, name, index = case
    record(**fields)
    with pytest.raises(error, match="must be"):
        record(**with_number(fields, name, index, value))


@given(case=st.sampled_from(NUMBER_FIELDS), number=st.sampled_from([int, np.int64, np.float32, np.float64]))
@settings(max_examples=100, deadline=None)
def test_every_number_field_is_stored_as_a_float(case, number):
    record, error, fields, name, index = case
    value = fields[name] if index is None else fields[name][index]
    stored = getattr(record(**with_number(fields, name, index, number(value))), name)
    item = stored if index is None else stored[index]
    assert type(item) is float and item == value
