"""Geometry defaults and JSON loading."""

import json
import math
from dataclasses import fields

import pytest

from coilkin import ConfigError, RobotGeometry


def test_defaults():
    g = RobotGeometry()
    assert g.d == 12.0
    assert g.s_min == 20.0
    assert g.s_max == 70.0
    assert g.l == 53.0
    assert g.pulley_diameter == 70.0
    assert g.servo_range == 120.0
    assert g.bristle_length == 53.0
    assert g.contact_threshold == 15.0
    assert g.probe_offset == 106.0


def test_missing_fields_take_defaults():
    g = RobotGeometry.from_dict({"d": 10.5, "s_max": 80})
    assert g.d == 10.5
    assert g.s_max == 80.0
    assert g.s_min == 20.0
    assert g.servo_range == 120.0


def test_unknown_fields_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        RobotGeometry.from_dict({"d": 12, "spring_color": "red"})


def test_non_numeric_rejected():
    with pytest.raises(ConfigError, match="numbers"):
        RobotGeometry.from_dict({"d": "wide"})
    with pytest.raises(ConfigError, match="numbers"):
        RobotGeometry.from_dict({"d": True})


def test_invariant_violations():
    with pytest.raises(ConfigError):
        RobotGeometry(s_min=70.0, s_max=20.0)
    with pytest.raises(ConfigError):
        RobotGeometry(s_min=0.0)
    with pytest.raises(ConfigError):
        RobotGeometry(d=0.0)
    with pytest.raises(ConfigError):
        RobotGeometry(l=-1.0)
    with pytest.raises(ConfigError):
        RobotGeometry(pulley_diameter=0.0)
    with pytest.raises(ConfigError):
        RobotGeometry(servo_range=-1.0)
    with pytest.raises(ConfigError):
        RobotGeometry(bristle_length=-1.0)
    with pytest.raises(ConfigError):
        RobotGeometry(contact_threshold=0.0)
    with pytest.raises(ConfigError):
        RobotGeometry(contact_threshold=-1.0)


@pytest.mark.parametrize("name", [f.name for f in fields(RobotGeometry)])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_rejected(name, value):
    with pytest.raises(ConfigError, match="finite"):
        RobotGeometry(**{name: value})
    with pytest.raises(ConfigError, match="finite"):
        RobotGeometry.from_json(json.dumps({name: value}))


def test_load_file(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text(json.dumps({"s_min": 25, "bristle_length": 60}))
    g = RobotGeometry.load(path)
    assert g.s_min == 25.0
    assert g.probe_offset == 113.0


def test_bad_json(tmp_path):
    path = tmp_path / "geom.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        RobotGeometry.load(path)
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        RobotGeometry.load(path)
