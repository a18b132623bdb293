import json

import numpy as np
import pytest

from kolmotk import ConfigError, field_from_config, load_config, parse_config

DOC = {
    "operator": {
        "n": 2,
        "p_tilde": 1,
        "Q0": [[1.0]],
        "A": [[0.0, 0.0], [1.0, 1.0]],
        "drift": [{"i": 1, "c": 0.8, "a": [1.0, 0.5], "b": 0.1}],
    },
    "t": 0.5,
    "seed": 7,
    "budget": 100,
    "x": [0.2, -0.1],
    "field": {"type": "cos", "w": [1.0, 0.5], "amplitude": 2.0},
}


def test_parse_valid_document():
    cfg = parse_config(DOC)
    spec = cfg.operator
    assert spec.n == 2 and spec.p_tilde == 1
    assert len(spec.F.terms) == 1
    assert cfg.param("seed") == 7
    f = cfg.param("field")
    assert np.allclose(f.waves[0], [1.0, 0.5])
    assert f.coeffs[0] == 2.0


def test_unknown_keys_rejected_everywhere():
    bad_top = dict(DOC, extra=1)
    with pytest.raises(ConfigError, match="extra"):
        parse_config(bad_top)
    bad_op = json.loads(json.dumps(DOC))
    bad_op["operator"]["typo"] = 1
    with pytest.raises(ConfigError, match="typo"):
        parse_config(bad_op)
    bad_drift = json.loads(json.dumps(DOC))
    bad_drift["operator"]["drift"][0]["oops"] = 1
    with pytest.raises(ConfigError, match="oops"):
        parse_config(bad_drift)
    with pytest.raises(ConfigError):
        field_from_config({"type": "cos", "w": [1, 0], "junk": 1}, 2)


def test_missing_and_malformed_values():
    with pytest.raises(ConfigError, match="operator"):
        parse_config({"t": 1.0})
    bad = json.loads(json.dumps(DOC))
    del bad["operator"]["Q0"]
    with pytest.raises(ConfigError, match="Q0"):
        parse_config(bad)
    bad = json.loads(json.dumps(DOC))
    bad["operator"]["A"] = [[0.0, 0.0]]
    with pytest.raises(ConfigError, match="shape"):
        parse_config(bad)
    bad = json.loads(json.dumps(DOC))
    bad["seed"] = -1
    with pytest.raises(ConfigError, match="seed"):
        parse_config(bad)
    bad = json.loads(json.dumps(DOC))
    bad["method"] = "magic"
    with pytest.raises(ConfigError, match="method"):
        parse_config(bad)


def test_invalid_operator_surfaces_as_config_error():
    bad = json.loads(json.dumps(DOC))
    bad["operator"]["Q0"] = [[0.0]]  # not positive definite
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_field_encodings():
    c = field_from_config({"type": "const", "value": 3.0}, 2)
    assert c(np.zeros((1, 2)))[0] == 3.0
    with pytest.raises(ConfigError, match="type"):
        field_from_config({"w": [1, 0]}, 2)
    with pytest.raises(ConfigError):
        field_from_config({"type": "sinh", "w": [1, 0]}, 2)
    with pytest.raises(ConfigError, match="length"):
        field_from_config({"type": "cos", "w": [1.0]}, 2)


def test_load_config(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(DOC))
    cfg = load_config(p)
    assert cfg.operator.n == 2
    with pytest.raises(ConfigError, match="read"):
        load_config(tmp_path / "missing.json")
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(broken)
