"""Fuzzed front door: mutated README configs either parse or fail with a
ConfigError, and every command ends with an exit code in {0, 2, 3}, no
traceback and, on a non-zero exit, one stderr line.  Examples are
derandomized so that a run is reproducible.  The mutations never add
'n_paths', so verify runs only its deterministic checks and no command
there simulates a path; evaluate and solve run on their own fuzzed
numbers, capped so that an example ends within a second, and a run that
exits 0 has written only finite numbers."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kolmotk.cli import main
from kolmotk.config import parse_config
from kolmotk.errors import ConfigError

README = {
    "operator": {"n": 2, "p_tilde": 1, "Q0": [[1.0]], "A": [[0, 0], [1, 1]],
                 "drift": [{"i": 1, "c": 0.8, "a": [1.0, 0.5], "b": 0.1}]},
    "t": 0.5, "x": [0.2, -0.1], "seed": 7, "budget": 10000,
    "field": {"type": "cos", "w": [1.0, 0.5]},
}
CHAIN = {
    "operator": {"n": 3, "p_tilde": 1, "Q0": [[1.0]],
                 "A": [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
                 "drift": [{"i": 1, "c": 0.6, "a": [1.0, -0.5, 0.25], "b": 0.1}]},
    "t_grid": [0.01, 0.1, 1.0], "threads": 2,
    "fields": [{"type": "const", "value": 1.0, "box": [[-1, 1], [-1, 1], [-1, 1]]},
               {"type": "cos", "w": [1.0, 0.0, 0.5], "amplitude": 0.5}],
}
KEYS = ["operator", "n", "p_tilde", "Q0", "A", "drift", "i", "c", "a", "b", "t", "t_grid",
        "s_grid", "x", "seed", "threads", "budget", "steps", "lambda", "tol", "method",
        "field", "fields", "type", "value", "w", "amplitude", "box", "dump_paths"]

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 5), st.integers(-2**80, 2**80),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(-1e3, 1e3),
    st.sampled_from(["", "const", "cos", "direct", "x", 1e-300, 1e300]),
)
VALUES = st.recursive(
    SCALARS, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS), kids, max_size=3), max_leaves=8)


def _slots(doc, path=()):
    """Every (container path, key or index) in a nested document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, v in items:
        yield path, key
        if isinstance(v, (dict, list)):
            yield from _slots(v, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated_configs(draw):
    doc = copy.deepcopy(draw(st.sampled_from([README, CHAIN])))
    for _ in range(draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        path, key = draw(st.sampled_from(slots))
        box = _at(doc, path)
        op = draw(st.sampled_from(["replace", "delete", "add"]))
        if op == "delete":
            del box[key]
        elif op == "add" and isinstance(box, dict):
            box[draw(st.sampled_from(KEYS))] = draw(VALUES)
        else:
            box[key] = draw(VALUES)
    return doc


FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(mutated_configs())
def test_parse_config_accepts_or_raises_config_error(doc):
    try:
        parse_config(doc)
    except ConfigError:
        pass


def _check_exit_code_contract(doc, command, finite_columns):
    """Run ``command`` on ``doc``: rc in {0, 2, 3}, no traceback, one stderr
    line on failure, and on success only finite numbers in the named
    columns of its CSV (in every column for None, in none for [])."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        cfg = Path(d) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(cfg), "--out", d])
        if rc == 0 and finite_columns != []:
            header, *rows = (Path(d) / f"{command}.csv").read_text().splitlines()
            names = header.split(",")
            cols = [names.index(c) for c in (names if finite_columns is None else finite_columns)]
            assert all(math.isfinite(float(row.split(",")[j])) for row in rows for j in cols)
    assert rc in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if rc:
        assert len(err.getvalue().splitlines()) == 1


@FUZZ
@given(mutated_configs(), st.sampled_from(["analyze", "gramian", "verify"]))
def test_cli_exit_code_contract(doc, command):
    _check_exit_code_contract(doc, command, None if command == "gramian" else [])


# numbers up to the edge of float64, positive ones for times and rates;
# each includes one value that the config rejects
SIGNED = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e308, 1e308),
                   st.sampled_from([0.0, 1e3, -1e300, 1e308, math.nan]))
POSITIVE = st.one_of(st.floats(1e-4, 10.0), st.floats(1e-6, 1e308),
                     st.sampled_from([1e-300, 1e3, 1e300, 0.0]))


@st.composite
def stepping_configs(draw):
    """The README config, with or without its drift, for evaluate or solve.

    budget and paths_per_node are at most 8, steps at most 64 and lambda at
    least 0.5.  With drift, every solver node steps the extrapolated pair,
    1.5 K(t) steps with K(t) = 2 max(16, ceil(96 t)), so lambda is at least
    2, and t and the field sizes at most 5 and 10, which keeps the horizon
    of the elliptic quadrature near 5."""
    drift = draw(st.booleans())
    command = draw(st.sampled_from(["evaluate", "solve"]))
    doc = copy.deepcopy(README)
    del doc["budget"]
    if not drift:
        doc["operator"]["drift"] = []
    size = st.floats(-10.0, 10.0) if drift else SIGNED
    w = [draw(SIGNED), draw(SIGNED)]
    doc["field"] = draw(st.sampled_from([
        {"type": "cos", "w": w, "amplitude": draw(size)},
        {"type": "const", "value": draw(size)},
    ]))
    doc["x"] = [draw(SIGNED), draw(SIGNED)]
    doc["seed"] = draw(st.sampled_from([0, 7, 2**64 - 1]))
    if command == "evaluate":
        doc["t"] = draw(POSITIVE)
        doc["steps"] = draw(st.integers(1, 64))
        doc["budget"] = draw(st.integers(2, 8))
        doc["method"] = draw(st.sampled_from(["direct", "girsanov"]))
    else:
        doc["paths_per_node"] = draw(st.integers(2, 8))
        if draw(st.booleans()):
            doc["lambda"] = draw(st.floats(2.0 if drift else 0.5, 1e6))
            doc["tol"] = draw(st.floats(1e-4, 10.0) if drift else POSITIVE)
        else:
            doc["t"] = draw(st.floats(-1.0, 5.0) if drift else POSITIVE)
            doc["fields"] = [doc.pop("field"), {"type": "const", "value": draw(size)}]
    return doc, command


@settings(FUZZ, max_examples=100)
@given(stepping_configs())
def test_stepping_commands_exit_code_contract(case):
    """evaluate and solve: an overflow or NaN anywhere in the run, huge
    horizons and waves included, is rc 3 with one line, never a NaN row."""
    doc, command = case
    _check_exit_code_contract(doc, command, ["mean", "stderr"])
