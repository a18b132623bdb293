"""JSON run configuration: schema validation and parsing.

A config is a single JSON document.  Matrices are row-major nested arrays;
the nonlinear drift is the tanh ridge term list.  Unknown keys anywhere in
the document are rejected before any computation runs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .holder import ScalarField
from .operators import DriftField, DriftTerm, OperatorSpec

__all__ = ["RunConfig", "parse_config", "load_config", "field_from_config"]

_OPERATOR_KEYS = {"n", "p_tilde", "Q0", "A", "drift"}
_DRIFT_KEYS = {"i", "c", "a", "b"}
_FIELD_KEYS = {"type", "value", "w", "amplitude", "box"}

# every command parameter the CLI understands; anything else is a typo
_PARAM_KEYS = {
    "t",
    "t_grid",
    "s_grid",
    "x",
    "seed",
    "threads",
    "budget",
    "n_paths",
    "steps",
    "lambda",
    "q",
    "method",
    "field",
    "fields",
    "paths_per_node",
    "tol",
    "dump_paths",
}
_TOP_KEYS = {"operator"} | _PARAM_KEYS


def _reject_unknown(d, allowed, where):
    extra = set(d) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")


def _require(d, key, where):
    if key not in d:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return d[key]


def _is_number(v):
    """A finite JSON number: not a bool, NaN, infinity or an integer beyond
    the float range."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _matrix(value, where, shape):
    if not (isinstance(value, list) and all(isinstance(row, list) for row in value)):
        raise ConfigError(f"{where} must be a nested (row-major) array")
    if len(value) != shape[0] or any(len(row) != shape[1] for row in value):
        raise ConfigError(f"{where} must have shape {shape}")
    if not all(_is_number(v) for row in value for v in row):
        raise ConfigError(f"{where} must hold finite numbers")
    return np.array(value, dtype=float)


def _number(d, key, where, default=None):
    v = _require(d, key, where) if default is None else d.get(key, default)
    if not _is_number(v):
        raise ConfigError(f"{where}.{key} must be a finite number")
    return float(v)


def _vector(d, key, where, n):
    v = _require(d, key, where)
    if not (isinstance(v, list) and len(v) == n and all(map(_is_number, v))):
        raise ConfigError(f"{where}.{key} must be an array of length {n} of finite numbers")
    return np.array(v, dtype=float)


def operator_from_config(doc) -> OperatorSpec:
    if not isinstance(doc, dict):
        raise ConfigError("'operator' must be an object")
    _reject_unknown(doc, _OPERATOR_KEYS, "operator")
    n = _require(doc, "n", "operator")
    p = _require(doc, "p_tilde", "operator")
    if not (type(n) is int and type(p) is int and 1 <= p <= n):
        raise ConfigError("operator requires integers 1 <= p_tilde <= n")
    Q0 = _matrix(_require(doc, "Q0", "operator"), "operator.Q0", (p, p))
    A = _matrix(_require(doc, "A", "operator"), "operator.A", (n, n))
    drift = doc.get("drift", [])
    if not isinstance(drift, list):
        raise ConfigError("operator.drift must be an array of terms")
    terms = []
    for j, td in enumerate(drift):
        where = f"operator.drift[{j}]"
        if not isinstance(td, dict):
            raise ConfigError(f"{where} must be an object")
        _reject_unknown(td, _DRIFT_KEYS, where)
        i = _require(td, "i", where)
        if not (type(i) is int and 1 <= i <= p):
            raise ConfigError(f"{where}.i must be an integer in 1..p_tilde")
        terms.append(DriftTerm(i=i, c=_number(td, "c", where), a=_vector(td, "a", where, n),
                               b=_number(td, "b", where, 0.0)))
    try:
        return OperatorSpec(n=n, p_tilde=p, Q0=Q0, A=A, F=DriftField(terms))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def field_from_config(doc, n) -> ScalarField:
    """Scalar fields from their JSON encoding: const or cosine."""
    if not isinstance(doc, dict):
        raise ConfigError("field must be an object")
    _reject_unknown(doc, _FIELD_KEYS, "field")
    kind = _require(doc, "type", "field")
    box = None
    if "box" in doc:
        box = _matrix(doc["box"], "field.box", (n, 2))
    if kind == "const":
        return ScalarField.constant(_number(doc, "value", "field"), n, box=box)
    if kind == "cos":
        return ScalarField.cosine(_vector(doc, "w", "field", n), box=box,
                                  amplitude=_number(doc, "amplitude", "field", 1.0))
    raise ConfigError(f"unknown field type '{kind}'")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration: the operator plus validated command parameters."""

    operator: OperatorSpec
    params: dict

    def param(self, key, default=None):
        return self.params.get(key, default)

    def require(self, key):
        if key not in self.params:
            raise ConfigError(f"this command requires config key '{key}'")
        return self.params[key]


def parse_config(doc) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _reject_unknown(doc, _TOP_KEYS, "config")
    operator = operator_from_config(_require(doc, "operator", "config"))
    params = {k: v for k, v in doc.items() if k != "operator"}
    lowest = {"seed": 0, "threads": 1, "budget": 2, "n_paths": 0, "steps": 1,
              "paths_per_node": 2, "dump_paths": 0}
    for key, low in lowest.items():
        v = params.get(key, low)
        if type(v) is not int or v < low:
            raise ConfigError(f"'{key}' must be an integer >= {low}")
    if params.get("seed", 0) >= 2**64:
        raise ConfigError("'seed' must be below 2**64")
    for key in ("t", "lambda", "q", "tol"):
        if key in params and not _is_number(params[key]):
            raise ConfigError(f"'{key}' must be a finite number")
    for key in ("t_grid", "s_grid", "x"):
        if key in params:
            v = params[key]
            if not (isinstance(v, (list, tuple)) and v and all(map(_is_number, v))):
                raise ConfigError(f"'{key}' must be a non-empty flat array of finite numbers")
            params[key] = [float(e) for e in v]
    for key in ("t", "lambda", "q", "tol"):
        if params.get(key, 1) <= 0:
            raise ConfigError(f"'{key}' must be positive")
    for key in ("t_grid", "s_grid"):
        if min(params.get(key, [1])) <= 0:
            raise ConfigError(f"every '{key}' entry must be positive")
    if len(params.get("x", [0] * operator.n)) != operator.n:
        raise ConfigError(f"'x' must have length {operator.n}")
    if "method" in params and params["method"] not in ("direct", "girsanov"):
        raise ConfigError("'method' must be 'direct' or 'girsanov'")
    if "field" in params:
        params["field"] = field_from_config(params["field"], operator.n)
    if "fields" in params:
        if not isinstance(params["fields"], list):
            raise ConfigError("'fields' must be an array of fields")
        params["fields"] = [field_from_config(d, operator.n) for d in params["fields"]]
    return RunConfig(operator=operator, params=params)


def load_config(path, overrides=None) -> RunConfig:
    """Parse the config at ``path``, each non-None value of ``overrides``
    (a CLI flag) replacing its key first, so a flag is checked as its key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if isinstance(doc, dict):
        doc.update((key, v) for key, v in (overrides or {}).items() if v is not None)
    return parse_config(doc)
