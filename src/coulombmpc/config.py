"""Flat text scenario files: one `key = value` per line, Python-style literals.

Example::

    # four-craft formation
    masses          = 50.0
    desired         = [50.0, 100.0, 150.0]
    initial_state   = [53.0, 109.0, 147.0, 0.0, 0.0, 0.0]
    sample_period   = 0.5
    steps           = 600
    horizon         = 9
    state_weight    = [1, 1, 1, 400, 400, 400]
    product_delta_weight = 1e8
    trace_weight    = 1.5
    state_margin    = 10.0
    saturation_limit = 0.1

Scalars broadcast where a vector is expected.  `state_margin` is shorthand
for a symmetric box of that half-width around the desired state; explicit
`state_min` / `state_max` arrays override it.  The state and product bounds
go to `MpcParams` only, and `saturation_limit` is the one charge limit: the
controller clamps to it and the `oracle` grid spans it.
"""

from __future__ import annotations

import ast

import numpy as np

from .dynamics import COULOMB_CONSTANT, FormationConfig, pair_count
from .horizon import MpcParams
from .simulate import ScenarioConfig
from .solver import SolverSettings


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


_KNOWN_KEYS = {
    "num_spacecraft",
    "masses",
    "coulomb_constant",
    "min_separation",
    "desired",
    "initial_state",
    "state_min",
    "state_max",
    "state_margin",
    "product_min",
    "product_max",
    "horizon",
    "state_weight",
    "product_weight",
    "product_delta_weight",
    "trace_weight",
    "sample_period",
    "steps",
    "substeps",
    "saturation_limit",
    "warm_start",
    "eps_abs",
    "eps_rel",
    "max_iters",
    "rho",
    "adaptive_rho",
    "output",
}


def parse_config_text(text: str) -> dict:
    """Parse the key/value lines into a dict of Python values."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, literal = line.partition("=")
        key = key.strip()
        literal = literal.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if literal.lower() in ("true", "false"):
            value = literal.lower() == "true"
        else:
            try:
                value = ast.literal_eval(literal)
            except (ValueError, SyntaxError):
                value = literal  # bare string (e.g. an output path)
        values[key] = value
    return values


def _vector(values: dict, key: str, length: int, default=None) -> np.ndarray | None:
    if key not in values:
        if default is None:
            return None
        value = default
    else:
        value = values[key]
    try:
        arr = np.atleast_1d(np.asarray(value, dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key} must be numeric, got {value!r}") from exc
    if arr.size == 1:
        arr = np.full(length, arr[0])
    if arr.size != length:
        raise ConfigError(f"{key} must be a scalar or a vector of length {length}")
    return arr


def scenario_from_values(values: dict, overrides: dict | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed key/value pairs."""
    values = dict(values)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})

    try:
        desired = np.atleast_1d(np.asarray(values["desired"], dtype=float))
    except KeyError:
        raise ConfigError("'desired' (relative target positions) is required")
    ns = desired.size + 1
    if "num_spacecraft" in values and int(values["num_spacecraft"]) != ns:
        raise ConfigError(
            f"num_spacecraft = {values['num_spacecraft']} conflicts with "
            f"a desired vector of length {desired.size}"
        )
    n_state = 2 * (ns - 1)
    m = pair_count(ns)

    masses = _vector(values, "masses", ns, default=750.0)

    state_min = _vector(values, "state_min", n_state)
    state_max = _vector(values, "state_max", n_state)
    if state_min is None or state_max is None:
        if "state_margin" not in values:
            raise ConfigError("give state_min/state_max or a state_margin half-width")
        margin = float(values["state_margin"])
        center = np.concatenate([desired, np.zeros(ns - 1)])
        state_min = center - margin
        state_max = center + margin

    try:
        formation = FormationConfig(
            num_spacecraft=ns,
            masses=masses,
            coulomb_constant=float(values.get("coulomb_constant", COULOMB_CONSTANT)),
            min_separation=float(values.get("min_separation", 1e-3)),
        )
        params = MpcParams(
            horizon=int(values.get("horizon", 9)),
            desired_positions=desired,
            state_weight=np.asarray(values.get("state_weight", 1.0), dtype=float),
            product_weight=np.asarray(values.get("product_weight", 0.0), dtype=float),
            product_delta_weight=np.asarray(
                values.get("product_delta_weight", 0.0), dtype=float
            ),
            state_min=state_min,
            state_max=state_max,
            trace_weight=float(values.get("trace_weight", 0.0)),
            product_min=_vector(values, "product_min", m),
            product_max=_vector(values, "product_max", m),
        )
        solver = SolverSettings(
            eps_abs=float(values.get("eps_abs", 1e-6)),
            eps_rel=float(values.get("eps_rel", 1e-6)),
            max_iters=int(values.get("max_iters", 20000)),
            rho=float(values.get("rho", 1.0)),
            adaptive_rho=bool(values.get("adaptive_rho", True)),
            warm_start=bool(values.get("warm_start", True)),
        )
        if "initial_state" not in values:
            raise ConfigError("'initial_state' is required")
        return ScenarioConfig(
            formation=formation,
            params=params,
            solver=solver,
            initial_state=np.asarray(values["initial_state"], dtype=float),
            sample_period=float(values.get("sample_period", 0.5)),
            steps=int(values.get("steps", 2400)),
            substeps=int(values.get("substeps", 10)),
            saturation_limit=float(values.get("saturation_limit", 0.1)),
            output_path=values.get("output"),
        )
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_scenario(path, overrides: dict | None = None) -> ScenarioConfig:
    """Read and validate a scenario file."""
    with open(path, "r") as fh:
        text = fh.read()
    return scenario_from_values(parse_config_text(text), overrides)
