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

The loader only parses and maps keys: each key goes to the dataclass field
that owns it (`FormationConfig`, `MpcParams`, `SolverSettings` or
`ScenarioConfig`, one row each in `_KEYS_BY_OWNER`), only when the file
gives it, and that dataclass holds every default and the one number rule,
converts and checks the value.  The loader keeps what belongs to the file
format alone: the literals (`#` starts a comment outside a quoted value), one
line per key, no key it does not know, a count written as a whole float
(`1e3` is 1000), the craft count as the length of `desired` plus one, and
the `state_margin` shorthand for a box of that positive half-width around
the desired state, each side of which an explicit `state_min` or
`state_max` overrides.
`saturation_limit` is the one charge limit: the controller clamps to it and
the `oracle` grid spans it.
"""

from __future__ import annotations

import ast
import itertools

import numpy as np

from .dynamics import FormationConfig, _as_float_vector, _bound
from .horizon import MpcParams
from .simulate import ScenarioConfig
from .solver import SolverSettings


class ConfigError(ValueError):
    """A scenario file is malformed or inconsistent."""


# the keys of each dataclass, its field names but for `output` (ScenarioConfig's
# output_path); the loader reads `desired` and the state box keys itself
_KEYS_BY_OWNER = {
    FormationConfig: ("masses", "min_separation"),
    MpcParams: ("horizon", "state_weight", "product_weight", "product_delta_weight",
                "trace_weight"),
    SolverSettings: ("eps_abs", "eps_rel", "max_iters", "warm_start"),
    ScenarioConfig: ("initial_state", "sample_period", "steps", "substeps", "saturation_limit",
                     "output"),
}
_KNOWN_KEYS = {"desired", "state_min", "state_max", "state_margin",
               *itertools.chain(*_KEYS_BY_OWNER.values())}
_COUNT_KEYS = ("horizon", "steps", "substeps", "max_iters")


def parse_config_text(text: str) -> dict:
    """Parse the key/value lines into a dict of Python values."""
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()  # the line up to a comment
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, literal = raw.partition("=")  # a literal may quote a '#'
        key = key.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: {key!r} is already given on line {first_line[key]}")
        first_line[key] = lineno
        try:  # Python's tokenizer drops a trailing comment
            value = ast.literal_eval(literal.strip())
        except (ValueError, SyntaxError):
            value = line.partition("=")[2].strip()  # bare string (e.g. an output path)
            if value.lower() in ("true", "false"):
                value = value.lower() == "true"
        values[key] = value
    return values


def scenario_from_values(values: dict, overrides: dict | None = None) -> ScenarioConfig:
    """Build a ScenarioConfig from parsed key/value pairs."""
    values = {**values, **{k: v for k, v in (overrides or {}).items() if v is not None}}
    for key in values:
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    for key in _COUNT_KEYS:  # the format writes a count as a whole float too
        value = values.get(key)
        if isinstance(value, float) and value.is_integer():
            values[key] = int(value)
        elif key in values and not isinstance(value, int):
            raise ConfigError(f"{key} must be a whole number, got {value!r}")

    def given(owner):  # a key the file leaves out keeps its dataclass default
        return {"output_path" if key == "output" else key: values[key]
                for key in _KEYS_BY_OWNER[owner] if key in values}

    try:
        if "desired" not in values:
            raise ConfigError("'desired' (relative target positions) is required")
        desired = _as_float_vector(values["desired"], name="desired")
        ns = desired.size + 1
        bounds = {key: values[key] for key in ("state_min", "state_max") if key in values}
        if "state_margin" in values:  # an explicit bound overrides its own side
            center = np.concatenate([desired, np.zeros(ns - 1)])
            margin = _bound(values["state_margin"], center.size, "state_margin", positive=True)
            bounds = {"state_min": center - margin, "state_max": center + margin, **bounds}
        elif len(bounds) < 2:
            raise ConfigError("give state_min/state_max or a state_margin half-width")
        if "initial_state" not in values:
            raise ConfigError("'initial_state' is required")
        return ScenarioConfig(
            formation=FormationConfig(num_spacecraft=ns, **given(FormationConfig)),
            params=MpcParams(desired_positions=desired, **bounds, **given(MpcParams)),
            solver=SolverSettings(**given(SolverSettings)),
            **given(ScenarioConfig),
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
