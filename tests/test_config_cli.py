import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from coulombmpc.cli import _overrides, build_parser, main
from coulombmpc.config import (
    _KNOWN_KEYS,
    ConfigError,
    load_scenario,
    parse_config_text,
    scenario_from_values,
)

REPO = Path(__file__).resolve().parents[1]
FOURCRAFT_CFG = REPO / "configs" / "fourcraft.cfg"
TWOCRAFT_CFG = REPO / "configs" / "twocraft.cfg"


def test_parse_config_text_literals():
    values = parse_config_text(
        """
        # comment line
        masses = [50.0, 60.0]   # trailing comment
        horizon = 7
        warm_start = false
        desired = [50.0]
        output = 'a#b.csv'  # a quoted '#' is no comment
        """
    )
    assert values == {
        "masses": [50.0, 60.0], "horizon": 7, "warm_start": False, "desired": [50.0],
        "output": "a#b.csv",
    }


def test_parse_rejects_unknown_key():
    for line in ("massess = 1.0", "charge_min = -0.2"):
        with pytest.raises(ConfigError):
            parse_config_text(line)


def test_garbage_numeric_value_rejected():
    with pytest.raises(ConfigError):
        scenario_from_values(parse_config_text(
            "desired = [50.0]\ninitial_state = [50.0, 0.0]\n"
            "state_margin = 10.0\nmasses = not a number"
        ))


def test_shipped_fourcraft_config_loads():
    scen = load_scenario(FOURCRAFT_CFG)
    assert scen.formation.num_spacecraft == 4
    assert np.allclose(scen.formation.masses, 750.0)
    assert scen.params.horizon == 9
    assert scen.params.trace_weight == 1.5
    assert np.allclose(np.diag(scen.params.state_weight), [1, 1, 1, 400, 400, 400])
    assert np.allclose(np.diag(scen.params.product_delta_weight), 1e8)
    assert scen.sample_period == 0.5
    assert scen.steps == 2400
    assert scen.saturation_limit == 0.1
    center = np.array([50.0, 100.0, 150.0, 0.0, 0.0, 0.0])
    assert np.allclose(scen.params.state_min, center - 10)
    assert np.allclose(scen.params.state_max, center + 10)


def test_overrides_win():
    scen = load_scenario(FOURCRAFT_CFG, {"steps": 10, "horizon": 3, "warm_start": False})
    assert scen.steps == 10
    assert scen.params.horizon == 3
    assert scen.solver.warm_start is False


def test_missing_required_keys():
    with pytest.raises(ConfigError):
        scenario_from_values({"desired": [50.0]})  # no initial_state
    with pytest.raises(ConfigError):
        scenario_from_values({"initial_state": [50.0, 0.0]})  # no desired
    with pytest.raises(ConfigError):
        scenario_from_values(
            {"desired": [50.0], "initial_state": [50.0, 0.0]}  # no bounds
        )


def test_inconsistent_counts_rejected():
    # the craft count is the length of desired plus one, so it is no key; an
    # unknown key given through the Python API was silently dropped
    with pytest.raises(ConfigError, match="unknown key 'num_spacecraft'"):
        scenario_from_values({
            "desired": [50.0, 100.0], "initial_state": [50.0, 100.0, 0.0, 0.0],
            "state_margin": 10.0, "num_spacecraft": 4,
        })
    with pytest.raises(ConfigError, match="unknown key 'horizn'"):
        load_scenario(FOURCRAFT_CFG, {"warm_start": False, "horizn": 3})


def test_cli_flags_map_to_their_scenario_keys():
    # each flag's dest is its key, and a flag left out (None) keeps the file's value
    args = build_parser().parse_args(["run", "--config", "x.cfg", "--steps", "4", "--horizon", "3",
                                      "--no-warm-start", "--output", "o.csv"])
    assert _overrides(args) == {"steps": 4, "horizon": 3, "warm_start": False, "output": "o.csv"}
    args = build_parser().parse_args(["oracle", "--config", "x.cfg"])
    assert _overrides(args) == {"steps": None, "horizon": None, "warm_start": None}
    scen = load_scenario(FOURCRAFT_CFG, _overrides(args))
    assert (scen.steps, scen.params.horizon, scen.solver.warm_start) == (2400, 9, True)


def test_cli_run_writes_csv(tmp_path, capsys):
    out = tmp_path / "short.csv"
    code = main([
        "run", "--config", str(FOURCRAFT_CFG), "--steps", "4",
        "--output", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert "final deviation" in capsys.readouterr().out


def test_cli_replay_cost(tmp_path, capsys):
    out = tmp_path / "short.csv"
    assert main(["run", "--config", str(TWOCRAFT_CFG), "--steps", "5",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay-cost", str(out), "--config", str(TWOCRAFT_CFG)]) == 0
    text = capsys.readouterr().out
    assert "tracking cost" in text
    assert "max product error: 0" in text


@pytest.mark.parametrize("edit", ["truncated", "extra-field", "unparseable-field"])
def test_cli_replay_cost_rejects_bad_row(tmp_path, capsys, edit):
    out = tmp_path / "short.csv"
    assert main(["run", "--config", str(TWOCRAFT_CFG), "--steps", "3",
                 "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    fields = lines[2].split(",")
    lines[2] = ",".join({"truncated": fields[:-3], "extra-field": fields + ["0"],
                         "unparseable-field": [fields[0], "abc", *fields[2:]]}[edit])
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    # a runtime error naming the line, not an uncaught IndexError or a silent pass
    assert main(["replay-cost", str(out), "--config", str(TWOCRAFT_CFG)]) == 2
    err = capsys.readouterr().err
    assert f"{out} line 3: " in err
    assert edit != "unparseable-field" or "could not convert string to float: 'abc'" in err


def test_cli_replay_cost_rejects_other_craft_count(tmp_path, capsys):
    # a two-craft log against the four-craft scenario raised a bare numpy
    # broadcast error that named neither count
    out = tmp_path / "short.csv"
    assert main(["run", "--config", str(TWOCRAFT_CFG), "--steps", "2",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay-cost", str(out), "--config", str(FOURCRAFT_CFG)]) == 2
    assert "the telemetry is of 2 spacecraft, the scenario of 4" in capsys.readouterr().err


def test_cli_oracle(capsys):
    code = main(["oracle", "--config", str(TWOCRAFT_CFG), "--grid-points", "41"])
    assert code == 0
    text = capsys.readouterr().out
    grid_cost = float(text.split("grid optimum cost:")[1].split()[0])
    sdr_cost = float(text.split("relaxation optimum cost:")[1].split()[0])
    # the configured run carries a small trace weight and default tolerances,
    # so the lower bound here is only good to diagnostic accuracy
    assert sdr_cost <= grid_cost + 1e-4


def test_cli_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
    no_authority = tmp_path / "no_authority.cfg"
    kept = [line for line in TWOCRAFT_CFG.read_text().splitlines()
            if not line.startswith("saturation_limit")]
    no_authority.write_text("\n".join(kept + ["saturation_limit = 0"]) + "\n")
    for command in ("run", "oracle"):
        assert main([command, "--config", str(no_authority)]) == 1


@pytest.mark.parametrize("lines,message", [
    (["state_margin = 1e999"], "state_margin must be finite and positive"),
    (["state_min = [10.0, -5.0]", "state_max = [1e999, 5.0]"], "state_max must be finite"),
], ids=["infinite-margin", "infinite-state-max"])
def test_nonfinite_bounds_are_config_errors(tmp_path, capsys, lines, message):
    # the literal 1e999 parses to inf; a bound must be finite, so the file is
    # rejected up front (exit 1) rather than failing every control step
    cfg = tmp_path / "unbounded.cfg"
    kept = [line for line in TWOCRAFT_CFG.read_text().splitlines()
            if not line.startswith("state_margin")]
    cfg.write_text("\n".join(kept + lines) + "\n")
    with pytest.raises(ConfigError, match=message):
        load_scenario(cfg)
    assert main(["run", "--config", str(cfg), "--steps", "2",
                 "--output", str(tmp_path / "out.csv")]) == 1
    assert message in capsys.readouterr().err


def twocraft_with(tmp_path, *lines):
    """The shipped two-craft file with ``lines`` replacing the keys they set."""
    keys = {line.split("=")[0].strip() for line in lines}
    kept = [line for line in TWOCRAFT_CFG.read_text().splitlines()
            if line.split("=")[0].strip() not in keys]
    cfg = tmp_path / "edited.cfg"
    cfg.write_text("\n".join(kept + list(lines)) + "\n")
    return cfg


@pytest.mark.parametrize("line,message", [
    ("steps = 2.5", "steps must be a whole number"),
    ("substeps = 9.5", "substeps must be a whole number"),
    ("max_iters = 2.5", "max_iters must be a whole number"),
    ("horizon = 1.5", "horizon must be a whole number"),
    ("steps = nan", "steps must be a whole number"),
    ("steps = 1e999", "steps must be a whole number"),
    ("trace_weight = nan", "trace_weight must be finite"),
    ("trace_weight = 1e999", "trace_weight must be finite"),
    ("rho = 1.0", "unknown key 'rho'"),
    ("adaptive_rho = false", "unknown key 'adaptive_rho'"),
    ("min_separation = nan", "min_separation must be finite and positive"),
    ("product_min = -1.0", "unknown key 'product_min'"),
    ("product_max = 1.0", "unknown key 'product_max'"),
    ("num_spacecraft = 2", "unknown key 'num_spacecraft'"),
    ("coulomb_constant = 1.0", "unknown key 'coulomb_constant'"),
    ("masses = nan", "masses must be finite and positive"),
    ("sample_period = 1e999", "sample_period must be finite and positive"),
    ("product_weight = 1e999", "product_weight must be finite"),
    ("state_weight = nan", "state_weight must be finite"),
    ("warm_start = flase", "warm_start must be true or false"),
    ("steps = true", "steps must be at least 1"),
    ("desired = abc", "desired must be numeric"),
    ("masses = true", "masses must be a number, not true or false"),
    ("saturation_limit = true", "saturation_limit must be a number, not true or false"),
    ("eps_abs = true", "eps_abs must be a number, not true or false"),
    ("state_margin = true", "state_margin must be a number, not true or false"),
    ("trace_weight = false", "trace_weight must be a number, not true or false"),
    ("state_weight = [1.0, True]", "state_weight must be a number, not true or false"),
    ("eps_abs = abc", "eps_abs must be numeric"),
    ("sample_period = fast", "sample_period must be numeric"),
    ("state_margin = wide", "state_margin must be numeric"),
    ("state_margin = [1.0, 2.0, 3.0]", "state_margin must have length 2"),
    ("state_margin = nan", "state_margin must be finite and positive"),
    ("state_margin = -1.0", "state_margin must be finite and positive"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, line, message):
    # a fractional count used to be truncated by int(), and a non-finite
    # trace weight failed inside the solver; the solver's tuning, the craft
    # count, the Coulomb constant and a product box have no keys.
    # A NaN separation would turn collision detection off, a non-finite
    # mass, period or weight would fail every solve (exit 2, no key
    # named) or run on, a typo of a bool would read as true, a bool would
    # read as a count or as the number 1 or 0, and a margin of the wrong
    # length, NaN or below 0 was reported as a broadcast error or a state bound
    cfg = twocraft_with(tmp_path, line)
    with pytest.raises(ConfigError, match=message):
        load_scenario(cfg)
    # no --steps: the command-line value would replace the file's
    assert main(["run", "--config", str(cfg), "--output", str(tmp_path / "out.csv")]) == 1
    assert message in capsys.readouterr().err


def test_readme_key_table_lists_every_key():
    text = (REPO / "README.md").read_text()
    table = text[text.index("| key | meaning | default |"):text.index("### CSV columns")]
    rows = [row.split("|")[1] for row in table.splitlines()[2:] if row.startswith("|")]
    assert {key for row in rows for key in re.findall(r"`(\w+)`", row)} == _KNOWN_KEYS


@pytest.mark.parametrize("field,value,message", [
    ("params", {"state_weight": True}, "state_weight must be a number, not true or false"),
    ("params", {"state_weight": "abc"}, "state_weight must be numeric"),
    ("params", {"state_min": True}, "state_min must be a number, not true or false"),
    ("params", {"state_min": "abc"}, "state_min must be numeric"),
    ("params", {"desired_positions": True}, "desired_positions must be a number, not true or"),
    ("params", {"desired_positions": "abc"}, "desired_positions must be numeric"),
    ("solver", {"eps_abs": True}, "eps_abs must be a number, not true or false"),
    ("solver", {"eps_abs": "abc"}, "eps_abs must be numeric"),
    (None, {"initial_state": True}, "initial_state must be a number, not true or false"),
    (None, {"initial_state": "abc"}, "initial_state must be numeric"),
])
def test_bad_values_from_the_api_name_their_field(field, value, message):
    # the dataclasses own the number rule, so the Python API gets the file's errors
    scenario = load_scenario(TWOCRAFT_CFG)
    with pytest.raises(ValueError, match=message):
        if field is None:
            dataclasses.replace(scenario, **value)
        else:
            dataclasses.replace(getattr(scenario, field), **value)


@pytest.mark.parametrize("line", ["output = true", "output = 2"])
def test_bool_output_path_is_config_error(tmp_path, line):
    # True is the int 1 and 2 an int: open() of either writes the CSV to a file
    # descriptor (standard output or error) and closes it
    with pytest.raises(ConfigError, match="output must be a str, os.PathLike or None"):
        load_scenario(twocraft_with(tmp_path, line))


def test_quoted_hash_stays_in_the_output_path(tmp_path):
    # the comment used to be cut first, so the CSV went to a file named "'a"
    out = tmp_path / "a#b.csv"
    assert main(["run", "--config", str(twocraft_with(tmp_path, f"output = '{out}'  # x")),
                 "--steps", "2"]) == 0
    assert len(out.read_text().splitlines()) == 3


def test_output_path_must_be_a_path():
    scenario = load_scenario(TWOCRAFT_CFG)
    assert dataclasses.replace(scenario, output_path=Path("out.csv")).output_path == Path("out.csv")
    for value in (2, True, 0.5):
        with pytest.raises(ValueError, match="output must be a str, os.PathLike or None"):
            dataclasses.replace(scenario, output_path=value)


def test_duplicate_key_is_config_error(tmp_path):
    # the later line used to win silently
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("masses = 50.0\ndesired = [50.0]\nmasses = 60.0\n")
    with pytest.raises(ConfigError, match="line 3: 'masses' is already given on line 1"):
        load_scenario(cfg)
    assert main(["run", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("line,box", [
    ("state_min = [45.0, -1.0]", ([45.0, -1.0], [90.0, 40.0])),
    ("state_max = [55.0, 1.0]", ([10.0, -40.0], [55.0, 1.0])),
])
def test_lone_bound_overrides_its_side_of_the_margin(tmp_path, line, box):
    # state_margin = 40 gives [10, -40] .. [90, 40]; one explicit bound used to
    # be dropped for the margin's
    scen = load_scenario(twocraft_with(tmp_path, line))
    assert (scen.params.state_min.tolist(), scen.params.state_max.tolist()) == box


def test_whole_float_counts_load(tmp_path):
    scen = load_scenario(twocraft_with(tmp_path, "steps = 1e3", "max_iters = 5e3"))
    assert (scen.steps, scen.solver.max_iters) == (1000, 5000)
    assert type(scen.steps) is int and type(scen.solver.max_iters) is int


@pytest.mark.parametrize("config,extra,message", [
    (TWOCRAFT_CFG, ["--grid-points", "5"], "at least 21 charge levels"),
    (FOURCRAFT_CFG, [], "limited to <= 3 spacecraft"),
], ids=["too-few-grid-points", "too-many-craft"])
def test_cli_oracle_usage_error_exit_code(capsys, config, extra, message):
    # a request outside the grid search's limits is a configuration error
    assert main(["oracle", "--config", str(config), *extra]) == 1
    assert message in capsys.readouterr().err


def test_cli_runtime_abort_exit_code(tmp_path):
    cfg = tmp_path / "collide.cfg"
    cfg.write_text(
        "\n".join([
            "masses = 50.0",
            "desired = [50.0]",
            "initial_state = [5.0, -0.5]",
            "state_min = [1.0, -5.0]",
            "state_max = [500.0, 5.0]",
            "min_separation = 4.0",
            "saturation_limit = 1e-6",
            "horizon = 2",
            "state_weight = 1.0",
            "steps = 20",
        ])
    )
    assert main(["run", "--config", str(cfg)]) == 2
