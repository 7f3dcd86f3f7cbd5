import re
from pathlib import Path

import numpy as np
import pytest

from coulombmpc.cli import main
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
        """
    )
    assert values == {
        "masses": [50.0, 60.0], "horizon": 7, "warm_start": False, "desired": [50.0]
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
    with pytest.raises(ConfigError):
        scenario_from_values({
            "desired": [50.0, 100.0], "initial_state": [50.0, 100.0, 0.0, 0.0],
            "state_margin": 10.0, "num_spacecraft": 4,
        })


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
    (["state_margin = 1e999"], "state_min must be finite"),
    (["state_min = [10.0, -5.0]", "state_max = [1e999, 5.0]"], "state_max must be finite"),
    (["state_margin = 40.0", "product_min = -1e999", "product_max = 1.0"],
     "product_min must be finite"),
], ids=["infinite-margin", "infinite-state-max", "infinite-product-min"])
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
    ("coulomb_constant = 1e999", "coulomb_constant must be finite and positive"),
    ("masses = nan", "masses must be finite and positive"),
    ("sample_period = 1e999", "sample_period must be finite and positive"),
    ("product_weight = 1e999", "product_weight must be finite"),
    ("state_weight = nan", "state_weight must be finite"),
    ("warm_start = flase", "warm_start must be true or false"),
    ("steps = true", "steps must be at least 1"),
    ("desired = abc", "desired must be numeric"),
    ("masses = true", "masses must not be true or false"),
    ("saturation_limit = true", "saturation_limit must not be true or false"),
    ("eps_abs = true", "eps_abs must not be true or false"),
    ("state_margin = true", "state_margin must not be true or false"),
    ("trace_weight = false", "trace_weight must not be true or false"),
    ("state_weight = [1.0, True]", "state_weight must not be true or false"),
])
def test_bad_values_are_config_errors(tmp_path, capsys, line, message):
    # a fractional count used to be truncated by int(), and a non-finite
    # trace weight failed inside the solver; the solver's tuning has no keys.
    # A NaN separation would turn collision detection off, a non-finite
    # constant, mass, period or weight would fail every solve (exit 2, no key
    # named) or run on, a typo of a bool would read as true, and a bool would
    # read as a count or as the number 1 or 0
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


def test_bool_output_path_is_config_error(tmp_path):
    # True is the int 1: open(True) would write the CSV to standard output
    with pytest.raises(ConfigError, match="output must not be true or false"):
        load_scenario(twocraft_with(tmp_path, "output = true"))


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
