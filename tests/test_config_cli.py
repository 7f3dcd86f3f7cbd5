from pathlib import Path

import numpy as np
import pytest

from coulombmpc.cli import main
from coulombmpc.config import ConfigError, load_scenario, parse_config_text, scenario_from_values

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
