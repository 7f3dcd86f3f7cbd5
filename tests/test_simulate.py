import dataclasses

import numpy as np
import pytest

from conftest import fourcraft_scenario
from coulombmpc import (
    INVALID_MEASUREMENT,
    FormationConfig,
    MpcController,
    MpcParams,
    RelativeState,
    RunLog,
    ScenarioConfig,
    SolverSettings,
    brute_force_qcqp,
    build_discrete_model,
    charge_products,
    propagate,
    read_csv,
    replay_cost,
    run_closed_loop,
    write_csv,
)
from coulombmpc.simulate import RUN_ABORTED_COLLISION, RUN_COMPLETED


def twocraft_scenario(**kw):
    desired = np.array([50.0])
    formation = FormationConfig(num_spacecraft=2, masses=50.0)
    params = MpcParams(
        horizon=kw.pop("horizon", 3), desired_positions=desired,
        state_weight=np.array([1.0, 20.0]), product_weight=1e-3,
        product_delta_weight=100.0, state_min=np.array([10.0, -5.0]),
        state_max=np.array([500.0, 5.0]), trace_weight=kw.pop("trace_weight", 1e-3),
    )
    defaults = dict(
        formation=formation, params=params, solver=SolverSettings(),
        initial_state=np.array([51.0, 0.0]), sample_period=0.5, steps=5,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


# -- truth propagation ------------------------------------------------------------

def test_zero_charge_propagation_is_pure_drift():
    scen = twocraft_scenario()
    state = RelativeState(np.array([60.0]), np.array([0.25]))
    out = propagate(state, np.zeros(2), 2.0, 10, scen.formation)
    assert np.array_equal(out.velocities, state.velocities)
    assert out.positions[0] == pytest.approx(60.5, abs=1e-12)


@pytest.mark.parametrize("substeps", [0, -1, 2.5])
def test_propagate_rejects_bad_substeps(substeps):
    scen = twocraft_scenario()
    state = RelativeState(np.array([60.0]), np.array([0.25]))
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        propagate(state, np.zeros(2), 0.5, substeps, scen.formation)
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        twocraft_scenario(substeps=substeps)


@pytest.mark.parametrize("steps", [0, -1, 2.5])
def test_scenario_rejects_bad_steps(steps):
    with pytest.raises(ValueError, match="steps must be at least 1"):
        twocraft_scenario(steps=steps)


def test_doubling_substeps_is_integration_converged():
    coarse = run_closed_loop(fourcraft_scenario(steps=60, substeps=10))
    fine = run_closed_loop(fourcraft_scenario(steps=60, substeps=20))
    diff = np.abs(coarse.summary["final_state"] - fine.summary["final_state"]).max()
    assert diff < 1e-6


# -- closed loop --------------------------------------------------------------------

def test_equilibrium_hold():
    scen = twocraft_scenario(
        initial_state=np.array([50.0, 0.0]), steps=25,
        solver=SolverSettings(eps_abs=1e-10, eps_rel=1e-10, max_iters=50000),
    )
    log = run_closed_loop(scen)
    assert log.status == RUN_COMPLETED
    for rec in log.records:
        assert abs(rec.measured[0] - 50.0) <= 1e-6


def test_closed_loop_reduces_deviation():
    scen = twocraft_scenario(initial_state=np.array([51.0, 0.0]), steps=40)
    log = run_closed_loop(scen)
    assert log.status == RUN_COMPLETED
    first = abs(log.records[0].measured[0] - 50.0)
    assert log.summary["final_deviation"] < 0.5 * first


def test_closed_loop_determinism():
    runs = [run_closed_loop(twocraft_scenario(steps=8)) for _ in range(2)]
    for a, b in zip(runs[0].records, runs[1].records):
        assert np.array_equal(a.measured, b.measured)
        assert np.array_equal(a.charges, b.charges)
        assert a.iterations == b.iterations
        assert a.objective == b.objective


def test_collision_aborts_with_partial_log():
    formation = FormationConfig(num_spacecraft=2, masses=50.0, min_separation=4.0)
    params = MpcParams(
        horizon=2, desired_positions=np.array([50.0]),
        state_weight=1.0, product_weight=0.0, product_delta_weight=0.0,
        state_min=np.array([1.0, -5.0]), state_max=np.array([500.0, 5.0]),
    )
    scen = ScenarioConfig(
        formation=formation, params=params, solver=SolverSettings(),
        initial_state=np.array([5.0, -0.5]), sample_period=0.5, steps=20,
        saturation_limit=1e-6,  # no authority to avoid the drift
    )
    log = run_closed_loop(scen)
    assert log.status == RUN_ABORTED_COLLISION
    assert 0 < len(log.records) < 20


def test_summary_fields():
    log = run_closed_loop(twocraft_scenario(steps=6))
    assert set(log.summary) >= {
        "final_deviation", "max_abs_charge", "total_solve_time",
        "fault_count", "saturation_count",
    }
    assert log.summary["fault_count"] == 0
    assert len(log.records) == 6


# -- brute-force oracle ---------------------------------------------------------------

def oracle_cost(start, plan, model, params):
    """Independent rollout cost of a charge plan (direct loop, no reuse)."""
    state = np.asarray(start, dtype=float)
    target = params.desired_state
    total = 0.0
    prev = None
    for q in plan:
        u = charge_products(np.asarray(q))
        state = model.A @ state + model.B @ u
        dev = state - target
        total += dev @ params.state_weight @ dev + u @ params.product_weight @ u
        if prev is not None:
            total += (u - prev) @ params.product_delta_weight @ (u - prev)
        prev = u
    return float(total)


def test_brute_force_guards():
    scen = twocraft_scenario()
    model = build_discrete_model(scen.params.desired_positions, 0.5, scen.formation)
    with pytest.raises(ValueError):
        brute_force_qcqp(scen.initial_state, model, scen.params, np.linspace(-1, 1, 5))
    big = dataclasses.replace(scen.params, horizon=3)
    with pytest.raises(ValueError):
        brute_force_qcqp(scen.initial_state, model, big, np.linspace(-1, 1, 21))


def test_brute_force_equilibrium_prefers_zero():
    scen = twocraft_scenario(horizon=1)
    model = build_discrete_model(scen.params.desired_positions, 0.5, scen.formation)
    grid = np.linspace(-0.2, 0.2, 41)  # grid containing exact zero
    best_q, best_cost = brute_force_qcqp(
        np.array([50.0, 0.0]), model, scen.params, grid)
    assert best_cost == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(charge_products(best_q[0]), 0.0, atol=1e-12)


def test_brute_force_matches_independent_rollout():
    scen = twocraft_scenario(horizon=2)
    model = build_discrete_model(scen.params.desired_positions, 0.5, scen.formation)
    grid = np.linspace(-0.2, 0.2, 21)
    start = np.array([50.4, -0.01])
    best_q, best_cost = brute_force_qcqp(start, model, scen.params, grid)
    assert best_cost == pytest.approx(oracle_cost(start, best_q, model, scen.params), rel=1e-12)


def test_three_craft_products_never_all_negative():
    # sign structure: the product of the three pair products is a square
    grid = np.linspace(-0.3, 0.3, 21)
    qs = np.stack(np.meshgrid(grid, grid, grid), axis=-1).reshape(-1, 3)
    products = np.stack([charge_products(q) for q in qs])
    assert not np.any(np.all(products < 0.0, axis=1))


# -- CSV telemetry -----------------------------------------------------------------

def test_csv_empty_log_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(RunLog(records=[], status=RUN_COMPLETED), path, num_spacecraft=4)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("k,t,xi_1,xi_2,xi_3,nu_1")


def test_csv_round_trip_bitwise(tmp_path):
    log = run_closed_loop(twocraft_scenario(steps=7))
    path = tmp_path / "run.csv"
    write_csv(log, path)
    parsed = read_csv(path)
    assert len(parsed) == len(log.records)
    for a, b in zip(log.records, parsed):
        assert a.step == b.step and a.time == b.time
        assert np.array_equal(a.measured, b.measured)
        assert np.array_equal(a.charges, b.charges)
        assert np.array_equal(a.products, b.products)
        assert a.rank_ratio == b.rank_ratio
        assert a.solver_status == b.solver_status
        assert a.iterations == b.iterations
        assert a.solve_time == b.solve_time
        assert a.saturated == b.saturated


def test_csv_round_trip_keeps_invalid_measurement_record(tmp_path):
    scen = twocraft_scenario()
    model = build_discrete_model(scen.params.desired_positions, scen.sample_period, scen.formation)
    controller = MpcController(model, scen.params, scen.solver)
    records = [controller.step(scen.initial_state)[1],
               controller.step(np.array([np.nan, 0.0]))[1]]
    assert records[1].solver_status == INVALID_MEASUREMENT
    path = tmp_path / "fault.csv"
    write_csv(RunLog(records=records, status=RUN_COMPLETED), path)
    parsed = read_csv(path)
    assert len(parsed) == 2
    for a, b in zip(records, parsed):
        assert a.step == b.step and a.time == b.time
        assert np.array_equal(a.measured, b.measured, equal_nan=True)
        assert np.array_equal(a.charges, b.charges)
        assert np.array_equal(a.products, b.products)
        assert np.array_equal(a.rank_ratio, b.rank_ratio, equal_nan=True)
        assert a.solver_status == b.solver_status
        assert a.iterations == b.iterations
        assert a.solve_time == b.solve_time
        assert a.saturated == b.saturated


def test_csv_rejects_foreign_layout(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_replay_cost_consistency(tmp_path):
    scen = twocraft_scenario(steps=6)
    log = run_closed_loop(scen)
    path = tmp_path / "run.csv"
    write_csv(log, path)
    stats = replay_cost(read_csv(path), scen.params)
    assert stats["steps"] == 6
    assert stats["max_product_error"] == 0.0
    assert stats["tracking_cost"] > 0.0


def test_replay_cost_skips_invalid_measurement(tmp_path):
    scen = twocraft_scenario()
    model = build_discrete_model(scen.params.desired_positions, scen.sample_period, scen.formation)
    controller = MpcController(model, scen.params, scen.solver)
    records = [controller.step(scen.initial_state)[1],
               controller.step(np.array([np.nan, 0.0]))[1]]
    path = tmp_path / "fault.csv"
    write_csv(RunLog(records=records, status=RUN_COMPLETED), path)
    stats = replay_cost(read_csv(path), scen.params)
    good = replay_cost(records[:1], scen.params)
    assert stats["steps"] == 2
    assert good["tracking_cost"] > 0.0
    assert stats["tracking_cost"] == good["tracking_cost"]
