import numpy as np
import pytest

from conftest import fourcraft_formation, fourcraft_params
from coulombmpc import (
    INVALID_MEASUREMENT,
    MpcController,
    RelativeState,
    SolverSettings,
    build_discrete_model,
    charge_products,
    propagate,
    warm_start_payload,
)
from coulombmpc import solver as solver_module
from coulombmpc.solver import MAX_ITERS, OPTIMAL


def make_controller(mass=750.0, **solver_kw):
    formation = fourcraft_formation(mass)
    params = fourcraft_params()
    model = build_discrete_model(params.desired_positions, 0.5, formation)
    controller = MpcController(
        model, params, SolverSettings(**solver_kw), saturation_limit=0.1
    )
    return controller, formation, params, model


def test_equilibrium_step_commands_negligible_charge():
    # the recovered charge scales like sqrt(solver tolerance) at the
    # equilibrium, so pin the tolerance tightly for this check
    controller, _, params, _ = make_controller(eps_abs=1e-10, eps_rel=1e-10, max_iters=50000)
    charges, record = controller.step(params.desired_state)
    assert record.solver_status == OPTIMAL
    assert np.linalg.norm(charges) <= 1e-3 * controller.saturation_limit
    assert not record.saturated


def test_first_step_from_offset_saturates():
    controller, _, _, _ = make_controller()
    charges, record = controller.step(np.array([53.0, 109.0, 147.0, 0.0, 0.0, 0.0]))
    assert record.saturated
    assert np.abs(charges).max() == pytest.approx(0.1, abs=1e-12)


def test_products_recomputed_from_charges():
    controller, _, _, _ = make_controller()
    charges, record = controller.step(np.array([52.0, 103.0, 149.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(record.products, charge_products(charges))
    assert np.abs(charges).max() <= 0.1 + 1e-15


def test_fault_path_applies_zero_and_continues():
    controller, _, _, _ = make_controller(max_iters=1)
    measured = np.array([53.0, 109.0, 147.0, 0.0, 0.0, 0.0])
    charges, record = controller.step(measured)
    assert record.solver_status == MAX_ITERS
    assert np.array_equal(charges, np.zeros(4))
    assert controller.previous_result is None  # warm start not poisoned
    charges, record = controller.step(measured)
    assert (record.step, record.solver_status) == (1, MAX_ITERS)
    assert np.array_equal(charges, np.zeros(4))


def test_nonfinite_measurement_takes_fault_path_without_solving():
    controller, _, _, _ = make_controller()
    good = np.array([53.0, 109.0, 147.0, 0.0, 0.0, 0.0])
    controller.step(good)
    warm = controller.previous_result

    def no_solve(*args, **kwargs):
        raise AssertionError("the solver must not see a non-finite measurement")

    controller._solver.solve = no_solve
    for step, bad_value in enumerate((np.nan, np.inf, -np.inf), start=1):
        bad = good.copy()
        bad[0] = bad_value
        charges, record = controller.step(bad)
        assert np.array_equal(charges, np.zeros(4))
        assert (record.step, record.solver_status) == (step, INVALID_MEASUREMENT)
        assert record.iterations == 0
        assert not record.saturated
        assert np.isnan(record.rank_ratio)
        assert controller.previous_result is warm  # warm start kept
    assert controller.step_count == 4


@pytest.mark.parametrize("limit,rule", [
    (0.0, "finite and positive"), (-0.1, "finite and positive"), (np.nan, "finite and positive"),
    (np.inf, "finite and positive"), (True, "a number, not true or false"),
])
def test_bad_saturation_limit_rejected_at_construction(limit, rule):
    # a NaN limit would apply NaN charges at step 0 and make every later step
    # an invalid measurement
    formation = fourcraft_formation(750.0)
    params = fourcraft_params()
    model = build_discrete_model(params.desired_positions, 0.5, formation)
    with pytest.raises(ValueError, match=f"saturation_limit must be {rule}"):
        MpcController(model, params, SolverSettings(), saturation_limit=limit)


@pytest.mark.parametrize("bad", [
    [53.0, 109.0, 147.0, 0.0, 0.0],
    [np.nan, 109.0, 147.0, 0.0, 0.0],
    [53.0, 109.0, 147.0, 0.0, 0.0, 0.0, np.nan],
    [[53.0, 109.0, 147.0], [0.0, 0.0, 0.0]],
])
def test_wrong_length_measurement_still_raises(bad):
    # the pin is the one shape check, NaN or not; a right-length NaN
    # measurement is a logged fault, not an error
    controller, _, _, _ = make_controller()
    with pytest.raises(ValueError, match="measured state has the wrong dimension"):
        controller.step(np.array(bad))
    assert controller.step_count == 0
    charges, record = controller.step(np.array([np.nan, 109.0, 147.0, 0.0, 0.0, 0.0]))
    assert (record.step, record.solver_status) == (0, INVALID_MEASUREMENT)
    assert np.array_equal(charges, np.zeros(4))
    assert controller.step_count == 1


def test_warm_start_payload_policy():
    # only the policy is left: the previous result when warm starting is on
    controller, _, _, _ = make_controller()
    controller.step(np.array([52.0, 104.0, 148.5, 0.0, 0.0, 0.0]))
    previous = controller.previous_result
    assert previous is not None
    assert warm_start_payload(previous, SolverSettings()) is previous
    assert warm_start_payload(previous, SolverSettings(warm_start=False)) is None
    assert warm_start_payload(None, SolverSettings()) is None


def test_solver_workspace_built_on_first_step(monkeypatch):
    # construction stays cheap: equilibration and factorization wait for a solve
    factorizations = []
    splu = solver_module.splu
    monkeypatch.setattr(solver_module, "splu", lambda kkt: factorizations.append(1) or splu(kkt))
    controller, _, _, _ = make_controller()
    assert factorizations == []
    controller.step(np.array([52.0, 104.0, 148.5, 0.0, 0.0, 0.0]))
    assert len(factorizations) >= 1


def test_consecutive_steps_reuse_warm_start():
    controller, formation, _, _ = make_controller()
    state = RelativeState.from_vector(np.array([52.0, 104.0, 148.5, 0.0, 0.0, 0.0]))
    iters = []
    for _ in range(6):
        charges, record = controller.step(state)
        iters.append(record.iterations)
        state = propagate(state, charges, 0.5, 10, formation)
    assert min(iters[1:]) < iters[0]  # warm-started solves settle quickly


def test_controller_replay_is_deterministic():
    measureds = [
        np.array([53.0, 109.0, 147.0, 0.0, 0.0, 0.0]),
        np.array([52.9, 108.8, 147.1, -0.01, -0.02, 0.01]),
        np.array([52.8, 108.6, 147.2, -0.01, -0.02, 0.01]),
    ]
    records = []
    for _ in range(2):
        controller, _, _, _ = make_controller()
        records.append([controller.step(m)[1] for m in measureds])
    for a, b in zip(*records):
        assert np.array_equal(a.charges, b.charges)
        assert a.iterations == b.iterations
        assert a.rank_ratio == b.rank_ratio


def test_one_step_prediction_tracks_truth_near_reference():
    # in the drift-dominated regime near the reference geometry the frozen
    # model's one-step prediction stays within 1% of the true state change
    _, formation, params, model = make_controller()
    rng = np.random.default_rng(11)
    for _ in range(10):
        offset = rng.uniform(-1.0, 1.0, 3)
        velocity = rng.uniform(-0.1, 0.1, 3)
        velocity += 0.05 * np.sign(velocity + 1e-12)  # keep drift non-negligible
        charges = rng.uniform(-0.05, 0.05, 4)
        state = RelativeState(params.desired_positions + offset, velocity)
        vec = state.as_vector()
        predicted = model.A @ vec + model.B @ charge_products(charges)
        truth = propagate(state, charges, 0.5, 10, formation).as_vector()
        change = np.linalg.norm(truth - vec)
        assert np.linalg.norm(predicted - truth) <= 0.01 * change
