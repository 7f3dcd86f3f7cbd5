import copy
import dataclasses
import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

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
    StepRecord,
    brute_force_qcqp,
    build_discrete_model,
    charge_products,
    propagate,
    read_csv,
    replay_cost,
    run_closed_loop,
    write_csv,
)
from coulombmpc import dynamics
from coulombmpc.config import load_scenario
from coulombmpc.simulate import (ORACLE_MAX_COMBINATIONS, RUN_ABORTED_COLLISION,
                                 RUN_ABORTED_NONFINITE, RUN_COMPLETED)
from coulombmpc.solver import OPTIMAL


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


@pytest.mark.parametrize("substeps", [0, -1, 2.5, True])
def test_propagate_rejects_bad_substeps(substeps):
    scen = twocraft_scenario()
    state = RelativeState(np.array([60.0]), np.array([0.25]))
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        propagate(state, np.zeros(2), 0.5, substeps, scen.formation)
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        twocraft_scenario(substeps=substeps)


@pytest.mark.parametrize("steps", [0, -1, 2.5, True])
def test_scenario_rejects_bad_steps(steps):
    with pytest.raises(ValueError, match="steps must be at least 1"):
        twocraft_scenario(steps=steps)


@pytest.mark.parametrize("field, value", [
    ("steps", 2.5), ("substeps", 0), ("sample_period", -0.5), ("saturation_limit", np.nan),
    ("initial_state", np.array([51.0, np.inf])),
])
def test_scenario_is_frozen_and_replace_checks(field, value):
    # an assignment would go around the checks, and a bad count would fail
    # later inside run_closed_loop: the one way to change a field is replace
    scen = twocraft_scenario()
    before = getattr(scen, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(scen, field, value)
    assert getattr(scen, field) is before
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(scen, **{field: value})
    moved = dataclasses.replace(scen, steps=np.int64(3), sample_period=np.float64(0.25))
    assert (type(moved.steps), type(moved.sample_period)) == (int, float)
    assert (moved.steps, moved.sample_period) == (3, 0.25)


@pytest.mark.parametrize("field", ["sample_period", "saturation_limit"])
@pytest.mark.parametrize("value,rule", [
    (0.0, "finite and positive"), (-0.5, "finite and positive"), (np.nan, "finite and positive"),
    (np.inf, "finite and positive"), (True, "a number, not true or false"),
])
def test_scenario_rejects_bad_period_and_limit(field, value, rule):
    # a bool would build with 1.0: only the scenario file loader rejected it
    with pytest.raises(ValueError, match=f"{field} must be {rule}"):
        twocraft_scenario(**{field: value})


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


def test_nonfinite_hold_aborts_with_partial_log():
    # the cube of a 1e-150 m separation underflows to 0, so the first hold
    # ends in NaN, which the next hold could not start from
    scen = dataclasses.replace(
        load_scenario(Path(__file__).resolve().parent.parent / "configs" / "twocraft.cfg"),
        initial_state=[1e-150, 0.0],
        formation=FormationConfig(2, 50.0, min_separation=1e-200))
    with np.errstate(divide="ignore", invalid="ignore"):
        log = run_closed_loop(scen)
    assert log.status == RUN_ABORTED_NONFINITE
    assert [(r.step, r.solver_status) for r in log.records] == [(0, OPTIMAL)]
    assert log.records[0].measured.tolist() == [1e-150, 0.0]
    assert np.isnan(log.summary["final_state"]).all()
    assert log.summary["fault_count"] == 0 and log.summary["max_abs_charge"] > 0.0


def test_summary_fields():
    log = run_closed_loop(twocraft_scenario(steps=6))
    assert set(log.summary) >= {
        "final_deviation", "max_abs_charge", "total_solve_time",
        "fault_count", "saturation_count",
    }
    assert log.summary["fault_count"] == 0
    assert len(log.records) == 6


def test_fault_count_is_the_non_optimal_records():
    # a cold first solve runs out of iterations; the warm-started ones do not
    log = run_closed_loop(twocraft_scenario(steps=8, solver=SolverSettings(max_iters=100)))
    faults = sum(1 for r in log.records if r.solver_status != OPTIMAL)
    assert 0 < faults < len(log.records)
    assert log.summary["fault_count"] == faults


def test_scenario_keeps_its_own_initial_state():
    # the scenario kept the caller's buffer, and RelativeState.from_vector
    # returned views of it
    x0 = np.array([51.0, 0.0])
    scen = twocraft_scenario(initial_state=x0)
    x0[0] = 60.0
    assert np.array_equal(scen.initial_state, [51.0, 0.0])
    with pytest.raises(ValueError, match="read-only"):
        scen.initial_state[0] = 60.0


def config_leaves(config, prefix=""):
    """Every field of a config dataclass and of the ones it holds, by path."""
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if dataclasses.is_dataclass(value):
            yield from config_leaves(value, f"{prefix}{field.name}.")
        else:
            yield f"{prefix}{field.name}", value


# the shipped file, and a full (not diagonal) state weight matrix
@pytest.mark.parametrize("scenario", [
    lambda: load_scenario(Path(__file__).resolve().parent.parent / "configs" / "twocraft.cfg",
                          {"steps": 3}),
    lambda: twocraft_scenario(steps=3, params=dataclasses.replace(
        twocraft_scenario().params, state_weight=np.array([[1.0, 0.5], [0.5, 20.0]]))),
], ids=["shipped", "full-weight"])
@pytest.mark.parametrize("duplicate", [
    copy.deepcopy, lambda config: pickle.loads(pickle.dumps(config))
], ids=["deepcopy", "pickle"])
@pytest.mark.bitexact
def test_scenario_copies_are_rebuilt_through_their_checks(scenario, duplicate):
    # a copied or unpickled scenario kept writable arrays: pickle does not
    # keep numpy's writeable flag, and a restored dataclass skips its checks
    scen = scenario()
    twin = duplicate(scen)
    leaves, twin_leaves = dict(config_leaves(scen)), dict(config_leaves(twin))
    assert twin_leaves.keys() == leaves.keys()
    arrays = [name for name, value in leaves.items() if isinstance(value, np.ndarray)]
    assert len(arrays) == 8
    for name, value in twin_leaves.items():
        if name in arrays:
            assert not value.flags.writeable, name
            assert value.shape == leaves[name].shape, name
            assert value.tobytes() == leaves[name].tobytes(), name
        else:
            assert value == leaves[name], name
    runs = [run_closed_loop(config).records for config in (scen, twin)]
    # every CSV field but the wall time, field 8
    assert [record_fields(r)[:8] + record_fields(r)[9:] for r in runs[1]] == \
        [record_fields(r)[:8] + record_fields(r)[9:] for r in runs[0]]
    assert len(runs[0]) == 3


def test_caller_edits_reach_neither_the_log_nor_the_controller():
    # the record kept the caller's measurement buffer, and the returned charges
    # were the record's and the next step's sign reference
    scen = twocraft_scenario(steps=6)
    model = build_discrete_model(scen.params.desired_positions, scen.sample_period, scen.formation)
    runs = []
    for meddle in (False, True):
        controller = MpcController(model, scen.params, scen.solver)
        state, records = RelativeState.from_vector(scen.initial_state), []
        for _ in range(scen.steps):
            buf = state.as_vector()
            charges, record = controller.step(buf)
            records.append(record)
            state = propagate(state, charges, scen.sample_period, scen.substeps, scen.formation)
            if meddle:
                buf[:] = [60.0, 0.5]
                charges *= -1.0
                with pytest.raises(ValueError, match="read-only"):
                    record.charges[0] = 1.0  # also the next step's sign reference
        runs.append([[f for i, f in enumerate(record_fields(r)) if i != 8] for r in records])
    assert runs[1] == runs[0]  # every CSV field but the solve time


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
    # the combination count is checked before anything is allocated: 21**6
    # combinations of 3 craft over 2 stages used to pass a craft-and-horizon limit
    scen = twocraft_scenario()
    model = build_discrete_model(scen.params.desired_positions, 0.5, scen.formation)
    with pytest.raises(ValueError, match="at least 21 charge levels"):
        brute_force_qcqp(scen.initial_state, model, scen.params, np.linspace(-1, 1, 5))
    assert 41**4 <= ORACLE_MAX_COMBINATIONS < 42**4
    cap = f"above the cap of {ORACLE_MAX_COMBINATIONS:,}"
    two_stages = dataclasses.replace(scen.params, horizon=2)
    with pytest.raises(ValueError, match=rf"grid search of 42\*\*4 charge combinations is {cap}"):
        brute_force_qcqp(scen.initial_state, model, two_stages, np.linspace(-1, 1, 42))
    formation = FormationConfig(num_spacecraft=3, masses=50.0)
    params = MpcParams(desired_positions=[50.0, 100.0], horizon=2, state_min=-500.0,
                       state_max=500.0)
    model = build_discrete_model(params.desired_positions, 0.5, formation)
    with pytest.raises(ValueError, match=rf"grid search of 21\*\*6 charge combinations is {cap}"):
        brute_force_qcqp(np.zeros(4), model, params, np.linspace(-1, 1, 21))


def test_oracle_at_the_cap_peaks_below_250_mb():
    # four craft at horizon 1 are 41**4 combinations: held all at once they
    # peaked at 670 MB; one chunk per level of the first charge keeps it small
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    # the child reports its own peak, which no other test's child can raise
    script = ("import resource, sys; from coulombmpc.cli import main; code = main(sys.argv[1:]); "
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss); sys.exit(code)")
    done = subprocess.run(
        [sys.executable, "-c", script, "oracle", "--config", str(root / "configs" / "fourcraft.cfg"),
         "--horizon", "1"], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "grid optimum cost" in done.stdout
    peak_mb = int(done.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 250, f"peak RSS {peak_mb:.0f} MB"


def test_brute_force_ties_go_to_the_first_product_combination():
    # q and -q have the same products, so the argmin is decided by the
    # enumeration order, which is itertools.product's
    scen = twocraft_scenario(horizon=1)
    model = build_discrete_model(scen.params.desired_positions, 0.5, scen.formation)
    grid = np.linspace(-0.2, 0.2, 21)
    for start in (np.array([50.0, 0.0]), np.array([50.4, -0.01]), np.array([49.0, 0.02])):
        best_q, best_cost = brute_force_qcqp(start, model, scen.params, grid)
        costs = [oracle_cost(start, [q], model, scen.params)
                 for q in itertools.product(grid, repeat=2)]
        first = next(i for i, c in enumerate(costs) if c <= min(costs) * (1 + 1e-12) + 1e-15)
        assert tuple(best_q.ravel()) == list(itertools.product(grid, repeat=2))[first]
        assert best_cost == pytest.approx(min(costs), rel=1e-12, abs=1e-15)


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

def assert_same_records(records, parsed):
    """Every field of ``dataclasses.fields(StepRecord)`` equal, a NaN equal to a
    NaN: a field that the CSV does not carry cannot read back and fails."""
    assert len(parsed) == len(records)
    for a, b in zip(records, parsed):
        for f in dataclasses.fields(StepRecord):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y, equal_nan=not isinstance(x, str)), f.name


def test_csv_round_trip_bitwise(tmp_path):
    log = run_closed_loop(twocraft_scenario(steps=7))
    path = tmp_path / "run.csv"
    write_csv(log, path)
    assert_same_records(log.records, read_csv(path))


def test_csv_round_trip_keeps_invalid_measurement_record(tmp_path):
    scen = twocraft_scenario()
    model = build_discrete_model(scen.params.desired_positions, scen.sample_period, scen.formation)
    controller = MpcController(model, scen.params, scen.solver)
    records = [controller.step(scen.initial_state)[1],
               controller.step(np.array([np.nan, 0.0]))[1]]
    assert records[1].solver_status == INVALID_MEASUREMENT
    path = tmp_path / "fault.csv"
    write_csv(RunLog(records=records, status=RUN_COMPLETED), path)
    assert_same_records(records, read_csv(path))


@pytest.mark.parametrize("text", [
    "a,b,c\n1,2,3\n",
    # the layout of one craft, which has no pair: not a formation's log
    "k,t,q_1,rank_ratio,solver_status,iters,solve_time_s,saturated\n0,0,0,1,optimal,1,0,0\n",
])
def test_csv_rejects_foreign_layout(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="does not have the expected column layout"):
        read_csv(path)


def record_fields(rec):
    """A step record's CSV fields as bytes and values, for a bitwise comparison."""
    return [rec.step, np.float64(rec.time).tobytes(), rec.measured.tobytes(), rec.charges.tobytes(),
            rec.products.tobytes(), np.float64(rec.rank_ratio).tobytes(), rec.solver_status,
            rec.iterations, np.float64(rec.solve_time).tobytes(), rec.saturated]


@pytest.mark.bitexact
def test_holds_agree_on_the_shipped_twocraft_run(monkeypatch):
    # the shipped two-craft run for 600 steps on its scalar hold and on the
    # vector hold of three or more craft: every logged field but solve_time
    # is byte-equal
    logs = {}
    for name, bind in (("scalar", dynamics._bind_hold), ("vector", dynamics._bind_vector_hold)):
        monkeypatch.setattr(dynamics, "_bind_hold", bind)
        scenario = load_scenario(
            Path(__file__).resolve().parent.parent / "configs" / "twocraft.cfg", {"steps": 600})
        log = run_closed_loop(scenario)
        assert log.status == RUN_COMPLETED and len(log.records) == 600
        logs[name] = [record_fields(dataclasses.replace(rec, solve_time=0.0)) for rec in log.records]
    assert logs["scalar"] == logs["vector"]


def test_csv_crlf_copy_reads_back_bit_equal(tmp_path):
    # a file saved with CRLF line ends was refused as a foreign layout
    path, crlf = tmp_path / "run.csv", tmp_path / "crlf.csv"
    write_csv(run_closed_loop(twocraft_scenario(steps=4)), path)
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert crlf.read_bytes().count(b"\r\n") == 5
    assert [record_fields(r) for r in read_csv(crlf)] == [record_fields(r) for r in read_csv(path)]


def test_write_csv_rejects_records_of_two_craft_counts(tmp_path):
    # one header cannot describe rows of two layouts, which read_csv would reject
    path = tmp_path / "run.csv"
    records = (run_closed_loop(twocraft_scenario(steps=2)).records
               + run_closed_loop(fourcraft_scenario(steps=1)).records)
    with pytest.raises(ValueError, match=r"one spacecraft count, got \[2, 4\]"):
        write_csv(RunLog(records=records, status=RUN_COMPLETED), path)


def test_replay_cost_consistency(tmp_path):
    scen = twocraft_scenario(steps=6)
    log = run_closed_loop(scen)
    path = tmp_path / "run.csv"
    write_csv(log, path)
    stats = replay_cost(read_csv(path), scen.params)
    assert stats["steps"] == 6
    assert stats["max_product_error"] == 0.0
    assert stats["tracking_cost"] > 0.0


@pytest.mark.parametrize("column", ["u_1", "q_1"])
@pytest.mark.parametrize("row", [0, 2])
def test_replay_cost_reports_a_nan_product_error(tmp_path, column, row):
    # max() kept 0.0 against a NaN error, so a NaN product or charge in the
    # log was reported as no product error at all
    scen = twocraft_scenario(steps=5)
    path = tmp_path / "run.csv"
    write_csv(run_closed_loop(scen), path)
    lines = path.read_text().splitlines()
    index = lines[0].split(",").index(column)
    fields = lines[1 + row].split(",")
    fields[index] = "nan"
    lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    stats = replay_cost(read_csv(path), scen.params)
    assert stats["steps"] == 5
    assert np.isnan(stats["max_product_error"])


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
