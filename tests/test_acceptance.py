"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.

The four-craft reference scenario (the shipped default configuration) backs
criteria 1, 2, 3 and 8; it is simulated once per session and shared.  Wall
times quoted in criteria are measured on the same run.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from analytic_problems import build_problems
from conftest import (
    FOURCRAFT_DESIRED,
    FOURCRAFT_INITIAL,
    FOURCRAFT_STEPS,
    fourcraft_scenario,
)
from coulombmpc import (
    FormationConfig,
    HorizonProblem,
    MpcParams,
    RelativeState,
    SolverSettings,
    box_edge_starts,
    brute_force_qcqp,
    build_discrete_model,
    charge_products,
    recover,
    rk4_step,
    run_closed_loop,
    to_conic,
    update_initial_state,
    write_csv,
    read_csv,
)
from coulombmpc.config import load_scenario
from coulombmpc.dynamics import absolute_input_matrix
from coulombmpc.solver import OPTIMAL, ConicSolver

INITIAL_DEVIATION = float(np.abs(FOURCRAFT_INITIAL[:3] - FOURCRAFT_DESIRED).max())


def _report(num, passed, text):
    print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'}: {text}")
    return passed


@pytest.fixture(scope="module")
def fourcraft_run():
    t0 = time.perf_counter()
    log = run_closed_loop(fourcraft_scenario())
    log.summary["wall_time"] = time.perf_counter() - t0
    assert log.status == "completed"
    return log


@pytest.fixture(scope="module")
def fourcraft_cold_600():
    return run_closed_loop(fourcraft_scenario(steps=600, warm_start=False))


# -- criterion 1: four-craft stabilization --------------------------------------

def test_criterion_1_stabilization_600_steps(fourcraft_run):
    records = fourcraft_run.records
    state_after_600 = records[600].measured  # state reached by the first 600 steps
    final = float(np.abs(state_after_600[:3] - FOURCRAFT_DESIRED).max())
    center = np.concatenate([FOURCRAFT_DESIRED, np.zeros(3)])
    within_bounds = all(
        np.all(r.measured <= center + 10.0 + 1e-9)
        and np.all(r.measured >= center - 10.0 - 1e-9)
        for r in records[:601]
    )
    runtime_ok = fourcraft_run.summary["wall_time"] <= 15 * 60
    settled = final <= 0.02 * INITIAL_DEVIATION
    ok = _report(
        1,
        settled and within_bounds and runtime_ok,
        f"deviation after 600 steps {final:.3f} m vs 2% bound "
        f"{0.02 * INITIAL_DEVIATION:.3f} m; bounds ok={within_bounds}; "
        f"runtime {fourcraft_run.summary['wall_time']:.0f} s",
    )
    assert ok, (
        "the published tuning decays with a ~250 s time constant and a "
        "trace-penalty holding floor; 600 samples cannot reach 2% "
        "(see the supplementary stabilization tests)"
    )


def test_supplementary_default_run_settles_to_floor(fourcraft_run):
    # the full default-length run reaches the small trace-penalty holding
    # floor: an order of magnitude below the initial offset, not 2%
    final = fourcraft_run.summary["final_deviation"]
    assert final <= 0.08 * INITIAL_DEVIATION
    dev = np.array(
        [np.abs(r.measured[:3] - FOURCRAFT_DESIRED).max() for r in fourcraft_run.records]
    )
    assert dev.min() <= 0.05 * INITIAL_DEVIATION


def test_supplementary_light_craft_settle_to_2pct():
    # with lighter craft the same tuning holds charges far from saturation
    # and the holding floor drops below the 2% line within the default run
    log = run_closed_loop(fourcraft_scenario(mass=50.0))
    final = log.summary["final_deviation"]
    assert log.status == "completed"
    assert final <= 0.02 * INITIAL_DEVIATION


def test_supplementary_box_holds_from_every_box_edge_start():
    # the shipped four-craft scenario from each corner of its position box,
    # 1 m inside (desired +- 9 m), at rest: 120 steps cover the step-36 box
    # exit of a controller that prices the slow tail
    shipped = load_scenario(Path(__file__).resolve().parent.parent / "configs" / "fourcraft.cfg",
                            {"steps": 120})
    low, high = shipped.params.state_min, shipped.params.state_max
    starts = box_edge_starts(shipped)
    assert len(starts) == 8
    assert np.array_equal(np.abs(np.array(starts)[:, :3] - FOURCRAFT_DESIRED), np.full((8, 3), 9.0))
    for start in starts:
        log = run_closed_loop(dataclasses.replace(shipped, initial_state=start))
        assert log.status == "completed" and len(log.records) == 120
        states = [r.measured for r in log.records] + [log.summary["final_state"]]
        assert all(np.all((low <= x) & (x <= high)) for x in states), start
        assert [r.solver_status for r in log.records] == [OPTIMAL] * 120, start


# -- criterion 2: saturation at start-up ----------------------------------------

def test_criterion_2_startup_saturation(fourcraft_run):
    first = fourcraft_run.records[0]
    clipped = first.saturated and np.abs(first.charges).max() == pytest.approx(0.1, abs=1e-12)
    ok = _report(
        2, clipped,
        f"step-0 charges {np.round(first.charges, 4)} (10 mC), saturated={first.saturated}",
    )
    assert ok


# -- criterion 3: push-pull alternation ------------------------------------------

def test_criterion_3_push_pull(fourcraft_run):
    charges = np.array([r.charges for r in fourcraft_run.records])
    quarter = charges[3 * FOURCRAFT_STEPS // 4 :]
    fractions = []
    for craft in range(4):
        signs = np.sign(quarter[:, craft])
        fractions.append(float(np.mean(signs[1:] * signs[:-1] < 0)))
    ok = _report(
        3, max(fractions) >= 0.25,
        f"final-quarter sign-flip fractions per craft: {np.round(fractions, 3)}",
    )
    assert ok


# -- criterion 4: relaxation bound vs brute force ---------------------------------

def test_criterion_4_relaxation_bound_two_craft():
    formation = FormationConfig(num_spacecraft=2, masses=50.0)
    desired = np.array([50.0])
    model = build_discrete_model(desired, 0.5, formation)
    grid = np.linspace(-0.2, 0.2, 81)
    base = MpcParams(
        horizon=1, desired_positions=desired,
        state_weight=np.array([1.0, 20.0]), product_weight=1e-3,
        product_delta_weight=0.0, state_min=np.array([10.0, -5.0]),
        state_max=np.array([500.0, 5.0]), trace_weight=0.0,
    )
    settings = SolverSettings(eps_abs=1e-9, eps_rel=1e-9, max_iters=200000)
    # recovery quality is assessed with a small rank-promoting weight,
    # the mechanism the controller itself relies on
    hp_base = HorizonProblem(model, base)
    hp = HorizonProblem(model, dataclasses.replace(base, trace_weight=1e-4))
    conic_base, conic = to_conic(hp_base), to_conic(hp)
    rng = np.random.default_rng(2024)
    worst_gap = -np.inf
    worst_ratio = 0.0
    for _ in range(20):
        start = np.array([50.0 + rng.uniform(-0.5, 0.5), rng.uniform(-0.02, 0.02)])
        _, grid_cost = brute_force_qcqp(start, model, base, grid)
        relaxed = ConicSolver(conic_base, settings).solve(
            update_initial_state(conic_base, hp_base, start))
        assert relaxed.status == OPTIMAL
        worst_gap = max(worst_gap, relaxed.objective - grid_cost)

        lifted_sol = ConicSolver(conic, settings).solve(update_initial_state(conic, hp, start))
        _, _, lifted = hp.unpack(lifted_sol.z)
        products = charge_products(recover(lifted[0]).charges)
        nxt = model.A @ start + model.B @ products
        dev = nxt - np.concatenate([desired, [0.0]])
        recovered_cost = float(
            dev @ base.state_weight @ dev + products @ base.product_weight @ products
        )
        worst_ratio = max(worst_ratio, recovered_cost / grid_cost)
    ok = _report(
        4, worst_gap <= 1e-6 and worst_ratio <= 1.05,
        f"worst (relaxation - grid) gap {worst_gap:.2e} <= 1e-6; "
        f"worst recovered/grid cost ratio {worst_ratio:.4f} <= 1.05",
    )
    assert ok


# -- criterion 5: rank-one recovery exactness --------------------------------------

def test_criterion_5_rank_one_exactness():
    rng = np.random.default_rng(99)
    worst_err = 0.0
    worst_ratio_dev = 0.0
    for _ in range(100):
        q = rng.normal(size=4)
        rec = recover(np.outer(q, q))
        err = np.linalg.norm(np.outer(rec.charges, rec.charges) - np.outer(q, q))
        worst_err = max(worst_err, float(err))
        worst_ratio_dev = max(worst_ratio_dev, abs(rec.rank_ratio - 1.0))
    ok = _report(
        5, worst_err <= 1e-10 and worst_ratio_dev <= 1e-10,
        f"worst outer-product error {worst_err:.2e}; worst |rank_ratio-1| {worst_ratio_dev:.2e}",
    )
    assert ok


# -- criterion 6: solver correctness on analytic problems ---------------------------

def test_criterion_6_analytic_conic_suite():
    settings = SolverSettings(eps_abs=1e-9, eps_rel=1e-9, max_iters=200000)
    worst_obj = 0.0
    worst_kkt = 0.0
    for name, prob, expected in build_problems():
        result = ConicSolver(prob, settings).solve()
        assert result.status == OPTIMAL, name
        worst_obj = max(worst_obj, abs(result.objective - expected))
        primal = np.abs(prob.A @ result.z + result.s - prob.b).max()
        grad = prob.c + prob.A.T @ result.y
        if prob.P is not None:
            grad = grad + prob.P @ result.z
        worst_kkt = max(worst_kkt, float(primal), float(np.abs(grad).max()))
    ok = _report(
        6, worst_obj <= 1e-5 and worst_kkt <= 1e-6,
        f"10 problems: worst objective error {worst_obj:.2e} <= 1e-5, "
        f"worst KKT residual {worst_kkt:.2e} <= 1e-6",
    )
    assert ok


# -- criterion 7: dynamics fidelity ------------------------------------------------

def test_criterion_7_dynamics_fidelity():
    formation = FormationConfig(num_spacecraft=3, masses=np.full(3, 50.0))
    state = RelativeState(np.array([40.0, 90.0]), np.array([0.05, -0.02]))
    charges = np.array([0.2, 0.18, 0.22])
    duration = 8.0

    def integrate(steps):
        out = state
        for _ in range(steps):
            out = rk4_step(out, charges, duration / steps, formation)
        return out.as_vector()

    reference = integrate(8192)
    counts = [4, 8, 16, 32]
    errors = [np.linalg.norm(integrate(n) - reference) for n in counts]
    slope = float(np.polyfit(np.log([duration / n for n in counts]), np.log(errors), 1)[0])

    rng = np.random.default_rng(321)
    worst_rel = 0.0
    for _ in range(100):
        ns = int(rng.integers(2, 6))
        positions = np.sort(rng.uniform(0.0, 300.0, ns)) + np.arange(ns) * 5.0
        masses = rng.uniform(5.0, 800.0, ns)
        cfg = FormationConfig(num_spacecraft=ns, masses=masses)
        weighted = masses[:, None] * absolute_input_matrix(positions, cfg)
        rel = np.abs(weighted.sum(axis=0)) / np.maximum(np.abs(weighted).sum(axis=0), 1.0)
        worst_rel = max(worst_rel, float(rel.max()))
    ok = _report(
        7, abs(slope - 4.0) <= 0.3 and worst_rel <= 1e-12,
        f"integrator order fit {slope:.3f} (target 4 +- 0.3); worst mass-weighted "
        f"column sum {worst_rel:.2e} (relative) <= 1e-12",
    )
    assert ok


# -- criterion 8: per-step latency and warm starting ---------------------------------

def test_criterion_8_latency_and_warm_start(fourcraft_run, fourcraft_cold_600):
    warm_records = fourcraft_run.records[:600]
    warm_iters = np.median([r.iterations for r in warm_records])
    warm_time = np.median([r.solve_time for r in warm_records])
    cold_iters = np.median([r.iterations for r in fourcraft_cold_600.records])
    ok = _report(
        8, warm_time <= 1.0 and warm_iters < cold_iters,
        f"median warm solve {warm_time * 1e3:.1f} ms <= 1000 ms; median warm "
        f"iterations {warm_iters:.0f} < cold {cold_iters:.0f}",
    )
    assert ok


# -- criterion 9: determinism and CSV round trip -------------------------------------

def _csv_lines_without_solve_time(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    drop = header.index("solve_time_s")
    out = []
    for line in lines:
        parts = line.split(",")
        out.append(",".join(parts[:drop] + parts[drop + 1 :]))
    return out


def test_criterion_9_determinism_and_round_trip(tmp_path):
    paths = []
    logs = []
    for i in range(2):
        log = run_closed_loop(fourcraft_scenario(steps=60))
        path = tmp_path / f"run{i}.csv"
        write_csv(log, path)
        paths.append(path)
        logs.append(log)
    identical = _csv_lines_without_solve_time(paths[0]) == _csv_lines_without_solve_time(paths[1])

    parsed = read_csv(paths[0])
    round_trip = len(parsed) == len(logs[0].records)
    for a, b in zip(logs[0].records, parsed):
        round_trip &= bool(
            a.step == b.step
            and a.time == b.time
            and np.array_equal(a.measured, b.measured)
            and np.array_equal(a.charges, b.charges)
            and np.array_equal(a.products, b.products)
            and a.rank_ratio == b.rank_ratio
            and a.iterations == b.iterations
            and a.solve_time == b.solve_time
            and a.saturated == b.saturated
        )
    ok = _report(
        9, identical and round_trip,
        f"repeat runs byte-identical outside the wall-time column: {identical}; "
        f"CSV parse/write identity on numeric fields: {round_trip}",
    )
    assert ok
