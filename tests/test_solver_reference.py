"""The optimized ADMM loop reproduces the plain reference loop bit for bit.

``reference_admm.ReferenceSolver`` is the original, allocation-per-operation
iteration.  Every comparison here is exact: ``np.array_equal`` on z, s and y,
``==`` on status, iteration count and residuals, a NaN matching a NaN.
"""

import dataclasses
import math
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from analytic_problems import build_problems
from conftest import fourcraft_scenario, pinned_problem
from coulombmpc import (
    ConeDims,
    ConicProblem,
    ConicSolver,
    MpcController,
    RelativeState,
    SolveResult,
    SolverSettings,
    build_discrete_model,
    propagate,
)
from coulombmpc import solver as solver_module
from coulombmpc.config import load_scenario
from coulombmpc.conic import vec_dim
from coulombmpc.simulate import run_closed_loop
from coulombmpc.solver import (INFEASIBLE_SUSPECT, MAX_ITERS, OPTIMAL, _SETTLED_AFTER,
                               _ConeProjector, _Workspace)
import reference_admm
from reference_admm import ReferenceSolver

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
TWOCRAFT_CFG = CONFIGS / "twocraft.cfg"
TIGHT = SolverSettings(eps_abs=1e-9, eps_rel=1e-9, max_iters=100000)

pytestmark = pytest.mark.bitexact


@pytest.fixture(autouse=True)
def each_backend(backend):
    # the reference takes the solver's backend, so each is exact on its own
    return backend


def assert_identical(got, ref):
    # every field but the wall time, field by field
    for field in dataclasses.fields(SolveResult):
        if field.name != "solve_time":
            a, b = getattr(got, field.name), getattr(ref, field.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b, equal_nan=True), field.name
            else:
                assert a == b or isinstance(a, float) and math.isnan(a) and math.isnan(b), field.name


class PairedSolver:
    """Stands in for the controller's solver: solves with both solvers, hands
    the optimized result back and keeps every (optimized, reference) pair.
    Both get the controller's warm start, which is valid for the reference
    as long as every earlier pair was identical."""

    def __init__(self, prob, settings):
        self.prob, self.settings = prob, settings
        self.fast, self.slow = ConicSolver(prob, settings), ReferenceSolver()
        self.pairs = []

    def solve(self, b, warm=None):
        got = self.fast.solve(b, warm=warm)
        ref = self.slow.solve(dataclasses.replace(self.prob, b=b), self.settings, warm=warm)
        self.pairs.append((got, ref))
        return got


def closed_loop_pairs(scenario, steps):
    """(optimized, reference) result of every step of a closed-loop run."""
    model = build_discrete_model(
        scenario.params.desired_positions, scenario.sample_period, scenario.formation
    )
    controller = MpcController(
        model, scenario.params, scenario.solver, saturation_limit=scenario.saturation_limit
    )
    controller._solver = paired = PairedSolver(controller._conic_template, scenario.solver)
    state = RelativeState.from_vector(scenario.initial_state)
    for _ in range(steps):
        charges, _ = controller.step(state)
        state = propagate(state, charges, scenario.sample_period, scenario.substeps,
                          scenario.formation)
    return paired.pairs


@pytest.mark.parametrize("settings", [SolverSettings(), TIGHT], ids=["default", "tight"])
@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_analytic_problems_match_reference(name, prob, expected, settings):
    assert_identical(ConicSolver(prob, settings).solve(), ReferenceSolver().solve(prob, settings))


# a warm start's iteration count also ends a check block: None keeps the
# previous solve's count, an offset sets it that far from the re-solve's stop
@pytest.mark.parametrize("offset", [None, -3, -1, 0, 1, 4])
@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_analytic_warm_resolve_matches_reference(name, prob, expected, offset):
    nudged = prob.b + np.where(np.arange(prob.b.size) == 0, 1e-3, 0.0)
    fast, slow = ConicSolver(prob), ReferenceSolver()
    first_fast, first_slow = fast.solve(), slow.solve(prob)
    nudged_prob = dataclasses.replace(prob, b=nudged)
    ref, ref_log = logged(lambda cb: slow.solve(nudged_prob, warm=first_slow, log_callback=cb))
    warm = first_fast if offset is None else dataclasses.replace(
        first_fast, iterations=ref.iterations + offset)
    got, got_log = logged(lambda cb: fast.solve(nudged, warm=warm, log_callback=cb))
    assert ref.status == OPTIMAL
    assert_identical(got, ref)
    assert got_log == ref_log


def step0(scenario):
    """The problem of ``scenario``'s first step, pinned at its initial state,
    and the scenario."""
    model = build_discrete_model(
        scenario.params.desired_positions, scenario.sample_period, scenario.formation
    )
    return pinned_problem(model, scenario.params, scenario.initial_state)[1], scenario


# the shipped scenarios, each cold at its first step
SCENARIOS = {"fourcraft": partial(fourcraft_scenario, warm_start=False),
             "twocraft": partial(load_scenario, TWOCRAFT_CFG)}


def fourcraft_step0():
    """The shipped four-craft problem at step 0 and its cold-start settings."""
    return step0(SCENARIOS["fourcraft"]())


def test_fourcraft_cold_step_matches_reference(monkeypatch):
    # the shipped problem's step 0 runs over a thousand iterations with
    # several rho updates, so the refactor path is exercised
    factorizations = []
    splu = solver_module.splu
    monkeypatch.setattr(solver_module, "splu", lambda kkt: factorizations.append(1) or splu(kkt))
    prob, scenario = fourcraft_step0()
    got = ConicSolver(prob, scenario.solver).solve()
    ref = ReferenceSolver().solve(prob, scenario.solver)
    assert_identical(got, ref)
    assert got.iterations > 1000
    assert len(factorizations) > 1


def test_fourcraft_warm_closed_loop_matches_reference():
    pairs = closed_loop_pairs(fourcraft_scenario(), 20)
    assert len(pairs) == 20
    for got, ref in pairs:
        assert_identical(got, ref)


def test_twocraft_scenario_matches_reference():
    pairs = closed_loop_pairs(load_scenario(TWOCRAFT_CFG), 30)
    assert len(pairs) == 30
    for got, ref in pairs:
        assert_identical(got, ref)


INTERLEAVED = ConeDims(zero=3, nonneg=4, psd=(2, 4, 3, 4))


def projection_outcome(project, v):
    """The projection's bytes in a solve's quiet error state; no warning may
    escape."""
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        return project(v).tobytes()


def bound_projection(cones):
    """The solver's projection for ``cones`` as a call on one vector, bound
    the way the workspace binds it, to a fresh output buffer."""
    projector = _ConeProjector(cones)
    return lambda v: projector.bind(v, np.empty_like(v))()


# runs of equal sides: the reference stacks every block of a side at once,
# the solver one run at a time; no matrix's bits depend on the stack size
RUNS = ConeDims(zero=1, nonneg=2, psd=(2, 2, 3, 3, 3, 2, 4, 2, 2))


@pytest.mark.parametrize("cones", [INTERLEAVED, RUNS], ids=["interleaved", "runs"])
def test_projection_matches_reference_projector(cones):
    fast, ref = bound_projection(cones), reference_admm._ConeProjector(cones)
    rng = np.random.default_rng(11)
    for _ in range(200):
        v = rng.normal(size=cones.total) * rng.choice([1e-6, 1.0, 1e6])
        assert projection_outcome(fast, v) == projection_outcome(ref.project, v)


# slots 26-35 hold the second side-4 block, lower triangle row by row: eigh
# cannot decompose a matrix with a NaN entry, so the whole block projects to
# NaN; slots 7-9 hold the side-2 block, which the closed form makes NaN
@pytest.mark.parametrize("slots,nan_slots", [
    (slice(26, 36), slice(26, 36)), (slice(26, 27), slice(26, 36)),
    (slice(27, 28), slice(26, 36)), (slice(8, 9), slice(7, 10)), (slice(3, 4), slice(3, 4)),
], ids=["side4-block", "side4-diagonal", "side4-off-diagonal", "side2-off-diagonal", "nonneg"])
def test_nan_slack_projects_to_nan_where_eigh_fails(slots, nan_slots):
    fast, ref = bound_projection(INTERLEAVED), reference_admm._ConeProjector(INTERLEAVED)
    v = np.random.default_rng(12).normal(size=INTERLEAVED.total)
    clean = np.frombuffer(projection_outcome(fast, v))
    v[slots] = np.nan
    got = projection_outcome(fast, v)
    assert got == projection_outcome(ref.project, v)
    got = np.frombuffer(got)
    expected_nan = np.zeros(v.size, dtype=bool)
    expected_nan[nan_slots] = True
    assert np.array_equal(np.isnan(got), expected_nan)
    # the other blocks' bits do not depend on the one that failed
    assert got[~expected_nan].tobytes() == clean[~expected_nan].tobytes()


# -- termination checked once per block of iterates -----------------------------

def logged(solve):
    """A solve's result and its log_callback stream of (k, r_prim, r_dual)."""
    stream = []
    result = solve(lambda k, r_prim, r_dual: stream.append((k, r_prim, r_dual)))
    return result, stream


@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_log_stream_matches_reference(name, prob, expected):
    got, got_log = logged(lambda cb: ConicSolver(prob).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, log_callback=cb))
    assert_identical(got, ref)
    assert got_log == ref_log
    assert [k for k, _, _ in got_log] == list(range(1, got.iterations + 1))


def cold_warm(prob, count):
    """A warm start at the cold start's iterate (z = 0, s = b, y = 0) that
    reports ``count`` iterations: its iterates are the cold solve's, and only
    the end of a check block moves."""
    zeros = np.zeros(prob.num_vars)
    return SolveResult(z=zeros, s=prob.b.copy(), y=np.zeros(prob.num_rows), status=OPTIMAL,
                       iterations=count, primal_residual=0.0, dual_residual=0.0,
                       solve_time=0.0, objective=0.0)


# warm counts: mid-block, and 95, whose short blocks 90-95 and 95-100 leave the
# last iterate before the rho check at 100 in a copied row, or beyond the budget
@pytest.mark.parametrize("warm_count", [None, 5, 95], ids=["cold", "warm5", "warm95"])
@pytest.mark.parametrize("max_iters", [1, 9, 10, 11, 37, 101])
@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_iteration_budget_at_block_edges_matches_reference(name, prob, expected, max_iters,
                                                           warm_count):
    # tolerances no iterate meets short of an exact fixed point, so every run
    # ends on its budget or there (the dense map reaches lp_scalar_bound's
    # at iteration 84, with both residuals 0)
    settings = SolverSettings(eps_abs=1e-300, eps_rel=0.0, max_iters=max_iters)
    warm = None if warm_count is None else cold_warm(prob, warm_count)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(warm=warm, log_callback=cb))
    ref, ref_log = logged(
        lambda cb: ReferenceSolver().solve(prob, settings, warm=warm, log_callback=cb))
    fixed = [k for k, r_prim, r_dual in ref_log if r_prim == r_dual == 0.0]
    assert got.status == (OPTIMAL if fixed else MAX_ITERS)
    assert got.iterations == (fixed[0] if fixed else max_iters)
    assert_identical(got, ref)
    assert got_log == ref_log
    assert [k for k, _, _ in got_log] == list(range(1, got.iterations + 1))


def check_passes(monkeypatch):
    """A list that gets one entry per block check of every solver whose
    workspace is built from now on."""
    passes = []
    bind = solver_module._bind_check_products

    def counting(*args):
        check_products = bind(*args)
        return lambda: passes.append(None) or check_products()

    monkeypatch.setattr(solver_module, "_bind_check_products", counting)
    return passes


# only an int of at least 1 moves a block end: blocks end at 5, 15, 25, 35 and
# 37, or as cold at 10, 20, 30 and 37, for a caller-built warm start's count
@pytest.mark.parametrize("count,expected_passes", [
    (5, 5), (np.int64(5), 5), (0, 4), (-5, 4), (2.5, 4), (5.0, 4), (True, 4),
    (np.float64(5.0), 4), (None, 4), ("5", 4),
])
def test_only_a_whole_warm_count_ends_a_block(monkeypatch, count, expected_passes):
    _, prob, _ = build_problems()[0]
    settings = SolverSettings(eps_abs=1e-300, eps_rel=0.0, max_iters=37)
    warm = cold_warm(prob, count)
    passes = check_passes(monkeypatch)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(warm=warm, log_callback=cb))
    assert len(passes) == expected_passes
    ref, ref_log = logged(
        lambda cb: ReferenceSolver().solve(prob, settings, warm=warm, log_callback=cb))
    assert_identical(got, ref)
    assert got_log == ref_log


def two_sided_infeasible():
    """x <= -1 and x >= 1: the stall rule ends a solve of it."""
    return ConicProblem(c=np.array([1.0]), A=sp.csc_matrix([[1.0], [-1.0]]),
                        b=np.array([-1.0, -1.0]), cones=ConeDims(nonneg=2))


def test_stall_stop_matches_reference():
    # both solvers return the iterate they stopped at
    prob = two_sided_infeasible()
    settings = SolverSettings(max_iters=8000)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert got.status == INFEASIBLE_SUSPECT
    assert got.iterations < settings.max_iters
    assert_identical(got, ref)
    assert got_log == ref_log


# -- a settled solve: its first block runs straight to the warm start's count -----

def schedule(stop, warm_count, settled):
    """The check passes of a solve that stops at iteration ``stop`` within its
    budget, and the iterations it computes, through the end of the block
    holding ``stop``: blocks of at most 10 iterations, ending at every
    multiple of 100 and at the warm count; a settled solve's first block runs
    to the first of the warm count and 100."""
    it = passes = 0
    while it < stop:
        end = min(it + (100 if settled and it == 0 else 10), it // 100 * 100 + 100)
        if it < warm_count < end:
            end = warm_count
        it, passes = end, passes + 1
    return passes, it


def solves(monkeypatch, prob, settings, warms):
    """Solve ``prob`` warm started from each of ``warms`` in turn with one
    ConicSolver and one ReferenceSolver; every solve must match the reference
    exactly, log streams included.  Returns the last result and its check
    passes."""
    passes = check_passes(monkeypatch)
    fast, slow = ConicSolver(prob, settings), ReferenceSolver()
    for warm in warms:
        before = len(passes)
        got, got_log = logged(lambda cb: fast.solve(warm=warm, log_callback=cb))
        ref, ref_log = logged(lambda cb: slow.solve(prob, settings, warm=warm, log_callback=cb))
        assert_identical(got, ref)
        assert got_log == ref_log
    return got, len(passes) - before


def probe_stops(prob, settings, count):
    """The iteration counts of ``count`` solves in turn by one ConicSolver
    (later solves start from the rho earlier ones adapted).  A warm start at
    the cold start's iterate moves no iterate, so they are also the counts of
    such warm solves, whatever counts the warm starts report."""
    solver = ConicSolver(prob, settings)
    return [solver.solve().iterations for _ in range(count)]


def settling(prob, settings):
    """Warm starts for ``_SETTLED_AFTER`` solves of ``prob`` by one solver
    that each stop at their own warm count, which settles the next solve when
    they all stop optimal, and the iteration count of that next solve."""
    *counts, last = probe_stops(prob, settings, _SETTLED_AFTER + 1)
    return [cold_warm(prob, count) for count in counts], last


# the first solves stop optimal at their own warm count, which settles the
# last; that one stops after, at or before its warm count (its count moved by
# the offset) and is checked in two passes, one and one; one after, it stops
# at row 0 of its second block
@pytest.mark.parametrize("offset,expected_passes", [(-3, 2), (-1, 2), (0, 1), (4, 1)],
                         ids=["stops-after", "stops-at-row-0", "stops-at", "stops-before"])
@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_settled_solve_matches_reference(monkeypatch, name, prob, expected, offset,
                                         expected_passes):
    warms, stop = settling(prob, SolverSettings())
    assert stop < 100  # so the offset warm count ends the first block
    got, passes = solves(monkeypatch, prob, SolverSettings(),
                         warms + [cold_warm(prob, stop + offset)])
    assert got.status == OPTIMAL and got.iterations == stop
    assert passes == expected_passes


# tight solves run past 100, so a warm count of 100 or 150 puts the rho
# balance at the end of a long first block; 1, 10 and 11 end a first block
# of one iterate, of exactly ten and of one more, the first blocks whose last
# iterate goes back to row 0
@pytest.mark.parametrize("count", [1, 5, 10, 11, 28, 95, 100, 150])
@pytest.mark.parametrize("settings", [SolverSettings(), TIGHT], ids=["default", "tight"])
@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_settled_warm_counts_match_reference(monkeypatch, name, prob, expected, settings, count):
    warms, stop = settling(prob, settings)
    got, passes = solves(monkeypatch, prob, settings, warms + [cold_warm(prob, count)])
    assert got.status == OPTIMAL and got.iterations == stop
    assert passes == schedule(stop, count, settled=True)[0]


def bound_lengths(monkeypatch):
    """A list that gets the length of each check view as it is bound, by
    every solver from now on."""
    bound = []
    bind = _Workspace.bind_check
    monkeypatch.setattr(_Workspace, "bind_check", lambda ws, k: bound.append(k) or bind(ws, k))
    return bound


def test_cold_solves_bind_only_the_check_views_they_run(monkeypatch):
    # a long view is bound only when a settled solve first runs it: binding
    # them all up front cost every solver build a millisecond.  The first
    # solve runs out of budget in a block of 3; the later ones converge
    prob, scenario = fourcraft_step0()
    bound = bound_lengths(monkeypatch)
    solver = ConicSolver(prob, dataclasses.replace(scenario.solver, max_iters=1003))
    statuses = [solver.solve().status for _ in range(3)]
    assert statuses == [MAX_ITERS, OPTIMAL, OPTIMAL]
    assert bound == [10, 3]
    assert [k for k, view in enumerate(solver._ws.check_views) if view] == [3, 10]


def test_cold_solver_sizes_its_workspace_for_short_blocks():
    # a solver that is never warm started never settles, so its iterate rows
    # and check buffers serve blocks of ten: 11 rows against 101
    prob, scenario = fourcraft_step0()
    results = []
    for warm_start, rows in ((False, 11), (True, 101)):
        solver = ConicSolver(prob, dataclasses.replace(scenario.solver, warm_start=warm_start))
        results.append(logged(lambda cb: solver.solve(log_callback=cb)))
        assert solver._ws.rows.shape[0] == len(solver._ws.check_views) == rows
        assert solver._ws.check_flat[0].size == (rows - 1) * prob.num_vars
    (cold, cold_log), (warm, warm_log) = results
    assert_identical(cold, warm)
    assert cold_log == warm_log


def test_cold_solver_given_settling_warm_starts_keeps_short_blocks(monkeypatch):
    _, prob, _ = build_problems()[0]
    settings = SolverSettings(warm_start=False)
    warms, stop = settling(prob, settings)
    got, passes = solves(monkeypatch, prob, settings, warms + [cold_warm(prob, stop)])
    assert got.status == OPTIMAL and got.iterations == stop
    assert passes == schedule(stop, stop, settled=False)[0] > 1


def test_settled_check_view_is_bound_once(monkeypatch):
    # two settled solves in a row, each one block of stop iterates: the first
    # binds that length and the second reuses it
    _, prob, _ = build_problems()[0]
    warms, stop = settling(prob, SolverSettings())
    bound = bound_lengths(monkeypatch)
    solver = ConicSolver(prob)
    for warm in warms:
        solver.solve(warm=warm)
    assert stop > 10 and stop not in bound
    for expected in ([stop], []):
        before = len(bound)
        assert solver.solve(warm=cold_warm(prob, stop)).iterations == stop
        assert bound[before:] == expected


def test_settled_first_block_runs_through_the_rho_balance(monkeypatch):
    prob = {name: prob for name, prob, _ in build_problems()}["lp_covering"]
    warms, _ = settling(prob, TIGHT)
    got, passes = solves(monkeypatch, prob, TIGHT, warms + [cold_warm(prob, 150)])
    # one block to 100 and the rho balance, blocks ending at 110, ..., 150,
    # then the block that stops at 151
    assert got.status == OPTIMAL and got.iterations == 151
    assert passes == 7


@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_settled_budget_below_warm_count_matches_reference(monkeypatch, name, prob, expected):
    # the budget is the first solve's count; the settled solve starts far off
    # and runs its whole budget in one block, short of its warm count
    warms, _ = settling(prob, SolverSettings())
    settings = SolverSettings(max_iters=warms[0].iterations)
    far = dataclasses.replace(cold_warm(prob, settings.max_iters + 20),
                              z=np.full(prob.num_vars, 1e3), y=np.full(prob.num_rows, 1e3))
    got, passes = solves(monkeypatch, prob, settings, warms + [far])
    assert got.status == MAX_ITERS and got.iterations == settings.max_iters
    assert passes == 1


def test_too_few_held_solves_do_not_settle(monkeypatch):
    _, prob, _ = build_problems()[0]
    warms, _ = settling(prob, SolverSettings())
    got, passes = solves(monkeypatch, prob, SolverSettings(), warms)
    stop = warms[-1].iterations
    assert got.status == OPTIMAL and got.iterations == stop
    assert passes == schedule(stop, stop, settled=False)[0] > 1


def test_budget_stop_at_warm_count_does_not_settle(monkeypatch):
    _, prob, _ = build_problems()[0]
    settings = SolverSettings(eps_abs=1e-300, eps_rel=0.0, max_iters=37)
    got, passes = solves(monkeypatch, prob, settings, [cold_warm(prob, 37)] * (_SETTLED_AFTER + 1))
    assert got.status == MAX_ITERS and got.iterations == 37
    # blocks end at 10, 20, 30 and 37, where a settled solve would check once
    assert passes == 4


def test_infeasible_stop_at_warm_count_does_not_settle(monkeypatch):
    # the stall rule ends every solve at its warm count
    prob = two_sided_infeasible()
    settings = SolverSettings(max_iters=8000)
    warms, stop = settling(prob, settings)
    got, passes = solves(monkeypatch, prob, settings, warms + [cold_warm(prob, stop)])
    assert got.status == INFEASIBLE_SUSPECT and got.iterations == stop
    assert passes == schedule(stop, stop, settled=False)[0]
    assert passes != schedule(stop, stop, settled=True)[0]


# with a stall score of 0 and these stall iterations, a solve settled under
# the shipped rule stalls at iteration 25-29; it converges at 67-93 without
STALLING = [("lp_box", 2), ("lp_covering", 1), ("sdp_min_trace_unit_coupling", 1),
            ("sdp_min_eigenvalue", 1)]


# the settled first block runs to the warm count: to 30 it holds the stall, to
# 95 the stall and, later, the iterate the solve converges at without it
@pytest.mark.parametrize("count", [30, 95], ids=["stall", "stall-then-convergence"])
@pytest.mark.parametrize("name,stall_iters", STALLING)
def test_stall_in_a_settled_first_block_matches_reference(monkeypatch, name, stall_iters,
                                                          count):
    prob = {name: prob for name, prob, _ in build_problems()}[name]
    warms, stop = settling(prob, SolverSettings())
    passes = check_passes(monkeypatch)
    fast, slow = ConicSolver(prob), ReferenceSolver()
    for warm in warms:
        assert_identical(fast.solve(warm=warm), slow.solve(prob, warm=warm))
    for module in (solver_module, reference_admm):
        monkeypatch.setattr(module, "_STALL_ITERS", stall_iters)
        monkeypatch.setattr(module, "_STALL_SCORE", 0.0)
    before, warm = len(passes), cold_warm(prob, count)
    got, got_log = logged(lambda cb: fast.solve(warm=warm, log_callback=cb))
    ref, ref_log = logged(lambda cb: slow.solve(prob, warm=warm, log_callback=cb))
    assert_identical(got, ref)
    assert got_log == ref_log
    assert got.status == INFEASIBLE_SUSPECT and got.iterations < 30 and stop < 95
    assert len(passes) - before == 1


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_stall_of_overflowing_scores_matches_reference():
    # a tolerance so small that every score overflows to inf: none beats the
    # first, so the stall rule ends the solve after _STALL_ITERS + 1 iterations
    prob = two_sided_infeasible()
    settings = SolverSettings(eps_abs=5e-324, eps_rel=0.0, max_iters=8000)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert got.status == INFEASIBLE_SUSPECT
    assert got.iterations == solver_module._STALL_ITERS + 1
    assert_identical(got, ref)
    assert got_log == ref_log


# the stall rule ends the solve at 2,167, row 6 of its block: budgets that end
# that block there, or one or four iterations before
@pytest.mark.parametrize("before", [0, 1, 4])
def test_budget_ending_mid_block_near_a_stall_matches_reference(before):
    prob = two_sided_infeasible()
    stall = ReferenceSolver().solve(prob, SolverSettings(max_iters=8000)).iterations
    settings = SolverSettings(max_iters=stall - before)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert stall % 10 > before
    assert got.status == (INFEASIBLE_SUSPECT if before == 0 else MAX_ITERS)
    assert got.iterations == settings.max_iters
    assert_identical(got, ref)
    assert got_log == ref_log


# the stall iterate is set by rounding (2,310 on the map, a block end): a stall
# window up to 9 shorter, the same in solver and reference, moves the stop to
# row 7 of its block on either backend, then budgets end that block there, or
# one or four iterations before
@pytest.mark.parametrize("before", [0, 1, 4])
def test_budget_ending_mid_block_near_a_shortened_stall_matches_reference(monkeypatch, before):
    prob = two_sided_infeasible()
    stall = ReferenceSolver().solve(prob, SolverSettings(max_iters=8000)).iterations
    window = solver_module._STALL_ITERS - (stall - 7) % 10
    for module in (solver_module, reference_admm):
        monkeypatch.setattr(module, "_STALL_ITERS", window)
    stall = ReferenceSolver().solve(prob, SolverSettings(max_iters=8000)).iterations
    settings = SolverSettings(max_iters=stall - before)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert stall % 10 == 7
    assert got.status == (INFEASIBLE_SUSPECT if before == 0 else MAX_ITERS)
    assert got.iterations == settings.max_iters
    assert_identical(got, ref)
    assert got_log == ref_log


# -- the map's row [x; t; p; 1] on the shipped two-craft problem (n + m = 20) ---

def counted_rho_changes(monkeypatch):
    """A list that gets the rho of every ``set_rho`` call, by every workspace:
    the first as it is built, then one per change within a solve, where the
    map's row 0 rewrites its t."""
    rhos = []
    set_rho = _Workspace.set_rho

    def counting(self, rho_scalar):
        rhos.append(rho_scalar)
        return set_rho(self, rho_scalar)

    monkeypatch.setattr(_Workspace, "set_rho", counting)
    return rhos


def test_twocraft_cold_solve_across_rho_changes_matches_reference(monkeypatch):
    prob, scenario = step0(SCENARIOS["twocraft"]())
    rhos = counted_rho_changes(monkeypatch)
    got, got_log = logged(lambda cb: ConicSolver(prob, scenario.solver).solve(log_callback=cb))
    ref, ref_log = logged(
        lambda cb: ReferenceSolver().solve(prob, scenario.solver, log_callback=cb))
    assert got.status == OPTIMAL and len(rhos) >= 1 + 2
    assert_identical(got, ref)
    assert got_log == ref_log


def test_twocraft_warm_solve_matches_reference():
    # the warm start enters the row at the rho the cold solve adapted
    prob, scenario = step0(SCENARIOS["twocraft"]())
    fast, slow = ConicSolver(prob, scenario.solver), ReferenceSolver()
    first = fast.solve()
    assert_identical(first, slow.solve(prob, scenario.solver))
    assert fast._ws.rho_scalar != solver_module._RHO_INIT
    nudged = dataclasses.replace(prob, b=prob.b * (1.0 + 1e-3))
    got, got_log = logged(lambda cb: fast.solve(nudged.b, warm=first, log_callback=cb))
    ref, ref_log = logged(
        lambda cb: slow.solve(nudged, scenario.solver, warm=first, log_callback=cb))
    assert got.status == OPTIMAL and got.iterations < first.iterations
    assert_identical(got, ref)
    assert got_log == ref_log


# budgets before the first rho balance, at it (which changes rho) and mid-block after it
@pytest.mark.parametrize("max_iters", [1, 57, 100, 257])
def test_twocraft_budget_stop_matches_reference(max_iters):
    prob, scenario = step0(SCENARIOS["twocraft"]())
    settings = dataclasses.replace(scenario.solver, max_iters=max_iters)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert got.status == MAX_ITERS and got.iterations == max_iters
    assert_identical(got, ref)
    assert got_log == ref_log


def test_cold_solve_after_settling_ones_keeps_short_blocks(monkeypatch):
    _, prob, _ = build_problems()[0]
    warms, stop = settling(prob, SolverSettings())
    got, passes = solves(monkeypatch, prob, SolverSettings(), warms + [None])
    assert got.iterations == stop
    assert passes == schedule(stop, 0, settled=False)[0] > 1


def counted_iterations(monkeypatch):
    """A list that gets one entry per iteration computed, checked or not, by
    every solver whose workspace is built from now on."""
    computed = []
    bind = _ConeProjector.bind

    def counting(self, v, out):
        project = bind(self, v, out)
        return lambda: computed.append(None) or project()

    monkeypatch.setattr(_ConeProjector, "bind", counting)
    return computed


# the shipped two-craft run and a four-craft warm run: the check passes and
# the iterations computed are those of the schedule, replayed on each step's
# iteration count and warm count (every step solves and stops optimal, so the
# warm count is the last step's)
@pytest.mark.parametrize("config,steps", [("twocraft.cfg", 120), ("fourcraft.cfg", 40)])
def test_check_passes_of_shipped_runs(monkeypatch, config, steps):
    passes, computed = check_passes(monkeypatch), counted_iterations(monkeypatch)
    log = run_closed_loop(load_scenario(CONFIGS / config, {"steps": steps}))
    assert [r.solver_status for r in log.records] == [OPTIMAL] * steps
    expected, warm_count, held_solves = np.zeros(2, dtype=int), 0, 0
    for record in log.records:
        expected += schedule(record.iterations, warm_count, settled=held_solves >= _SETTLED_AFTER)
        held_solves = held_solves + 1 if record.iterations == warm_count else 0
        warm_count = record.iterations
    assert [len(passes), len(computed)] == expected.tolist()


def interleaved_psd_qp():
    """A QP whose PSD blocks have interleaved sides 2, 3, 2: each block is a
    run of its own, so the loop's projection has three groups, two of side
    2, each written straight into its view of the output.  One variable per
    PSD slot (s = z there); two zero rows fix traces and three nonneg rows
    cap random combinations of a feasible point."""
    cones = ConeDims(zero=2, nonneg=3, psd=(2, 3, 2))
    sizes = [vec_dim(side) for side in cones.psd]
    n = sum(sizes)
    diagonals = np.concatenate([
        start + np.array([vec_dim(i + 1) - 1 for i in range(side)])
        for start, side in zip(np.cumsum([0] + sizes[:-1]), cones.psd)
    ])
    trace_rows = np.zeros((2, n))
    trace_rows[0, diagonals[:2]] = trace_rows[0, diagonals[5:]] = 1.0
    trace_rows[1, diagonals[2:5]] = 1.0
    rng = np.random.default_rng(21)
    feasible = np.zeros(n)
    feasible[diagonals] = 0.5
    caps = rng.normal(size=(3, n))
    A = np.vstack([trace_rows, caps, -np.eye(n)])
    b = np.concatenate([trace_rows @ feasible, caps @ feasible + 0.1, np.zeros(n)])
    P = sp.diags(rng.uniform(0.5, 2.0, size=n), format="csc")
    return ConicProblem(c=rng.normal(size=n), A=sp.csc_matrix(A), b=b, cones=cones, P=P)


def test_interleaved_psd_sizes_match_reference():
    prob = interleaved_psd_qp()
    groups = _ConeProjector(prob.cones).groups
    # one group per run of equal sides, in slot order: (start, block count, side)
    assert [(start, *gather.shape[:2]) for start, gather, *_ in groups] == [
        (5, 1, 2), (8, 1, 3), (14, 1, 2)]
    got, got_log = logged(lambda cb: ConicSolver(prob).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, log_callback=cb))
    assert got.status == OPTIMAL
    assert_identical(got, ref)
    assert got_log == ref_log


@pytest.mark.parametrize("max_iters", [1, 9, 10, 11, 37, 101])
def test_interleaved_psd_sizes_at_block_edges_match_reference(max_iters):
    prob = interleaved_psd_qp()
    settings = SolverSettings(eps_abs=1e-300, eps_rel=0.0, max_iters=max_iters)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert got.iterations == max_iters
    assert_identical(got, ref)
    assert got_log == ref_log


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_residual_ends_the_solve_at_its_iteration():
    # a warm start near the top of the float range: the first iterate's dual
    # residual overflows to inf, though each of its terms, and so its
    # tolerance, is finite
    prob = {name: prob for name, prob, _ in build_problems()}["qp_clip_to_orthant"]
    warm = dataclasses.replace(cold_warm(prob, 5), z=np.array([1.42310045e307, 4.59701852e307]),
                               s=np.array([-9.27555622e307, 3.24253909e307]),
                               y=np.array([2.14475842e307, -5.17261824e307]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # an overflow ends the solve, not as a RuntimeWarning
        got, got_log = logged(lambda cb: ConicSolver(prob).solve(warm=warm, log_callback=cb))
    assert caught == []
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, warm=warm, log_callback=cb))
    assert got.status == INFEASIBLE_SUSPECT and got.iterations == 1
    assert math.isfinite(got.primal_residual) and got.dual_residual == math.inf
    assert_identical(got, ref)
    assert got_log == ref_log == []


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_dual_residual_alone_ends_the_solve_on_the_map_too():
    # a warm start near the top of the float range whose first iterate keeps a
    # finite primal residual on both backends (the map's right-hand side t -
    # 2p + b_s weighs p by 2, so its x overflows at about half LU's magnitude):
    # only the dual residual overflows to inf
    prob = {name: prob for name, prob, _ in build_problems()}["qp_clip_to_orthant"]
    warm = dataclasses.replace(cold_warm(prob, 5), z=np.array([-7.75212125e306, 6.33922967e307]),
                               s=np.array([3.8916955e307, -6.52657952e307]),
                               y=np.array([3.75733139e306, -2.85435599e307]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # an overflow ends the solve, not as a RuntimeWarning
        got, got_log = logged(lambda cb: ConicSolver(prob).solve(warm=warm, log_callback=cb))
    assert caught == []
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, warm=warm, log_callback=cb))
    assert got.status == INFEASIBLE_SUSPECT and got.iterations == 1
    assert math.isfinite(got.primal_residual) and got.dual_residual == math.inf
    assert_identical(got, ref)
    assert got_log == ref_log == []


def poison_projections(monkeypatch, call, slot, value, side="output"):
    """Make the ``call``-th projection of the solver, and that of the
    reference, write ``value`` into ``slot`` of its ``side``: its output, or
    its input before it runs.  The solver's is the one
    ``_ConeProjector.bind`` hands the workspace; each counts its own."""
    bind, project = _ConeProjector.bind, reference_admm._ConeProjector.project
    fast_calls, ref_calls = [], []

    def poisoned(calls, project, v):
        calls.append(None)
        hit = len(calls) == call
        if hit and side == "input":
            v[slot] = value
        out = project()
        if hit and side == "output":
            out[slot] = value
        return out

    monkeypatch.setattr(_ConeProjector, "bind", lambda self, v, out: partial(
        poisoned, fast_calls, bind(self, v, out), v))
    monkeypatch.setattr(reference_admm._ConeProjector, "project",
                        lambda self, v: poisoned(ref_calls, partial(project, self, v), v))


def assert_poisoned_solve_ends_at(call, scenario="fourcraft"):
    """The poisoned step-0 solve of the shipped ``scenario`` ends
    ``infeasible_suspect`` at iteration ``call`` without a warning, as the
    poisoned reference does, log stream included.  Iterations computed past
    it in the same block see the non-finite slack too: a warning raised as
    an error there would surface, so every one is recorded."""
    prob, scenario = step0(SCENARIOS[scenario]())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got, got_log = logged(
            lambda cb: ConicSolver(prob, scenario.solver).solve(log_callback=cb))
    assert caught == []
    ref, ref_log = logged(
        lambda cb: ReferenceSolver().solve(prob, scenario.solver, log_callback=cb))
    assert got.status == INFEASIBLE_SUSPECT
    assert got.iterations == call
    assert_identical(got, ref)
    assert got_log == ref_log


# slots: the last PSD slot, a zero-cone one and a nonneg one; an iteration
# after a block end is row 0 of the next block, after a best score carried over
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("call,slot,value", [
    (3, -1, np.nan), (14, 0, np.nan), (25, 150, np.nan),
    (11, 150, np.inf), (21, -1, -np.inf), (31, 0, np.nan),
])
def test_nonfinite_projection_ends_the_solve_at_its_iteration(monkeypatch, call, slot, value):
    # a non-finite slack ends the solve at the iteration that produced it, as
    # it ends the plain loop
    poison_projections(monkeypatch, call, slot, value)
    assert_poisoned_solve_ends_at(call)


# the four-craft PSD slots are 222-311: the last one, a diagonal, and two
# off-diagonal ones of the first block (a -inf in some slots eigh turns into
# NaN without failing, not in 228); eigh cannot decompose the poisoned block,
# which projects to NaN.  The two-craft PSD slots are 9-11, one 2x2 block
# that the closed form projects to NaN
PSD_INPUT_POISONS = [
    ("fourcraft", 3, -1, np.nan), ("fourcraft", 14, 230, np.nan),
    ("fourcraft", 25, -1, np.nan), ("fourcraft", 21, 228, -np.inf),
    ("twocraft", 3, 9, np.nan), ("twocraft", 10, 10, np.inf),
    ("twocraft", 11, 11, -np.inf), ("twocraft", 25, 10, -np.inf),
]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("scenario,call,slot,value", PSD_INPUT_POISONS)
def test_nonfinite_projection_input_ends_the_solve_at_its_iteration(monkeypatch, scenario, call,
                                                                    slot, value):
    poison_projections(monkeypatch, call, slot, value, side="input")
    assert_poisoned_solve_ends_at(call, scenario)


@pytest.mark.parametrize("scenario,call,slot,value", PSD_INPUT_POISONS)
def test_nonfinite_projection_input_takes_the_controllers_fault_path(monkeypatch, scenario, call,
                                                                     slot, value):
    # the first step returns the passive-safe zero charges
    poison_projections(monkeypatch, call, slot, value, side="input")
    scenario = SCENARIOS[scenario]()
    model = build_discrete_model(
        scenario.params.desired_positions, scenario.sample_period, scenario.formation
    )
    controller = MpcController(model, scenario.params, scenario.solver,
                               saturation_limit=scenario.saturation_limit)
    charges, record = controller.step(RelativeState.from_vector(scenario.initial_state))
    assert record.solver_status == INFEASIBLE_SUSPECT
    assert record.iterations == call
    craft = scenario.formation.num_spacecraft
    assert charges.tolist() == record.charges.tolist() == [0.0] * craft
