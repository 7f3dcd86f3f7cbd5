"""The optimized ADMM loop reproduces the plain reference loop bit for bit.

``reference_admm.ReferenceSolver`` is the original, allocation-per-operation
iteration.  Every comparison here is exact: ``np.array_equal`` on z, s and y,
``==`` on status, iteration count and residuals.
"""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from analytic_problems import build_problems
from conftest import FOURCRAFT_INITIAL, fourcraft_scenario, pinned_problem
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
from coulombmpc.solver import INFEASIBLE_SUSPECT, MAX_ITERS, OPTIMAL, _ConeProjector
import reference_admm
from reference_admm import ReferenceSolver

TWOCRAFT_CFG = Path(__file__).resolve().parent.parent / "configs" / "twocraft.cfg"
TIGHT = SolverSettings(eps_abs=1e-9, eps_rel=1e-9, max_iters=100000)

pytestmark = pytest.mark.bitexact


@pytest.fixture(autouse=True)
def untagged_reference_results(monkeypatch):
    # the verbatim reference loop still tags each result with its cone
    # structure, a field the solver's results no longer carry: drop the tag
    monkeypatch.setattr(reference_admm, "SolveResult", lambda cones, **fields: SolveResult(**fields))


def assert_identical(got, ref):
    # every field but the wall time, field by field
    for field in dataclasses.fields(SolveResult):
        if field.name != "solve_time":
            a, b = getattr(got, field.name), getattr(ref, field.name)
            assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, field.name


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


def fourcraft_step0():
    """The shipped four-craft problem at step 0 and its cold-start settings."""
    scenario = fourcraft_scenario(warm_start=False)
    model = build_discrete_model(
        scenario.params.desired_positions, scenario.sample_period, scenario.formation
    )
    return pinned_problem(model, scenario.params, FOURCRAFT_INITIAL)[1], scenario


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
    """The projection's bytes, or the name of the error it raised; no
    warning may escape."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return project(v).tobytes()
        except np.linalg.LinAlgError:
            return "LinAlgError"


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


# slots 26-35 hold the second side-4 block, lower triangle row by row
@pytest.mark.parametrize("slots,raises", [
    (slice(26, 36), True), (slice(26, 27), True), (slice(27, 28), True), (slice(3, 4), False),
], ids=["side4-block", "side4-diagonal", "side4-off-diagonal", "nonneg"])
def test_nan_slack_raises_exactly_where_eigh_does(slots, raises):
    fast, ref = bound_projection(INTERLEAVED), reference_admm._ConeProjector(INTERLEAVED)
    v = np.random.default_rng(12).normal(size=INTERLEAVED.total)
    v[slots] = np.nan
    got = projection_outcome(fast, v)
    assert got == projection_outcome(ref.project, v)
    assert (got == "LinAlgError") == raises


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
    # tolerances no problem meets within the budget, so every run ends on it
    settings = SolverSettings(eps_abs=1e-300, eps_rel=0.0, max_iters=max_iters)
    warm = None if warm_count is None else cold_warm(prob, warm_count)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(warm=warm, log_callback=cb))
    ref, ref_log = logged(
        lambda cb: ReferenceSolver().solve(prob, settings, warm=warm, log_callback=cb))
    assert got.status == MAX_ITERS
    assert got.iterations == max_iters
    assert_identical(got, ref)
    assert got_log == ref_log
    assert [k for k, _, _ in got_log] == list(range(1, max_iters + 1))


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


def test_stall_stop_matches_reference():
    # x <= -1 and x >= 1: the stall rule ends the solve, and both solvers
    # return the iterate they stopped at
    prob = ConicProblem(c=np.array([1.0]), A=sp.csc_matrix([[1.0], [-1.0]]),
                        b=np.array([-1.0, -1.0]), cones=ConeDims(nonneg=2))
    settings = SolverSettings(max_iters=8000)
    got, got_log = logged(lambda cb: ConicSolver(prob, settings).solve(log_callback=cb))
    ref, ref_log = logged(lambda cb: ReferenceSolver().solve(prob, settings, log_callback=cb))
    assert got.status == INFEASIBLE_SUSPECT
    assert got.iterations < settings.max_iters
    assert_identical(got, ref)
    assert got_log == ref_log


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


@pytest.mark.parametrize("call,slot", [(3, -1), (14, 0), (25, 150)])
def test_nonfinite_projection_ends_the_solve_at_its_iteration(monkeypatch, call, slot):
    # a NaN slack ends the solve at the iteration that produced it, even
    # though iterations computed after it in the same block may raise
    # (eigh on an all-NaN slack); the poison goes into the projection the
    # loop calls, the one _ConeProjector.bind hands the workspace
    bind = _ConeProjector.bind
    calls = []

    def poisoned_bind(self, v, out):
        project = bind(self, v, out)

        def poisoned():
            calls.append(None)
            project()
            if len(calls) == call:
                out[slot] = np.nan
            return out

        return poisoned

    monkeypatch.setattr(_ConeProjector, "bind", poisoned_bind)
    prob, scenario = fourcraft_step0()
    result = ConicSolver(prob, scenario.solver).solve()
    assert result.status == INFEASIBLE_SUSPECT
    assert result.iterations == call
