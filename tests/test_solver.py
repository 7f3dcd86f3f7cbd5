import dataclasses
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from analytic_problems import build_problems, empty_side_problems
from conftest import CROSSOVERS, closure, pinned_problem
from reference_admm import objective_value
from coulombmpc import (
    ConeDims,
    ConicProblem,
    ConicSolver,
    SolverSettings,
    build_discrete_model,
)
from coulombmpc import solver as solver_module
from coulombmpc.config import load_scenario
from coulombmpc.conic import SQRT2, vec_dim
from coulombmpc.simulate import run_closed_loop
from coulombmpc.solver import (
    _ALPHA,
    _SIGMA,
    INFEASIBLE_SUSPECT,
    MAX_ITERS,
    OPTIMAL,
    _bind_product,
    _ConeProjector,
    _csc_row_col,
    _inf_norms,
    _project_psd2,
    _Workspace,
)
from reference_conic import project_psd, vec_to_sym

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TIGHT = SolverSettings(eps_abs=1e-9, eps_rel=1e-9, max_iters=100000)


# -- PSD projection -----------------------------------------------------------

def test_project_psd_clamps_diagonal():
    assert np.allclose(project_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-14)


def test_project_psd_idempotent_on_psd_input():
    rng = np.random.default_rng(0)
    root = rng.normal(size=(4, 4))
    mat = root @ root.T
    assert np.allclose(project_psd(mat), mat, rtol=0, atol=1e-12 * np.abs(mat).max())


def test_project_psd_is_frobenius_nearest_on_grid():
    # 2x2 oracle: sweep a dense grid of PSD candidates and confirm none is
    # closer in Frobenius norm than the eigenvalue-clamped projection
    rng = np.random.default_rng(1)
    grid = np.linspace(0.0, 3.0, 40)
    offd = np.linspace(-3.0, 3.0, 81)
    for _ in range(5):
        raw = rng.normal(size=(2, 2))
        sym = raw + raw.T
        proj = project_psd(sym)
        best = np.inf
        for a in grid:
            for d in grid:
                for c in offd:
                    if a * d >= c * c:  # PSD test for 2x2
                        cand = np.array([[a, c], [c, d]])
                        best = min(best, np.linalg.norm(cand - sym))
        assert np.linalg.norm(proj - sym) <= best + 1e-6


def test_project_psd_rejects_nonfinite():
    with pytest.raises(ValueError):
        project_psd(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# -- the closed-form 2x2 projection -------------------------------------------------

EPS = np.finfo(float).eps


def closed_form(blocks) -> np.ndarray:
    """``_project_psd2`` of the ``[a, sqrt(2) b, c]`` rows of ``blocks`` as
    rows, with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.array(_project_psd2(np.ravel(blocks).tolist())).reshape(-1, 3)


def eigh_projection(blocks) -> np.ndarray:
    """The projection of each ``[a, sqrt(2) b, c]`` row by ``np.linalg.eigh``:
    eigenvalues clipped at 0, the matrix rebuilt and vectorized again."""
    a, s, c = np.asarray(blocks, dtype=float).T
    vals, vecs = np.linalg.eigh(np.stack([a, s / SQRT2, s / SQRT2, c], axis=-1).reshape(-1, 2, 2))
    mats = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.transpose(0, 2, 1)
    return np.stack([mats[:, 0, 0], SQRT2 * mats[:, 1, 0], mats[:, 1, 1]], axis=-1)


def assert_near_eigh(blocks, got=None):
    """Each projected row within 8 eps of its block's largest entry of the
    ``eigh`` projection."""
    blocks = np.asarray(blocks, dtype=float)
    got = closed_form(blocks) if got is None else got
    err = np.abs(got - eigh_projection(blocks)).max(axis=1)
    assert (err <= 8 * EPS * np.abs(blocks).max(axis=1)).all(), err.max()


def test_closed_form_psd2_matches_eigh():
    # block scales from 1e-150 to 1e150, entries spread by up to 1e4 within one
    rng = np.random.default_rng(31)
    blocks = (rng.normal(size=(20000, 3)) * 10.0 ** rng.uniform(-150, 150, (20000, 1))
              * 10.0 ** rng.uniform(-2, 2, (20000, 3)))
    got = closed_form(blocks)
    assert_near_eigh(blocks, got)
    # each of the three outcomes is exercised: PSD, NSD, rank one
    a, s, c = blocks.T
    det = a * c - s * s / 2
    outcomes = [(a + c > 0) & (det > 0), (a + c < 0) & (det > 0), det < 0]
    assert min(outcome.sum() for outcome in outcomes) > 1000
    # one Python loop: a block's result does not depend on its neighbours
    assert closed_form(blocks[:7]).tobytes() == got[:7].tobytes()


@pytest.mark.bitexact
def test_closed_form_psd2_exact_cases():
    rng = np.random.default_rng(32)
    # a PSD block comes back byte for byte, -0.0 included
    roots = rng.normal(size=(500, 2, 2)) * 10.0 ** rng.uniform(-70, 70, (500, 1, 1))
    psd = roots @ roots.transpose(0, 2, 1)
    psd = np.stack([psd[:, 0, 0], SQRT2 * psd[:, 1, 0], psd[:, 1, 1]], axis=-1)
    psd = psd[psd[:, 0] * psd[:, 2] >= psd[:, 1] * psd[:, 1] / 2 * (1 + 1e-9)]
    assert len(psd) > 400
    for block in [*psd, [4.0, 0.0, 1e-300], [-0.0, 0.0, -0.0]]:
        block = np.array(block)
        assert closed_form(block).tobytes() == block.tobytes()
    # an NSD block and the zero block give zeros
    nsd = -psd
    assert np.array_equal(closed_form(nsd), np.zeros_like(nsd))
    assert np.array_equal(closed_form([0.0, 0.0, 0.0]), np.zeros((1, 3)))
    # a diagonal block keeps its positive entry, within 8 eps, and zeros the rest
    for a, c in [(3.0, -2.0), (-2.0, 3.0), (0.3, -0.7), (-1e-3, 5e3)]:
        got = closed_form([a, 0.0, c])[0]
        assert got[1] == 0.0 and got[np.argmin([a, c]) * 2] == 0.0
        assert abs(got[np.argmax([a, c]) * 2] - max(a, c)) <= 8 * EPS * max(a, c)
    # rank one with h = 0: [[1, 2], [2, 1]] has eigenvalues 3 and -1
    assert closed_form([1.0, 2.0 * SQRT2, 1.0]).tolist() == [[1.5, 1.5 * SQRT2, 1.5]]
    # swapping a and c mirrors the result bit for bit: the h > 0 and h < 0 formulas
    rank_one = rng.normal(size=(2000, 3)) * 10.0 ** rng.uniform(-70, 70, (2000, 1))
    rank_one = rank_one[rank_one[:, 0] * rank_one[:, 2] < rank_one[:, 1] ** 2 / 2]
    assert len(rank_one) > 500
    got, mirrored = closed_form(rank_one), closed_form(rank_one[:, ::-1])
    assert got.tobytes() == mirrored[:, ::-1].tobytes()
    assert_near_eigh(rank_one, got)
    # a near-diagonal block, |b| = 1e-12 |a|: its small entries keep full precision
    # ([a, b; b, -a] projects to [a, b/2; b/2, b^2/(4a)] to within (b/a)^2)
    for scale in (1.0, 1e-100, 1e100):
        b = 1e-12 * scale
        for a, c, small, big in [(scale, -scale, 2, 0), (-scale, scale, 0, 2)]:
            got = closed_form([a, SQRT2 * b, c])[0]
            assert math.isclose(got[1], SQRT2 * b / 2, rel_tol=4 * EPS)
            assert math.isclose(got[small], b * b / (4 * scale), rel_tol=4 * EPS)
            assert math.isclose(got[big], scale, rel_tol=4 * EPS)
            assert_near_eigh([[a, SQRT2 * b, c]], got[None])


@pytest.mark.bitexact
def test_closed_form_psd2_nonfinite_block_gives_nans():
    # a NaN or an infinite slot makes its block NaN, with no warning and no
    # exception, and leaves its neighbours' bits alone
    blocks = np.array([[1.0, 3.0, -0.5], [2.0, -1.0, 0.5], [-1.0, 0.4, -2.0]])
    clean = closed_form(blocks)
    for slot in range(3):
        for value in (np.nan, np.inf, -np.inf):
            poisoned = blocks.copy()
            poisoned[1, slot] = value
            got = closed_form(poisoned)
            assert np.isnan(got[1]).all()
            assert got[[0, 2]].tobytes() == clean[[0, 2]].tobytes()
    # entries near the top of the range do not raise, and stay finite
    huge = np.array([[1e300, -3e300, -2e300], [-1e300, 2e300, 1e300], [5e299, 1e300, 5e299]])
    got = closed_form(huge)
    assert np.isfinite(got).all()
    assert_near_eigh(huge, got)


# -- blockwise cone projection ----------------------------------------------------

def project_cone(cones, v):
    """The projection of ``v`` onto ``cones``, through a fresh bound call."""
    return _ConeProjector(cones).bind(v, np.empty_like(v))()


def test_project_cone_nonneg_passthrough():
    cones = ConeDims(nonneg=4)
    v = np.array([0.5, 1.0, 0.0, 2.0])
    assert np.array_equal(project_cone(cones, v), v)


def test_project_cone_zero_block():
    cones = ConeDims(zero=3)
    assert np.array_equal(project_cone(cones, np.array([1.0, -2.0, 3.0])), np.zeros(3))


def test_project_cone_mixed_blocks_match_individual():
    rng = np.random.default_rng(2)
    cones = ConeDims(zero=2, nonneg=3, psd=(2, 3, 2))
    v = rng.normal(size=cones.total)
    out = project_cone(cones, v)
    assert np.array_equal(out[:2], np.zeros(2))
    assert np.array_equal(out[2:5], np.maximum(v[2:5], 0.0))
    off = 5
    for side in (2, 3, 2):
        d = vec_dim(side)
        expected = project_psd(vec_to_sym(v[off : off + d]))
        assert np.allclose(vec_to_sym(out[off : off + d]), expected, atol=1e-12)
        off += d


@pytest.mark.parametrize("kwargs, message", [
    ({"psd": (2.5,)}, "a PSD side must be at least 1"),   # was psd=(2,)
    ({"psd": (True,)}, "a PSD side must be at least 1"),
    ({"psd": (0,)}, "a PSD side must be at least 1"),
    ({"zero": 1.5}, "zero must be at least 0"),           # was a total of 1.5
    ({"zero": True}, "zero must be at least 0"),          # was one row
    ({"zero": -1}, "zero must be at least 0"),
    ({"nonneg": 2.0}, "nonneg must be at least 0"),
    ({"nonneg": False}, "nonneg must be at least 0"),
    ({"nonneg": -1}, "nonneg must be at least 0"),
])
def test_cone_dims_take_whole_dimensions_only(kwargs, message):
    with pytest.raises(ValueError, match=message):
        ConeDims(**kwargs)


def test_cone_dims_store_numpy_integers_as_ints():
    cones = ConeDims(zero=np.int64(2), nonneg=np.int32(0), psd=[np.int64(3), 2])
    assert (cones.zero, cones.nonneg, cones.psd, cones.total) == (2, 0, (3, 2), 11)
    assert all(type(v) is int for v in (cones.zero, cones.nonneg, *cones.psd))


def test_project_cone_dimension_mismatch():
    # the projector is built only from a ConicProblem, which rejects a cone
    # list whose length differs from the slack's (5 rows against 4 cones)
    with pytest.raises(ValueError, match="cone dimensions sum to 4"):
        ConicProblem(c=np.zeros(1), A=np.zeros((5, 1)), b=np.zeros(5), cones=ConeDims(nonneg=4))


# -- solve on analytic problems ---------------------------------------------------

@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_analytic_problem(name, prob, expected, backend):
    result = ConicSolver(prob, TIGHT).solve()
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(expected, abs=1e-6)
    # KKT residuals recomputed from scratch, not trusting solver bookkeeping
    primal = prob.A @ result.z + result.s - prob.b
    grad = prob.c + prob.A.T @ result.y + prob.P @ result.z
    assert np.abs(primal).max() <= 1e-6
    assert np.abs(grad).max() <= 1e-6


@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_returned_slack_in_cone(name, prob, expected, backend):
    result = ConicSolver(prob, TIGHT).solve()
    s = result.s
    cones = prob.cones
    assert np.abs(s[: cones.zero]).max(initial=0.0) <= 1e-8
    nn = s[cones.zero : cones.zero + cones.nonneg]
    if nn.size:
        assert nn.min() >= -1e-8
    off = cones.zero + cones.nonneg
    for side in cones.psd:
        block = vec_to_sym(s[off : off + vec_dim(side)])
        assert np.linalg.eigvalsh(block).min() >= -1e-8
        off += vec_dim(side)


def assert_twocraft_runs_agree(monkeypatch, name, values):
    """The shipped two-craft scenario (n + m = 20) for 600 steps with the
    solver constant ``name`` at each of ``values``: the same statuses and
    iteration counts, and charges that agree to the solves' tolerance.

    The bound on the charges comes from that tolerance, eps = eps_abs +
    eps_rel * scale, to first order and taking the equilibrated problem's
    conditioning as 1.  Each run's solve stops once both residuals are
    within eps, so its lifted products Q are within eps_abs + eps_rel of the
    solution, relative to their scale, and two runs' within twice that.  The
    charges are sqrt(lambda) times the dominant eigenvector of Q, which is
    of rank one, so |Q| = lambda and the eigengap is lambda: a relative
    change d of Q moves sqrt(lambda) by d/2 and the eigenvector by at most
    d.  So the charges differ by at most 1.5 * 2 (eps_abs + eps_rel) of the
    largest, 6e-9 at the shipped 1e-9 tolerances.  Rounding alone moved them
    by 7.8e-10 between the backends (step 2) and by 8.4e-11 between the
    projections (step 467)."""
    scenario = load_scenario(CONFIGS / "twocraft.cfg", {"steps": 600})
    bound = 3.0 * (scenario.solver.eps_abs + scenario.solver.eps_rel)
    logs = []
    for value in values:
        monkeypatch.setattr(solver_module, name, value)
        logs.append(run_closed_loop(scenario).records)
    first, second = logs
    assert len(first) == len(second) == 600
    assert [r.solver_status for r in first] == [r.solver_status for r in second] == [OPTIMAL] * 600
    assert [r.iterations for r in first] == [r.iterations for r in second]
    charges, other = (np.array([r.charges for r in log]) for log in logs)
    assert np.abs(other - charges).max() <= bound * np.abs(charges).max()


def test_backends_agree_on_the_shipped_twocraft_run(monkeypatch):
    assert_twocraft_runs_agree(monkeypatch, "_DENSE_MAX", CROSSOVERS.values())


def test_projections_agree_on_the_shipped_twocraft_run(monkeypatch):
    # its 2x2 blocks in closed form, and on the batched eigh (no side is 0)
    assert_twocraft_runs_agree(monkeypatch, "_CLOSED_FORM_SIDE", [2, 0])


# -- the check map --------------------------------------------------------------

# the shipped two-craft step-0 cold solve, a QP whose slacks of 1e6 stay
# inactive under the largest rho, the analytic suite at the default and the
# tight tolerances and the problems with an empty side
CHECK_MAP_CASES = ["twocraft-step0", "inactive-slack", *empty_side_problems()] + [
    name + suffix for name, _, _ in build_problems() for suffix in ("", "-tight")]


def check_map_case(name):
    """The problem and settings of a check-map case."""
    if name == "twocraft-step0":
        return shipped_step0("twocraft.cfg"), load_scenario(CONFIGS / "twocraft.cfg").solver
    if name == "inactive-slack":  # x <= 1e6 per coordinate and x1 + x2 <= 1, at x = [-8/7, 18/7]
        A = sp.csc_matrix([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        return ConicProblem(c=np.array([1.0, -2.0]), A=A, b=np.array([1e6, 1e6, 1.0]),
                            cones=ConeDims(nonneg=3), P=sp.csc_matrix([[2.0, 0.5], [0.5, 1.0]])), TIGHT
    if name in empty_side_problems():
        return empty_side_problems()[name], SolverSettings()
    problems = {name: prob for name, prob, _ in build_problems()}
    if name.endswith("-tight"):
        return problems[name.removesuffix("-tight")], TIGHT
    return problems[name], SolverSettings()


def check_map_and_plain_residuals(monkeypatch, prob, settings):
    """The (r_prim, r_dual) of every row the map's checks read, by the check
    map and by the sparse products of the original problem, at z = d x, w_u
    = w/e and y_u = e y/gamma of the same row, with w and y read from an LU
    row [x; w; y; 1] or formed as w = b_s - p and y = rho (p - t) from a
    dense row [x; t; p; 1], the tolerances (eps_prim, eps_dual) of the
    plain residuals, and the solve's result and its rho changes."""
    solver = ConicSolver(prob, settings)
    n, m = prob.num_vars, prob.num_rows
    by_map, plain, eps = [], [], []
    bind = solver_module._bind_check_map

    def recording(rows, *args):
        check = bind(rows, *args)

        def checked():
            norms = check()
            ws = solver._ws
            x, v, u = rows[:, :n], rows[:, n : n + m], rows[:, n + m : -1]
            w, y = (ws.b_s - u, ws.rho_vec * (u - v)) if ws.dense else (v, u)
            z = ws.d * x
            w_u = w / ws.e
            y_u = ws.e * y / ws.gamma
            az, pz, aty = (prob.A @ z.T).T, (prob.P @ z.T).T, (prob.A.T @ y_u.T).T
            by_map.append(norms[0].copy())
            plain.append([np.abs(az - w_u).max(axis=1, initial=0.0),
                          np.abs(pz + prob.c + aty).max(axis=1, initial=0.0)])
            scales = [np.abs(np.hstack([az, ws.b - w_u, np.broadcast_to(ws.b, w_u.shape)])),
                      np.abs(np.hstack([pz, aty, np.broadcast_to(prob.c, pz.shape)]))]
            eps.append([settings.eps_abs + settings.eps_rel * scale.max(axis=1, initial=0.0)
                        for scale in scales])
            return norms

        return checked

    monkeypatch.setattr(solver_module, "_bind_check_map", recording)
    rhos = []
    set_rho = _Workspace.set_rho
    monkeypatch.setattr(_Workspace, "set_rho",
                        lambda ws, rho: rhos.append(rho) or set_rho(ws, rho))
    result = solver.solve()
    return np.hstack(by_map), np.hstack(plain), np.hstack(eps), result, len(rhos) - 1


# each residual within 1e-6 of the larger of itself and its tolerance eps =
# eps_abs + eps_rel * scale, so a termination decision can differ only for a
# residual within a part per million of its tolerance.  The largest
# differences over these cases are, on dense rows, 1.0e-7 on r_prim (the
# slacks of 1e6, where b - p/e cancels) and 2.2e-7 on r_dual
# (sdp_min_trace_unit_coupling-tight), and on LU rows 8.3e-11 on r_prim
# (twocraft-step0) and 1.1e-7 on r_dual (lp_covering-tight).
# The inactive slacks take the map's y from p - t formed first: a product of
# t and p apart rounds r_dual to about eps rho |t| there, 3e-4 against a
# tolerance of 3e-9
@pytest.mark.parametrize("name", CHECK_MAP_CASES)
def test_check_map_residuals_match_the_sparse_products(monkeypatch, backend, name):
    prob, settings = check_map_case(name)
    if name == "inactive-slack":  # its first 100 iterations at the largest rho
        monkeypatch.setattr(solver_module, "_RHO_INIT", solver_module._RHO_MAX)
    got, want, eps, result, rho_changes = check_map_and_plain_residuals(monkeypatch, prob, settings)
    assert got.shape == want.shape == eps.shape and got.shape[1] >= result.iterations
    assert np.isfinite(got).all() and np.isfinite(want).all()
    assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(want, eps))
    assert result.status == OPTIMAL
    if name == "twocraft-step0":
        assert result.iterations == 350 and rho_changes == 3
    if name in empty_side_problems():  # the empty side's residual is 0
        side = 0 if name == "no-rows" else 1
        assert not got[side].any() and not want[side].any()


def test_min_x_at_least_one_example():
    prob = ConicProblem(
        c=np.array([1.0]), A=sp.csc_matrix([[-1.0]]), b=np.array([-1.0]),
        cones=ConeDims(nonneg=1),
    )
    result = ConicSolver(prob, SolverSettings()).solve()
    assert result.z[0] == pytest.approx(1.0, abs=1e-5)


def test_determinism_identical_iterates():
    _, prob, _ = build_problems()[7]
    a = ConicSolver(prob, SolverSettings()).solve()
    b = ConicSolver(prob, SolverSettings()).solve()
    assert a.iterations == b.iterations
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.y, b.y)


def test_max_iters_status():
    _, prob, _ = build_problems()[7]
    result = ConicSolver(prob, SolverSettings(max_iters=1)).solve()
    assert result.status == MAX_ITERS
    assert result.iterations == 1


@pytest.mark.parametrize("settings,status", [
    (SolverSettings(max_iters=37), MAX_ITERS),
    (SolverSettings(max_iters=8000), INFEASIBLE_SUSPECT),
], ids=["budget", "stall"])
def test_result_is_the_stopping_iterate(settings, status):
    # whatever the status, the result is the last iterate, not the best-scoring one
    prob = ConicProblem(
        c=np.array([1.0]), A=sp.csc_matrix([[1.0], [-1.0]]), b=np.array([-1.0, -1.0]),
        cones=ConeDims(nonneg=2),
    )
    seen = []
    result = ConicSolver(prob, settings).solve(log_callback=lambda *args: seen.append(args))
    assert result.status == status
    assert seen[-1] == (result.iterations, result.primal_residual, result.dual_residual)
    assert np.abs(prob.A @ result.z + result.s - prob.b).max() == pytest.approx(result.primal_residual)


def test_nonfinite_data_rejected():
    prob = ConicProblem(
        c=np.array([np.inf]), A=sp.csc_matrix([[-1.0]]), b=np.array([-1.0]),
        cones=ConeDims(nonneg=1),
    )
    with pytest.raises(ValueError):
        ConicSolver(prob).solve()


def test_nonfinite_matrix_rejected_at_construction():
    # P, A and c are checked once, when the solver is bound, not per solve
    good_A = sp.csc_matrix([[-1.0]])
    bad_A = sp.csc_matrix([[np.nan]])
    bad_P = sp.csc_matrix([[np.inf]])
    for A, P in ((bad_A, None), (good_A, bad_P)):
        prob = ConicProblem(
            c=np.array([1.0]), A=A, b=np.array([-1.0]), cones=ConeDims(nonneg=1), P=P
        )
        with pytest.raises(ValueError, match="non-finite"):
            ConicSolver(prob)


def test_infeasible_problem_flagged_or_exhausted():
    # x <= -1 and x >= 1 cannot hold; no certificates, just a heuristic label
    prob = ConicProblem(
        c=np.array([1.0]),
        A=sp.csc_matrix([[1.0], [-1.0]]),
        b=np.array([-1.0, -1.0]),
        cones=ConeDims(nonneg=2),
    )
    result = ConicSolver(prob, SolverSettings(max_iters=8000)).solve()
    assert result.status in (INFEASIBLE_SUSPECT, MAX_ITERS)
    assert result.primal_residual > 1e-3


def test_warm_start_resumes_from_solution():
    _, prob, _ = build_problems()[8]
    solver = ConicSolver(prob, SolverSettings())
    first = solver.solve()
    again = solver.solve(warm=first)
    assert again.status == OPTIMAL
    assert again.iterations <= max(first.iterations // 4, 2)


def test_warm_start_after_rhs_change_converges_faster():
    _, prob, _ = build_problems()[8]
    solver = ConicSolver(prob, SolverSettings())
    first = solver.solve()
    nudged = prob.b + np.where(np.arange(prob.b.size) == 0, 1e-3, 0.0)
    warm = solver.solve(nudged, warm=first)
    cold = ConicSolver(prob, SolverSettings()).solve(nudged)
    assert warm.status == OPTIMAL
    assert warm.iterations < cold.iterations


def test_warm_start_of_wrong_size_rejected():
    _, prob, _ = build_problems()[8]
    _, other, _ = build_problems()[0]
    foreign = ConicSolver(other).solve()
    with pytest.raises(ValueError, match="warm start"):
        ConicSolver(prob).solve(warm=foreign)


def test_nonfinite_or_misshapen_rhs_rejected():
    _, prob, _ = build_problems()[8]
    solver = ConicSolver(prob)
    for bad in (np.where(np.arange(prob.b.size) == 0, np.nan, prob.b),
                np.full(prob.b.size, np.inf), prob.b[:-1]):
        with pytest.raises(ValueError, match="right-hand side"):
            solver.solve(bad)
    assert solver.solve().status == OPTIMAL


def test_zero_variable_problem():
    # no variables: only the slack s = b must lie in the cone
    feasible = ConicProblem(
        c=np.zeros(0), A=np.zeros((1, 0)), b=np.ones(1), cones=ConeDims(nonneg=1)
    )
    result = ConicSolver(feasible).solve()
    assert result.status == OPTIMAL
    assert result.iterations == 1
    assert result.z.shape == (0,)
    infeasible = ConicProblem(
        c=np.zeros(0), A=np.zeros((1, 0)), b=-np.ones(1), cones=ConeDims(nonneg=1)
    )
    result = ConicSolver(infeasible, SolverSettings(max_iters=300)).solve()
    assert result.status == MAX_ITERS
    assert result.iterations == 300


def test_log_callback_streams_residuals():
    _, prob, _ = build_problems()[0]
    seen = []
    ConicSolver(prob, SolverSettings()).solve(
        log_callback=lambda k, rp, rd: seen.append((k, rp, rd))
    )
    assert seen and seen[0][0] == 1
    assert all(np.isfinite(rp) and np.isfinite(rd) for _, rp, rd in seen)


def test_settings_validation():
    # beyond the signs, each of these made every solve fail: a fractional
    # budget raised out of solve, a NaN tolerance was never met and an
    # infinite one always was
    for field, value in [
        ("eps_abs", 0.0), ("eps_abs", np.nan), ("eps_abs", np.inf),
        ("eps_rel", -1e-9), ("eps_rel", np.nan), ("eps_rel", np.inf),
        ("max_iters", 0), ("max_iters", 2.5), ("max_iters", 100.0), ("max_iters", True),
        ("eps_abs", True), ("eps_rel", np.False_),  # float() reads a bool as 1 or 0
    ]:
        with pytest.raises(ValueError, match=f"tolerances|{field} must be"):
            SolverSettings(**{field: value})


@pytest.mark.parametrize("value", ["flase", 0.5, 1, None])
def test_settings_warm_start_must_be_a_bool(value):
    # a typo or a number must not read as a silent True
    with pytest.raises(ValueError, match="warm_start must be true or false"):
        SolverSettings(warm_start=value)


def test_settings_are_frozen_so_their_checks_hold():
    # a budget of 0 set on a running controller's settings made its next
    # step raise out of the solve
    settings = SolverSettings()
    with pytest.raises(dataclasses.FrozenInstanceError):
        settings.max_iters = 0
    with pytest.raises(ValueError, match="max_iters must be"):
        dataclasses.replace(settings, max_iters=0)


def test_settings_are_the_four_a_caller_sets():
    fields = [f.name for f in dataclasses.fields(SolverSettings)]
    assert fields == ["eps_abs", "eps_rel", "max_iters", "warm_start"]
    assert SolverSettings(eps_rel=0.0, max_iters=np.int64(3)).max_iters == 3


# -- direct sparse kernels ------------------------------------------------------


def shipped_step0(name):
    """The conic problem of a shipped scenario at step 0."""
    scenario = load_scenario(CONFIGS / name)
    model = build_discrete_model(
        scenario.params.desired_positions, scenario.sample_period, scenario.formation
    )
    return pinned_problem(model, scenario.params, scenario.initial_state)[1]


def seeded_block(rng, rows, cols):
    """A (rows, cols) block over many magnitudes, with inf, NaN and mixed rows."""
    block = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 7, (rows, cols))
    block[3] = np.inf
    block[5, ::2] = -np.inf
    block[7] = np.nan
    block[8, 1::3] = np.nan
    return block


@pytest.mark.parametrize("prob", [
    shipped_step0("fourcraft.cfg"),
    shipped_step0("twocraft.cfg"),
    dataclasses.replace(shipped_step0("twocraft.cfg"), P=None),
], ids=["fourcraft", "twocraft", "twocraft-without-P"])
@pytest.mark.bitexact
def test_direct_kernels_match_sparse_matmul(prob):
    # the solver's check and rho balance call scipy's private sparsetools
    # kernels directly; they must give the bytes of the public product
    rng = np.random.default_rng(808)
    n, m = prob.num_vars, prob.num_rows
    Z, Y = seeded_block(rng, 10, n), seeded_block(rng, 10, m)
    assert prob.A.format == prob.P.format == "csc" and prob.A.T.format == "csr"
    for mat, block in ((prob.A, Z), (prob.P, Z), (prob.A.T, Y)):
        want = (mat @ block.T).T
        got = _bind_product(mat, block.T.copy(), np.full((mat.shape[0], 10), 7.0))()
        assert got.T.tobytes() == want.tobytes()
        for vec in block:  # the rho balance multiplies single vectors
            out = np.full(mat.shape[0], 7.0)
            assert _bind_product(mat, vec.copy(), out)().tobytes() == (mat @ vec).tobytes()


# -- set-up: equilibration norms and KKT assembly ----------------------------------


def scipy_inf_norms(mat, axis):
    """The per-column (axis 0) or per-row (axis 1) infinity norms by scipy."""
    if not mat.nnz:
        return np.zeros(mat.shape[1 - axis])
    return np.asarray(abs(mat).max(axis=axis).todense()).ravel()


def with_empty_row_and_column(prob):
    """A copy of the shipped problem's A with one row and one column emptied."""
    A = prob.A.tolil()
    A[3, :] = 0.0
    A[:, 5] = 0.0
    A = A.tocsc()
    A.eliminate_zeros()
    return A


NORM_CASES = {
    "fourcraft-A": shipped_step0("fourcraft.cfg").A,
    "fourcraft-P": shipped_step0("fourcraft.cfg").P,
    "twocraft-A": shipped_step0("twocraft.cfg").A,
    "twocraft-P": shipped_step0("twocraft.cfg").P,
    "without-P": ConicProblem(c=np.zeros(8), A=sp.csc_matrix((1, 8)), b=np.zeros(1),
                              cones=ConeDims(nonneg=1)).P,
    "empty-row-and-column": with_empty_row_and_column(shipped_step0("fourcraft.cfg")),
}


@pytest.mark.parametrize("name", sorted(NORM_CASES))
@pytest.mark.bitexact
def test_inf_norms_match_scipy(name):
    # the equilibration reads these norms from the raw CSC arrays
    mat = NORM_CASES[name]
    rng = np.random.default_rng(17)
    scaled = mat.copy()
    scaled.data = scaled.data * 10.0 ** rng.integers(-8, 9, scaled.data.size)
    for m in (mat, scaled):
        rows, cols = _csc_row_col(m)
        assert _inf_norms(cols, m.data, m.shape[1]).tobytes() == scipy_inf_norms(m, 0).tobytes()
        assert _inf_norms(rows, m.data, m.shape[0]).tobytes() == scipy_inf_norms(m, 1).tobytes()
    if name == "empty-row-and-column":
        rows, cols = _csc_row_col(mat)
        assert _inf_norms(rows, mat.data, mat.shape[0])[3] == 0.0
        assert _inf_norms(cols, mat.data, mat.shape[1])[5] == 0.0


def test_absent_P_is_the_empty_square_csc_matrix():
    # the one place that knows P may be left out: everything after it
    # reads an n x n CSC matrix
    prob = ConicProblem(c=np.zeros(3), A=np.ones((2, 3)), b=np.zeros(2), cones=ConeDims(nonneg=2))
    assert sp.issparse(prob.P) and prob.P.format == "csc"
    assert prob.P.shape == (3, 3) and prob.P.nnz == 0
    assert objective_value(prob, np.ones(3)) == 0.0


def test_bound_operands_are_read_only():
    # the loop's constant operands, bound once where a scalar was: alpha and
    # 1 - alpha and the projection's zeros
    ws = _Workspace(shipped_step0("fourcraft.cfg"))
    bound = closure(ws.project)
    operands = [(ws.alpha, _ALPHA), (ws.beta, 1.0 - _ALPHA), (bound["zeros_nn"], 0.0)]
    operands += [(group[4], 0.0) for group in bound["groups"]]
    assert len(operands) == 3 + 1
    for operand, value in operands:
        assert not operand.flags.writeable
        assert np.all(operand == value)


def scrambled(mat, rng):
    """The same matrix stored with unsorted row indices and split duplicates."""
    coo = mat.tocoo()
    half = coo.data / 2.0
    rows = np.concatenate([coo.row, coo.row])
    cols = np.concatenate([coo.col, coo.col])
    data = np.concatenate([half, coo.data - half])
    order = np.lexsort((rng.random(rows.size), cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=mat.shape[1]))])
    out = sp.csc_matrix((data[order], rows[order], indptr), shape=mat.shape)
    assert not out.has_canonical_format
    return out


def kkt_cases():
    rng = np.random.default_rng(19)
    four, two = shipped_step0("fourcraft.cfg"), shipped_step0("twocraft.cfg")
    return {
        "fourcraft": four,
        "twocraft": two,
        "twocraft-without-P": dataclasses.replace(two, P=None),
        "twocraft-scrambled": dataclasses.replace(
            two, A=scrambled(two.A, rng), P=scrambled(two.P, rng)),
    }


@pytest.mark.parametrize("name", sorted(kkt_cases()))
@pytest.mark.bitexact
def test_kkt_matches_coo_assembly(name):
    # the KKT matrix is stacked from CSC blocks; its arrays must be those of
    # bmat's general COO path, which sums duplicates and sorts each column
    ws = _Workspace(kkt_cases()[name])
    n, m = ws.P_s.shape[0], ws.A_s.shape[0]
    want = sp.bmat(
        [[ws.P_s + _SIGMA * sp.eye(n), ws.A_s.T], [ws.A_s, -sp.eye(m)]], format="csc"
    )
    want.data[ws._rho_diag] = -(1.0 / ws.rho_vec)
    for got, expected in ((ws.kkt.indptr, want.indptr), (ws.kkt.indices, want.indices),
                          (ws.kkt.data, want.data)):
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
