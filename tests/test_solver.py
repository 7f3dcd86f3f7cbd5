import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from analytic_problems import build_problems
from conftest import pinned_problem
from reference_admm import objective_value
from coulombmpc import (
    ConeDims,
    ConicProblem,
    ConicSolver,
    SolverSettings,
    build_discrete_model,
)
from coulombmpc.config import load_scenario
from coulombmpc.conic import vec_dim
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
def test_analytic_problem(name, prob, expected):
    result = ConicSolver(prob, TIGHT).solve()
    assert result.status == OPTIMAL
    assert result.objective == pytest.approx(expected, abs=1e-6)
    # KKT residuals recomputed from scratch, not trusting solver bookkeeping
    primal = prob.A @ result.z + result.s - prob.b
    grad = prob.c + prob.A.T @ result.y + prob.P @ result.z
    assert np.abs(primal).max() <= 1e-6
    assert np.abs(grad).max() <= 1e-6


@pytest.mark.parametrize("name,prob,expected", build_problems())
def test_returned_slack_in_cone(name, prob, expected):
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
    # 1 - alpha, each check view's gammas and the projection's zeros
    ws = _Workspace(shipped_step0("fourcraft.cfg"))
    ws.bind_checks(100)
    cells = [cell.cell_contents for cell in ws.project.__closure__]
    bound = dict(zip(ws.project.__code__.co_freevars, cells))
    operands = [(ws.alpha, _ALPHA), (ws.beta, 1.0 - _ALPHA), (bound["zeros_nn"], 0.0)]
    operands += [(group[4], 0.0) for group in bound["groups"]]
    operands += [(view[7], ws.gamma) for view in ws.check_views[1:]]
    assert len(operands) == 3 + 1 + 100
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
