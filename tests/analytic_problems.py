"""Ten small conic problems with independently derived optimal values.

LP optima are cross-checked against scipy.optimize.linprog at collection
time; the semidefinite optima against dense grid enumeration.  Each entry is
(name, problem, optimal_value).
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from coulombmpc import ConeDims, ConicProblem
from coulombmpc.conic import SQRT2
from reference_conic import sym_to_vec


def _lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Assemble an LP in slack form and return it with linprog's optimum."""
    c = np.asarray(c, dtype=float)
    rows, rhs = [], []
    n_eq = 0
    if A_eq is not None:
        A_eq = np.atleast_2d(np.asarray(A_eq, dtype=float))
        rows.append(A_eq)
        rhs.append(np.atleast_1d(np.asarray(b_eq, dtype=float)))
        n_eq = A_eq.shape[0]
    A_ub = np.atleast_2d(np.asarray(A_ub, dtype=float))
    b_ub = np.atleast_1d(np.asarray(b_ub, dtype=float))
    rows.append(A_ub)
    rhs.append(b_ub)
    prob = ConicProblem(
        c=c,
        A=sp.csc_matrix(np.vstack(rows)),
        b=np.concatenate(rhs),
        cones=ConeDims(zero=n_eq, nonneg=b_ub.size),
    )
    check = linprog(
        c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=[(None, None)] * c.size, method="highs",
    )
    assert check.status == 0
    return prob, float(check.fun)


def _min_trace_unit_coupling():
    # min Tr(X) s.t. X[0,1] = 1, X psd: dense grid over 2x2 PSD matrices
    # with unit off-diagonal confirms the optimum (X = ones(2,2), trace 2)
    c = np.array([1.0, 0.0, 1.0])
    A = sp.csc_matrix(np.vstack([np.array([[0.0, 1.0 / SQRT2, 0.0]]), -np.eye(3)]))
    b = np.array([1.0, 0.0, 0.0, 0.0])
    prob = ConicProblem(c=c, A=A, b=b, cones=ConeDims(zero=1, psd=(2,)))
    diag = np.linspace(0.0, 5.0, 2001)
    a, d = np.meshgrid(diag, diag)
    feasible = a * d >= 1.0  # PSD with off-diagonal pinned to 1
    grid_opt = float((a + d)[feasible].min())
    assert abs(grid_opt - 2.0) < 5e-3
    return prob, 2.0


def _min_eigenvalue():
    # min Tr(diag(1,3) X) s.t. Tr(X) = 1, X psd: optimum is the smallest
    # diagonal weight; grid over the one-parameter diagonal family confirms
    cost = np.diag([1.0, 3.0])
    c = sym_to_vec(cost)
    trace_row = np.array([[1.0, 0.0, 1.0]])
    A = sp.csc_matrix(np.vstack([trace_row, -np.eye(3)]))
    b = np.array([1.0, 0.0, 0.0, 0.0])
    prob = ConicProblem(c=c, A=A, b=b, cones=ConeDims(zero=1, psd=(2,)))
    t = np.linspace(0.0, 1.0, 2001)
    grid_opt = float((t + 3.0 * (1.0 - t)).min())
    assert abs(grid_opt - 1.0) < 5e-3
    return prob, 1.0


def _nearest_psd():
    # min 0.5*||X - S||_F^2 over X psd with S = diag(1, -1): clamp the
    # negative eigenvalue, residual 0.5*1^2
    target = np.diag([1.0, -1.0])
    tvec = sym_to_vec(target)
    prob = ConicProblem(
        c=-tvec,
        A=sp.csc_matrix(-np.eye(3)),
        b=np.zeros(3),
        cones=ConeDims(psd=(2,)),
        P=sp.eye(3, format="csc"),
        objective_constant=0.5 * float(tvec @ tvec),
    )
    return prob, 0.5


def _box_qp():
    # min 0.5*||x - a||^2 s.t. x >= 0 with a = [1, -2]: x = [1, 0]
    a = np.array([1.0, -2.0])
    prob = ConicProblem(
        c=-a,
        A=sp.csc_matrix(-np.eye(2)),
        b=np.zeros(2),
        cones=ConeDims(nonneg=2),
        P=sp.eye(2, format="csc"),
        objective_constant=0.5 * float(a @ a),
    )
    return prob, 0.5 * 4.0


def _simplex_qp():
    # min 0.5*||x||^2 s.t. sum(x) = 1 (n=3): x = 1/3 * ones, value 1/6
    prob = ConicProblem(
        c=np.zeros(3),
        A=sp.csc_matrix(np.ones((1, 3))),
        b=np.array([1.0]),
        cones=ConeDims(zero=1),
        P=sp.eye(3, format="csc"),
    )
    return prob, 1.0 / 6.0


def build_problems():
    problems = []
    problems.append(("lp_scalar_bound", *_lp([1.0], A_ub=[[-1.0]], b_ub=[-1.0])))
    problems.append((
        "lp_capped_sum",
        *_lp([-1.0, -1.0],
             A_ub=[[1.0, 1.0], [1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]],
             b_ub=[2.0, 1.5, 0.0, 0.0]),
    ))
    problems.append((
        "lp_covering",
        *_lp([2.0, 3.0],
             A_ub=[[-1.0, -1.0], [-1.0, 0.0], [0.0, -1.0]],
             b_ub=[-1.0, 0.0, 0.0]),
    ))
    problems.append((
        "lp_box",
        *_lp([3.0, -2.0, 1.0],
             A_ub=np.vstack([np.eye(3), -np.eye(3)]),
             b_ub=[1.0, 2.0, 3.0, 0.0, 0.0, 0.0]),
    ))
    problems.append((
        "lp_equality",
        *_lp([1.0, 1.0],
             A_ub=[[-1.0, 0.0], [0.0, -1.0]], b_ub=[0.0, 0.0],
             A_eq=[[1.0, 2.0]], b_eq=[3.0]),
    ))
    problems.append(("qp_clip_to_orthant", *_box_qp()))
    problems.append(("qp_simplex_projection", *_simplex_qp()))
    problems.append(("sdp_min_trace_unit_coupling", *_min_trace_unit_coupling()))
    problems.append(("sdp_min_eigenvalue", *_min_eigenvalue()))
    problems.append(("sdp_nearest_psd", *_nearest_psd()))
    assert len(problems) == 10
    return problems


def empty_side_problems():
    """Two problems with an empty side, by name: a QP without rows (min
    0.5 x'Px + c'x, so x = -P^-1 c = [-8/7, 18/7]) and a problem without
    variables, whose slack b = [1, 2] lies in its cone."""
    return {
        "no-rows": ConicProblem(c=np.array([1.0, -2.0]), A=sp.csc_matrix((0, 2)), b=np.zeros(0),
                                cones=ConeDims(), P=sp.csc_matrix([[2.0, 0.5], [0.5, 1.0]])),
        "no-variables": ConicProblem(c=np.zeros(0), A=np.zeros((2, 0)), b=np.array([1.0, 2.0]),
                                     cones=ConeDims(nonneg=2)),
    }
