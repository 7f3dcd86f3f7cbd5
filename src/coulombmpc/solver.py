"""First-order operator-splitting solver for quadratic conic programs.

Solves

    minimize   (1/2) z'Pz + c'z
    subject to A z + s = b,   s in K,

with K a product of zero / nonnegative / PSD cones, by ADMM: each iteration
alternates one linear KKT solve (factorized once and reused across
iterations and solves), a Euclidean projection of the slack onto the cone,
and a dual ascent step.  Diagonal Ruiz equilibration is applied up front
because the intended problems mix weights spanning many orders of
magnitude; the equilibration is forced to be uniform across each PSD block
so cone membership is preserved.

Termination uses residuals of the original (unscaled) data:

    primal:  ||A z + s - b||_inf
    dual:    ||P z + c + A'y||_inf

each compared against eps_abs + eps_rel * (problem scale).  The solver is
fully deterministic: identical inputs produce identical iterates.

A :class:`ConicSolver` is bound to one problem structure: P, A, c, the
cones and the settings are fixed at construction, and each solve takes only
a right-hand side b (the receding-horizon case, where a new measurement
rewrites the stage-0 pin).  Everything that depends on the structure lives
in a workspace built on the first solve, not at construction: the
equilibrated data, the KKT matrix (a rho update rewrites only its -1/rho
diagonal before refactoring), the cached transposes A' (unscaled, for the
dual residual) and A_s' (scaled, for the rho balance) in CSR form, the cone
projector's gather indices, and every iteration buffer.  The loop only
solves, projects and updates, writing through ufunc ``out=`` arguments in
the operation order of the plain loop kept in ``tests/reference_admm.py``.

Termination is checked once per block of ``_CHECK_EVERY`` iterations: each
iteration copies its x, w and y into one row of the block, and after the
block the residuals of all its iterates come from one batched pass (sparse
times dense products whose kernels accumulate in the matvecs' order).  An
in-order scan then applies the per-iteration tests iterate by iterate and
stops at the first iterate at which a check after every iteration would have
stopped; the up to ``_CHECK_EVERY - 1`` iterates computed past it are
discarded, and so is an exception one of them raises (eigh failing on an
all-NaN slack) when the iterates before it already end the solve.  Rho
updates fall on block ends.  Invariant: the returned result, the iteration
count and the ``log_callback`` stream are bit-identical to that plain loop's.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .conic import ConeDims, ConicProblem, sym_gather, vec_dim

OPTIMAL = "optimal"
MAX_ITERS = "max_iters"
INFEASIBLE_SUSPECT = "infeasible_suspect"

_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_EQ_FACTOR = 1e3  # zero-cone rows get a stiffer penalty
_RHO_CHECK_EVERY = 100
_CHECK_EVERY = 10  # iterations per termination-check block; divides _RHO_CHECK_EVERY
_RHO_TRIGGER = 5.0
_STALL_ITERS = 2000
_STALL_SCORE = 1e4


@dataclass
class SolverSettings:
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iters: int = 20000
    rho: float = 1.0
    adaptive_rho: bool = True
    warm_start: bool = True
    sigma: float = 1e-6  # primal regularization of the KKT system
    alpha: float = 1.6  # over-relaxation
    equilibrate: bool = True
    ruiz_iters: int = 10

    def __post_init__(self):
        if self.eps_abs <= 0 or self.eps_rel < 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not (0 < self.alpha < 2):
            raise ValueError("alpha must lie in (0, 2)")
        if self.rho <= 0 or self.sigma <= 0:
            raise ValueError("rho and sigma must be positive")


@dataclass
class SolveResult:
    z: np.ndarray
    s: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    solve_time: float
    objective: float


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm.

    The input is symmetrized defensively; negative eigenvalues are clamped
    to zero.  Kept as the one-matrix reference that the batched PSD step of
    :meth:`_ConeProjector.project` is tested against.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("cannot project a matrix with non-finite entries")
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T


class _ConeProjector:
    """Projection onto the product cone, batching equal-size PSD blocks.

    Each group of equal-size PSD blocks keeps its ``(k, vec_dim)`` slot
    indices ``flat`` (the one PSD block layout, which the equilibration reads
    too), a ``(k, side, side)`` gather index into the slack vector and the
    matching off-diagonal unscaling, so one fancy index and one divide build
    the stack of symmetric matrices.
    """

    def __init__(self, cones: ConeDims):
        self.zero_end = cones.zero
        self.nonneg_end = cones.zero + cones.nonneg
        offsets = []
        off = self.nonneg_end
        for side in cones.psd:
            offsets.append(off)
            off += vec_dim(side)
        self.groups = []
        for side in sorted(set(cones.psd)):
            starts = np.array(
                [o for o, s in zip(offsets, cones.psd) if s == side], dtype=int
            )
            flat = starts[:, None] + np.arange(vec_dim(side))[None, :]
            index, unscale = sym_gather(side)
            lower = np.ravel_multi_index(np.tril_indices(side), (side, side))
            gather = starts[:, None, None] + index
            # full-shape unscaling: a same-shape divide skips broadcasting
            unscale_all = np.broadcast_to(unscale, gather.shape).copy()
            self.groups.append((flat, gather, unscale_all, lower, unscale.ravel()[lower]))

    def project(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty_like(v)
        z, nn = self.zero_end, self.nonneg_end
        out[:z] = 0.0
        np.maximum(v[z:nn], 0.0, out=out[z:nn])
        for flat, gather, unscale_all, lower, scale in self.groups:
            mats = v[gather]
            mats /= unscale_all
            eigvals, eigvecs = np.linalg.eigh(mats)
            np.maximum(eigvals, 0.0, out=eigvals)
            rec = np.einsum("kij,kj,klj->kil", eigvecs, eigvals, eigvecs)
            out[flat] = rec.reshape(len(flat), -1)[:, lower] * scale
        return out


def _amax(v: np.ndarray) -> float:
    """Infinity norm of v, 0 for an empty vector."""
    return np.abs(v).max() if v.size else 0.0


def _row_amax(block: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Infinity norm of each row, 0 for empty rows; ``out`` receives abs(block)."""
    if not block.shape[1]:
        return np.zeros(block.shape[0])
    return np.abs(block, out=out).max(axis=1)


def _col_inf_norms(mat: sp.csc_matrix) -> np.ndarray:
    out = np.asarray(abs(mat).max(axis=0).todense()).ravel() if mat.nnz else np.zeros(mat.shape[1])
    return out


def _row_inf_norms(mat: sp.csc_matrix) -> np.ndarray:
    out = np.asarray(abs(mat).max(axis=1).todense()).ravel() if mat.nnz else np.zeros(mat.shape[0])
    return out


def _csc_row_col(mat: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every stored entry of a CSC matrix."""
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    return mat.indices, cols


class _Workspace:
    """Scaled data, cached factorization and iteration buffers of a solver."""

    def __init__(self, P_s, A_s, q_s, d, e, gamma, A, projector, settings):
        m, n = A_s.shape
        self.P_s, self.A_s, self.q_s = P_s, A_s, q_s
        self.A_s_T = A_s.T  # CSR views: no transpose is rebuilt per iteration
        self.A_T = A.T
        self.d, self.e, self.gamma = d, e, gamma
        self.projector = projector
        # the KKT pattern is fixed; only its lower-right -1/rho diagonal moves
        self.kkt = sp.bmat(
            [
                [P_s + settings.sigma * sp.eye(n), A_s.T],
                [A_s, -sp.eye(m)],
            ],
            format="csc",
        )
        rows, cols = _csc_row_col(self.kkt)
        self._rho_diag = np.flatnonzero((rows == cols) & (cols >= n))
        # iteration buffers, reused by every solve on this workspace
        for name, size in (
            ("rhs", n + m), ("x", n), ("w", m), ("w_next", m), ("y", m),
            ("y_rho", m), ("w_half", m), ("w_relaxed", m), ("proj_in", m),
            ("proj_out", m),
        ):
            setattr(self, name, np.zeros(size))
        # one row per iterate of a check block: the iterates, their unscaled
        # counterparts and the residual scratch of the batched check
        for name, size in (
            ("x_rows", n), ("w_rows", m), ("y_rows", m), ("z_u", n),
            ("w_u", m), ("y_u", m), ("s_u", m), ("resid_m", m),
            ("resid_n", n), ("zeros_n", n),
        ):
            setattr(self, name, np.zeros((_CHECK_EVERY, size)))
        self.set_rho(settings.rho)

    def refactor(self):
        self.kkt.data[self._rho_diag] = -(1.0 / self.rho_vec)
        self.lu = splu(self.kkt)

    def set_rho(self, rho_scalar: float):
        self.rho_scalar = float(np.clip(rho_scalar, _RHO_MIN, _RHO_MAX))
        rho = np.full(self.A_s.shape[0], self.rho_scalar)
        rho[: self.projector.zero_end] = np.clip(
            self.rho_scalar * _RHO_EQ_FACTOR, _RHO_MIN, _RHO_MAX
        )
        self.rho_vec = rho
        self.refactor()


class ConicSolver:
    """ADMM solver bound to one problem structure.

    P, A, c, the cones, the objective constant and the settings are fixed at
    construction; :meth:`solve` takes only a right-hand side b, so re-solving
    for a new b (the receding-horizon case) reuses the equilibration, the
    factorization and a rho adapted by earlier solves.  The workspace holding
    them is built on the first solve, not here, so constructing a solver is
    cheap.  The matrices of ``prob`` must not be modified afterwards.  A
    solver instance is not thread-safe during :meth:`solve`; use one
    instance per concurrent solve.
    """

    def __init__(self, prob: ConicProblem, settings: SolverSettings | None = None):
        if not (
            np.all(np.isfinite(prob.c))
            and np.all(np.isfinite(prob.A.data))
            and (prob.P is None or np.all(np.isfinite(prob.P.data)))
        ):
            raise ValueError("problem data contains non-finite entries")
        self.prob = prob
        self.settings = settings or SolverSettings()
        self._ws: _Workspace | None = None

    # -- setup ---------------------------------------------------------------
    def _prepare(self) -> _Workspace:
        prob, settings = self.prob, self.settings
        n = prob.num_vars
        P = prob.P if prob.P is not None else sp.csc_matrix((n, n))
        P_s = P.copy().astype(float)
        A_s = prob.A.copy().astype(float)
        q_s = prob.c.astype(float).copy()
        d = np.ones(n)
        e = np.ones(prob.num_rows)
        gamma = 1.0
        projector = _ConeProjector(prob.cones)
        if settings.equilibrate:
            # scaling .data in place equals the D P D and E A D products
            # entry for entry once the pattern is canonical without zeros
            for mat in (P_s, A_s):
                mat.sum_duplicates()
                mat.eliminate_zeros()
            p_rows, p_cols = _csc_row_col(P_s)
            a_rows, a_cols = _csc_row_col(A_s)
            for _ in range(settings.ruiz_iters):
                col_norm = np.maximum(_col_inf_norms(P_s), _col_inf_norms(A_s))
                col_norm[col_norm == 0] = 1.0
                dd = 1.0 / np.sqrt(col_norm)
                row_norm = _row_inf_norms(A_s)
                # a PSD block must be scaled uniformly or the cone is distorted
                for flat, *_ in projector.groups:
                    row_norm[flat] = row_norm[flat].max(axis=1)[:, None]
                row_norm[row_norm == 0] = 1.0
                ee = 1.0 / np.sqrt(row_norm)
                P_s.data *= dd[p_rows]
                P_s.data *= dd[p_cols]
                A_s.data *= ee[a_rows]
                A_s.data *= dd[a_cols]
                q_s *= dd
                d *= dd
                e *= ee
                # interleaved cost normalization keeps P from dominating the
                # column norms, so A itself ends up equilibrated too
                cost_scale = max(
                    float(_col_inf_norms(P_s).mean()) if P_s.nnz else 0.0,
                    float(_amax(q_s)),
                )
                if cost_scale > 0:
                    step = float(np.clip(1.0 / cost_scale, 1e-8, 1e8))
                    P_s.data *= step
                    q_s = step * q_s
                    gamma *= step

        return _Workspace(P_s, A_s, q_s, d, e, gamma, prob.A, projector, settings)

    # -- main loop -------------------------------------------------------------
    def solve(
        self,
        b: np.ndarray | None = None,
        warm: SolveResult | None = None,
        log_callback=None,
    ) -> SolveResult:
        """Solve for right-hand side ``b`` (default: the bound problem's b).

        ``warm`` is a previous result of the same structure; a warm start
        whose sizes do not match raises ``ValueError``.  ``log_callback(k,
        r_prim, r_dual)`` receives every checked iterate k = 1..iterations in
        order, in bursts after each block of ``_CHECK_EVERY`` iterations, and
        nothing past the returned iteration count.
        """
        t0 = time.perf_counter()
        prob, settings = self.prob, self.settings
        n, mr = prob.num_vars, prob.num_rows
        b = prob.b if b is None else np.asarray(b, dtype=float)
        if b.shape != (mr,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({mr},)")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side contains non-finite entries")
        if warm is not None and (warm.z.size, warm.s.size, warm.y.size) != (n, mr, mr):
            raise ValueError("warm start does not match the problem's dimensions")

        if self._ws is None:
            self._ws = self._prepare()
        ws = self._ws
        P = prob.P
        A = prob.A
        c = prob.c
        d, e, gamma, q_s = ws.d, ws.e, ws.gamma, ws.q_s
        A_T, A_s, A_s_T, P_s = ws.A_T, ws.A_s, ws.A_s_T, ws.P_s
        b_s = e * b

        x, w, w_next, y = ws.x, ws.w, ws.w_next, ws.y
        if warm is not None:
            x[:] = warm.z / d
            w[:] = e * (b - warm.s)
            y[:] = gamma * warm.y / e
        else:
            x.fill(0.0)
            w.fill(0.0)
            y.fill(0.0)

        rhs = ws.rhs
        rhs_x, rhs_w = rhs[:n], rhs[n:]
        y_rho, w_half, w_relaxed = ws.y_rho, ws.w_half, ws.w_relaxed
        proj_in, proj_out = ws.proj_in, ws.proj_out
        x_rows, w_rows, y_rows = ws.x_rows, ws.w_rows, ws.y_rows
        project = ws.projector.project
        rho_vec, lu_solve = ws.rho_vec, ws.lu.solve

        sigma, alpha = settings.sigma, settings.alpha
        beta = 1.0 - alpha
        eps_abs, eps_rel = settings.eps_abs, settings.eps_rel
        adaptive_rho = settings.adaptive_rho
        max_iters = settings.max_iters
        b_scale = _amax(b)
        c_scale = _amax(c)

        best_score = np.inf
        best = None
        best_iter = 0
        status = None
        it = 0  # iterations completed before the current block

        while it < max_iters:
            count = min(_CHECK_EVERY, max_iters - it)
            done = 0
            failure = None
            try:
                for row in range(count):
                    # rhs = [sigma x - q_s, w - y/rho]
                    np.multiply(sigma, x, out=rhs_x)
                    np.subtract(rhs_x, q_s, out=rhs_x)
                    np.divide(y, rho_vec, out=y_rho)
                    np.subtract(w, y_rho, out=rhs_w)
                    sol = lu_solve(rhs)
                    x_half = sol[:n]
                    nu = sol[n:]
                    # w_half = w + (nu - y)/rho
                    np.subtract(nu, y, out=w_half)
                    np.divide(w_half, rho_vec, out=w_half)
                    np.add(w, w_half, out=w_half)
                    # x = alpha x_half + (1 - alpha) x, and likewise w_relaxed
                    np.multiply(alpha, x_half, out=x_half)
                    np.multiply(beta, x, out=x)
                    np.add(x_half, x, out=x)
                    np.multiply(alpha, w_half, out=w_half)
                    np.multiply(beta, w, out=w_relaxed)
                    np.add(w_half, w_relaxed, out=w_relaxed)
                    # w_next = b_s - proj(b_s - (w_relaxed + y/rho))
                    np.add(w_relaxed, y_rho, out=proj_in)
                    np.subtract(b_s, proj_in, out=proj_in)
                    project(proj_in, out=proj_out)
                    np.subtract(b_s, proj_out, out=w_next)
                    # y = y + rho (w_relaxed - w_next)
                    np.subtract(w_relaxed, w_next, out=w_relaxed)
                    np.multiply(rho_vec, w_relaxed, out=w_relaxed)
                    np.add(y, w_relaxed, out=y)
                    w, w_next = w_next, w
                    x_rows[row] = x
                    w_rows[row] = w
                    y_rows[row] = y
                    done = row + 1
            except Exception as exc:
                # whatever an iterate past the stopping one raises (e.g. eigh
                # on an all-NaN slack) must not surface: scan the rows before it
                failure = exc

            # residuals of the original, unscaled problem, one row per iterate
            z_u = np.multiply(d, x_rows[:done], out=ws.z_u[:done])
            w_u = np.divide(w_rows[:done], e, out=ws.w_u[:done])
            y_u = np.multiply(e, y_rows[:done], out=ws.y_u[:done])
            y_u /= gamma
            s_u = np.subtract(b, w_u, out=ws.s_u[:done])
            Az = (A @ z_u.T).T
            resid_m = np.subtract(Az, w_u, out=ws.resid_m[:done])
            Pz = (P @ z_u.T).T if P is not None else ws.zeros_n[:done]
            Aty = (A_T @ y_u.T).T
            resid_n = np.add(Pz, c, out=ws.resid_n[:done])
            np.add(resid_n, Aty, out=resid_n)
            r_prims = _row_amax(resid_m, out=resid_m).tolist()
            r_duals = _row_amax(resid_n, out=resid_n).tolist()
            # the scales only matter where both residuals are finite
            prim_scales = zip(
                _row_amax(Az, out=Az).tolist(), _row_amax(s_u, out=resid_m).tolist()
            )
            dual_scales = zip(
                _row_amax(Pz, out=resid_n).tolist(), _row_amax(Aty, out=Aty).tolist()
            )

            # the per-iteration termination logic, iterate by iterate
            block_best = None
            for row, (r_prim, r_dual, (az, su), (pz, aty)) in enumerate(
                zip(r_prims, r_duals, prim_scales, dual_scales)
            ):
                k = it + row + 1
                if not (math.isfinite(r_prim) and math.isfinite(r_dual)):
                    status = INFEASIBLE_SUSPECT
                    break
                eps_prim = eps_abs + eps_rel * max(az, su, b_scale)
                eps_dual = eps_abs + eps_rel * max(pz, aty, c_scale)
                if log_callback is not None:
                    log_callback(k, r_prim, r_dual)
                score = max(r_prim / eps_prim, r_dual / eps_dual)
                if score < best_score:
                    best_score = score
                    best_iter = k
                    block_best = row
                if r_prim <= eps_prim and r_dual <= eps_dual:
                    status = OPTIMAL
                    break
                if k - best_iter > _STALL_ITERS and best_score > _STALL_SCORE:
                    status = INFEASIBLE_SUSPECT
                    break
            else:
                row = done - 1
            if status is None and failure is not None:
                raise failure
            if block_best is not None:
                j = block_best
                best = (z_u[j].copy(), s_u[j].copy(), y_u[j].copy(), r_prims[j], r_duals[j])
            elif best is None:  # the first iterate is already non-finite
                best = (z_u[row].copy(), s_u[row].copy(), y_u[row].copy(), np.inf, np.inf)
            it += row + 1
            if status is not None:
                break

            if adaptive_rho and it % _RHO_CHECK_EVERY == 0:
                # balance the residuals of the *scaled* problem, the space the
                # iteration actually lives in
                Ax_s = A_s @ x
                Px_s = P_s @ x
                Aty_s = A_s_T @ y
                rp_s = _amax(Ax_s - w) / max(_amax(Ax_s), _amax(w), 1e-12)
                rd_s = _amax(Px_s + q_s + Aty_s) / max(
                    _amax(Px_s), _amax(Aty_s), _amax(q_s), 1e-12
                )
                if rp_s > 0 and rd_s > 0:
                    ratio = np.sqrt(rp_s / rd_s)
                    if ratio > _RHO_TRIGGER or ratio < 1.0 / _RHO_TRIGGER:
                        ws.set_rho(ws.rho_scalar * float(ratio))
                        rho_vec, lu_solve = ws.rho_vec, ws.lu.solve

        z_u, s_u, y_u, r_prim, r_dual = best
        return SolveResult(
            z=z_u,
            s=s_u,
            y=y_u,
            status=status or MAX_ITERS,
            iterations=it,
            primal_residual=float(r_prim),
            dual_residual=float(r_dual),
            solve_time=time.perf_counter() - t0,
            objective=prob.objective_value(z_u),
        )

