"""Reference ADMM: the original, unoptimized solver loop.

This is the plain iteration the package's :class:`coulombmpc.ConicSolver`
started from: every vector is freshly allocated, ``A.T`` is rebuilt on each
iteration, the PSD projection scatters into zeroed stacks, Ruiz
equilibration multiplies by diagonal matrices and each rho refactor
reassembles the KKT matrix with ``bmat``.  The optimized solver must
reproduce its iterates bit for bit (see ``test_solver_reference.py``).
Besides the class name and imports, six edits follow the solver's rules:
the fixed tuning (sigma, alpha, the initial rho, the Ruiz passes; always
equilibrated, rho always adapted) is read from the solver's constants, a
result is the iterate the loop stopped at, not the best-scoring one, the
projection turns a matrix that ``np.linalg.eigh`` cannot decompose into
NaN (:func:`_eigh_or_nan`), so its iterate ends the loop as any other
non-finite one does, a result no longer carries its cone structure (the
``cones=`` field ``SolveResult`` does not have), the linear part of an
iteration takes the solver's backend: up to the solver's ``_DENSE_MAX`` =
n + m, read when the KKT matrix is refactored, it is one product with the
map the solver's own ``_dense_map`` builds from the fresh factor, plus b_s
in the last column, on [x; w; y; 1], and otherwise the original LU
arithmetic, and the PSD blocks of the solver's ``_CLOSED_FORM_SIDE`` (2)
are projected by the solver's own closed form ``_project_psd2``, not by
``eigh`` (``test_solver.py`` checks that closed form against ``eigh``).
The objective formula the loop reports, ``c'z + constant + z'Pz/2``, is
kept here as :func:`objective_value`, the tests' one copy of it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from coulombmpc import solver
from coulombmpc.conic import ConeDims, ConicProblem, vec_dim
from coulombmpc.solver import (
    _ALPHA,
    _RHO_CHECK_EVERY,
    _RHO_EQ_FACTOR,
    _RHO_INIT,
    _RHO_MAX,
    _RHO_MIN,
    _RHO_TRIGGER,
    _RUIZ_ITERS,
    _SIGMA,
    _STALL_ITERS,
    _STALL_SCORE,
    INFEASIBLE_SUSPECT,
    MAX_ITERS,
    OPTIMAL,
    SolveResult,
    SolverSettings,
    _dense_map,
)


class _ConeProjector:
    """Projection onto the product cone, batching equal-size PSD blocks."""

    def __init__(self, cones: ConeDims):
        self.zero_end = cones.zero
        self.nonneg_end = cones.zero + cones.nonneg
        offsets = []
        off = self.nonneg_end
        for side in cones.psd:
            offsets.append(off)
            off += vec_dim(side)
        self.total = off
        self.groups = []
        for side in sorted(set(cones.psd)):
            starts = np.array(
                [o for o, s in zip(offsets, cones.psd) if s == side], dtype=int
            )
            d = vec_dim(side)
            flat = starts[:, None] + np.arange(d)[None, :]
            r, c = np.tril_indices(side)
            scale = np.where(r == c, 1.0, np.sqrt(2.0))
            self.groups.append((side, flat, r, c, scale))

    def project(self, v: np.ndarray) -> np.ndarray:
        out = np.empty_like(v)
        out[: self.zero_end] = 0.0
        out[self.zero_end : self.nonneg_end] = np.maximum(
            v[self.zero_end : self.nonneg_end], 0.0
        )
        for side, flat, r, c, scale in self.groups:
            if side == solver._CLOSED_FORM_SIDE:
                out[flat] = np.reshape(solver._project_psd2(v[flat].ravel().tolist()), flat.shape)
                continue
            vals = v[flat] / scale
            mats = np.zeros((flat.shape[0], side, side))
            mats[:, r, c] = vals
            mats[:, c, r] = vals
            eigvals, eigvecs = _eigh_or_nan(mats)
            eigvals = np.maximum(eigvals, 0.0)
            rec = np.einsum("kij,kj,klj->kil", eigvecs, eigvals, eigvecs)
            out[flat] = rec[:, r, c] * scale
        return out


def _eigh_or_nan(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a stack, with NaN eigenpairs for each matrix it
    cannot decompose: on ``LinAlgError`` the stack is decomposed again matrix
    by matrix (a matrix's bits do not depend on the stack)."""
    try:
        return np.linalg.eigh(mats)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.full(mats.shape[:2], np.nan), np.full(mats.shape, np.nan)
        for k, mat in enumerate(mats):
            try:
                eigvals[k], eigvecs[k] = np.linalg.eigh(mat)
            except np.linalg.LinAlgError:
                pass
        return eigvals, eigvecs


def _col_inf_norms(mat: sp.csc_matrix) -> np.ndarray:
    out = np.asarray(abs(mat).max(axis=0).todense()).ravel() if mat.nnz else np.zeros(mat.shape[1])
    return out


def _row_inf_norms(mat: sp.csc_matrix) -> np.ndarray:
    out = np.asarray(abs(mat).max(axis=1).todense()).ravel() if mat.nnz else np.zeros(mat.shape[0])
    return out


def _psd_row_blocks(cones: ConeDims) -> list[slice]:
    blocks = []
    off = cones.zero + cones.nonneg
    for side in cones.psd:
        d = vec_dim(side)
        blocks.append(slice(off, off + d))
        off += d
    return blocks


def objective_value(prob: ConicProblem, z: np.ndarray) -> float:
    """The objective ``c'z + constant + z'Pz/2`` of ``prob`` at ``z``, in this order."""
    return float(prob.c @ z) + prob.objective_constant + 0.5 * float(z @ (prob.P @ z))


@dataclass
class _Workspace:
    """Scaled data and cached factorization for one problem structure."""

    P_s: sp.csc_matrix
    A_s: sp.csc_matrix
    q_s: np.ndarray
    d: np.ndarray
    e: np.ndarray
    gamma: float
    rho_base: float
    rho_scalar: float
    rho_vec: np.ndarray = field(default=None)
    lu: object = None
    dense_map: np.ndarray | None = None
    projector: _ConeProjector = None
    cones: ConeDims = None
    sigma: float = 1e-6
    fingerprint: tuple = ()

    def refactor(self):
        n = self.A_s.shape[1]
        kkt = sp.bmat(
            [
                [self.P_s + self.sigma * sp.eye(n), self.A_s.T],
                [self.A_s, -sp.diags(1.0 / self.rho_vec)],
            ],
            format="csc",
        )
        self.lu = splu(kkt)
        self.dense_map = None
        if n + self.A_s.shape[0] <= solver._DENSE_MAX:
            self.dense_map = _dense_map(self.lu, self.rho_vec, self.q_s)

    def set_rho(self, rho_scalar: float):
        self.rho_scalar = float(np.clip(rho_scalar, _RHO_MIN, _RHO_MAX))
        rho = np.full(self.A_s.shape[0], self.rho_scalar)
        rho[: self.cones.zero] = np.clip(
            self.rho_scalar * _RHO_EQ_FACTOR, _RHO_MIN, _RHO_MAX
        )
        self.rho_vec = rho
        self.refactor()


def _matrix_fingerprint(mat: sp.csc_matrix | None):
    if mat is None:
        return None
    return (mat.shape, mat.indptr, mat.indices, mat.data)


def _same_fingerprint(a, b) -> bool:
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    return a[0] == b[0] and all(np.array_equal(x, y) for x, y in zip(a[1:], b[1:]))


class ReferenceSolver:
    """ADMM solver instance; reuses scaling and factorization across solves.

    Re-solving a problem whose P, A and cone structure are unchanged (only c
    untouched / b different, the receding-horizon case) skips equilibration
    and factorization entirely.  A solver instance is not thread-safe during
    :meth:`solve`; use one instance per concurrent solve.
    """

    def __init__(self):
        self._ws: _Workspace | None = None

    # -- setup ---------------------------------------------------------------
    def _prepare(self, prob: ConicProblem, settings: SolverSettings) -> _Workspace:
        n = prob.num_vars
        P = prob.P if prob.P is not None else sp.csc_matrix((n, n))
        fingerprint = (
            _matrix_fingerprint(P),
            _matrix_fingerprint(prob.A),
            np.array(prob.c),
            prob.cones,
        )
        ws = self._ws
        if ws is not None and self._fingerprint_matches(ws.fingerprint, fingerprint):
            return ws

        P_s = P.copy().astype(float)
        A_s = prob.A.copy().astype(float)
        q_s = prob.c.astype(float).copy()
        d = np.ones(n)
        e = np.ones(prob.num_rows)
        gamma = 1.0
        psd_blocks = _psd_row_blocks(prob.cones)
        for _ in range(_RUIZ_ITERS):
            col_norm = np.maximum(_col_inf_norms(P_s), _col_inf_norms(A_s))
            col_norm[col_norm == 0] = 1.0
            dd = 1.0 / np.sqrt(col_norm)
            row_norm = _row_inf_norms(A_s)
            # a PSD block must be scaled uniformly or the cone is distorted
            for blk in psd_blocks:
                row_norm[blk] = row_norm[blk].max()
            row_norm[row_norm == 0] = 1.0
            ee = 1.0 / np.sqrt(row_norm)
            D = sp.diags(dd)
            P_s = (D @ P_s @ D).tocsc()
            A_s = (sp.diags(ee) @ A_s @ D).tocsc()
            q_s *= dd
            d *= dd
            e *= ee
            # interleaved cost normalization keeps P from dominating the
            # column norms, so A itself ends up equilibrated too
            cost_scale = max(
                float(_col_inf_norms(P_s).mean()) if P_s.nnz else 0.0,
                float(np.abs(q_s).max()) if q_s.size else 0.0,
            )
            if cost_scale > 0:
                step = float(np.clip(1.0 / cost_scale, 1e-8, 1e8))
                P_s = (step * P_s).tocsc()
                q_s = step * q_s
                gamma *= step

        ws = _Workspace(
            P_s=P_s,
            A_s=A_s,
            q_s=q_s,
            d=d,
            e=e,
            gamma=gamma,
            rho_base=_RHO_INIT,
            rho_scalar=_RHO_INIT,
            cones=prob.cones,
            sigma=_SIGMA,
            fingerprint=fingerprint,
        )
        ws.projector = _ConeProjector(prob.cones)
        ws.set_rho(_RHO_INIT)
        self._ws = ws
        return ws

    @staticmethod
    def _fingerprint_matches(cached, new) -> bool:
        if len(cached) != len(new):
            return False
        return (
            _same_fingerprint(cached[0], new[0])
            and _same_fingerprint(cached[1], new[1])
            and np.array_equal(cached[2], new[2])
            and cached[3:] == new[3:]
        )

    # -- main loop -------------------------------------------------------------
    def solve(
        self,
        prob: ConicProblem,
        settings: SolverSettings | None = None,
        warm: SolveResult | None = None,
        log_callback=None,
    ) -> SolveResult:
        settings = settings or SolverSettings()
        t0 = time.perf_counter()
        if not (
            np.all(np.isfinite(prob.b))
            and np.all(np.isfinite(prob.c))
            and np.all(np.isfinite(prob.A.data))
            and (prob.P is None or np.all(np.isfinite(prob.P.data)))
        ):
            raise ValueError("problem data contains non-finite entries")

        ws = self._prepare(prob, settings)
        n, mr = prob.num_vars, prob.num_rows
        P = prob.P
        A = prob.A
        b = prob.b
        c = prob.c
        b_s = ws.e * b

        if warm is not None and warm.z.size == n and warm.s.size == mr:
            x = warm.z / ws.d
            w = ws.e * (b - warm.s)
            y = ws.gamma * warm.y / ws.e
        else:
            x = np.zeros(n)
            w = np.zeros(mr)
            y = np.zeros(mr)

        sigma, alpha = _SIGMA, _ALPHA
        b_scale = np.abs(b).max() if b.size else 0.0
        c_scale = np.abs(c).max() if c.size else 0.0

        best_score = np.inf
        best_iter = 0
        status = MAX_ITERS
        iterations = settings.max_iters

        for it in range(1, settings.max_iters + 1):
            if ws.dense_map is not None:
                dense_map = ws.dense_map.copy()
                dense_map[n:, -1] += b_s
                u = dense_map @ np.concatenate([x, w, y, [1.0]])
                x, proj_in = u[:n], u[n:]
                proj = ws.projector.project(proj_in)
                w = b_s - proj
                y = ws.rho_vec * (proj - proj_in)
            else:
                rhs = np.concatenate([sigma * x - ws.q_s, w - y / ws.rho_vec])
                sol = ws.lu.solve(rhs)
                x_half = sol[:n]
                nu = sol[n:]
                w_half = w + (nu - y) / ws.rho_vec
                x = alpha * x_half + (1.0 - alpha) * x
                w_relaxed = alpha * w_half + (1.0 - alpha) * w
                w_new = b_s - ws.projector.project(b_s - (w_relaxed + y / ws.rho_vec))
                y = y + ws.rho_vec * (w_relaxed - w_new)
                w = w_new

            # residuals of the original, unscaled problem
            z_u = ws.d * x
            w_u = w / ws.e
            y_u = (ws.e * y) / ws.gamma
            s_u = b - w_u
            Az = A @ z_u
            r_prim = np.abs(Az - w_u).max() if mr else 0.0
            Pz = P @ z_u if P is not None else np.zeros(n)
            Aty = A.T @ y_u
            r_dual = np.abs(Pz + c + Aty).max() if n else 0.0

            if not (np.isfinite(r_prim) and np.isfinite(r_dual)):
                status = INFEASIBLE_SUSPECT
                iterations = it
                break

            prim_scale = max(np.abs(Az).max() if mr else 0.0, np.abs(s_u).max() if mr else 0.0, b_scale)
            dual_scale = max(np.abs(Pz).max(), np.abs(Aty).max() if mr else 0.0, c_scale)
            eps_prim = settings.eps_abs + settings.eps_rel * prim_scale
            eps_dual = settings.eps_abs + settings.eps_rel * dual_scale

            if log_callback is not None:
                log_callback(it, r_prim, r_dual)

            score = max(r_prim / eps_prim, r_dual / eps_dual)
            if score < best_score:
                best_score = score
                best_iter = it

            if r_prim <= eps_prim and r_dual <= eps_dual:
                status = OPTIMAL
                iterations = it
                break

            if it - best_iter > _STALL_ITERS and best_score > _STALL_SCORE:
                status = INFEASIBLE_SUSPECT
                iterations = it
                break

            if it % _RHO_CHECK_EVERY == 0:
                # balance the residuals of the *scaled* problem, the space the
                # iteration actually lives in
                Ax_s = ws.A_s @ x
                Px_s = ws.P_s @ x
                Aty_s = ws.A_s.T @ y
                rp_s = np.abs(Ax_s - w).max() / max(
                    np.abs(Ax_s).max(), np.abs(w).max(), 1e-12
                )
                rd_s = np.abs(Px_s + ws.q_s + Aty_s).max() / max(
                    np.abs(Px_s).max(),
                    np.abs(Aty_s).max(),
                    np.abs(ws.q_s).max(),
                    1e-12,
                )
                if rp_s > 0 and rd_s > 0:
                    ratio = np.sqrt(rp_s / rd_s)
                    if ratio > _RHO_TRIGGER or ratio < 1.0 / _RHO_TRIGGER:
                        ws.set_rho(ws.rho_scalar * float(ratio))
        else:
            iterations = settings.max_iters

        return SolveResult(
            z=z_u,
            s=s_u,
            y=y_u,
            status=status,
            iterations=iterations,
            primal_residual=float(r_prim),
            dual_residual=float(r_dual),
            solve_time=time.perf_counter() - t0,
            objective=objective_value(prob, z_u),
        )

