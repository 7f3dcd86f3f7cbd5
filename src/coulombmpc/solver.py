"""First-order operator-splitting solver for quadratic conic programs.

Solves

    minimize   (1/2) z'Pz + c'z
    subject to A z + s = b,   s in K,

with K a product of zero / nonnegative / PSD cones, by ADMM: each iteration
alternates one linear KKT solve (factorized once and reused across
iterations and solves), a Euclidean projection of the slack onto the cone,
and a dual ascent step.  Diagonal Ruiz equilibration (``_RUIZ_ITERS``
passes) is applied up front, uniform across each PSD block so cone
membership is preserved.  The tuning is fixed: KKT regularization
``_SIGMA``, over-relaxation ``_ALPHA``, and a penalty rho that starts at
``_RHO_INIT`` and is always adapted (every ``_RHO_CHECK_EVERY`` iterations,
when the scaled residuals differ by more than ``_RHO_TRIGGER``).

Termination uses residuals of the original (unscaled) data:

    primal:  ||A z + s - b||_inf
    dual:    ||P z + c + A'y||_inf

each compared against eps_abs + eps_rel * (problem scale).

Contract:

- A :class:`ConicSolver` is bound to one problem structure (P, A, c, the
  cones and the settings); each solve takes only a right-hand side b.  The
  workspace (scaling, factorization, buffers) is built on the first solve.
  The settings are only the tolerances, the iteration budget and whether
  the controller warm starts.
- A result is the iterate the solve stopped at, whatever its status.
- Termination is checked once per block of at most ``_CHECK_EVERY``
  iterations.  Blocks end at every multiple of ``_RHO_CHECK_EVERY``, and a
  block also ends at the warm start's iteration count (an int of at least
  1), where receding-horizon solves often stop.  Once that count has
  settled, that is when the solver's last ``_SETTLED_AFTER`` solves each
  stopped ``optimal`` exactly at their own warm start's count, the first
  block runs straight to the first of this solve's warm count, the next rho
  check and the budget, and is checked in one pass.  A check decides the
  plain loop's termination rules (a non-finite residual, convergence, the
  stall rule) for every iterate of its block in one vectorized pass, in
  iterate order, carrying the stall rule's best score from block to block.
  The solve stops at the first iterate at which a check after every
  iteration would have stopped.
  The returned result, the iteration count and the ``log_callback`` stream
  are bit-identical to the plain loop kept in ``tests/reference_admm.py``;
  identical inputs give identical iterates.
- A block's iterates fill rows from row 0 of buffers sized for the longest
  block, so the check reads them in place and multiplies no stale row.  A
  block of ``_CHECK_EVERY`` iterates ends in the start row, the one row 0
  reads; any other copies its last iterate there, for the next block and
  the rho balance.
- The loop calls private entry points (numpy >= 2.0, scipy >= 1.10): the
  ``eigh_lo`` gufunc, in the solve's quiet error state, ``c_einsum`` and
  scipy's ``_sparsetools`` kernels, each checked against its public
  counterpart in the tests.

How the loop reaches that bit for bit (the stacked ``[x; w]`` iterate, the
iterate-major block check, the bound projection) is recorded in CHANGES.md.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from numpy._core.multiarray import c_einsum
from numpy.linalg._umath_linalg import eigh_lo
from scipy.sparse import _sparsetools
from scipy.sparse.linalg import splu

from .conic import ConeDims, ConicProblem, sym_gather, vec_dim
from .dynamics import _check_count, _check_positive

OPTIMAL = "optimal"
MAX_ITERS = "max_iters"
INFEASIBLE_SUSPECT = "infeasible_suspect"

_RHO_INIT = 1.0  # the first solve's rho; later solves start from the adapted one
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_EQ_FACTOR = 1e3  # zero-cone rows get a stiffer penalty
_RHO_CHECK_EVERY = 100
_CHECK_EVERY = 10  # the most iterations per termination-check block
_SETTLED_AFTER = 3  # solves in a row stopping at their warm count settle it
_RHO_TRIGGER = 5.0
_SIGMA = 1e-6  # primal regularization of the KKT system
_ALPHA = 1.6  # over-relaxation
_RUIZ_ITERS = 10
_STALL_ITERS = 2000
_STALL_SCORE = 1e4


@dataclass(frozen=True)
class SolverSettings:
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6
    max_iters: int = 20000
    warm_start: bool = True

    def __post_init__(self):
        object.__setattr__(self, "eps_abs", _check_positive(self.eps_abs, "eps_abs"))
        object.__setattr__(self, "eps_rel", _check_positive(self.eps_rel, "eps_rel", zero_ok=True))
        object.__setattr__(self, "max_iters", _check_count(self.max_iters, "max_iters"))
        if not isinstance(self.warm_start, bool):
            raise ValueError(f"warm_start must be true or false, got {self.warm_start!r}")


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


class _ConeProjector:
    """Projection onto the product cone, batching equal-size PSD blocks.

    A group is a maximal run of consecutive PSD blocks of one side, so its
    ``k`` blocks fill the slots ``start .. start + k * vec_dim`` (the one PSD
    block layout, which the equilibration reads too).  It keeps a
    ``(k, side, side)`` gather index into the slack vector and the matching
    off-diagonal unscaling, so one fancy index and one divide build the
    stack of symmetric matrices, and the ``(k, vec_dim)`` rescaling of their
    lower triangles.
    """

    def __init__(self, cones: ConeDims):
        self.zero_end = cones.zero
        self.nonneg_end = start = cones.zero + cones.nonneg
        self.groups = []
        for side, run in itertools.groupby(cones.psd):
            k, dim = len(list(run)), vec_dim(side)
            index, unscale = sym_gather(side)
            lower = np.ravel_multi_index(np.tril_indices(side), (side, side))
            gather = start + dim * np.arange(k)[:, None, None] + index
            # the lower triangles of the stacked matrices, as flat indices
            lower_all = np.arange(k)[:, None] * side * side + lower
            # full-shape scalings: a same-shape divide or multiply skips broadcasting
            unscale_all = np.broadcast_to(unscale, gather.shape).copy()
            scale_all = np.broadcast_to(unscale.ravel()[lower], (k, dim)).copy()
            self.groups.append((start, gather, unscale_all, lower_all, scale_all))
            start += k * dim

    def bind(self, v: np.ndarray, out: np.ndarray):
        """A call writing the projection of ``v`` into ``out`` (1-D buffers of
        the cone's length) and returning ``out``.  The zero-cone slots are
        zeroed here, once, so nothing else may write them; each group gets
        its lower triangles scaled straight into a ``(k, vec_dim)`` view of
        ``out``."""
        z, nn = self.zero_end, self.nonneg_end
        out[:z] = 0.0
        v_nn, out_nn, zeros_nn = v[z:nn], out[z:nn], _constant(0.0, nn - z)
        groups = [(gather, unscale_all, lower_all, scale_all, _constant(0.0, gather.shape[:2]),
                   out[start : start + scale_all.size].reshape(scale_all.shape))
                  for start, gather, unscale_all, lower_all, scale_all in self.groups]
        maximum, multiply, divide = np.maximum, np.multiply, np.divide

        def project() -> np.ndarray:
            maximum(v_nn, zeros_nn, out=out_nn)
            for gather, unscale_all, lower_all, scale_all, zeros, target in groups:
                mats = v[gather]
                divide(mats, unscale_all, mats)
                eigvals, eigvecs = eigh_lo(mats)  # NaN where it cannot decompose
                maximum(eigvals, zeros, out=eigvals)
                vals = c_einsum("kij,kj,klj->kil", eigvecs, eigvals, eigvecs).take(lower_all)
                multiply(vals, scale_all, target)
            return out

        return project


def _constant(value: float, shape) -> np.ndarray:
    """A read-only array of ``value``: a ufunc operand with the scalar's bits, unconverted."""
    arr = np.full(shape, value)
    arr.setflags(write=False)
    return arr


def _amax(v: np.ndarray) -> float:
    """Infinity norm of v, 0 for an empty vector."""
    return np.abs(v).max() if v.size else 0.0


def _inf_norms(index: np.ndarray, data: np.ndarray, size: int) -> np.ndarray:
    """Infinity norm of each of ``size`` rows (or columns) of a sparse matrix,
    given the row (or column) ``index`` of each stored entry in ``data``; 0
    when empty.  A maximum is exact in any order."""
    norms = np.zeros(size)
    np.maximum.at(norms, index, np.abs(data))
    return norms


def _bind_product(mat, x: np.ndarray, out: np.ndarray):
    """A call setting ``out = mat @ x`` (CSC or CSR mat; C-contiguous x and out,
    1-D or one column per vector) by the sparsetools kernel that scipy's ``@``
    runs for that shape, on a zeroed out, so the bits are those of ``@``."""
    kernel = getattr(_sparsetools, f"{mat.format}_matvec" + "s" * (x.ndim - 1))
    kernel = partial(kernel, *mat.shape, *x.shape[1:], mat.indptr, mat.indices, mat.data, x, out)

    def product():
        out.fill(0.0)
        kernel()
        return out

    return product


def _bind_check_products(mats, z_u, y_u, columns, az, pz, aty):
    """A call setting the rows of ``az``, ``pz`` and ``aty`` to A z, P z and
    A'y of the iterates in the columns of ``z_u`` and ``y_u``.  The kernels
    take and give one column per iterate, so each product goes to a
    contiguous (size, k) view of the flat buffer ``columns`` and is copied
    back transposed; no stale iterate is multiplied.  ``mats`` is (A, A', P)."""
    k = z_u.shape[1]
    products, offset = [], 0
    for mat, x, rows in zip(mats, (z_u, y_u, z_u), (az, aty, pz)):
        out = columns[offset : offset + mat.shape[0] * k].reshape(mat.shape[0], k)
        products.append((_bind_product(mat, x, out), rows))
        offset += out.size
    copyto = np.copyto

    def check_products():
        for product, rows in products:
            copyto(rows, product().T)

    return check_products


def _csc_row_col(mat: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every stored entry of a CSC matrix."""
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    return mat.indices, cols


class _Workspace:
    """Scaled data, cached factorization and iteration buffers of a solver."""

    def __init__(self, prob: ConicProblem):
        n, m = prob.num_vars, prob.num_rows
        P_s = prob.P.astype(float)  # astype copies
        A_s = prob.A.astype(float)
        q_s = prob.c.astype(float).copy()
        d = np.ones(n)
        e = np.ones(m)
        gamma = 1.0
        projector = _ConeProjector(prob.cones)
        # scaling .data in place equals the D P D and E A D products
        # entry for entry once the pattern is canonical without zeros
        for mat in (P_s, A_s):
            mat.sum_duplicates()
            mat.eliminate_zeros()
        p_rows, p_cols = _csc_row_col(P_s)
        a_rows, a_cols = _csc_row_col(A_s)
        for _ in range(_RUIZ_ITERS):
            col_norm = np.maximum(_inf_norms(p_cols, P_s.data, n), _inf_norms(a_cols, A_s.data, n))
            col_norm[col_norm == 0] = 1.0
            dd = 1.0 / np.sqrt(col_norm)
            row_norm = _inf_norms(a_rows, A_s.data, m)
            # a PSD block must be scaled uniformly or the cone is distorted
            for start, *_, scale_all in projector.groups:
                blocks = row_norm[start : start + scale_all.size].reshape(scale_all.shape)
                blocks[:] = blocks.max(axis=1)[:, None]
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
                float(_inf_norms(p_cols, P_s.data, n).mean()) if P_s.nnz else 0.0,
                float(_amax(q_s)),
            )
            if cost_scale > 0:
                step = float(np.clip(1.0 / cost_scale, 1e-8, 1e8))
                P_s.data *= step
                q_s = step * q_s
                gamma *= step

        self.P_s, self.A_s, self.q_s = P_s, A_s, q_s
        self.d, self.e, self.gamma = d, e, gamma
        self.c_scale = _amax(prob.c)
        self.projector = projector
        # the KKT pattern is fixed; only its lower-right -1/rho diagonal moves.
        # All-CSC blocks take bmat's stacking path; summing duplicates then
        # gives the arrays of its COO path, entry for entry
        self.kkt = sp.bmat(
            [
                [P_s + _SIGMA * sp.eye(n, format="csc"), A_s.T.tocsc()],
                [A_s, -sp.eye(m, format="csc")],
            ],
            format="csc",
        )
        self.kkt.sum_duplicates()
        rows, cols = _csc_row_col(self.kkt)
        self._rho_diag = np.flatnonzero((rows == cols) & (cols >= n))
        # the iterate [x; w] and y of each iteration of a check block, one row
        # each, as many rows as the longest block, a settled solve's first;
        # an iteration reads the row before it, and row 0 reads the last row
        # of a full block, where a solve puts its start and any other block
        # leaves its last iterate for the next block and the rho balance.
        # row_views[r]: the previous [x; w], w and y, then this row's x, w and y
        longest, last = _RHO_CHECK_EVERY, _CHECK_EVERY - 1
        self.rows = np.zeros((longest, n + m))
        self.y_rows = np.zeros((longest, m))
        self.row_views = [
            (self.rows[p], self.rows[p, n:], self.y_rows[p],
             self.rows[r, :n], self.rows[r, n:], self.y_rows[r])
            for r, p in enumerate([last, *range(longest - 1)])
        ]
        self.start = self.rows[last], self.y_rows[last]
        # rhs = sig * [x; w] - [q_s; y/rho], with sig = [sigma...; 1...]
        self.sig = np.concatenate([np.full(n, _SIGMA), np.ones(m)])
        self.shift = np.concatenate([q_s, np.zeros(m)])
        self.alpha, self.beta = _constant(_ALPHA, n + m), _constant(1.0 - _ALPHA, n + m)
        for name, size in (("rhs", n + m), ("relaxed", n + m), ("proj_in", m), ("proj_out", m)):
            setattr(self, name, np.zeros(size))
        self.project = projector.bind(self.proj_in, self.proj_out)
        # check_views[k]: the batched check of a block of k iterates, bound for
        # every short block here and for a settled solve's first block when a
        # solve first settles (a cold solve never needs those)
        self.check_mats = prob.A, prob.A.T, prob.P
        self.check_views = []
        self.bind_checks(_CHECK_EVERY)
        # the rho balance's scaled products of the start row's x and y
        x, y = self.rows[last, :n], self.y_rows[last]
        self.balance = [_bind_product(A_s, x, np.zeros(m)), _bind_product(P_s, x, np.zeros(n)),
                        _bind_product(A_s.T, y, np.zeros(n))]
        # the returned z and its unscaled P z, for the objective
        self.z = np.zeros(n)
        self.objective_product = _bind_product(prob.P, self.z, np.zeros(n))
        self.set_rho(_RHO_INIT)

    def bind_checks(self, longest: int):
        """Bind ``check_views[k]`` for each k up to ``longest`` not bound yet, on
        the heads of flat buffers sized for ``longest``: the unscaled z, w and
        y, [residual, A z, s], [residual, P z, A'y], their (3, 2, k) infinity
        norms and the kernels' output columns.  A view is a block's scaled x,
        w and y, then the check's views (y also flat, beside as many gammas)
        and its products call.  z and y are (k, size) views of (size, k)
        buffers, one iterate per column as the kernels take them; the rest are
        contiguous, so each infinity norm is a contiguous reduction."""
        m, n = self.check_mats[0].shape
        z_flat, w_flat, y_flat = (np.zeros(longest * size) for size in (n, m, m))
        prim_flat, dual_flat = np.zeros(3 * longest * m), np.zeros(3 * longest * n)
        norms_flat, columns = np.zeros(6 * longest), np.zeros(longest * (m + 2 * n))
        gammas = np.broadcast_to(self.gamma, longest * m)  # read-only, no memory: stride 0
        for k in range(len(self.check_views), longest + 1):
            z_col, y_col = z_flat[: n * k].reshape(n, k), y_flat[: m * k].reshape(m, k)
            prim = prim_flat[: 3 * k * m].reshape(3, k, m)
            dual = dual_flat[: 3 * k * n].reshape(3, k, n)
            products = _bind_check_products(self.check_mats, z_col, y_col, columns,
                                            prim[1], dual[1], dual[2])
            self.check_views.append((self.rows[:k, :n], self.rows[:k, n:], self.y_rows[:k], z_col.T,
                                     w_flat[: k * m].reshape(k, m), y_col.T, y_flat[: m * k],
                                     gammas[: m * k], prim, dual,
                                     norms_flat[: 6 * k].reshape(3, 2, k), products))

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
            and np.all(np.isfinite(prob.P.data))
        ):
            raise ValueError("problem data contains non-finite entries")
        self.prob = prob
        self.settings = settings or SolverSettings()
        self._ws: _Workspace | None = None
        # the solves in a row that stopped optimal exactly at their own warm
        # start's count
        self._held = 0

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
        order, in bursts after each block of iterations, and nothing past the
        returned iteration count.

        Past these checks the solve runs in numpy's quiet error state,
        ``log_callback`` included: an iterate, a residual or an objective
        that overflows or is not finite ends the solve by the termination
        rules, never as a warning or as an exception.  A matrix the
        projection's ``eigh`` cannot decompose comes back as NaN, so it ends
        the solve ``infeasible_suspect`` at that iterate like any other
        non-finite value.
        """
        t0 = time.perf_counter()
        prob = self.prob
        n, mr = prob.num_vars, prob.num_rows
        b = prob.b if b is None else np.asarray(b, dtype=float)
        if b.shape != (mr,):
            raise ValueError(f"right-hand side has shape {b.shape}, expected ({mr},)")
        if not np.all(np.isfinite(b)):
            raise ValueError("right-hand side contains non-finite entries")
        if warm is not None and (warm.z.size, warm.s.size, warm.y.size) != (n, mr, mr):
            raise ValueError("warm start does not match the problem's dimensions")
        with np.errstate(all="ignore"):
            return self._solve(b, warm, log_callback, t0)

    def _solve(self, b: np.ndarray, warm: SolveResult | None, log_callback,
               t0: float) -> SolveResult:
        """The body of :meth:`solve`, for a checked ``b`` and ``warm``."""
        prob, settings = self.prob, self.settings
        n = prob.num_vars
        if self._ws is None:
            self._ws = _Workspace(self.prob)
        ws = self._ws
        d, e, gamma, q_s = ws.d, ws.e, ws.gamma, ws.q_s
        c = prob.c
        b_s = e * b

        # the first iteration starts from the start row, the row before row 0
        start, y_start = ws.start
        if warm is not None:
            start[:n] = warm.z / d
            start[n:] = e * (b - warm.s)
            y_start[:] = gamma * warm.y / e
        else:
            start.fill(0.0)
            y_start.fill(0.0)

        rhs, sig, shift, relaxed = ws.rhs, ws.sig, ws.shift, ws.relaxed
        y_rho = shift[n:]
        x_relaxed, w_relaxed = relaxed[:n], relaxed[n:]
        proj_in, proj_out = ws.proj_in, ws.proj_out
        row_views, check_views = ws.row_views, ws.check_views
        project = ws.project
        rho_vec, lu_solve = ws.rho_vec, ws.lu.solve
        # bound once; each ufunc but maximum takes its out positionally
        add, subtract, multiply, divide, copyto = np.add, np.subtract, np.multiply, np.divide, np.copyto
        maximum = np.maximum

        alpha, beta = ws.alpha, ws.beta
        eps_abs, eps_rel = settings.eps_abs, settings.eps_rel
        max_iters = settings.max_iters
        floors = np.array([[_amax(b)], [ws.c_scale]])  # under each side's termination scale

        best_score = np.inf  # the stall rule's best score and its iterate
        best_iter = 0
        status = None
        it = 0  # iterations completed before the current block
        # a warm start's own count, an int of at least 1, also ends a block:
        # receding-horizon solves often stop where the previous one did
        warm_end = 0 if warm is None else warm.iterations
        if isinstance(warm_end, bool) or not isinstance(warm_end, (int, np.integer)):
            warm_end = 0
        # once the count has settled (the last _SETTLED_AFTER solves each
        # stopped optimal at their own warm start's count), the first block
        # runs straight to this one's
        held, self._held = self._held, 0
        longest = _RHO_CHECK_EVERY if held >= _SETTLED_AFTER and warm_end > 0 else _CHECK_EVERY
        if len(check_views) <= longest:
            ws.bind_checks(longest)

        while it < max_iters:
            count = min(longest, max_iters - it, _RHO_CHECK_EVERY - it % _RHO_CHECK_EVERY)
            if it < warm_end < it + count:
                count = warm_end - it
            longest = _CHECK_EVERY
            for xw, w, y, x_next, w_next, y_next in row_views[:count]:
                # rhs = [sigma x - q_s, w - y/rho]; 1.0 * w == w exactly
                divide(y, rho_vec, y_rho)
                multiply(sig, xw, rhs)
                subtract(rhs, shift, rhs)
                sol = lu_solve(rhs)
                # w_half = w + (nu - y)/rho, in place of nu in sol
                nu = sol[n:]
                subtract(nu, y, nu)
                divide(nu, rho_vec, nu)
                add(w, nu, nu)
                # [x; w_relaxed] = alpha [x_half; w_half] + (1 - alpha) [x; w]
                multiply(alpha, sol, sol)
                multiply(beta, xw, relaxed)
                add(sol, relaxed, relaxed)
                # w_next = b_s - proj(b_s - (w_relaxed + y/rho))
                add(w_relaxed, y_rho, proj_in)
                subtract(b_s, proj_in, proj_in)
                project()  # proj_in into proj_out
                subtract(b_s, proj_out, w_next)
                # y_next = y + rho (w_relaxed - w_next)
                subtract(w_relaxed, w_next, w_relaxed)
                multiply(rho_vec, w_relaxed, w_relaxed)
                add(y, w_relaxed, y_next)
                copyto(x_next, x_relaxed)  # the one copy: w_next is in place

            # residuals of the original, unscaled problem, one row per
            # iterate: prim holds [A z - w_u, A z, s_u], dual [P z + c + A'y, P z, A'y]
            x_s, w_s, y_s, z_u, w_u, y_u, y_all, gammas, prim, dual, norms, check_products = \
                check_views[count]
            multiply(d, x_s, z_u)
            divide(w_s, e, w_u)
            multiply(e, y_s, y_u)
            divide(y_all, gammas, y_all)  # y_u / gamma, on y_u's contiguous buffer
            check_products()
            subtract(prim[1], w_u, prim[0])
            subtract(b, w_u, prim[2])
            add(dual[1], c, dual[0])
            add(dual[0], dual[2], dual[0])
            # one pass per side: the infinity norms of all three, 0 when empty;
            # norms rows: [r_prim; r_dual], [|A z|; |P z|], [|s_u|; |A'y|]
            np.abs(prim, out=prim).max(axis=2, initial=0.0, out=norms[:, 0])
            np.abs(dual, out=dual).max(axis=2, initial=0.0, out=norms[:, 1])

            # the plain loop's termination rules for every iterate at once (a
            # row that is not finite divides inf by inf): eps = eps_abs +
            # eps_rel * max(two norms, floor) per side, a score max(r / eps),
            # NaN where r is not finite
            r, eps, scratch = norms  # eps in place of the two norms' rows
            maximum(eps, scratch, out=eps)
            maximum(eps, floors, out=eps)
            multiply(eps_rel, eps, eps)
            add(eps_abs, eps, eps)
            ratio = divide(r, eps, eps)  # in place, then + (r - r): 0, or NaN if r is not
            add(ratio, subtract(r, r, scratch), ratio)
            score = maximum(ratio[0], ratio[1])
            # a row stops at a NaN score or, converged, at most 1: rounding is
            # monotonic, so r / eps <= 1 exactly when r <= eps
            goes = (score > 1.0).tolist()
            row = goes.index(False) if False in goes else count
            if best_score > _STALL_SCORE and it + row - best_iter > _STALL_ITERS:
                # the stall rule may stop a row before; the best score and its iterate per row
                ks = np.arange(it + 1, it + row + 1)
                best = np.minimum.accumulate(np.append(best_score, score[:row]))
                best_at = np.maximum.accumulate(np.where(score[:row] < best[:-1], ks, best_iter))
                stalls = np.flatnonzero((ks - best_at > _STALL_ITERS) & (best[1:] > _STALL_SCORE))
                row = int(stalls[0]) if stalls.size else row
            if log_callback is not None:  # each row up to the stop, and it unless not finite
                logged = row + (row < count and not math.isnan(score.item(row)))
                for k, r_prim, r_dual in zip(itertools.count(it + 1), *r[:, :logged].tolist()):
                    log_callback(k, r_prim, r_dual)
            if row < count:
                status = OPTIMAL if score.item(row) <= 1.0 else INFEASIBLE_SUSPECT
                it += row + 1
                break
            i = score.argmin()  # the block's best score and its iterate carry over
            if score.item(i) < best_score:
                best_score, best_iter = score.item(i), it + int(i) + 1
            it, row = it + count, count - 1
            if count != _CHECK_EVERY:
                # the block's last iterate goes where the next block and the
                # rho balance read it, the start row
                copyto(start, ws.rows[row])
                copyto(y_start, ws.y_rows[row])

            if it % _RHO_CHECK_EVERY == 0:
                # balance the residuals of the *scaled* problem, the space the
                # iteration actually lives in, at the last iterate
                w = start[n:]
                Ax_s, Px_s, Aty_s = [product() for product in ws.balance]
                rp_s = _amax(Ax_s - w) / max(_amax(Ax_s), _amax(w), 1e-12)
                rd_s = _amax(Px_s + q_s + Aty_s) / max(
                    _amax(Px_s), _amax(Aty_s), _amax(q_s), 1e-12
                )
                if rp_s > 0 and rd_s > 0:
                    ratio = np.sqrt(rp_s / rd_s)
                    if ratio > _RHO_TRIGGER or ratio < 1.0 / _RHO_TRIGGER:
                        ws.set_rho(ws.rho_scalar * float(ratio))
                        rho_vec, lu_solve = ws.rho_vec, ws.lu.solve

        self._held = held + 1 if status == OPTIMAL and it == warm_end else 0
        # the iterate the solve stopped at, in the last block's row; the
        # slack s_u = b - w_u is recomputed: its row in prim is now |s_u|
        copyto(ws.z, z_u[row])
        z = ws.z.copy()
        # c'z + constant + z'Pz/2, its P @ z by the bound kernel
        pz = ws.objective_product()
        objective = float(c @ z) + prob.objective_constant + 0.5 * float(z @ pz)
        return SolveResult(
            z=z,
            s=b - w_u[row],
            y=y_u[row].copy(),
            status=status or MAX_ITERS,
            iterations=it,
            primal_residual=r.item(0, row),
            dual_residual=r.item(1, row),
            solve_time=time.perf_counter() - t0,
            objective=objective,
        )

