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
- Two backends run an iteration's linear part, chosen by problem size.  Up
  to ``_DENSE_MAX`` = n + m the *dense* backend is one BLAS product on its
  row v = [x; t; p; 1], t the projection's input and p its output, so that
  w = b_s - p and y = rho (p - t).  Everything in an iteration but the
  projection is affine in v, so an iteration is one product [x_next;
  t_next] = M' v (``np.dot``, one gemv) with a map M' (``_dense_map``)
  rebuilt from the KKT factor at each rho refactor, whose last column each
  solve rewrites, and one projection of t_next into p_next, both in the
  next row.  Larger problems run on the *LU* backend, on [x; w; y; 1], one
  sparse solve of the factor per iteration.  Both check termination by one
  sparse check map (``_check_map``): every residual and scale of the check
  is affine in either backend's row, so a block's check is one copy of its
  rows, one column per iterate, one ``csr_matvecs`` product with the map,
  then one ``abs`` and one segmented max.  The map's pattern is fixed: a
  refactor writes its rho entries (dense only), a solve its b entries.  On
  the dense row the copy holds p - t in place of t, formed first as the
  plain loop forms y, so an inactive row's y is 0 exactly: a product of t
  and p apart rounds r_dual to about eps rho |t| |A| e/gamma, which the
  dual tolerance does not scale with.  The kernel sums each residual in the
  map's index order, whatever the block's length, and calls no BLAS.
  Microseconds per iteration, a cold solve run to a 1,500-iteration budget,
  min of 15 solves over four runs, one BLAS thread pinned to one core of a
  2-core AVX-512 Xeon:

      problem (horizon)   n + m     LU    dense
      two-craft (1)          20   13.4      4.8
      two-craft (3)          52   16.5      6.8
      two-craft (4)          68   18.1      7.8
      four-craft (1)         68   22.1     11.0
      four-craft (3)        180   34.9     21.5
      four-craft (5)        292   45.1     37.6
      four-craft (6)        348   50.1     53.5
      four-craft (9)        516   68.1    148.5

  By speed alone the dense backend is faster up to about n + m = 300.  The
  map M' is a dense inverse of an ill-conditioned KKT, and its accuracy
  sets the crossover lower: on four-craft equilibrium steps it needs as
  many iterations as LU at n + m = 68, but at 124 a 1e-12 solve takes
  3,505 iterations against 606, at 236 7,812 against 1,159, and from 292
  it does not reach 1e-12 in 50,000.  The crossover is a module constant,
  not a setting.  Each backend is bit-identical to the plain loop taking
  the same backend; the two agree to rounding, not bit for bit.  The check
  map rounds the residuals otherwise than the sparse products of A, A' and
  P do, by at most 2.2e-7 of the larger of each residual and its tolerance
  on the tested problems.
- The PSD blocks of side 2 (every stage of a two-craft formation) are
  projected in closed form on Python floats (``_project_psd2``): a 2x2
  block's eigenvalues are mid -+ r, so the projection is the block itself,
  zero, or one scaled outer product.  It agrees with ``eigh`` to a few ulps
  of the block's largest entry, not bit for bit, and costs 1.6 against 5.7
  µs a call for the shipped two-craft cones (min of 5 x 5,000, one BLAS
  thread pinned to one core of the Xeon above).  Larger sides run the
  batched ``eigh_lo``; the side picks the path.
- Every iterate is one row in its backend's coordinates.  A block of k
  iterates fills rows 1..k after its start in row 0, where a block that
  does not stop copies its last row for the next block and the rho balance,
  so the check reads the block in one copy.  The dense backend forms a
  row's w and y only for the result and the rho balance.  A rho change
  moves the map's row 0 to the new rho: p stays and t becomes p - y/rho,
  so the result of a solve's last iterate is taken before it.  A solver
  that does not warm start never settles, so its rows and check buffers
  serve blocks of ``_CHECK_EVERY``.
- The loop calls private entry points (numpy >= 2.0, scipy >= 1.10): the
  ``eigh_lo`` gufunc, in the solve's quiet error state, ``c_einsum`` and
  scipy's ``_sparsetools`` kernels, each checked against its public
  counterpart in the tests.

How the loop reaches that bit for bit (the iterate row, the iterate-major
block check, the bound projection) is recorded in CHANGES.md.
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

from .conic import SQRT2, ConeDims, ConicProblem, sym_gather, vec_dim
from .dynamics import _check_count, _check_positive

OPTIMAL = "optimal"
MAX_ITERS = "max_iters"
INFEASIBLE_SUSPECT = "infeasible_suspect"

_RHO_INIT = 1.0  # the first solve's rho; later solves start from the adapted one
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_EQ_FACTOR = 1e3  # zero-cone rows get a stiffer penalty
_RHO_CHECK_EVERY = 100
_CHECK_EVERY = 10  # the most iterations per termination-check block
_DENSE_MAX = 64  # the largest n + m run on the dense map; its accuracy sets it (module notes)
_CLOSED_FORM_SIDE = 2  # PSD blocks of this side are projected in closed form (module notes)
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
    block layout, which the equilibration reads too).  A group of side 2 is
    projected in closed form (:func:`_project_psd2`), one Python loop over
    its blocks.  Any other side keeps its batched ``eigh``: a ``(k, side,
    side)`` gather index into the slack vector and the matching off-diagonal
    unscaling, so one fancy index and one divide build the stack of
    symmetric matrices, and the ``(k, vec_dim)`` rescaling of their lower
    triangles.
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
        zeroed here, once, so nothing else may write them.  A group of side
        ``_CLOSED_FORM_SIDE`` is projected by :func:`_project_psd2` from a
        view of its slots in ``v`` into one in ``out``; any other gets its
        lower triangles scaled straight into a ``(k, vec_dim)`` view of
        ``out``."""
        z, nn = self.zero_end, self.nonneg_end
        out[:z] = 0.0
        v_nn, out_nn, zeros_nn = v[z:nn], out[z:nn], _constant(0.0, nn - z)
        closed, groups = [], []
        for start, gather, unscale_all, lower_all, scale_all in self.groups:
            run = slice(start, start + scale_all.size)
            if gather.shape[1] == _CLOSED_FORM_SIDE:
                closed.append((v[run], out[run]))
            else:
                groups.append((gather, unscale_all, lower_all, scale_all,
                               _constant(0.0, gather.shape[:2]), out[run].reshape(scale_all.shape)))
        maximum, multiply, divide = np.maximum, np.multiply, np.divide

        def project() -> np.ndarray:
            maximum(v_nn, zeros_nn, out=out_nn)
            for v_run, out_run in closed:
                out_run[:] = _project_psd2(v_run.tolist())
            for gather, unscale_all, lower_all, scale_all, zeros, target in groups:
                mats = v[gather]
                divide(mats, unscale_all, mats)
                eigvals, eigvecs = eigh_lo(mats)  # NaN where it cannot decompose
                maximum(eigvals, zeros, out=eigvals)
                vals = c_einsum("kij,kj,klj->kil", eigvecs, eigvals, eigvecs).take(lower_all)
                multiply(vals, scale_all, target)
            return out

        return project


_NANS, _ZEROS = (math.nan,) * 3, (0.0,) * 3


def _project_psd2(slots: list[float]) -> list[float]:
    """The projections onto the PSD cone of a run of 2x2 blocks, each given
    by its three slots ``[a, sqrt(2) b, c]``, in closed form on Python floats.

    With h = a/2 - c/2, mid = a/2 + c/2 and r = hypot(h, b), the eigenvalues
    are mid -+ r.  A block with mid >= r is PSD and comes back as given; one
    with mid <= -r projects to zeros; otherwise the projection has rank one,
    (mid + r)/(2r) times the outer product of the eigenvector (h + r, b)
    over its squared norm 2r(h + r): the slots (h + r, sqrt(2) b, b^2/(h +
    r)), or for h < 0 their mirror with p = r - h, (b^2/p, sqrt(2) b, p), so
    no entry cancels.  A block with a NaN or an infinite slot projects to
    three NaNs, as a matrix ``eigh`` cannot decompose does.  Nothing here
    raises: r > 0 and p >= r wherever it divides.
    """
    out = []
    slot = iter(slots)
    for a, s, c in zip(slot, slot, slot):
        if a * 0.0 * s * c != 0.0:  # a zero when all three are finite, else NaN
            out += _NANS
            continue
        b = s / SQRT2
        h, mid = a / 2 - c / 2, a / 2 + c / 2
        r = math.hypot(h, b)
        if mid >= r:
            out += (a, s, c)
        elif mid <= -r:
            out += _ZEROS
        else:
            scale = (mid + r) / (r + r)
            if h >= 0.0:
                p = h + r
                out += (scale * p, scale * s, scale * (b * (b / p)))
            else:
                p = r - h
                out += (scale * (b * (b / p)), scale * s, scale * p)
    return out


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


def _dense_map(lu, rho_vec: np.ndarray, q_s: np.ndarray):
    """The affine part of one ADMM iteration as one C-ordered matrix M' on the
    iterate v = [x; t; p; 1], where t is the projection's input and p its
    output, so w = b_s - p and y = rho (p - t): M' v = [x_next; t_next].  It
    is M T, the map on [x; w; y; 1] times that change of coordinates.  In
    these coordinates the LU loop's right-hand side is [sigma x - q_s; t - 2p
    + b_s] and, with [x_half; nu] its KKT solve,

        x_next = alpha x_half + (1 - alpha) x,
        t_next = (1 - alpha) t + alpha p - (alpha/rho) nu.

    So with G = D K^-1 S, D = diag(alpha, -alpha/rho) scaling its rows and S
    = [sigma E_x, E_t, -q_s] one solve of the KKT factor ``lu`` on the
    columns of x, of t and of the constant,

        M' = [G_x + (1 - alpha) E_x, G_t + (1 - alpha) E_t, -2 G_t + alpha E_t, G_1].

    Returns M' without b_s, then B = G_t and c = G_1: a solve's b_s makes
    the last column c + B b_s."""
    n, m = q_s.size, rho_vec.size
    x, t = np.arange(n), np.arange(n, n + m)
    S = np.zeros((n + m, n + m + 1))
    S[x, x] = _SIGMA
    S[t, t] = 1.0
    S[:n, -1] = -q_s
    G = lu.solve(S)
    G *= np.concatenate([np.full(n, _ALPHA), -_ALPHA / rho_vec])[:, None]
    M = np.empty((n + m, n + 2 * m + 1))
    M[:, : n + m] = G[:, : n + m]
    np.multiply(-2.0, G[:, n:-1], out=M[:, n + m : -1])
    M[:, -1] = G[:, -1]
    M[x, x] += 1.0 - _ALPHA
    M[t, t] += 1.0 - _ALPHA
    M[t, t + m] += _ALPHA
    return M, G[:, n:-1].copy(), G[:, -1].copy()


def _check_map(A: sp.csc_matrix, P: sp.csc_matrix, c: np.ndarray, d: np.ndarray,
               e: np.ndarray, gamma: float, dense: bool):
    """The termination check as one sparse map of a backend's row, held
    transposed, as CSR: C'u holds, in six segments, A z - w_u, P z + c +
    A'y_u, A z, P z, s_u and A'y_u of the original problem at the row's
    unscaled iterate.  On the LU row u = [x; w; y; 1], z = d x, w_u = w/e and
    y_u = e y/gamma, so C is A diag(d) on x, -diag(1/e) on w, (e/gamma) A on
    y, and c and b (in s_u = b - w_u) on the constant.  The dense row is
    checked as u = [x; p - t; p; 1] (``_bind_check_map``), where w_u = b -
    p/e and y_u = (e rho/gamma) (p - t): C is the same on x, diag(1/e) on p,
    (e rho/gamma) A on p - t, and c and -b (in A z - w_u) on the constant.
    The pattern is fixed; the returned calls ``set_rho(rho_vec)`` (each
    refactor, dense only) and ``set_b(b)`` (each solve) write the entries of
    rho and of b into its data through index maps.  A segment of an empty
    side (m or n zero) is one empty row, so its norm is 0.  Returns C', the
    six segments' starts, ``set_rho`` and ``set_b``."""
    m, n = A.shape
    sizes = (max(m, 1), max(n, 1)) * 3
    starts = np.cumsum((0,) + sizes[:-1])
    r_prim, r_dual, az, pz, s_u, aty = starts
    A, P = A.astype(float), P.astype(float)  # astype copies
    for mat in (A, P):
        mat.sum_duplicates()
        mat.eliminate_zeros()
    (a_rows, a_cols), (p_rows, p_cols), slack = _csc_row_col(A), _csc_row_col(P), np.arange(m)
    ad, pd, we = A.data * d[a_cols], P.data * d[p_cols], (1.0 if dense else -1.0) / e
    w, y = (n + m, n) if dense else (n, n + m)  # the columns of w (or p) and of y (or p - t)
    one = n + 2 * m
    parts = [(r_prim + a_rows, a_cols, ad), (az + a_rows, a_cols, ad),
             (r_dual + p_rows, p_cols, pd), (pz + p_rows, p_cols, pd),
             (r_prim + slack, w + slack, we), (s_u + slack, w + slack, we),
             (r_dual + np.arange(n), np.full(n, one), c),
             # the entries that set_rho writes, then those that set_b writes
             (r_dual + a_cols, y + a_rows, A.data), (aty + a_cols, y + a_rows, A.data),
             ((r_prim if dense else s_u) + slack, np.full(m, one), np.zeros(m))]
    rows, cols, vals = (np.concatenate(part) for part in zip(*parts))
    order = np.lexsort((cols, rows))
    at = np.empty_like(order)
    at[order] = np.arange(order.size)  # each entry's place in the CSR data
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=sum(sizes)))])
    check_map = sp.csr_matrix((vals[order], cols[order], indptr), shape=(sum(sizes), n + 2 * m + 1))
    b_start = at.size - m
    data, rho_at, b_at = check_map.data, at[b_start - 2 * A.nnz : b_start], at[b_start:]
    rho_rows, rho_a, b_sign = np.tile(a_rows, 2), np.tile(A.data, 2), -1.0 if dense else 1.0

    def set_rho(rho_vec):
        data[rho_at] = (e * rho_vec / gamma)[rho_rows] * rho_a

    def set_b(b: np.ndarray):
        data[b_at] = b_sign * b

    if not dense:
        set_rho(1.0)  # (e/gamma) A on y, with no rho in it
    return check_map, starts, set_rho, set_b


def _bind_check_map(rows: np.ndarray, n: int, dense: bool, check_map: sp.csr_matrix,
                    starts: np.ndarray, block: np.ndarray, products: np.ndarray,
                    norms: np.ndarray):
    """A call returning the (3, 2, k) infinity norms of the check map's six
    segments (``_check_map``) for the k rows ``rows`` of n variables: rows
    [r_prim; r_dual], [|A z|; |P z|], [|s_u|; |A'y|].  The rows are copied
    to the flat buffer ``block`` with one column per iterate, as the kernel
    takes them; a dense row [x; t; p; 1] with p - t in place of t, as the
    plain loop forms y, so an inactive row's y is 0 exactly: a product of t
    and p apart would leave r_dual a rounding floor of eps rho |t| |A|
    e/gamma, which the dual tolerance does not scale with.  The product is
    one ``csr_matvecs`` into the flat buffer ``products``: it sums each entry
    in CSR index order, whatever k and the row's place in the block, so a
    column's bits are those of the map's ``@`` on that row alone, with no
    BLAS.  One ``abs`` and one segmented max into ``norms`` give the norms."""
    (k, size), width = rows.shape, check_map.shape[0]
    m = (size - n - 1) // 2
    u = block[: size * k].reshape(size, k)
    out = products[: width * k].reshape(width, k)
    per_segment = norms[: 6 * k].reshape(6, k)
    view = per_segment.reshape(3, 2, k)
    columns = rows.T
    t, p, y = columns[n : n + m], columns[n + m : -1], u[n : n + m]
    product = partial(_sparsetools.csr_matvecs, width, size, k, check_map.indptr,
                      check_map.indices, check_map.data, u, out)
    copyto, subtract, absolute, reduceat = np.copyto, np.subtract, np.absolute, np.maximum.reduceat

    def check() -> np.ndarray:
        copyto(u, columns)
        if dense:
            subtract(p, t, y)
        out.fill(0.0)
        product()
        absolute(out, out)
        reduceat(out, starts, 0, None, per_segment)
        return view

    return check


def _csc_row_col(mat: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of every stored entry of a CSC matrix."""
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    return mat.indices, cols


class _Workspace:
    """Scaled data, cached factorization and iteration buffers of a solver,
    for blocks of at most ``longest`` iterates, and the backend that runs
    them: the dense map when n + m is at most ``_DENSE_MAX``, else the LU
    solve."""

    def __init__(self, prob: ConicProblem, longest: int = _RHO_CHECK_EVERY):
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
        # the iterate, one row each in the backend's coordinates ([x; w; y; 1]
        # on LU, [x; t; p; 1] on the map): row 0 holds the iterate a block
        # starts from and a block of k iterates fills rows 1..k
        self.longest = longest
        self.rows = np.zeros((longest + 1, n + 2 * m + 1))
        self.rows[:, -1] = 1.0
        self.start = self.rows[0]
        self.rho_vec, self.b_s, self.b = np.zeros(m), np.zeros(m), np.zeros(m)
        # the rho balance's scaled products of the start row's x and of its y,
        # which the backend writes to balance_y
        self.balance_y = np.zeros(m)
        self.balance = [_bind_product(A_s, self.start[:n], np.zeros(m)),
                        _bind_product(P_s, self.start[:n], np.zeros(n)),
                        _bind_product(A_s.T, self.balance_y, np.zeros(n))]
        # the returned z and its unscaled P z, for the objective
        self.z = np.zeros(n)
        self.objective_product = _bind_product(prob.P, self.z, np.zeros(n))
        self.dense = n + m <= _DENSE_MAX
        # the backend: iterate(count, operator) runs rows 1..count;
        # set_start(x, w, y) writes row 0 and set_y(y) its y at the current
        # rho, as after a rho change; result(row) returns the unscaled (z, s,
        # y) of row 1 + row (z also in self.z) and balance_wy() the scaled w
        # and y of row 0 (y in balance_y).  None holds a reference to the
        # workspace, so a dropped solver's workspace goes with it, not at the
        # next garbage collection
        (self.iterate, self.set_start, self.set_y, self.result,
         self.balance_wy) = self.bind_dense() if self.dense else self.bind_lu()
        # the check map of the backend's row, its rho entries written at each
        # refactor and its b entries at each set_b, and the check's flat
        # buffers for the longest block: the rows, their products and norms
        self.check_map, self.check_starts, self.set_check_rho, self.set_check_b = _check_map(
            prob.A, prob.P, prob.c, d, e, gamma, self.dense)
        self.check_buffers = [np.zeros(longest * size)
                              for size in (n + 2 * m + 1, self.check_map.shape[0], 6)]
        # check_views[k]: the check of a block of k iterates, bound the first
        # time a block of k runs (a cold solve binds no long one) on the
        # heads of the check's buffers
        self.check_views = [None] * (longest + 1)
        self.set_rho(_RHO_INIT)

    def row_pairs(self):
        """Each row but the last, beside the next row."""
        return list(zip(self.rows[:-1], self.rows[1:]))

    def bind_lu(self):
        """The LU backend, on rows [x; w; y; 1]: a call running iterates
        1..count of a block from row 0, each by one call of ``operator``, the
        KKT factor's solve; a call writing a start to row 0, and one writing
        its y, which no rho change moves; the result of a row, its unscaled z
        = d x, s = b - w/e and y = e y/gamma; and row 0's w and y for the rho
        balance, read in place."""
        n, m = self.q_s.size, self.b_s.size
        views = [(v[: n + m], v[n : n + m], v[n + m : -1], nxt[:n], nxt[n : n + m], nxt[n + m : -1])
                 for v, nxt in self.row_pairs()]
        # rhs = sig * [x; w] - [q_s; y/rho], with sig = [sigma...; 1...]
        sig = np.concatenate([np.full(n, _SIGMA), np.ones(m)])
        shift = np.concatenate([self.q_s, np.zeros(m)])
        rhs, relaxed = np.zeros(n + m), np.zeros(n + m)
        y_rho, x_relaxed, w_relaxed = shift[n:], relaxed[:n], relaxed[n:]
        # its read-only operands and projection stay on the workspace, for inspection
        self.alpha, self.beta = alpha, beta = _constant(_ALPHA, n + m), _constant(1.0 - _ALPHA, n + m)
        rho_vec, b_s = self.rho_vec, self.b_s
        proj_in, proj_out = np.zeros(m), np.zeros(m)
        self.project = project = self.projector.bind(proj_in, proj_out)
        start = self.start
        # bound once; each ufunc takes its out positionally
        add, subtract, multiply, divide, copyto = np.add, np.subtract, np.multiply, np.divide, np.copyto

        def iterate(count: int, lu_solve):
            for xw, w, y, x_next, w_next, y_next in views[:count]:
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

        def set_y(y):
            start[n + m : -1] = y

        def set_start(x, w, y):
            start[:n], start[n : n + m] = x, w
            set_y(y)

        rows, d, e, gamma, b, z, balance_y = (
            self.rows, self.d, self.e, self.gamma, self.b, self.z, self.balance_y)

        def result(row: int):
            v = rows[row + 1]
            multiply(d, v[:n], z)
            return z.copy(), b - divide(v[n : n + m], e), divide(multiply(e, v[n + m : -1]), gamma)

        def balance_wy():
            copyto(balance_y, start[n + m : -1])
            return start[n : n + m], balance_y

        return iterate, set_start, set_y, result, balance_wy

    def bind_dense(self):
        """The dense backend, on rows [x; t; p; 1]: a call running iterates
        1..count of a block from row 0, each by one product with
        ``operator``, the map M' (``_dense_map``), into the next row's x and
        t, and one projection of that t into its p; a call writing a start
        (x, w, y) to row 0 as p = b_s - w and t = p - y/rho, and one writing
        its y alone, as t = p - y/rho at the current rho, which a rho change
        needs.  A row's scaled w = b_s - p and y = rho (p - t) are formed
        only for the result, unscaled as the LU backend's result unscales
        its row, and for the rho balance."""
        n, m = self.q_s.size, self.b_s.size
        pairs, bind = self.row_pairs(), self.projector.bind
        steps = []  # each row's product and projection, bound the first time a block reaches it
        rows, rho_vec, b_s, b, start, z = self.rows, self.rho_vec, self.b_s, self.b, self.start, self.z
        d, e, gamma, balance_y = self.d, self.e, self.gamma, self.balance_y
        dot, subtract, multiply, divide = np.dot, np.subtract, np.multiply, np.divide

        def iterate(count: int, dense_map):
            for v, nxt in pairs[len(steps) : count]:
                steps.append((v, nxt[: n + m], bind(nxt[n : n + m], nxt[n + m : -1])))
            for v, xt_next, project in steps[:count]:
                dot(dense_map, v, xt_next)
                project()  # the next row's t into its p

        t0, p0 = start[n : n + m], start[n + m : -1]

        def set_y(y):
            subtract(p0, divide(y, rho_vec), t0)

        def set_start(x, w, y):
            start[:n] = x
            subtract(b_s, w, p0)
            set_y(y)

        def result(row: int):
            v = rows[row + 1]
            p = v[n + m : -1]
            multiply(d, v[:n], z)
            y = multiply(rho_vec, subtract(p, v[n : n + m]))
            return z.copy(), b - divide(subtract(b_s, p), e), divide(multiply(e, y), gamma)

        balance_w = np.zeros(m)

        def balance_wy():
            subtract(b_s, p0, balance_w)
            subtract(p0, t0, balance_y)
            multiply(rho_vec, balance_y, balance_y)
            return balance_w, balance_y

        return iterate, set_start, set_y, result, balance_wy

    def bind_check(self, k: int):
        """Bind and return ``check_views[k]``, the check of a block of k
        iterates in rows 1..k by the check map (``_bind_check_map``)."""
        check = self.check_views[k] = _bind_check_map(
            self.rows[1 : k + 1], self.q_s.size, self.dense, self.check_map, self.check_starts,
            *self.check_buffers)
        return check

    def set_b(self, b: np.ndarray):
        """Take a solve's right-hand side b, b_s = e b, and their terms in the maps."""
        np.copyto(self.b, b)
        np.multiply(self.e, b, self.b_s)
        self.set_check_b(b)
        self.map_b_s()

    def map_b_s(self):
        """Set the dense map's last column to c + B b_s (``_dense_map``)."""
        if self.dense:
            np.add(self.map_shift, np.dot(self.map_b, self.b_s), self.map[:, -1])

    def refactor(self):
        self.kkt.data[self._rho_diag] = -(1.0 / self.rho_vec)
        self.lu = splu(self.kkt)
        if self.dense:
            self.map, self.map_b, self.map_shift = _dense_map(self.lu, self.rho_vec, self.q_s)
            self.set_check_rho(self.rho_vec)
            self.map_b_s()
        # what the backend's iterate call takes
        self.operator = self.map if self.dense else self.lu.solve

    def set_rho(self, rho_scalar: float):
        self.rho_scalar = float(np.clip(rho_scalar, _RHO_MIN, _RHO_MAX))
        self.rho_vec.fill(self.rho_scalar)
        self.rho_vec[: self.projector.zero_end] = np.clip(
            self.rho_scalar * _RHO_EQ_FACTOR, _RHO_MIN, _RHO_MAX
        )
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
        projection's ``eigh`` cannot decompose, and a 2x2 block with a
        non-finite slot, come back as NaN, so they end the solve
        ``infeasible_suspect`` at that iterate like any other non-finite
        value.
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
        if self._ws is None:
            # a cold solver never settles, so its blocks are at most _CHECK_EVERY long
            longest = _RHO_CHECK_EVERY if settings.warm_start else _CHECK_EVERY
            self._ws = _Workspace(self.prob, longest)
        ws = self._ws
        d, e, gamma, q_s = ws.d, ws.e, ws.gamma, ws.q_s
        ws.set_b(b)

        if warm is not None:
            ws.set_start(warm.z / d, e * (b - warm.s), gamma * warm.y / e)
        else:
            ws.set_start(0.0, 0.0, 0.0)

        start, rows, check_views, iterate = ws.start, ws.rows, ws.check_views, ws.iterate
        # bound once; each ufunc but maximum takes its out positionally
        add, subtract, multiply, divide, copyto = np.add, np.subtract, np.multiply, np.divide, np.copyto
        maximum = np.maximum

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
        longest = ws.longest if held >= _SETTLED_AFTER and warm_end > 0 else _CHECK_EVERY

        while it < max_iters:
            count = min(longest, max_iters - it, _RHO_CHECK_EVERY - it % _RHO_CHECK_EVERY)
            if it < warm_end < it + count:
                count = warm_end - it
            longest = _CHECK_EVERY
            iterate(count, ws.operator)

            # residuals of the original, unscaled problem, one column per
            # iterate: norms rows [r_prim; r_dual], [|A z|; |P z|], [|s_u|; |A'y|]
            norms = (check_views[count] or ws.bind_check(count))()

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
                result = ws.result(row)
                break
            i = score.argmin()  # the block's best score and its iterate carry over
            if score.item(i) < best_score:
                best_score, best_iter = score.item(i), it + int(i) + 1
            it, row = it + count, count - 1
            if it == max_iters:  # taken before a rho change can move the map's row
                result = ws.result(row)
            # the block's last iterate goes to row 0, for the next block and the rho balance
            copyto(start, rows[count])

            if it % _RHO_CHECK_EVERY == 0:
                # balance the residuals of the *scaled* problem, the space the
                # iteration actually lives in, at the last iterate
                w_last, y_last = ws.balance_wy()
                Ax_s, Px_s, Aty_s = [product() for product in ws.balance]
                rp_s = _amax(Ax_s - w_last) / max(_amax(Ax_s), _amax(w_last), 1e-12)
                rd_s = _amax(Px_s + q_s + Aty_s) / max(
                    _amax(Px_s), _amax(Aty_s), _amax(q_s), 1e-12
                )
                if rp_s > 0 and rd_s > 0:
                    ratio = np.sqrt(rp_s / rd_s)
                    if ratio > _RHO_TRIGGER or ratio < 1.0 / _RHO_TRIGGER:
                        ws.set_rho(ws.rho_scalar * float(ratio))
                        ws.set_y(y_last)  # the map holds y as p - y/rho: its t moves

        self._held = held + 1 if status == OPTIMAL and it == warm_end else 0
        # the iterate the solve stopped at, in the last block's row
        z, s, y = result
        # c'z + constant + z'Pz/2, its P @ z by the bound kernel on ws.z
        pz = ws.objective_product()
        objective = float(prob.c @ z) + prob.objective_constant + 0.5 * float(z @ pz)
        return SolveResult(
            z=z,
            s=s,
            y=y,
            status=status or MAX_ITERS,
            iterations=it,
            primal_residual=r.item(0, row),
            dual_residual=r.item(1, row),
            solve_time=time.perf_counter() - t0,
            objective=objective,
        )

