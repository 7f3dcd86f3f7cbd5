"""Finite-horizon semidefinite relaxation of the formation control problem.

The nonconvex coupling u_l = q_i q_j between charges and charge products is
lifted to a symmetric matrix variable per stage: each product equals a fixed
linear functional of the lifted matrix, the lifted matrix is constrained
positive semidefinite, and its rank-one constraint is dropped.  A trace
penalty biases the relaxation back toward rank one.

Decision variables per horizon of length N (state dimension n, m charge
products, lifted matrices of side equal to the spacecraft count):

    states[0..N]     predicted stacked relative states, stage 0 pinned
    inputs[0..N-1]   predicted charge products
    lifted[0..N-1]   lifted charge outer-product matrices

Stage costs are quadratic in the state deviation and the products, plus a
quadratic smoothing term on consecutive product differences and a linear
trace penalty on the lifted matrices.  State box bounds are enforced for
stages 1..N only; the pinned stage is a measurement, not a decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .conic import SQRT2, ConeDims, ConicProblem, sym_gather, sym_to_vec, vec_dim, vec_index
from .dynamics import DiscreteModel, RelativeState, pair_count, spacecraft_pairs

_PSD_EIG_FLOOR = -1e-10


def _weight_matrix(value, size: int, name: str) -> np.ndarray:
    """Normalize a scalar / diagonal vector / full matrix into a PSD weight matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        mat = float(arr) * np.eye(size)
    elif arr.ndim == 1:
        if arr.size != size:
            raise ValueError(f"{name} diagonal must have length {size}")
        mat = np.diag(arr)
    elif arr.ndim == 2:
        if arr.shape != (size, size):
            raise ValueError(f"{name} must be {size}x{size}")
        mat = arr.copy()
    else:
        raise ValueError(f"{name} must be a scalar, vector or matrix")
    if not np.allclose(mat, mat.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    mat = 0.5 * (mat + mat.T)
    if mat.size and np.linalg.eigvalsh(mat).min() < _PSD_EIG_FLOOR:
        raise ValueError(f"{name} must be positive semidefinite")
    return mat


@dataclass(frozen=True)
class MpcParams:
    """Horizon length, tracking target, weights and bounds of the stage problem."""

    horizon: int
    desired_positions: np.ndarray
    state_weight: np.ndarray
    product_weight: np.ndarray
    product_delta_weight: np.ndarray
    state_min: np.ndarray
    state_max: np.ndarray
    trace_weight: float = 0.0
    product_min: np.ndarray | None = None
    product_max: np.ndarray | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.trace_weight < 0:
            raise ValueError("trace_weight must be nonnegative")
        desired = np.atleast_1d(np.asarray(self.desired_positions, dtype=float))
        object.__setattr__(self, "desired_positions", desired)
        ns = desired.size + 1
        n = 2 * desired.size
        m = pair_count(ns)
        object.__setattr__(self, "state_weight", _weight_matrix(self.state_weight, n, "state_weight"))
        object.__setattr__(
            self, "product_weight", _weight_matrix(self.product_weight, m, "product_weight")
        )
        object.__setattr__(
            self,
            "product_delta_weight",
            _weight_matrix(self.product_delta_weight, m, "product_delta_weight"),
        )
        for name in ("state_min", "state_max"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim == 0:
                arr = np.full(n, float(arr))
            if arr.shape != (n,):
                raise ValueError(f"{name} must have length {n}")
            object.__setattr__(self, name, arr)
        if np.any(self.state_min >= self.state_max):
            raise ValueError("state_min must be elementwise below state_max")
        if (self.product_min is None) != (self.product_max is None):
            raise ValueError("product bounds must be given as a pair or not at all")
        if self.product_min is not None:
            lo = np.asarray(self.product_min, dtype=float).reshape(m)
            hi = np.asarray(self.product_max, dtype=float).reshape(m)
            if np.any(lo >= hi):
                raise ValueError("product_min must be elementwise below product_max")
            object.__setattr__(self, "product_min", lo)
            object.__setattr__(self, "product_max", hi)

    @property
    def num_spacecraft(self) -> int:
        return self.desired_positions.size + 1

    @property
    def desired_state(self) -> np.ndarray:
        """Stacked desired relative state: target positions, zero velocities."""
        return np.concatenate([self.desired_positions, np.zeros_like(self.desired_positions)])


@dataclass(frozen=True)
class HorizonProblem:
    """A fully assembled instance of the per-sample relaxation."""

    initial_state: np.ndarray
    model: DiscreteModel
    params: MpcParams

    def __post_init__(self):
        init = np.asarray(self.initial_state, dtype=float)
        if init.shape != (self.model.state_dim,):
            raise ValueError("initial state does not match the model dimension")
        object.__setattr__(self, "initial_state", init)
        if self.model.input_dim != pair_count(self.params.num_spacecraft):
            raise ValueError("model input dimension does not match the pair count")
        if self.model.state_dim != 2 * (self.params.num_spacecraft - 1):
            raise ValueError("model state dimension does not match the spacecraft count")

    # -- variable layout ----------------------------------------------------
    @property
    def num_stages(self) -> int:
        return self.params.horizon

    @property
    def state_dim(self) -> int:
        return self.model.state_dim

    @property
    def input_dim(self) -> int:
        return self.model.input_dim

    @property
    def lifted_side(self) -> int:
        return self.params.num_spacecraft

    @property
    def lifted_vec_dim(self) -> int:
        return vec_dim(self.lifted_side)

    def state_offset(self, stage: int) -> int:
        return stage * self.state_dim

    def input_offset(self, stage: int) -> int:
        return (self.num_stages + 1) * self.state_dim + stage * self.input_dim

    def lifted_offset(self, stage: int) -> int:
        return (
            (self.num_stages + 1) * self.state_dim
            + self.num_stages * self.input_dim
            + stage * self.lifted_vec_dim
        )

    @property
    def num_vars(self) -> int:
        return self.lifted_offset(self.num_stages - 1) + self.lifted_vec_dim

    # -- point packing --------------------------------------------------------
    def pack(self, states: np.ndarray, inputs: np.ndarray, lifted: np.ndarray) -> np.ndarray:
        """Flatten a (states, inputs, lifted) trajectory into a decision vector:
        the per-stage reference that the vectorised :meth:`unpack` must invert."""
        N, n, m = self.num_stages, self.state_dim, self.input_dim
        states = np.asarray(states, dtype=float).reshape(N + 1, n)
        inputs = np.asarray(inputs, dtype=float).reshape(N, m)
        lifted = np.asarray(lifted, dtype=float).reshape(N, self.lifted_side, self.lifted_side)
        z = np.empty(self.num_vars)
        z[: (N + 1) * n] = states.ravel()
        z[(N + 1) * n : (N + 1) * n + N * m] = inputs.ravel()
        for j in range(N):
            off = self.lifted_offset(j)
            z[off : off + self.lifted_vec_dim] = sym_to_vec(lifted[j])
        return z

    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Inverse of :meth:`pack`."""
        N, n, m = self.num_stages, self.state_dim, self.input_dim
        z = np.asarray(z, dtype=float)
        states = z[: (N + 1) * n].reshape(N + 1, n)
        inputs = z[(N + 1) * n : (N + 1) * n + N * m].reshape(N, m)
        gather, scale = self._lifted_gather
        return states, inputs, z[gather] / scale

    @cached_property
    def _lifted_gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Index into z and unscaling of every lifted matrix entry, stage by stage."""
        index, scale = sym_gather(self.lifted_side)
        starts = self.lifted_offset(0) + self.lifted_vec_dim * np.arange(self.num_stages)
        return starts[:, None, None] + index, scale


def build_horizon_problem(
    measured: RelativeState | np.ndarray, model: DiscreteModel, params: MpcParams
) -> HorizonProblem:
    """Assemble the per-sample problem for a measured relative state."""
    if isinstance(measured, RelativeState):
        measured = measured.as_vector()
    return HorizonProblem(np.asarray(measured, dtype=float), model, params)


def evaluate_cost(
    hp: HorizonProblem, states: np.ndarray, inputs: np.ndarray, lifted: np.ndarray
) -> float:
    """Objective value of a trajectory: tracking + input + smoothing + trace
    terms, stage by stage; the reference for the objective :func:`to_conic` builds."""
    p = hp.params
    N = hp.num_stages
    states = np.asarray(states, dtype=float).reshape(N + 1, hp.state_dim)
    inputs = np.asarray(inputs, dtype=float).reshape(N, hp.input_dim)
    lifted = np.asarray(lifted, dtype=float).reshape(N, hp.lifted_side, hp.lifted_side)
    target = p.desired_state
    total = 0.0
    for j in range(1, N + 1):
        dev = states[j] - target
        total += dev @ p.state_weight @ dev
        total += inputs[j - 1] @ p.product_weight @ inputs[j - 1]
    for j in range(1, N):
        step = inputs[j] - inputs[j - 1]
        total += step @ p.product_delta_weight @ step
    total += p.trace_weight * float(np.trace(lifted, axis1=1, axis2=2).sum())
    return float(total)


def to_conic(hp: HorizonProblem) -> ConicProblem:
    """Flatten the structured problem into standard conic form.

    Row layout: the first ``state_dim`` zero-cone rows pin stage 0 to the
    measured state (so re-pinning a new measurement only rewrites that slice
    of b), followed by dynamics and product-coupling equalities, the state box
    rows (and product box rows when bounds are configured), then one PSD block
    per stage.
    """
    p = hp.params
    model = hp.model
    N, n, m = hp.num_stages, hp.state_dim, hp.input_dim
    side, d = hp.lifted_side, hp.lifted_vec_dim
    pairs = spacecraft_pairs(side)

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    b_parts: list[np.ndarray] = []

    def add_block(row0: int, col0: int, block: np.ndarray):
        r, c = np.nonzero(block)
        rows.extend((row0 + r).tolist())
        cols.extend((col0 + c).tolist())
        vals.extend(block[r, c].tolist())

    row = 0
    # stage-0 pin
    add_block(row, hp.state_offset(0), np.eye(n))
    b_parts.append(hp.initial_state)
    row += n
    # dynamics: states[j+1] - A states[j] - B inputs[j] = 0
    for j in range(N):
        add_block(row, hp.state_offset(j + 1), np.eye(n))
        add_block(row, hp.state_offset(j), -model.A)
        add_block(row, hp.input_offset(j), -model.B)
        b_parts.append(np.zeros(n))
        row += n
    # coupling: inputs[j][l] - lifted[j][i, k] = 0 in scaled vectorization
    for j in range(N):
        for l, (i, k) in enumerate(pairs):
            rows.append(row)
            cols.append(hp.input_offset(j) + l)
            vals.append(1.0)
            rows.append(row)
            cols.append(hp.lifted_offset(j) + vec_index(k, i))
            vals.append(-1.0 / SQRT2)
            row += 1
    b_parts.append(np.zeros(N * m))
    zero_dim = row

    # state box, stages 1..N
    for j in range(1, N + 1):
        add_block(row, hp.state_offset(j), np.eye(n))
        b_parts.append(p.state_max)
        row += n
    for j in range(1, N + 1):
        add_block(row, hp.state_offset(j), -np.eye(n))
        b_parts.append(-p.state_min)
        row += n
    # optional product box, stages 0..N-1
    if p.product_min is not None:
        for j in range(N):
            add_block(row, hp.input_offset(j), np.eye(m))
            b_parts.append(p.product_max)
            row += m
        for j in range(N):
            add_block(row, hp.input_offset(j), -np.eye(m))
            b_parts.append(-p.product_min)
            row += m
    nonneg_dim = row - zero_dim

    # PSD slacks: s_block = vec(lifted[j])
    for j in range(N):
        add_block(row, hp.lifted_offset(j), -np.eye(d))
        b_parts.append(np.zeros(d))
        row += d

    A = sp.csc_matrix(
        sp.coo_matrix((vals, (rows, cols)), shape=(row, hp.num_vars))
    )
    b = np.concatenate(b_parts)
    cones = ConeDims(zero=zero_dim, nonneg=nonneg_dim, psd=(side,) * N)

    # quadratic objective: 1/2 z'Pz + c'z + const reproduces evaluate_cost
    target = p.desired_state
    P_rows: list[int] = []
    P_cols: list[int] = []
    P_vals: list[float] = []
    c = np.zeros(hp.num_vars)

    def add_quad(row0: int, col0: int, block: np.ndarray):
        r, cc = np.nonzero(block)
        P_rows.extend((row0 + r).tolist())
        P_cols.extend((col0 + cc).tolist())
        P_vals.extend(block[r, cc].tolist())

    for j in range(1, N + 1):
        add_quad(hp.state_offset(j), hp.state_offset(j), 2.0 * p.state_weight)
        c[hp.state_offset(j) : hp.state_offset(j) + n] += -2.0 * (p.state_weight @ target)
        add_quad(hp.input_offset(j - 1), hp.input_offset(j - 1), 2.0 * p.product_weight)
    for j in range(1, N):
        add_quad(hp.input_offset(j), hp.input_offset(j), 2.0 * p.product_delta_weight)
        add_quad(hp.input_offset(j - 1), hp.input_offset(j - 1), 2.0 * p.product_delta_weight)
        add_quad(hp.input_offset(j), hp.input_offset(j - 1), -2.0 * p.product_delta_weight)
        add_quad(hp.input_offset(j - 1), hp.input_offset(j), -2.0 * p.product_delta_weight)
    if p.trace_weight:
        for j in range(N):
            for a in range(side):
                c[hp.lifted_offset(j) + vec_index(a, a)] += p.trace_weight

    P = sp.csc_matrix(
        sp.coo_matrix((P_vals, (P_rows, P_cols)), shape=(hp.num_vars, hp.num_vars))
    )
    constant = float(N * (target @ p.state_weight @ target))
    return ConicProblem(c=c, A=A, b=b, cones=cones, P=P, objective_constant=constant)


def update_initial_state(
    conic: ConicProblem, hp: HorizonProblem, measured: RelativeState | np.ndarray
) -> np.ndarray:
    """Right-hand side of ``conic`` with the stage-0 pin set to a fresh measurement.

    Only b changes between samples, so a :class:`~coulombmpc.solver.ConicSolver`
    bound to ``conic`` solves the re-pinned problem with its cached factorization.
    """
    if isinstance(measured, RelativeState):
        measured = measured.as_vector()
    measured = np.asarray(measured, dtype=float)
    if measured.shape != (hp.state_dim,):
        raise ValueError("measured state has the wrong dimension")
    b = conic.b.copy()
    b[: hp.state_dim] = measured
    return b
