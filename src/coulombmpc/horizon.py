"""Finite-horizon semidefinite relaxation of the formation control problem.

The nonconvex coupling u_l = q_i q_j between charges and charge products is
lifted to a symmetric matrix variable per stage: each product equals a fixed
linear functional of the lifted matrix, the lifted matrix is constrained
positive semidefinite, and its rank-one constraint is dropped.  A trace
penalty biases the relaxation back toward rank one.

Decision variables per horizon of length N (state dimension n, m charge
products, lifted matrices of side equal to the spacecraft count):

    states[0..N]     predicted stacked relative states, stage 0 pinned
                     (to_conic pins the target, update_initial_state a
                     measurement)
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

from .conic import SQRT2, ConeDims, ConicProblem, sym_gather, vec_dim
from .dynamics import DiscreteModel, _as_float_vector, _as_floats, _bound, _check_count
from .dynamics import _check_positive, spacecraft_pairs

_PSD_EIG_FLOOR = -1e-10


def _weight_matrix(value, size: int, name: str) -> np.ndarray:
    """A read-only PSD ``size x size`` weight matrix: a full matrix as given, made
    exactly symmetric, or else :func:`~coulombmpc.dynamics._bound`'s one value
    or one per entry, on the diagonal."""
    arr = _as_floats(value, name)
    if arr.ndim != 2:
        arr = np.diag(_bound(arr, size, name))
    elif arr.shape != (size, size):
        raise ValueError(f"{name} must be {size}x{size}")
    elif not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(arr, arr.T, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    mat = 0.5 * (arr + arr.T)
    if mat.size and np.linalg.eigvalsh(mat).min() < _PSD_EIG_FLOOR:
        raise ValueError(f"{name} must be positive semidefinite")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True)
class MpcParams:
    """Horizon length, tracking target, weights and bounds of the stage problem."""

    desired_positions: np.ndarray
    state_min: np.ndarray
    state_max: np.ndarray
    horizon: int = 9
    state_weight: np.ndarray = 1.0
    product_weight: np.ndarray = 0.0
    product_delta_weight: np.ndarray = 0.0
    trace_weight: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "horizon", _check_count(self.horizon, "horizon"))
        trace_weight = _check_positive(self.trace_weight, "trace_weight", zero_ok=True)
        object.__setattr__(self, "trace_weight", trace_weight)
        desired = _as_float_vector(self.desired_positions, name="desired_positions", finite=True)
        object.__setattr__(self, "desired_positions", desired)
        ns = desired.size + 1
        n = 2 * desired.size
        m = len(spacecraft_pairs(ns))
        object.__setattr__(self, "state_weight", _weight_matrix(self.state_weight, n, "state_weight"))
        object.__setattr__(
            self, "product_weight", _weight_matrix(self.product_weight, m, "product_weight")
        )
        object.__setattr__(
            self,
            "product_delta_weight",
            _weight_matrix(self.product_delta_weight, m, "product_delta_weight"),
        )
        lo = _bound(self.state_min, n, "state_min")
        hi = _bound(self.state_max, n, "state_max")
        if np.any(lo >= hi):
            raise ValueError("state_min must be elementwise below state_max")
        object.__setattr__(self, "state_min", lo)
        object.__setattr__(self, "state_max", hi)

    @property
    def num_spacecraft(self) -> int:
        return self.desired_positions.size + 1

    @property
    def desired_state(self) -> np.ndarray:
        """Stacked desired relative state: target positions, zero velocities."""
        return np.concatenate([self.desired_positions, np.zeros_like(self.desired_positions)])


@dataclass(frozen=True)
class HorizonProblem:
    """The decision-vector layout of the per-sample relaxation of ``params`` on ``model``."""

    model: DiscreteModel
    params: MpcParams

    def __post_init__(self):
        if self.model.input_dim != len(spacecraft_pairs(self.params.num_spacecraft)):
            raise ValueError("model input dimension does not match the pair count")
        if self.model.state_dim != 2 * (self.params.num_spacecraft - 1):
            raise ValueError("model state dimension does not match the spacecraft count")

    # -- variable layout ----------------------------------------------------
    @property
    def lifted_vec_dim(self) -> int:
        return vec_dim(self.params.num_spacecraft)

    def input_offset(self, stage: int) -> int:
        return (self.params.horizon + 1) * self.model.state_dim + stage * self.model.input_dim

    def lifted_offset(self, stage: int) -> int:
        return self.input_offset(self.params.horizon) + stage * self.lifted_vec_dim

    @cached_property
    def num_vars(self) -> int:
        return self.lifted_offset(self.params.horizon)

    # -- point unpacking -----------------------------------------------------
    def unpack(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The (states, inputs, lifted matrices) trajectory of a decision vector
        of length ``num_vars``; another shape raises ``ValueError``."""
        z = np.asarray(z, dtype=float)
        if z.shape != (self.num_vars,):
            raise ValueError(f"z must have length {self.num_vars}, got shape {z.shape}")
        N, u0, l0, gather, scale = self._unpack_plan
        return z[:u0].reshape(N + 1, -1), z[u0:l0].reshape(N, -1), z[gather] / scale

    @cached_property
    def _unpack_plan(self) -> tuple[int, int, int, np.ndarray, np.ndarray]:
        """The horizon, the first input and lifted columns, and the index into z
        and unscaling of every lifted matrix entry, stage by stage."""
        N, u0, l0 = self.params.horizon, self.input_offset(0), self.lifted_offset(0)
        index, scale = sym_gather(self.params.num_spacecraft)
        starts = l0 + self.lifted_vec_dim * np.arange(N)
        return N, u0, l0, starts[:, None, None] + index, scale


def _slots(starts, sizes, strides) -> tuple[np.ndarray, np.ndarray]:
    """Stage-0 index and per-stage stride of each slot of a one-stage
    template whose slots are runs of consecutive indices at ``starts``."""
    shifts, local = [], 0
    for start, size in zip(starts, sizes):
        shifts.append(start - local)
        local += size
    shift, stride = np.repeat(np.array([shifts, strides], np.int32), sizes, axis=1)
    return shift + np.arange(local, dtype=np.int32), stride


def to_conic(hp: HorizonProblem) -> ConicProblem:
    """Flatten the structured problem into standard conic form.

    Row layout: the first ``state_dim`` zero-cone rows pin stage 0, here to
    the target ``params.desired_state`` (:func:`update_initial_state` re-pins
    a measurement by rewriting only that slice of b), followed by dynamics
    and product-coupling equalities, the state box rows, then one PSD block
    per stage.

    A and P are each one stage's nonzero pattern repeated over the horizon,
    each entry moving by its own row and column stride.  A has no repeated
    (row, col) entry, so the order of its triplets is free.  P sums repeated
    entries on its input blocks in triplet order, so its triplets come in
    stage-loop order: per stage the state block, then the product block; then
    per delta j the blocks (j, j), (j-1, j-1), (j, j-1), (j-1, j).
    """
    p = hp.params
    N, n, m = p.horizon, hp.model.state_dim, hp.model.input_dim
    side, d = p.num_spacecraft, hp.lifted_vec_dim
    u0, l0 = hp.input_offset(0), hp.lifted_offset(0)
    pairs = spacecraft_pairs(side)
    index, _ = sym_gather(side)
    box = n + N * (n + m)  # the zero cone's end and the first state box row
    psd = box + 2 * N * n  # the first PSD row
    # int32 indices: each is below a side of its matrix, and int32 is the type
    # scipy picks for those, so its constructor neither checks nor casts them
    stages = np.arange(N, dtype=np.int32)[:, None]

    # stage j of A: the rows of dynamics j, the state box of stage j+1 (upper
    # and lower), coupling j and PSD slack j; the columns of states j and j+1,
    # inputs j and lifted j
    groups = [(n, n), (box, n), (box + N * n, n), (n + N * n, m), (psd, d)]
    starts, sizes = zip(*groups)
    row_base, row_step = _slots(starts, sizes, sizes)
    col_base, col_step = _slots((0, u0, l0), (2 * n, m, d), (n, m, d))
    cp, us, ls = 3 * n, 2 * n, 2 * n + m  # the first coupling row, input and lifted column
    t = np.zeros((row_base.size, col_base.size))
    eye = np.eye(max(n, m, d))
    # dynamics: states[j+1] - A states[j] - B inputs[j] = 0; the box bounds
    # +-states[j+1]; the PSD slack is vec(lifted[j])
    t[:n, :n] = -hp.model.A
    t[:n, n:us] = t[n : 2 * n, n:us] = eye[:n, :n]
    t[2 * n : cp, n:us] = -eye[:n, :n]
    t[:n, us:ls] = -hp.model.B
    t[cp : cp + m, us:ls] = eye[:m, :m]
    # coupling: inputs[j][l] - lifted[j][i, k] = 0 in scaled vectorization
    t[cp + np.arange(m), ls + index[pairs[:, 0], pairs[:, 1]]] = -1.0 / SQRT2
    t[-d:, ls:] = -eye[:d, :d]
    r, c = np.nonzero(t)
    pin = np.arange(n, dtype=np.int32)  # the stage-0 pin: rows 0..n-1 on states 0
    rows = np.concatenate((pin, row_base[r] + row_step[r] * stages), axis=None)
    cols = np.concatenate((pin, col_base[c] + col_step[c] * stages), axis=None)
    # no entry repeats, so the CSC arrays are the triplets sorted by column,
    # then row: the arrays scipy's triplet constructor builds, without its sort
    order = np.argsort(cols.astype(np.int64) * (psd + N * d) + rows)
    indptr = np.zeros(hp.num_vars + 1, np.int32)
    np.cumsum(np.bincount(cols, minlength=hp.num_vars), out=indptr[1:])
    A = sp.csc_matrix(
        (np.concatenate([np.ones(n)] + [t[r, c]] * N)[order], rows[order], indptr),
        shape=(psd + N * d, hp.num_vars),
    )

    b = np.zeros(psd + N * d)
    b[:n] = p.desired_state
    b[box : box + N * n].reshape(N, n)[:] = p.state_max
    b[box + N * n : box + 2 * N * n].reshape(N, n)[:] = -p.state_min
    cones = ConeDims(zero=box, nonneg=psd - box, psd=(side,) * N)

    # quadratic objective: 1/2 z'Pz + c'z + const reproduces the stage costs;
    # stage j of P: states j+1 and inputs j, then delta j+1 on inputs j, j+1
    target = p.desired_state
    w = np.zeros((n + m, n + m))
    w[:n, :n] = 2.0 * p.state_weight
    w[n:, n:] = 2.0 * p.product_weight
    wr, wc = np.nonzero(w)
    base, step = _slots((n, u0), (n, m), (n, m))
    delta = 2.0 * p.product_delta_weight
    dr, dc = np.nonzero(delta)
    dv = delta[dr, dc]
    # (j, j), (j-1, j-1), (j, j-1), (j-1, j), counted from inputs j-1
    shifts = np.array([[m, 0, m, 0], [m, 0, 0, m]], np.int32)[:, :, None] + u0
    drc = (np.array([dr, dc], np.int32)[:, None, :] + shifts).reshape(2, -1) + m * stages[:-1, None]
    P = sp.csc_matrix(
        (
            np.concatenate([w[wr, wc]] * N + [np.concatenate([dv, dv, -dv, -dv])] * (N - 1)),
            (
                np.concatenate((base[wr] + step[wr] * stages, drc[:, 0]), axis=None),
                np.concatenate((base[wc] + step[wc] * stages, drc[:, 1]), axis=None),
            ),
        ),
        shape=(hp.num_vars, hp.num_vars),
    )
    c = np.zeros(hp.num_vars)
    c[n : (N + 1) * n].reshape(N, n)[:] += -2.0 * (p.state_weight @ target)
    if p.trace_weight:  # on the diagonal slots of each lifted block
        c[l0:].reshape(N, d)[:, np.diagonal(index)] += p.trace_weight
    constant = float(N * (target @ p.state_weight @ target))
    return ConicProblem(c=c, A=A, b=b, cones=cones, P=P, objective_constant=constant)


def update_initial_state(
    conic: ConicProblem, hp: HorizonProblem, measured: np.ndarray
) -> np.ndarray:
    """Right-hand side of ``conic`` with the stage-0 pin set to a measurement.

    This is the one writer of a measured state into b, and its one shape
    check.  Only b changes between samples, so a
    :class:`~coulombmpc.solver.ConicSolver` bound to ``conic`` solves the
    re-pinned problem with its cached factorization.
    """
    n = hp.model.state_dim
    measured = np.asarray(measured, dtype=float)
    if measured.shape != (n,):
        raise ValueError("measured state has the wrong dimension")
    b = conic.b.copy()
    b[:n] = measured
    return b
