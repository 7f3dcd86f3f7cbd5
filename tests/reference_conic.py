"""Reference problem assembly: the original ``to_conic``, kept verbatim, and
the per-block oracles the vectorised package code is tested against.

``to_conic`` below is the Python loop the package's
:func:`coulombmpc.to_conic` started from: it appends the COO triplets of
every block, stage by stage, to Python lists.  The package builds the same
triplets from per-stage templates and must give a byte-equal problem (see
``test_conic_reference.py``); the only edits below are the imports, the
block offsets, which come from :func:`offsets` rather than from
``HorizonProblem``, so a slip in the package's layout is not copied here, and
the stage-0 pin, which is the ``start`` argument: the package pins the target
and re-pins a start with ``update_initial_state``.

The other functions are one-block or one-stage references:

- ``evaluate_cost``: the structured objective, stage by stage, that the
  conic objective reproduces;
- ``dims``: the horizon and sizes, read from the params and the model;
- ``offsets``: the variable layout, states, then inputs, then lifted
  matrices, from the dimensions alone;
- ``pack``: the flattening that ``HorizonProblem.unpack`` inverts;
- ``vec_index`` and ``sym_to_vec``: the scaled lower-triangular
  vectorization of a symmetric matrix, entry by entry and whole;
- ``vec_to_sym``: the inverse of ``sym_to_vec``, against which the gathers of
  the cone projector and of ``unpack`` are tested;
- ``project_psd``: the one-matrix PSD projection that the solver's batched
  projection is tested against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from coulombmpc.conic import SQRT2, ConeDims, ConicProblem, sym_gather, vec_dim
from coulombmpc.dynamics import spacecraft_pairs
from coulombmpc.horizon import HorizonProblem


def vec_index(row: int, col: int) -> int:
    """Position of lower-triangular entry (row, col), row >= col, in the vectorization."""
    if col > row:
        row, col = col, row
    return row * (row + 1) // 2 + col


def sym_to_vec(mat: np.ndarray) -> np.ndarray:
    """Scaled lower-triangular vectorization of a symmetric matrix."""
    mat = np.asarray(mat, dtype=float)
    side = mat.shape[0]
    rows, cols = np.tril_indices(side)
    scale = np.where(rows == cols, 1.0, SQRT2)
    return mat[rows, cols] * scale


def vec_to_sym(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`: the one-block reference that the gathers
    of the cone projector and of ``HorizonProblem.unpack`` are tested against."""
    vec = np.asarray(vec, dtype=float)
    side = int((np.sqrt(8 * vec.size + 1) - 1) / 2 + 0.5)
    if vec_dim(side) != vec.size:
        raise ValueError(f"vector of length {vec.size} is not a packed symmetric matrix")
    index, scale = sym_gather(side)
    return vec[index] / scale


def project_psd(mat: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix in Frobenius norm.

    The input is symmetrized defensively; negative eigenvalues are clamped
    to zero.  Kept as the one-matrix reference that the batched PSD step of
    the solver's ``_ConeProjector`` is tested against.
    """
    mat = np.asarray(mat, dtype=float)
    if not np.all(np.isfinite(mat)):
        raise ValueError("cannot project a matrix with non-finite entries")
    sym = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(sym)
    return (eigvecs * np.maximum(eigvals, 0.0)) @ eigvecs.T


def dims(hp: HorizonProblem) -> tuple[int, int, int, int]:
    """The horizon, state dimension, product count and lifted side of ``hp``."""
    return hp.params.horizon, hp.model.state_dim, hp.model.input_dim, hp.params.num_spacecraft


def offsets(N: int, n: int, m: int, d: int):
    """The state, input and lifted offsets of a stage and the variable count of
    N stages, n states, m products and lifted vectorizations of length d: the
    reference layout of the decision vector."""

    def state(j):
        return j * n

    def inputs(j):
        return (N + 1) * n + j * m

    def lifted(j):
        return (N + 1) * n + N * m + j * d

    return state, inputs, lifted, (N + 1) * n + N * (m + d)


def pack(hp: HorizonProblem, states: np.ndarray, inputs: np.ndarray, lifted: np.ndarray) -> np.ndarray:
    """Flatten a (states, inputs, lifted) trajectory into a decision vector:
    the per-stage reference that the vectorised ``unpack`` must invert."""
    N, n, m, side = dims(hp)
    states = np.asarray(states, dtype=float).reshape(N + 1, n)
    inputs = np.asarray(inputs, dtype=float).reshape(N, m)
    lifted = np.asarray(lifted, dtype=float).reshape(N, side, side)
    _, _, lifted_offset, num_vars = offsets(N, n, m, hp.lifted_vec_dim)
    z = np.empty(num_vars)
    z[: (N + 1) * n] = states.ravel()
    z[(N + 1) * n : (N + 1) * n + N * m] = inputs.ravel()
    for j in range(N):
        off = lifted_offset(j)
        z[off : off + hp.lifted_vec_dim] = sym_to_vec(lifted[j])
    return z


def evaluate_cost(
    hp: HorizonProblem, states: np.ndarray, inputs: np.ndarray, lifted: np.ndarray
) -> float:
    """Objective value of a trajectory: tracking + input + smoothing + trace
    terms, stage by stage; the reference for the objective :func:`to_conic` builds."""
    p = hp.params
    N, n, m, side = dims(hp)
    states = np.asarray(states, dtype=float).reshape(N + 1, n)
    inputs = np.asarray(inputs, dtype=float).reshape(N, m)
    lifted = np.asarray(lifted, dtype=float).reshape(N, side, side)
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


def to_conic(hp: HorizonProblem, start: np.ndarray) -> ConicProblem:
    """Flatten the structured problem into standard conic form.

    Row layout: the first ``state_dim`` zero-cone rows pin stage 0 to the
    stacked state ``start`` (so re-pinning a new measurement only rewrites
    that slice of b), followed by dynamics and product-coupling equalities,
    the state box rows, then one PSD block per stage.
    """
    p = hp.params
    model = hp.model
    N, n, m, side = dims(hp)
    d = hp.lifted_vec_dim
    pairs = spacecraft_pairs(side)
    state_offset, input_offset, lifted_offset, num_vars = offsets(N, n, m, d)

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
    add_block(row, state_offset(0), np.eye(n))
    b_parts.append(np.asarray(start, dtype=float))
    row += n
    # dynamics: states[j+1] - A states[j] - B inputs[j] = 0
    for j in range(N):
        add_block(row, state_offset(j + 1), np.eye(n))
        add_block(row, state_offset(j), -model.A)
        add_block(row, input_offset(j), -model.B)
        b_parts.append(np.zeros(n))
        row += n
    # coupling: inputs[j][l] - lifted[j][i, k] = 0 in scaled vectorization
    for j in range(N):
        for l, (i, k) in enumerate(pairs):
            rows.append(row)
            cols.append(input_offset(j) + l)
            vals.append(1.0)
            rows.append(row)
            cols.append(lifted_offset(j) + vec_index(k, i))
            vals.append(-1.0 / SQRT2)
            row += 1
    b_parts.append(np.zeros(N * m))
    zero_dim = row

    # state box, stages 1..N
    for j in range(1, N + 1):
        add_block(row, state_offset(j), np.eye(n))
        b_parts.append(p.state_max)
        row += n
    for j in range(1, N + 1):
        add_block(row, state_offset(j), -np.eye(n))
        b_parts.append(-p.state_min)
        row += n
    nonneg_dim = row - zero_dim

    # PSD slacks: s_block = vec(lifted[j])
    for j in range(N):
        add_block(row, lifted_offset(j), -np.eye(d))
        b_parts.append(np.zeros(d))
        row += d

    A = sp.csc_matrix(
        sp.coo_matrix((vals, (rows, cols)), shape=(row, num_vars))
    )
    b = np.concatenate(b_parts)
    cones = ConeDims(zero=zero_dim, nonneg=nonneg_dim, psd=(side,) * N)

    # quadratic objective: 1/2 z'Pz + c'z + const reproduces evaluate_cost
    target = p.desired_state
    P_rows: list[int] = []
    P_cols: list[int] = []
    P_vals: list[float] = []
    c = np.zeros(num_vars)

    def add_quad(row0: int, col0: int, block: np.ndarray):
        r, cc = np.nonzero(block)
        P_rows.extend((row0 + r).tolist())
        P_cols.extend((col0 + cc).tolist())
        P_vals.extend(block[r, cc].tolist())

    for j in range(1, N + 1):
        add_quad(state_offset(j), state_offset(j), 2.0 * p.state_weight)
        c[state_offset(j) : state_offset(j) + n] += -2.0 * (p.state_weight @ target)
        add_quad(input_offset(j - 1), input_offset(j - 1), 2.0 * p.product_weight)
    for j in range(1, N):
        add_quad(input_offset(j), input_offset(j), 2.0 * p.product_delta_weight)
        add_quad(input_offset(j - 1), input_offset(j - 1), 2.0 * p.product_delta_weight)
        add_quad(input_offset(j), input_offset(j - 1), -2.0 * p.product_delta_weight)
        add_quad(input_offset(j - 1), input_offset(j), -2.0 * p.product_delta_weight)
    if p.trace_weight:
        for j in range(N):
            for a in range(side):
                c[lifted_offset(j) + vec_index(a, a)] += p.trace_weight

    P = sp.csc_matrix(
        sp.coo_matrix((P_vals, (P_rows, P_cols)), shape=(num_vars, num_vars))
    )
    constant = float(N * (target @ p.state_weight @ target))
    return ConicProblem(c=c, A=A, b=b, cones=cones, P=P, objective_constant=constant)
