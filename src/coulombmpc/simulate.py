"""Closed-loop simulation harness, CSV telemetry, and the brute-force oracle.

The truth plant is the full nonlinear dynamics integrated with fixed-substep
RK4 under zero-order-hold charges; the controller only ever sees its frozen
linear model.  A run aborts (with a partial log) if any pair of spacecraft
closes below the configured minimum separation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .controller import MpcController, StepRecord
from .dynamics import (
    FormationConfig,
    RelativeState,
    SingularityError,
    build_discrete_model,
    charge_products,
    pair_count,
    rk4_step,
)
from .horizon import MpcParams
from .solver import SolverSettings

RUN_COMPLETED = "completed"
RUN_ABORTED_COLLISION = "aborted-collision"

CSV_FLOAT_FORMAT = "%.17g"  # 17 significant digits: exact float64 round trip


def _check_count(value, name: str) -> None:
    """Reject a count that is not a whole number of at least 1."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be at least 1")


@dataclass
class ScenarioConfig:
    """Everything needed to reproduce one closed-loop run."""

    formation: FormationConfig
    params: MpcParams
    solver: SolverSettings
    initial_state: np.ndarray
    sample_period: float
    steps: int
    substeps: int = 10
    saturation_limit: float = 0.1  # the one charge limit [10 mC]: clamp and oracle grid
    output_path: str | None = None

    def __post_init__(self):
        self.initial_state = np.asarray(self.initial_state, dtype=float)
        if self.initial_state.shape != (self.formation.state_dim,):
            raise ValueError(
                f"initial_state must have length {self.formation.state_dim}"
            )
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        _check_count(self.steps, "steps")
        _check_count(self.substeps, "substeps")
        if not self.saturation_limit > 0:
            raise ValueError("saturation_limit must be positive")


@dataclass
class RunLog:
    records: list[StepRecord]
    status: str
    summary: dict = field(default_factory=dict)


def propagate(
    state: RelativeState,
    charges: np.ndarray,
    duration: float,
    substeps: int,
    cfg: FormationConfig,
) -> RelativeState:
    """Integrate the nonlinear plant over one hold interval with RK4 substeps."""
    _check_count(substeps, "substeps")
    dt = duration / substeps
    for _ in range(substeps):
        state = rk4_step(state, charges, dt, cfg)
    return state


def run_closed_loop(cfg: ScenarioConfig) -> RunLog:
    """Alternate controller steps and truth propagation, logging every step."""
    model = build_discrete_model(
        cfg.params.desired_positions, cfg.sample_period, cfg.formation
    )
    controller = MpcController(
        model, cfg.params, cfg.solver, saturation_limit=cfg.saturation_limit
    )
    state = RelativeState.from_vector(cfg.initial_state)
    records: list[StepRecord] = []
    status = RUN_COMPLETED
    for _ in range(cfg.steps):
        charges, record = controller.step(state)
        records.append(record)
        try:
            state = propagate(
                state, charges, cfg.sample_period, cfg.substeps, cfg.formation
            )
        except SingularityError:
            status = RUN_ABORTED_COLLISION
            break

    desired = cfg.params.desired_positions
    final_dev = float(np.abs(state.positions - desired).max())
    summary = {
        "final_state": state.as_vector(),
        "final_deviation": final_dev,
        "max_abs_charge": float(
            max((np.abs(r.charges).max() for r in records), default=0.0)
        ),
        "total_solve_time": float(sum(r.solve_time for r in records)),
        "fault_count": len(controller.state.faults),
        "saturation_count": sum(1 for r in records if r.saturated),
    }
    return RunLog(records=records, status=status, summary=summary)


# ---------------------------------------------------------------------------
# brute-force validation oracle
# ---------------------------------------------------------------------------

def brute_force_qcqp(
    measured: RelativeState | np.ndarray,
    model,
    params: MpcParams,
    grid: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exhaustive grid search of the original nonconvex charge problem.

    Enumerates every combination of per-craft charges drawn from ``grid``
    over the whole horizon, rolls out the frozen linear model and evaluates
    the tracking + input + smoothing cost directly.  States violating the box
    bounds (stages 1..N) are discarded.  Exponential in craft count and
    horizon; guarded to at most 3 craft and 2 stages.
    """
    ns = params.num_spacecraft
    N = params.horizon
    if ns > 3 or N > 2:
        raise ValueError("grid search is limited to <= 3 spacecraft and horizon <= 2")
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 21:
        raise ValueError("grid must be a vector of at least 21 charge levels")
    if isinstance(measured, RelativeState):
        measured = measured.as_vector()
    measured = np.asarray(measured, dtype=float)

    combos = np.array(list(itertools.product(grid, repeat=ns * N)))
    charges = combos.reshape(-1, N, ns)
    target = params.desired_state
    pairs_i, pairs_j = np.triu_indices(ns, k=1)

    total = np.zeros(charges.shape[0])
    feasible = np.ones(charges.shape[0], dtype=bool)
    state = np.broadcast_to(measured, (charges.shape[0], measured.size)).copy()
    prev_products = None
    for j in range(N):
        q = charges[:, j, :]
        products = q[:, pairs_i] * q[:, pairs_j]
        state = state @ model.A.T + products @ model.B.T
        dev = state - target
        total += np.einsum("bi,ij,bj->b", dev, params.state_weight, dev)
        total += np.einsum("bi,ij,bj->b", products, params.product_weight, products)
        if prev_products is not None:
            delta = products - prev_products
            total += np.einsum(
                "bi,ij,bj->b", delta, params.product_delta_weight, delta
            )
        feasible &= np.all(state <= params.state_max + 1e-12, axis=1)
        feasible &= np.all(state >= params.state_min - 1e-12, axis=1)
        prev_products = products

    total = np.where(feasible, total, np.inf)
    best = int(np.argmin(total))
    return charges[best], float(total[best])


# ---------------------------------------------------------------------------
# CSV telemetry
# ---------------------------------------------------------------------------

def _csv_header(num_spacecraft: int) -> list[str]:
    half = num_spacecraft - 1
    m = pair_count(num_spacecraft)
    cols = ["k", "t"]
    cols += [f"xi_{i + 1}" for i in range(half)]
    cols += [f"nu_{i + 1}" for i in range(half)]
    cols += [f"q_{i + 1}" for i in range(num_spacecraft)]
    cols += [f"u_{i + 1}" for i in range(m)]
    cols += ["rank_ratio", "solver_status", "iters", "solve_time_s", "saturated"]
    return cols


def write_csv(log: RunLog, path, num_spacecraft: int | None = None):
    """Write one row per step; floats carry 17 significant digits."""
    if num_spacecraft is None:
        if not log.records:
            raise ValueError("cannot infer the spacecraft count from an empty log")
        num_spacecraft = log.records[0].charges.size
    header = _csv_header(num_spacecraft)
    fmt = CSV_FLOAT_FORMAT

    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for rec in log.records:
            half = num_spacecraft - 1
            fields = [str(rec.step), fmt % rec.time]
            fields += [fmt % v for v in rec.measured[:half]]
            fields += [fmt % v for v in rec.measured[half:]]
            fields += [fmt % v for v in rec.charges]
            fields += [fmt % v for v in rec.products]
            fields += [
                fmt % rec.rank_ratio,
                rec.solver_status,
                str(rec.iterations),
                fmt % rec.solve_time,
                str(int(rec.saturated)),
            ]
            fh.write(",".join(fields) + "\n")


def read_csv(path) -> list[StepRecord]:
    """Parse a telemetry file back into step records (inverse of write_csv)."""
    with open(path, "r", newline="") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0].split(",")
    ns = sum(1 for col in header if col.startswith("q_"))
    half = ns - 1
    m = pair_count(ns)
    if header != _csv_header(ns):
        raise ValueError(f"{path} does not have the expected column layout")

    records = []
    for line in lines[1:]:
        parts = line.split(",")
        pos = 2
        xi = np.array([float(v) for v in parts[pos : pos + half]])
        pos += half
        nu = np.array([float(v) for v in parts[pos : pos + half]])
        pos += half
        q = np.array([float(v) for v in parts[pos : pos + ns]])
        pos += ns
        u = np.array([float(v) for v in parts[pos : pos + m]])
        pos += m
        records.append(
            StepRecord(
                step=int(parts[0]),
                time=float(parts[1]),
                measured=np.concatenate([xi, nu]),
                charges=q,
                products=u,
                rank_ratio=float(parts[pos]),
                solver_status=parts[pos + 1],
                iterations=int(parts[pos + 2]),
                solve_time=float(parts[pos + 3]),
                saturated=bool(int(parts[pos + 4])),
            )
        )
    return records


def replay_cost(records: list[StepRecord], params: MpcParams) -> dict:
    """Recompute stage costs and product consistency from logged telemetry.

    The tracking cost sums over steps with a finite measurement only, so an
    ``invalid_measurement`` step does not turn it into NaN.
    """
    target = params.desired_state
    tracking = 0.0
    coupling_error = 0.0
    for rec in records:
        dev = rec.measured - target
        if np.isfinite(dev).all():
            tracking += float(dev @ params.state_weight @ dev)
        coupling_error = max(
            coupling_error,
            float(np.abs(rec.products - charge_products(rec.charges)).max()),
        )
    return {
        "steps": len(records),
        "tracking_cost": tracking,
        "max_product_error": coupling_error,
    }
