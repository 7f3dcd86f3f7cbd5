"""Closed-loop simulation harness, CSV telemetry, and the brute-force oracle.

The truth plant is the full nonlinear dynamics integrated with fixed-substep
RK4 under zero-order-hold charges; the controller only ever sees its frozen
linear model.  A run aborts (with a partial log) if any pair of spacecraft
closes below the configured minimum separation, or if a hold ends in a state
that is not finite, which the next hold could not start from.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .controller import SATURATION_LIMIT, MpcController, StepRecord
from .dynamics import (
    FormationConfig,
    RelativeState,
    SingularityError,
    _as_float_vector,
    _check_count,
    _check_positive,
    _finite_state,
    _rebuilt_through_checks,
    build_discrete_model,
    charge_products,
    rk4_step,
    spacecraft_pairs,
)
from .horizon import MpcParams
from .solver import OPTIMAL, SolverSettings

RUN_COMPLETED = "completed"
RUN_ABORTED_COLLISION = "aborted-collision"
RUN_ABORTED_NONFINITE = "aborted-nonfinite"

CSV_FLOAT_FORMAT = "%.17g"  # 17 significant digits: exact float64 round trip
ORACLE_MAX_COMBINATIONS = 41**4  # brute_force_qcqp's cap: 41 levels of 4 craft peak at 93 MB RSS


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one closed-loop run, checked once at
    construction: frozen, so a changed field goes through
    ``dataclasses.replace`` and its checks."""

    formation: FormationConfig
    params: MpcParams
    solver: SolverSettings
    initial_state: np.ndarray
    sample_period: float = 0.5
    steps: int = 2400
    substeps: int = 10
    saturation_limit: float = SATURATION_LIMIT  # the one charge limit [10 mC]: clamp and oracle grid
    output_path: str | os.PathLike | None = None

    def __post_init__(self):
        if self.formation.num_spacecraft != self.params.num_spacecraft:
            raise ValueError(f"formation.num_spacecraft = {self.formation.num_spacecraft} "
                             f"disagrees with params.num_spacecraft = {self.params.num_spacecraft}")
        object.__setattr__(self, "initial_state", _as_float_vector(
            self.initial_state, self.formation.state_dim, "initial_state", finite=True
        ))
        for name in ("sample_period", "saturation_limit"):
            object.__setattr__(self, name, _check_positive(getattr(self, name), name))
        for name in ("steps", "substeps"):
            object.__setattr__(self, name, _check_count(getattr(self, name), name))
        if not isinstance(self.output_path, (str, os.PathLike, type(None))):
            raise ValueError(f"output must be a str, os.PathLike or None, got {self.output_path!r}")

    __reduce__ = _rebuilt_through_checks


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
    """Integrate the nonlinear plant over one hold interval: one call of the RK4
    kernel :func:`~coulombmpc.dynamics.rk4_step`, which runs the ``substeps``
    steps of size ``duration / substeps`` on its bound buffers."""
    _check_count(substeps, "substeps")
    return rk4_step(state, charges, duration / substeps, cfg, substeps)


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
        if not _finite_state(state):
            status = RUN_ABORTED_NONFINITE
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
        "fault_count": sum(1 for r in records if r.solver_status != OPTIMAL),
        "saturation_count": sum(1 for r in records if r.saturated),
    }
    return RunLog(records=records, status=status, summary=summary)


def box_edge_starts(cfg: ScenarioConfig) -> list[np.ndarray]:
    """Initial states at rest 1 m inside the position box's corners, one per
    sign pattern (``+`` first): the positions are ``state_max - 1`` where the
    sign is ``+`` and ``state_min + 1`` where it is ``-``, i.e. ``desired +-
    (state_margin - 1)`` for a box given as a margin."""
    half = cfg.formation.num_spacecraft - 1
    low, high = cfg.params.state_min[:half] + 1.0, cfg.params.state_max[:half] - 1.0
    return [np.concatenate([np.where(np.array(signs) > 0, high, low), np.zeros(half)])
            for signs in itertools.product((1, -1), repeat=half)]


# ---------------------------------------------------------------------------
# brute-force validation oracle
# ---------------------------------------------------------------------------

def brute_force_qcqp(
    measured: np.ndarray,
    model,
    params: MpcParams,
    grid: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exhaustive grid search of the original nonconvex charge problem.

    Enumerates every combination of per-craft charges drawn from ``grid``
    over the whole horizon, rolls out the frozen linear model and evaluates
    the tracking + input + smoothing cost directly.  States violating the box
    bounds (stages 1..N) are discarded.  Exponential in craft count and
    horizon: more than ``ORACLE_MAX_COMBINATIONS`` combinations raise
    ``ValueError`` before anything is allocated.  The combinations are in
    ``itertools.product`` order, one chunk per level of the first charge, and
    a later chunk wins only with a strictly lower cost, so a tie goes to the
    first of them.
    """
    ns = params.num_spacecraft
    N = params.horizon
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 21:
        raise ValueError("grid must be a vector of at least 21 charge levels")
    if grid.size ** (ns * N) > ORACLE_MAX_COMBINATIONS:
        raise ValueError(f"grid search of {grid.size}**{ns * N} charge combinations is above "
                         f"the cap of {ORACLE_MAX_COMBINATIONS:,}")
    measured = np.asarray(measured, dtype=float)

    rest = grid[np.indices((grid.size,) * (ns * N - 1)).reshape(ns * N - 1, -1).T]
    target = params.desired_state
    pairs = spacecraft_pairs(ns)
    best_charges, best_cost = None, np.inf
    for level in grid:  # the chunk of the combinations whose first charge is level
        charges = np.column_stack([np.full(len(rest), level), rest]).reshape(-1, N, ns)
        total = np.zeros(charges.shape[0])
        feasible = np.ones(charges.shape[0], dtype=bool)
        state = np.broadcast_to(measured, (charges.shape[0], measured.size)).copy()
        prev_products = None
        for j in range(N):
            q = charges[:, j, :]
            products = q[:, pairs[:, 0]] * q[:, pairs[:, 1]]
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
        if best_charges is None or total[best] < best_cost:
            best_charges, best_cost = charges[best], float(total[best])
    return best_charges, best_cost


# ---------------------------------------------------------------------------
# CSV telemetry
# ---------------------------------------------------------------------------

# One row per step: k, one run of floats (t, the vectors below, rank_ratio),
# then the solve's outcome.  Header, writer and reader all follow this layout.
_CSV_TAIL = ["solver_status", "iters", "solve_time_s", "saturated"]


def _csv_vectors(num_spacecraft: int) -> dict[str, list[str]]:
    """The StepRecord vectors of a row's float run, in order, with their columns."""
    def cols(prefix, count):
        return [f"{prefix}_{i + 1}" for i in range(count)]

    half = num_spacecraft - 1
    return {"measured": cols("xi", half) + cols("nu", half), "charges": cols("q", num_spacecraft),
            "products": cols("u", len(spacecraft_pairs(num_spacecraft)))}


def _csv_header(num_spacecraft: int) -> list[str]:
    vectors = _csv_vectors(num_spacecraft).values()
    return ["k", "t", *itertools.chain(*vectors), "rank_ratio", *_CSV_TAIL]


def write_csv(log: RunLog, path):
    """Write one row per step; floats carry 17 significant digits.  A log whose
    records carry other than one spacecraft count raises ``ValueError``."""
    counts = sorted({rec.charges.size for rec in log.records})
    if len(counts) != 1:
        raise ValueError(f"the records must carry one spacecraft count, got {counts}")
    num_spacecraft = counts[0]
    vectors = _csv_vectors(num_spacecraft)
    fmt = CSV_FLOAT_FORMAT

    with open(path, "w", newline="") as fh:
        fh.write(",".join(_csv_header(num_spacecraft)) + "\n")
        for rec in log.records:
            run = [rec.time, *itertools.chain(*(getattr(rec, name) for name in vectors)),
                   rec.rank_ratio]
            tail = [rec.solver_status, str(rec.iterations), fmt % rec.solve_time,
                    str(int(rec.saturated))]
            fh.write(",".join([str(rec.step), *(fmt % v for v in run), *tail]) + "\n")


def read_csv(path) -> list[StepRecord]:
    """Parse a telemetry file back into step records (inverse of write_csv).
    Lines may end in LF or CRLF; a bad row raises ``ValueError`` naming its line."""
    with open(path, "r", newline="") as fh:
        lines = [(lineno, line.rstrip("\r\n")) for lineno, line in enumerate(fh, 1) if line.strip()]
    if not lines:
        raise ValueError(f"{path} is empty")
    header = lines[0][1].split(",")
    ns = sum(1 for col in header if col.startswith("q_"))
    if ns < 2 or header != _csv_header(ns):
        raise ValueError(f"{path} does not have the expected column layout")
    vectors = _csv_vectors(ns)
    ends = list(itertools.accumulate((len(cols) for cols in vectors.values()), initial=0))

    records = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path} line {lineno}: {len(parts)} fields, expected {len(header)}")
        k, t, *run, rank_ratio, status, iters, solve_time, saturated = parts
        try:
            floats = [float(v) for v in run]
            records.append(StepRecord(
                step=int(k), time=float(t),
                **{name: np.array(floats[a:b]) for name, a, b in zip(vectors, ends, ends[1:])},
                rank_ratio=float(rank_ratio), solver_status=status, iterations=int(iters),
                solve_time=float(solve_time), saturated=bool(int(saturated)),
            ))
        except ValueError as exc:
            raise ValueError(f"{path} line {lineno}: {exc}") from None
    return records


def replay_cost(records: list[StepRecord], params: MpcParams) -> dict:
    """Recompute stage costs and product consistency from logged telemetry.

    The tracking cost sums over steps with a finite measurement only, so an
    ``invalid_measurement`` step does not turn it into NaN.  A non-finite
    product error, from a NaN charge or product in the log, is reported as NaN.
    Records of another spacecraft count than ``params`` raise ``ValueError``.
    """
    target = params.desired_state
    tracking = 0.0
    coupling_error = 0.0
    for rec in records:
        if rec.charges.size != params.num_spacecraft:
            raise ValueError(f"the telemetry is of {rec.charges.size} spacecraft, "
                             f"the scenario of {params.num_spacecraft}")
        dev = rec.measured - target
        if np.isfinite(dev).all():
            tracking += float(dev @ params.state_weight @ dev)
        # np.maximum keeps a NaN error, which max() would drop
        coupling_error = float(
            np.maximum(coupling_error, np.abs(rec.products - charge_products(rec.charges)).max())
        )
    return {
        "steps": len(records),
        "tracking_cost": tracking,
        "max_product_error": coupling_error,
    }
