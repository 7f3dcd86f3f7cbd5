"""Receding-horizon feedback loop: measure, solve, recover, apply, repeat.

Each sample the controller pins the relaxation to the measured state, solves
it warm-started from the previous sample, rounds the first lifted matrix to
an implementable charge vector, saturates it, and hands the charges to the
actuation layer for zero-order hold over the coming sample period.  Only the
right-hand side of the conic problem changes between samples, so one solver
bound to the problem's structure keeps its scaling and factorization
throughout the run.

On solver failure, or on a measurement with non-finite entries (status
:data:`INVALID_MEASUREMENT`, no solve attempted), the controller applies
zero charges (the passive-safe actuation: no charge, no force), logs the
fault and keeps the previous warm start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conic import ConicProblem
from .dynamics import DiscreteModel, RelativeState, charge_products
from .horizon import HorizonProblem, MpcParams, build_horizon_problem, to_conic, update_initial_state
from .recovery import recover, saturate
from .solver import OPTIMAL, ConicSolver, SolveResult, SolverSettings

INVALID_MEASUREMENT = "invalid_measurement"


@dataclass
class ControllerState:
    """Mutable loop state carried from one sample to the next."""

    previous_result: SolveResult | None = None
    previous_charges: np.ndarray | None = None
    step_count: int = 0
    faults: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class StepRecord:
    """Everything logged about one controller step."""

    step: int
    time: float
    measured: np.ndarray
    charges: np.ndarray
    products: np.ndarray
    rank_ratio: float
    solver_status: str
    iterations: int
    solve_time: float
    saturated: bool
    objective: float = float("nan")  # not part of the CSV column contract


def warm_start_payload(
    previous: SolveResult | None, settings: SolverSettings
) -> SolveResult | None:
    """The previous solution when warm starting is on, else None."""
    return previous if settings.warm_start else None


class MpcController:
    """Stateful controller solving one relaxation per sample.

    Not safe to step concurrently; the solve for one sample must finish
    before the next sample's actuation deadline.
    """

    def __init__(
        self,
        model: DiscreteModel,
        params: MpcParams,
        settings: SolverSettings | None = None,
        saturation_limit: float = 0.1,
    ):
        self.model = model
        self.params = params
        self.settings = settings or SolverSettings()
        self.saturation_limit = float(saturation_limit)
        if self.saturation_limit <= 0:
            raise ValueError("saturation limit must be positive")
        # template problem; per-step rebuilds only touch the right-hand side
        self._template: HorizonProblem = build_horizon_problem(
            params.desired_state, model, params
        )
        self._conic_template: ConicProblem = to_conic(self._template)
        self._solver = ConicSolver(self._conic_template, self.settings)
        self.state = ControllerState()

    def step(self, measured: RelativeState | np.ndarray) -> tuple[np.ndarray, StepRecord]:
        """Compute and return the charges to hold over the next sample period."""
        if isinstance(measured, RelativeState):
            measured = measured.as_vector()
        measured = np.asarray(measured, dtype=float)

        k = self.state.step_count
        # a wrong-length measurement is a caller bug and raises while pinning
        if measured.shape == (self.model.state_dim,) and not np.isfinite(measured).all():
            status, iterations, solve_time, objective = INVALID_MEASUREMENT, 0, 0.0, float("nan")
        else:
            b = update_initial_state(self._conic_template, self._template, measured)
            warm = warm_start_payload(self.state.previous_result, self.settings)
            result = self._solver.solve(b, warm=warm)
            status, iterations = result.status, result.iterations
            solve_time, objective = result.solve_time, result.objective

        if status == OPTIMAL:
            _, _, lifted = self._template.unpack(result.z)
            recovered = recover(lifted[0], previous=self.state.previous_charges)
            charges, clipped = saturate(recovered.charges, self.saturation_limit)
            rank_ratio = recovered.rank_ratio
            self.state.previous_result = result
        else:
            # fault path: passive-safe zero charges, keep the old warm start
            charges = np.zeros(self.params.num_spacecraft)
            clipped = False
            rank_ratio = float("nan")
            self.state.faults.append((k, status))

        record = StepRecord(
            step=k,
            time=k * self.model.sample_period,
            measured=measured,
            charges=charges,
            products=charge_products(charges),
            rank_ratio=rank_ratio,
            solver_status=status,
            iterations=iterations,
            solve_time=solve_time,
            saturated=clipped,
            objective=objective,
        )
        self.state.previous_charges = charges
        self.state.step_count = k + 1
        return charges, record
