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
fault in the step record and keeps the previous warm start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conic import ConicProblem
from .dynamics import DiscreteModel, RelativeState, _check_positive, charge_products
from .horizon import HorizonProblem, MpcParams, to_conic, update_initial_state
from .recovery import recover, saturate
from .solver import OPTIMAL, ConicSolver, SolveResult, SolverSettings

INVALID_MEASUREMENT = "invalid_measurement"
SATURATION_LIMIT = 0.1  # the default charge limit [10 mC] of a controller and a scenario


@dataclass(frozen=True)
class StepRecord:
    """Everything logged about one controller step: one telemetry CSV row."""

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
        saturation_limit: float = SATURATION_LIMIT,
    ):
        self.model = model
        self.params = params
        self.settings = settings or SolverSettings()
        self.saturation_limit = _check_positive(saturation_limit, "saturation_limit")
        # template problem; per-step rebuilds only touch the right-hand side
        self._template = HorizonProblem(model, params)
        self._conic_template: ConicProblem = to_conic(self._template)
        self._solver = ConicSolver(self._conic_template, self.settings)
        # loop state carried from one sample to the next
        self.previous_result: SolveResult | None = None
        self.previous_charges: np.ndarray | None = None
        self.step_count = 0

    def step(self, measured: RelativeState | np.ndarray) -> tuple[np.ndarray, StepRecord]:
        """Compute and return the charges to hold over the next sample period."""
        if isinstance(measured, RelativeState):
            measured = measured.as_vector()
        measured = np.array(measured, dtype=float)  # the record's own copy

        k = self.step_count
        # a wrong-length measurement is a caller bug and raises while pinning
        b = update_initial_state(self._conic_template, self._template, measured)
        if not np.isfinite(measured).all():
            status, iterations, solve_time = INVALID_MEASUREMENT, 0, 0.0
        else:
            warm = warm_start_payload(self.previous_result, self.settings)
            result = self._solver.solve(b, warm=warm)
            status, iterations, solve_time = result.status, result.iterations, result.solve_time

        if status == OPTIMAL:
            _, _, lifted = self._template.unpack(result.z)
            recovered = recover(lifted[0], previous=self.previous_charges)
            charges, clipped = saturate(recovered.charges, self.saturation_limit)
            rank_ratio = recovered.rank_ratio
            self.previous_result = result
        else:
            # fault path: passive-safe zero charges, keep the old warm start
            charges = np.zeros(self.params.num_spacecraft)
            clipped = False
            rank_ratio = float("nan")

        charges.setflags(write=False)  # shared by the record and the next step's sign reference
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
        )
        self.previous_charges = charges
        self.step_count = k + 1
        return charges.copy(), record  # the caller's own copy
