"""One closed-loop episode through the package's public API, and its gate.

The loop is `simulate.run_closed_loop` with a clock around each call: set-up
(`build_discrete_model` + `MpcController`), then per step `MpcController.step`
followed by `propagate`, stopping on a collision abort.  Every call goes
through its module attribute, so a tracer that rebinds those names sees it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from coulombmpc import controller, dynamics, simulate
from coulombmpc.solver import OPTIMAL


@dataclass
class Episode:
    planned: int  # control steps asked for
    records: list  # one StepRecord per step taken
    status: str
    setup_s: float
    loop_s: float  # closed-loop wall: every step and propagation (and reference call)
    step_s: list[float] = field(default_factory=list)  # MpcController.step latency
    cycle_s: list[float] = field(default_factory=list)  # step plus its propagation
    # reference kernel time before each step and after the last (see reference.py)
    reference_s: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> list[int]:
        return [r.iterations for r in self.records]


def build_controller(scenario):
    model = dynamics.build_discrete_model(
        scenario.params.desired_positions, scenario.sample_period, scenario.formation
    )
    return controller.MpcController(
        model, scenario.params, scenario.solver, saturation_limit=scenario.saturation_limit
    )


def run_episode(scenario, steps: int, tracer=None, reference=None) -> Episode:
    """Run one episode; with a `reference.Reference`, time its kernel before
    each step and after the last, outside the step and cycle timings."""
    t0 = perf_counter()
    ctl = build_controller(scenario)
    t1 = perf_counter()
    state = dynamics.RelativeState.from_vector(scenario.initial_state)
    records, step_s, cycle_s, reference_s = [], [], [], []
    status = simulate.RUN_COMPLETED
    for k in range(steps):
        if tracer is not None:
            tracer.step = k
        if reference is not None:
            reference_s.append(reference.time())
        a = perf_counter()
        charges, record = ctl.step(state)
        step_s.append(perf_counter() - a)
        records.append(record)
        try:
            state = simulate.propagate(
                state, charges, scenario.sample_period, scenario.substeps, scenario.formation
            )
        except dynamics.SingularityError:
            status = simulate.RUN_ABORTED_COLLISION
            break
        cycle_s.append(perf_counter() - a)
    if reference is not None:
        reference_s.append(reference.time())
    t2 = perf_counter()
    return Episode(steps, records, status, t1 - t0, t2 - t1, step_s, cycle_s, reference_s)


# -- correctness gate ----------------------------------------------------------

def _same(a, b) -> bool:
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
    return a == b


_LOGGED = ("step", "time", "measured", "charges", "products", "rank_ratio",
           "solver_status", "iterations", "solve_time", "saturated")


def same_records(a, b, fields=_LOGGED) -> bool:
    """Every logged field equal, bit for bit (the CSV carries 17 digits)."""
    return len(a) == len(b) and all(
        _same(getattr(x, f), getattr(y, f)) for x, y in zip(a, b) for f in fields
    )


def same_decisions(a, b) -> bool:
    """Two runs of one episode took identical control decisions; only the
    measured solve time may differ (criterion 9)."""
    return same_records(a, b, tuple(f for f in _LOGGED if f != "solve_time"))


@dataclass
class GateResult:
    problems: list[str]
    tracking_cost: float
    write_s: float
    read_s: float


def verify(back, records, params) -> tuple[list[str], float]:
    """Check telemetry read back from CSV against the in-memory records."""
    problems = []
    if not same_records(back, records):
        problems.append("telemetry read back differs from the records written")
    replay = simulate.replay_cost(back, params)
    if replay["steps"] != len(records):
        problems.append(f"replay saw {replay['steps']} steps, expected {len(records)}")
    if replay["max_product_error"] != 0.0:
        problems.append(f"replay max_product_error {replay['max_product_error']!r} != 0")
    return problems, replay["tracking_cost"]


def gate(episode: Episode, scenario, path) -> GateResult:
    """Status, CSV round trip and replay checks of one episode."""
    problems = []
    if episode.status != simulate.RUN_COMPLETED:
        problems.append(f"episode ended {episode.status} after {len(episode.records)} steps")
    t0 = perf_counter()
    simulate.write_csv(simulate.RunLog(episode.records, episode.status), path)
    t1 = perf_counter()
    back = simulate.read_csv(path)
    t2 = perf_counter()
    csv_problems, tracking = verify(back, episode.records, scenario.params)
    return GateResult(problems + csv_problems, tracking, t1 - t0, t2 - t1)


def failed_steps(episode: Episode, gate_ok: bool) -> int:
    """Steps of the episode that count as failed: every step when the gate
    fails, else the steps cut off by an abort plus the non-optimal ones."""
    if not gate_ok:
        return episode.planned
    not_optimal = sum(1 for r in episode.records if r.solver_status != OPTIMAL)
    return episode.planned - len(episode.records) + not_optimal
