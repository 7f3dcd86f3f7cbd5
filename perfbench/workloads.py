"""Benchmark workloads and the seeded generator of their initial states.

Every workload is a closed loop: a control step starts only once the
previous step and its truth propagation have finished.  A run is a number
of rounds over a fixed set of episodes; each episode builds a fresh
controller and runs `steps` control steps from one initial state.  Every
round repeats the same episodes, so the control decisions can be compared
across repeats.

The episodes start at rest from the shipped offset under a fixed set of
sign patterns: the shipped magnitudes, so the shipped infinity-norm, with
some components' signs flipped.  The set holds the shipped pattern and the
patterns nearest to it (fewest flips first), `episodes` in all.  The seed
draws the order of the episodes; seed 0 starts from the shipped initial
state itself.  The set is fixed because ADMM iteration counts are not a
smooth function of the initial state: moving it by 0.3 mm changes the
iterations of a 25-step cold episode by up to 17%, and the direction of the
offset changes the work per step by up to a factor of three.  Offsets drawn
afresh per seed would make runs of one program differ by more than the
regressions the benchmark has to catch.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from benchenv import ROOT


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # scenario file, relative to the checkout root
    warm_start: bool
    episodes: int  # sign patterns, so episodes per round
    steps: int  # control steps per episode


# Why each workload is in the benchmark is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fourcraft-warm", "configs/fourcraft.cfg", True, episodes=4, steps=40),
        Workload("fourcraft-cold", "configs/fourcraft.cfg", False, episodes=8, steps=5),
        Workload("twocraft-tight", "configs/twocraft.cfg", True, episodes=2, steps=300),
    )
}


def load(workload: Workload):
    """The workload's scenario as shipped, with its warm-start setting."""
    from coulombmpc.config import load_scenario

    return load_scenario(ROOT / workload.config, {"warm_start": workload.warm_start})


def initial_states(scenario, seed: int, count: int) -> list[np.ndarray]:
    """`count` initial states, one per sign pattern, in seeded order; see the
    module docstring."""
    half = scenario.formation.num_spacecraft - 1
    desired = scenario.params.desired_positions
    shipped = scenario.initial_state
    magnitudes = np.abs(shipped[:half] - desired)
    if magnitudes.max() == 0:
        raise ValueError("the shipped initial state has no position offset")
    if not 1 <= count <= 2 ** half:
        raise ValueError(f"{count} episodes, but {2 ** half} sign patterns")

    shipped_signs = np.where(shipped[:half] < desired, -1.0, 1.0)
    patterns = np.array(list(itertools.product((1.0, -1.0), repeat=half)))
    flips = (patterns != shipped_signs).sum(axis=1)
    patterns = patterns[np.argsort(flips, kind="stable")[:count]]  # shipped first
    order = np.random.default_rng(seed).permutation(count)
    if seed == 0:  # the shipped state opens the run
        order = np.concatenate([[0], order[order != 0]])
    patterns = patterns[order]
    states = [np.concatenate([desired + p * magnitudes, np.zeros(half)]) for p in patterns]
    if seed == 0:
        states[0] = shipped.copy()
    return states


def scenarios(workload: Workload, seed: int, count: int | None = None) -> list:
    """The run's episodes, or the first `count` of them."""
    base = load(workload)
    return [
        dataclasses.replace(base, initial_state=x0)
        for x0 in initial_states(base, seed, workload.episodes)[:count]
    ]
