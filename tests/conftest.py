import dataclasses
import sys

import numpy as np
import pytest

from coulombmpc import (
    FormationConfig,
    HorizonProblem,
    MpcParams,
    ScenarioConfig,
    SolverSettings,
    solver,
    to_conic,
    update_initial_state,
)

FOURCRAFT_DESIRED = np.array([50.0, 100.0, 150.0])
FOURCRAFT_INITIAL = np.array([53.0, 109.0, 147.0, 0.0, 0.0, 0.0])
FOURCRAFT_MASS = 750.0
FOURCRAFT_STEPS = 2400


def fourcraft_formation(mass=FOURCRAFT_MASS):
    return FormationConfig(num_spacecraft=4, masses=mass)


def fourcraft_params(trace_weight=1.5):
    center = np.concatenate([FOURCRAFT_DESIRED, np.zeros(3)])
    return MpcParams(
        horizon=9,
        desired_positions=FOURCRAFT_DESIRED,
        state_weight=np.array([1.0, 1.0, 1.0, 400.0, 400.0, 400.0]),
        product_weight=0.0,
        product_delta_weight=1e8,
        state_min=center - 10.0,
        state_max=center + 10.0,
        trace_weight=trace_weight,
    )


def fourcraft_scenario(mass=FOURCRAFT_MASS, steps=FOURCRAFT_STEPS, warm_start=True,
                       substeps=10):
    return ScenarioConfig(
        formation=fourcraft_formation(mass),
        params=fourcraft_params(),
        solver=SolverSettings(warm_start=warm_start),
        initial_state=FOURCRAFT_INITIAL.copy(),
        sample_period=0.5,
        steps=steps,
        substeps=substeps,
    )


@pytest.fixture
def twocraft_formation():
    return FormationConfig(num_spacecraft=2, masses=50.0)


@pytest.fixture
def threecraft_formation():
    return FormationConfig(num_spacecraft=3, masses=np.array([40.0, 55.0, 70.0]))


def pinned_problem(model, params, start):
    """The horizon layout of ``params`` on ``model`` and its conic problem with
    stage 0 pinned at ``start`` the controller's way: the template of
    ``to_conic`` re-pinned by ``update_initial_state``."""
    hp = HorizonProblem(model, params)
    conic = to_conic(hp)
    return hp, dataclasses.replace(conic, b=update_initial_state(conic, hp, start))


# the solver's crossover, set so one backend runs every problem size
CROSSOVERS = {"lu": 0, "dense": sys.maxsize}


@pytest.fixture(params=list(CROSSOVERS))
def backend(request, monkeypatch):
    """Each of the solver's backends in turn, for every solver whose workspace
    is built in the test: the crossover is a module constant, not a setting."""
    monkeypatch.setattr(solver, "_DENSE_MAX", CROSSOVERS[request.param])
    return request.param
