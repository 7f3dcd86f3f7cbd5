"""Byte equality of ``to_conic`` against the original loop in ``reference_conic.py``.

A, P, b, c, the cones and the objective constant must be the same bytes: P
sums repeated entries on its input blocks, and that sum depends on the
order of the triplets, so a change of order that is exact in real arithmetic
can still change P's last bits.  The package pins stage 0 the controller's
one way, ``update_initial_state`` on the template, and its b must equal the
reference's b pinned at the same start.
"""

from pathlib import Path

import numpy as np
import pytest

import reference_conic
from coulombmpc import (
    FormationConfig,
    MpcParams,
    HorizonProblem,
    build_discrete_model,
    spacecraft_pairs,
    to_conic,
    update_initial_state,
)
from coulombmpc.config import load_scenario

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

pytestmark = pytest.mark.bitexact


def assert_same_bytes(new, ref, what):
    assert new.dtype == ref.dtype, what
    assert new.shape == ref.shape, what
    assert new.tobytes() == ref.tobytes(), what


def assert_byte_equal(new, ref, pinned):
    """``new`` and ``ref`` are the same bytes, with the re-pinned right-hand
    side ``pinned`` in place of ``new.b``."""
    for name in ("A", "P"):
        a, b = getattr(new, name), getattr(ref, name)
        assert a.format == b.format == "csc", name
        assert a.shape == b.shape, name
        for part in ("indptr", "indices", "data"):
            assert_same_bytes(getattr(a, part), getattr(b, part), f"{name}.{part}")
    assert_same_bytes(pinned, ref.b, "b")
    assert_same_bytes(new.c, ref.c, "c")
    assert new.cones == ref.cones
    assert type(new.objective_constant) is type(ref.objective_constant)
    assert new.objective_constant.hex() == ref.objective_constant.hex()


@pytest.mark.parametrize("name", ["twocraft.cfg", "fourcraft.cfg"])
def test_shipped_configs_byte_equal(name):
    scenario = load_scenario(CONFIGS / name)
    params = scenario.params
    model = build_discrete_model(params.desired_positions, scenario.sample_period,
                                 scenario.formation)
    hp = HorizonProblem(model, params)
    new = to_conic(hp)
    # the template is the reference pinned at the target, byte for byte
    assert_byte_equal(new, reference_conic.to_conic(hp, params.desired_state), new.b)
    for start in (scenario.initial_state, params.desired_state):
        b = update_initial_state(new, hp, start)
        assert_byte_equal(new, reference_conic.to_conic(hp, start), b)


def seeded_weight(rng, size, scale, full):
    """A PSD weight over many magnitudes: a full symmetric matrix, or a
    diagonal with some entries zero."""
    if full:
        g = rng.standard_normal((size, size)) * 10.0 ** rng.uniform(-2, 2, size)
        return scale * (g @ g.T)
    return scale * rng.uniform(0.0, 10.0, size) * (rng.random(size) > 0.3)


@pytest.mark.parametrize("horizon", [1, 2, 3, 5, 9, 12])
@pytest.mark.parametrize("craft", [2, 3, 4, 5])
def test_seeded_family_byte_equal(craft, horizon):
    rng = np.random.default_rng(1000 * craft + horizon)
    desired = 50.0 * np.arange(1, craft) + rng.uniform(-5.0, 5.0, craft - 1)
    formation = FormationConfig(num_spacecraft=craft,
                                masses=rng.uniform(50.0, 750.0, craft))
    model = build_discrete_model(desired, 0.5, formation)
    n, m = 2 * (craft - 1), len(spacecraft_pairs(craft))
    center = np.concatenate([desired, np.zeros(craft - 1)])
    start = center + rng.normal(0.0, 1.0, n)
    for full in (False, True):
        for _ in range(2):
            for trace_weight in (0.0, float(rng.uniform(0.1, 2.0))):
                rng.uniform(0.01, 1.0, m)  # an unused draw keeps each seed's problems
                params = MpcParams(
                    horizon=horizon,
                    desired_positions=desired,
                    state_weight=seeded_weight(rng, n, 1.0, full),
                    product_weight=seeded_weight(rng, m, 1e-3, full),
                    product_delta_weight=seeded_weight(rng, m, 1e8, full),
                    state_min=center - rng.uniform(1.0, 20.0, n),
                    state_max=center + rng.uniform(1.0, 20.0, n),
                    trace_weight=trace_weight,
                )
                hp = HorizonProblem(model, params)
                new = to_conic(hp)
                assert_byte_equal(new, reference_conic.to_conic(hp, start),
                                  update_initial_state(new, hp, start))


def test_zero_weights_byte_equal(twocraft_formation):
    # an empty P and a zero c: no stage contributes a triplet
    desired = np.array([50.0])
    model = build_discrete_model(desired, 0.5, twocraft_formation)
    params = MpcParams(
        horizon=3, desired_positions=desired, state_weight=0.0, product_weight=0.0,
        product_delta_weight=0.0, state_min=-100.0, state_max=100.0,
    )
    hp = HorizonProblem(model, params)
    new = to_conic(hp)
    assert new.P.nnz == 0
    start = np.array([51.0, 0.0])
    assert_byte_equal(new, reference_conic.to_conic(hp, start),
                      update_initial_state(new, hp, start))
