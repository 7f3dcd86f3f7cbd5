import copy
import gc
import pickle
import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

from coulombmpc import (
    COULOMB_CONSTANT,
    FormationConfig,
    RelativeState,
    SingularityError,
    absolute_input_matrix,
    build_discrete_model,
    charge_products,
    propagate,
    relative_input_matrix,
    rk4_step,
    spacecraft_pairs,
)
from coulombmpc import dynamics
from coulombmpc.config import load_scenario
from coulombmpc.dynamics import _pair_layout

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def textbook_absolute_matrix(positions, cfg):
    """The absolute input matrix column by column, independent of the package's
    kernel: pair (i, j) gets ``t / m_i`` in row i and ``-t / m_j`` in row j."""
    pairs = spacecraft_pairs(cfg.num_spacecraft)
    diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    terms = COULOMB_CONSTANT * diff / np.abs(diff) ** 3
    mat = np.zeros((cfg.num_spacecraft, len(pairs)))
    cols = np.arange(len(pairs))
    mat[pairs[:, 0], cols] = terms / cfg.masses[pairs[:, 0]]
    mat[pairs[:, 1], cols] = -terms / cfg.masses[pairs[:, 1]]
    return mat


def textbook_relative_matrix(rel_positions, cfg):
    absolute = textbook_absolute_matrix(np.concatenate([[0.0], rel_positions]), cfg)
    return absolute[1:] - absolute[0]


def continuous_rhs(state: RelativeState, charges: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Time derivative of the packed relative state [positions; velocities]:
    the reference right-hand side that ``rk4_step`` evaluates without checks."""
    accel = textbook_relative_matrix(state.positions, cfg) @ charge_products(charges)
    return np.concatenate([state.velocities, accel])


def pairwise_accelerations(positions, charges, masses, kappa=COULOMB_CONSTANT):
    """Direct double-loop acceleration oracle, independent of the matrix path."""
    n = positions.size
    acc = np.zeros(n)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            diff = positions[i] - positions[j]
            acc[i] += (kappa / masses[i]) * diff / abs(diff) ** 3 * charges[i] * charges[j]
    return acc


def random_formation(rng, ns):
    positions = np.sort(rng.uniform(0.0, 200.0, ns))
    positions += np.arange(ns) * 5.0  # keep pairs well separated
    masses = rng.uniform(10.0, 500.0, ns)
    return positions, masses


def make_config(masses):
    ns = len(masses)
    return FormationConfig(num_spacecraft=ns, masses=np.asarray(masses, dtype=float))


# -- pair indexing and charge products ---------------------------------------

def test_pair_order_three_craft():
    # flattened index order (1,2), (1,3), (2,3) in 1-based labels
    assert spacecraft_pairs(3).tolist() == [[0, 1], [0, 2], [1, 2]]


CRAFT_COUNT_RULE = r"num_spacecraft must be at least 2 \(a whole int, not a bool\)"


@pytest.mark.parametrize("craft", [-3, 0, 1, True, 3.5, 2.0, np.float64(4.0), "3"])
def test_spacecraft_pairs_need_two_craft(craft):
    # the one craft-count rule and the one pair count: 3.5 gave the
    # four-craft table, and the formation kept a floor of its own
    with pytest.raises(ValueError, match=CRAFT_COUNT_RULE):
        spacecraft_pairs(craft)
    with pytest.raises(ValueError, match=CRAFT_COUNT_RULE):
        FormationConfig(num_spacecraft=craft)


def test_spacecraft_pairs_take_a_numpy_count():
    assert spacecraft_pairs(np.int64(3)) is spacecraft_pairs(3)
    assert FormationConfig(num_spacecraft=np.int64(3)).num_spacecraft == 3


def test_charge_products_zero():
    assert charge_products(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_charge_products_small():
    assert charge_products(np.array([1.0, 2.0, 3.0])).tolist() == [2.0, 3.0, 6.0]


def test_charge_products_rejects_bad_shape():
    with pytest.raises(ValueError):
        charge_products(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        charge_products(np.array([1.0]))


# -- input matrices ------------------------------------------------------------

def test_absolute_two_craft_column():
    cfg = make_config([1.0, 1.0])
    d = 7.0
    mat = absolute_input_matrix(np.array([0.0, d]), cfg)
    expected = COULOMB_CONSTANT / d**2
    assert mat.shape == (2, 1)
    assert mat[0, 0] == pytest.approx(-expected, rel=1e-14)
    assert mat[1, 0] == pytest.approx(expected, rel=1e-14)


def test_absolute_matches_pairwise_oracle():
    rng = np.random.default_rng(7)
    for ns in (2, 3, 4, 5):
        positions, masses = random_formation(rng, ns)
        cfg = make_config(masses)
        charges = rng.uniform(-1.0, 1.0, ns)
        via_matrix = absolute_input_matrix(positions, cfg) @ charge_products(charges)
        direct = pairwise_accelerations(positions, charges, masses)
        assert np.allclose(via_matrix, direct, rtol=1e-12, atol=1e-15)


def test_absolute_translation_invariance():
    rng = np.random.default_rng(8)
    positions, masses = random_formation(rng, 4)
    cfg = make_config(masses)
    base = absolute_input_matrix(positions, cfg)
    shifted = absolute_input_matrix(positions + 123.456, cfg)
    assert np.allclose(base, shifted, rtol=1e-9, atol=1e-12)


def test_momentum_conservation_mass_weighted_columns():
    rng = np.random.default_rng(9)
    for _ in range(20):
        positions, masses = random_formation(rng, 4)
        cfg = make_config(masses)
        mat = absolute_input_matrix(positions, cfg)
        weighted = masses[:, None] * mat
        sums = weighted.sum(axis=0)
        scale = np.abs(weighted).sum(axis=0)
        assert np.all(np.abs(sums) <= 1e-12 * np.maximum(scale, 1.0))


def test_relative_two_craft_closed_form():
    m, d = 50.0, 30.0
    cfg = make_config([m, m])
    mat = relative_input_matrix(np.array([d]), cfg)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(2.0 * COULOMB_CONSTANT / (m * d**2), rel=1e-14)


def test_relative_matches_absolute_row_difference():
    rng = np.random.default_rng(10)
    positions, masses = random_formation(rng, 4)
    cfg = make_config(masses)
    rel = positions[1:] - positions[0]
    via_relative = relative_input_matrix(rel, cfg)
    absolute = absolute_input_matrix(positions, cfg)
    assert np.allclose(via_relative, absolute[1:] - absolute[0], rtol=1e-12, atol=1e-15)


def test_relative_four_craft_against_oracle():
    masses = np.full(4, 60.0)
    cfg = make_config(masses)
    rel = np.array([50.0, 100.0, 150.0])
    positions = np.concatenate([[0.0], rel])
    mat = relative_input_matrix(rel, cfg)
    rng = np.random.default_rng(11)
    for _ in range(5):
        charges = rng.uniform(-0.5, 0.5, 4)
        acc = pairwise_accelerations(positions, charges, masses)
        expected = acc[1:] - acc[0]
        assert np.allclose(mat @ charge_products(charges), expected, rtol=1e-12, atol=1e-15)


def test_singularity_raises():
    cfg = make_config([50.0, 50.0, 50.0])
    with pytest.raises(SingularityError):
        relative_input_matrix(np.array([1e-5, 100.0]), cfg)
    with pytest.raises(SingularityError):
        absolute_input_matrix(np.array([0.0, 5e-4, 100.0]), cfg)


# -- continuous dynamics and integration ---------------------------------------

def test_rhs_drift_only_without_charge():
    cfg = make_config([50.0, 50.0])
    state = RelativeState(np.array([25.0]), np.array([0.4]))
    deriv = continuous_rhs(state, np.zeros(2), cfg)
    assert np.array_equal(deriv, np.array([0.4, 0.0]))


def test_rhs_two_craft_closed_form():
    m, d, q = 50.0, 25.0, 0.3
    cfg = make_config([m, m])
    state = RelativeState(np.array([d]), np.array([0.0]))
    deriv = continuous_rhs(state, np.array([q, q]), cfg)
    assert deriv[1] == pytest.approx(2.0 * COULOMB_CONSTANT * q * q / (m * d**2), rel=1e-13)


def test_rhs_middle_craft_sign_pattern():
    # three equal positive charges: the middle craft is pushed by both
    # neighbours; net relative accelerations match the pairwise oracle signs
    masses = np.full(3, 50.0)
    cfg = make_config(masses)
    positions = np.array([0.0, 40.0, 90.0])
    charges = np.full(3, 0.4)
    state = RelativeState(positions[1:], np.zeros(2))
    deriv = continuous_rhs(state, charges, cfg)
    oracle = pairwise_accelerations(positions, charges, masses)
    assert np.allclose(deriv[2:], oracle[1:] - oracle[0], rtol=1e-12)
    assert np.sign(deriv[2]) == np.sign(oracle[1] - oracle[0])


def test_rk4_unforced_is_exact_drift():
    cfg = make_config([50.0, 50.0, 50.0])
    state = RelativeState(np.array([30.0, 70.0]), np.array([0.5, -0.25]))
    out = rk4_step(state, np.zeros(3), 2.0, cfg)
    assert np.allclose(out.positions, [31.0, 69.5], rtol=0, atol=1e-12)
    assert np.array_equal(out.velocities, state.velocities)


def _integrate(state, charges, duration, steps, cfg):
    dt = duration / steps
    for _ in range(steps):
        state = rk4_step(state, charges, dt, cfg)
    return state


def test_rk4_one_step_error_shrinks_thirtytwofold():
    # local truncation error is fifth order: halving h divides it by ~2^5
    cfg = make_config([50.0, 50.0])
    state = RelativeState(np.array([50.0]), np.array([0.1]))
    charges = np.array([0.15, 0.1])
    ref_h = _integrate(state, charges, 1.0, 1000, cfg).as_vector()
    ref_h2 = _integrate(state, charges, 0.5, 1000, cfg).as_vector()
    err_h = np.linalg.norm(rk4_step(state, charges, 1.0, cfg).as_vector() - ref_h)
    err_h2 = np.linalg.norm(rk4_step(state, charges, 0.5, cfg).as_vector() - ref_h2)
    assert err_h / err_h2 == pytest.approx(32.0, rel=0.4)


def test_rk4_global_order_four():
    cfg = make_config([50.0, 50.0, 50.0])
    state = RelativeState(np.array([40.0, 90.0]), np.array([0.05, -0.02]))
    charges = np.array([0.2, 0.18, 0.22])
    duration = 8.0
    reference = _integrate(state, charges, duration, 8192, cfg).as_vector()
    errors = []
    step_counts = [4, 8, 16, 32]
    for steps in step_counts:
        approx = _integrate(state, charges, duration, steps, cfg).as_vector()
        errors.append(np.linalg.norm(approx - reference))
    slope = np.polyfit(np.log([duration / s for s in step_counts]), np.log(errors), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_rk4_zoh_self_consistency():
    cfg = make_config([50.0, 50.0])
    state = RelativeState(np.array([50.0]), np.array([0.1]))
    charges = np.array([0.15, 0.1])
    one = rk4_step(state, charges, 0.5, cfg)
    two = rk4_step(rk4_step(state, charges, 0.25, cfg), charges, 0.25, cfg)
    assert np.allclose(one.as_vector(), two.as_vector(), rtol=0, atol=1e-7)


def rk4_on_continuous_rhs(state, charges, dt, cfg):
    """Readable RK4 oracle: the textbook stages on :func:`continuous_rhs`."""
    def rhs(packed):
        return continuous_rhs(RelativeState.from_vector(packed), charges, cfg)

    y = state.as_vector()
    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    return RelativeState.from_vector(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def rk4_oracle_case(name):
    """Formation, initial state, substep and substeps per hold of an oracle run."""
    if name == "threecraft-unequal-masses":  # pairs (0, j) and (i, j), distinct masses
        return make_config([50.0, 120.0, 310.0]), np.array([40.0, 95.0, 0.02, -0.03]), 0.05, 10
    if name == "fivecraft-unequal-masses":  # four rows of the repeated lead block
        initial = np.array([30.0, 75.0, 110.0, 160.0, 0.01, -0.02, 0.0, 0.03])
        return make_config([50.0, 120.0, 310.0, 80.0, 200.0]), initial, 0.05, 10
    scenario = load_scenario(CONFIGS / f"{name}.cfg")
    dt = scenario.sample_period / scenario.substeps
    return scenario.formation, scenario.initial_state, dt, scenario.substeps


@pytest.mark.parametrize(
    "name", ["twocraft", "fourcraft", "threecraft-unequal-masses", "fivecraft-unequal-masses"]
)
@pytest.mark.bitexact
def test_rk4_step_bit_identical_to_continuous_rhs_oracle(name):
    cfg, initial, dt, substeps = rk4_oracle_case(name)
    half = cfg.num_spacecraft - 1
    rng = np.random.default_rng(3)
    fast = slow = RelativeState.from_vector(initial)
    for _ in range(100):  # 1,000 chained substeps under changing charges
        charges = rng.uniform(-0.05, 0.05, cfg.num_spacecraft)
        for _ in range(substeps):
            before, fast = fast, rk4_step(fast, charges, dt, cfg)
            slow = rk4_on_continuous_rhs(slow, charges, dt, cfg)
            assert fast.as_vector().tobytes() == slow.as_vector().tobytes()
            for arr in (fast.positions, fast.velocities):
                assert arr.dtype == np.float64 and arr.shape == (half,)
                assert not np.shares_memory(arr, before.positions)
                assert not np.shares_memory(arr, before.velocities)
    assert np.all(np.isfinite(fast.as_vector()))


def input_matrix_cases(name, rng):
    """Formations and absolute positions: an oracle case's formation near its
    initial geometry, or random formations with the craft in random order."""
    if name == "random":
        for ns in (2, 3, 4, 5, 6) * 4:
            positions, masses = random_formation(rng, ns)
            yield make_config(masses), rng.uniform(-100.0, 100.0) + rng.permutation(positions)
        return
    cfg, initial, _, _ = rk4_oracle_case(name)
    rel = initial[: cfg.num_spacecraft - 1]
    for _ in range(20):
        offsets = rng.uniform(-1.0, 1.0, rel.size)
        yield cfg, rng.uniform(-100.0, 100.0) + np.concatenate([[0.0], rel + offsets])


@pytest.mark.parametrize("name", [
    "twocraft", "fourcraft", "threecraft-unequal-masses", "fivecraft-unequal-masses", "random"
])
@pytest.mark.bitexact
def test_input_matrices_byte_equal_to_textbook_matrix(name):
    # the package's one pair-force kernel against the column-by-column oracle
    rng = np.random.default_rng(5)
    for cfg, positions in input_matrix_cases(name, rng):
        rel = positions[1:] - positions[0]
        for got, expected in (
            (absolute_input_matrix(positions, cfg), textbook_absolute_matrix(positions, cfg)),
            (relative_input_matrix(rel, cfg), textbook_relative_matrix(rel, cfg)),
        ):
            assert got.shape == expected.shape and got.dtype == np.float64
            assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "name", ["twocraft", "fourcraft", "threecraft-unequal-masses", "fivecraft-unequal-masses"]
)
@pytest.mark.bitexact
def test_propagate_bit_identical_to_continuous_rhs_oracle(name):
    # propagate runs a hold's substeps in one rk4_step call; the holds chain in turn
    cfg, initial, dt, substeps = rk4_oracle_case(name)
    duration = dt * substeps
    rng = np.random.default_rng(11)
    fast = slow = RelativeState.from_vector(initial)
    for _ in range(60):
        charges = rng.uniform(-0.05, 0.05, cfg.num_spacecraft)
        fast = propagate(fast, charges, duration, substeps, cfg)
        for _ in range(substeps):
            slow = rk4_on_continuous_rhs(slow, charges, duration / substeps, cfg)
        assert fast.as_vector().tobytes() == slow.as_vector().tobytes()


@pytest.mark.parametrize(
    "name", ["twocraft", "fourcraft", "threecraft-unequal-masses", "fivecraft-unequal-masses"]
)
@pytest.mark.bitexact
def test_rk4_substeps_byte_equal_to_chained_single_steps(name):
    # one call of k substeps is k chained one-substep calls, byte for byte
    cfg, initial, dt, substeps = rk4_oracle_case(name)
    rng = np.random.default_rng(13)
    state = RelativeState.from_vector(initial)
    for count in (1, 2, 3, substeps, 25):
        charges = rng.uniform(-0.05, 0.05, cfg.num_spacecraft)
        chained = state
        for _ in range(count):
            chained = rk4_step(chained, charges, dt, cfg)
        held = rk4_step(state, charges, dt, cfg, count)
        assert held.as_vector().tobytes() == chained.as_vector().tobytes()
        state = held


@pytest.mark.bitexact
def test_propagate_result_shares_no_memory():
    cfg, initial, dt, substeps = rk4_oracle_case("threecraft-unequal-masses")
    state = RelativeState.from_vector(initial)
    charges = np.array([0.03, -0.02, 0.01])
    previous = propagate(state, charges, dt * substeps, substeps, cfg)
    current = propagate(previous, charges, dt * substeps, substeps, cfg)
    for arr in (previous.positions, previous.velocities, current.positions, current.velocities):
        assert arr.shape == (2,) and arr.dtype == np.float64
    for new, old in ((previous, state), (current, previous)):
        for a in (new.positions, new.velocities):
            for b in (old.positions, old.velocities):
                assert not np.shares_memory(a, b)
    # and the input is left as it was
    assert np.array_equal(previous.as_vector(), propagate(
        state, charges, dt * substeps, substeps, cfg).as_vector())


@pytest.mark.parametrize("masses, initial, charges", [
    # two craft drifting together, pulled by opposite charges
    ([50.0, 50.0], [5e-3, -0.01], [1e-6, -1e-6]),
    # the middle pair of three closes while the outer craft stays clear
    ([50.0, 120.0, 310.0], [40.0, 40.0047, 0.0, -0.01], [0.0, 0.0, 0.0]),
])
@pytest.mark.bitexact
def test_propagate_raises_mid_hold_like_chained_single_steps(masses, initial, charges):
    # a pair crossing min_separation at substep 2 or later of a hold raises the
    # message of the one-substep chain at that substep
    cfg = make_config(masses)
    state = RelativeState.from_vector(np.array(initial))
    charges = np.array(charges)
    chained = state
    with pytest.raises(SingularityError) as expected:
        for substep in range(10):
            chained = rk4_step(chained, charges, 0.05, cfg)
    assert substep >= 1
    with pytest.raises(SingularityError) as got:
        propagate(state, charges, 0.5, 10, cfg)
    assert str(got.value) == str(expected.value)


def textbook_hold(state, charges, duration, substeps, cfg):
    """A hold as ``substeps`` chained textbook RK4 steps of ``duration / substeps``."""
    for _ in range(substeps):
        state = rk4_on_continuous_rhs(state, charges, duration / substeps, cfg)
    return state


@pytest.mark.bitexact
def test_concurrent_holds_on_one_formation_bind_one_hold_per_thread():
    # two threads hold at once on one formation, switching inside the holds:
    # each thread binds its own stage buffers, so each chain is the textbook's
    cfg, initial, dt, substeps = rk4_oracle_case("threecraft-unequal-masses")
    duration = dt * substeps
    rng = np.random.default_rng(17)
    charges = rng.uniform(-0.05, 0.05, (2, 40, cfg.num_spacecraft))
    starts = [RelativeState.from_vector(initial),
              RelativeState.from_vector(initial + np.array([2.0, -3.0, 0.01, 0.0]))]
    expected = []
    for state, sequence in zip(starts, charges):
        expected.append([])
        for q in sequence:
            state = textbook_hold(state, q, duration, substeps, cfg)
            expected[-1].append(state.as_vector().tobytes())
    barrier = threading.Barrier(2, timeout=60)
    got, holds = [[], []], [None, None]

    def run(which):
        try:
            state = starts[which]
            for q in charges[which]:
                barrier.wait()  # both holds start together
                state = propagate(state, q, duration, substeps, cfg)
                got[which].append(state.as_vector().tobytes())
            holds[which] = dynamics._hold_slot.plan[-1]
        except BaseException:
            barrier.abort()
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(which,)) for which in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    assert got == expected
    assert holds[0] is not holds[1] and None not in holds


@pytest.mark.bitexact
def test_holds_alternating_formation_step_and_count_rebind():
    # one thread alternates the key of its bound hold: formations of one craft
    # count but other masses, step sizes and substep counts, a numpy step and
    # count equal to the bound ones, and a formation equal to a bound one
    heavy, light = make_config([50.0, 120.0, 310.0]), make_config([50.0, 120.0, 31.0])
    four = make_config([750.0] * 4)
    three_state = RelativeState.from_vector(np.array([40.0, 95.0, 0.02, -0.03]))
    four_state = RelativeState.from_vector(np.array([53.0, 109.0, 147.0, 0.01, 0.0, -0.02]))
    rng = np.random.default_rng(19)
    keys = [(heavy, 0.05, 10), (light, 0.05, 10), (heavy, 0.05, 10), (heavy, 0.025, 10),
            (heavy, 0.05, 3), (four, 0.05, 10), (heavy, np.float64(0.05), np.int64(10)),
            (make_config([50.0, 120.0, 310.0]), 0.05, 10), (four, 0.1, 1), (heavy, 0.05, 10)]
    for _ in range(2):
        for cfg, dt, substeps in keys:
            state = four_state if cfg is four else three_state
            charges = rng.uniform(-0.05, 0.05, cfg.num_spacecraft)
            got = rk4_step(state, charges, dt, cfg, substeps)
            expected = textbook_hold(state, charges, float(dt) * int(substeps), int(substeps), cfg)
            assert got.as_vector().tobytes() == expected.as_vector().tobytes()


@pytest.mark.bitexact
def test_hold_after_a_failed_hold_is_the_textbook_hold():
    # a hold that raises mid-hold, or on its charges, leaves nothing behind
    # that the next hold on the same bound buffers reads
    cfg = make_config([50.0, 120.0, 310.0])
    closing = RelativeState.from_vector(np.array([40.0, 40.0047, 0.0, -0.01]))
    state = RelativeState.from_vector(np.array([40.0, 95.0, 0.02, -0.03]))
    charges = np.array([0.03, -0.02, 0.01])
    expected = textbook_hold(state, charges, 0.5, 10, cfg).as_vector().tobytes()
    assert propagate(state, charges, 0.5, 10, cfg).as_vector().tobytes() == expected
    with pytest.raises(SingularityError):
        propagate(closing, np.zeros(3), 0.5, 10, cfg)
    assert propagate(state, charges, 0.5, 10, cfg).as_vector().tobytes() == expected
    with pytest.raises(ValueError, match="charges must have length 3"):
        propagate(state, np.zeros(2), 0.5, 10, cfg)
    assert propagate(state, charges, 0.5, 10, cfg).as_vector().tobytes() == expected
    with pytest.raises(ValueError, match="charges must be finite"):
        propagate(state, np.array([0.03, np.nan, 0.01]), 0.5, 10, cfg)
    assert propagate(state, charges, 0.5, 10, cfg).as_vector().tobytes() == expected


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_nonfinite_charges_are_refused(value):
    # the separation check lets a NaN state through, so a hold under a
    # non-finite charge returned a NaN state and the run went on
    cfg = make_config([50.0, 60.0])
    state = RelativeState(np.array([50.0]), np.array([0.0]))
    for charges in ([value, 1.0], [1.0, value]):
        with pytest.raises(ValueError, match=r"charges must be finite, got \["):
            propagate(state, charges, 0.5, 10, cfg)
        with pytest.raises(ValueError, match="charges must be finite"):
            rk4_step(state, np.array(charges), 0.05, cfg, 10)


@pytest.mark.parametrize("duplicate", [
    copy.deepcopy, lambda cfg: pickle.loads(pickle.dumps(cfg))
], ids=["deepcopy", "pickle"])
@pytest.mark.bitexact
def test_formation_copies_after_a_hold(duplicate):
    # the bound hold lives beside the formation, not on it: a formation that
    # has held copies and pickles, and its copy holds to the same bits
    cfg, initial, dt, substeps = rk4_oracle_case("threecraft-unequal-masses")
    state = RelativeState.from_vector(initial)
    charges = np.array([0.03, -0.02, 0.01])
    held = propagate(state, charges, dt * substeps, substeps, cfg).as_vector().tobytes()
    twin = duplicate(cfg)
    assert twin is not cfg and vars(twin).keys() == vars(cfg).keys()
    assert twin.masses.tobytes() == cfg.masses.tobytes() and not twin.masses.flags.writeable
    assert (twin.num_spacecraft, twin.min_separation) == (cfg.num_spacecraft, cfg.min_separation)
    assert propagate(state, charges, dt * substeps, substeps, twin).as_vector().tobytes() == held
    expected = textbook_hold(state, charges, dt * substeps, substeps, cfg)
    assert expected.as_vector().tobytes() == held


def test_bound_hold_lets_its_formation_go():
    cfg = make_config([50.0, 60.0])
    propagate(RelativeState(np.array([20.0]), np.array([0.0])), np.array([0.01, 0.02]), 0.5, 10, cfg)
    formation = weakref.ref(cfg)
    del cfg
    gc.collect()
    assert formation() is None


def test_bound_hold_checks_a_bool_step_or_count():
    # True equals a bound step of 1.0 and a bound count of 1, yet is no number
    cfg = make_config([50.0, 60.0])
    state, charges = RelativeState(np.array([20.0]), np.array([0.0])), np.array([0.01, 0.02])
    rk4_step(state, charges, 1.0, cfg, 1)
    with pytest.raises(ValueError, match="step size must be a number, not true or false"):
        rk4_step(state, charges, True, cfg, 1)
    with pytest.raises(ValueError, match="substeps must be at least 1"):
        rk4_step(state, charges, 1.0, cfg, True)


def test_pair_layout_shared_per_craft_count():
    # one read-only layout per craft count, whatever the masses: the kernel
    # gathers its signed masses at bind time
    layout = _pair_layout(3)
    assert _pair_layout(3) is layout
    assert _pair_layout(4) is not layout and len(_pair_layout(4)[0]) == 6
    first, second, *_, landing, sign = layout
    assert [first.tolist(), second.tolist()] == spacecraft_pairs(3).T.tolist()
    # the landing crafts: each pair's second craft first, in pair order, and
    # the sign of each one's mass, negative for a second craft
    assert landing.tolist() == [1, 2, 2, 1, 0, 0, 0, 0]
    assert sign.tolist() == [-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
    for arr in layout:
        assert not arr.flags.writeable


@pytest.mark.parametrize("craft, count", [(4, 3), (4, 5), (2, 1)])
def test_wrong_charge_count_names_expected_length(craft, count):
    cfg = make_config([50.0] * craft)
    state = RelativeState(np.arange(1, craft) * 20.0, np.zeros(craft - 1))
    charges = np.full(count, 0.01)
    message = f"charges must have length {craft}"
    with pytest.raises(ValueError, match=message):
        rk4_step(state, charges, 0.05, cfg)
    with pytest.raises(ValueError, match=message):
        propagate(state, charges, 0.5, 10, cfg)


def test_formation_masses_are_a_read_only_copy():
    masses = np.array([50.0, 60.0, 70.0])
    cfg = make_config(masses)
    masses[0] = 1.0
    assert cfg.masses[0] == 50.0
    # from a vector and from one value broadcast to every craft alike
    for cfg in (cfg, FormationConfig(num_spacecraft=3, masses=50.0)):
        with pytest.raises(ValueError, match="read-only"):
            cfg.masses[0] = 1.0


# the three entry points of the one separation check, at relative positions
SEPARATION_CHECKS = {
    "rk4_step": lambda rel, cfg: rk4_step(
        RelativeState(rel, np.zeros(rel.size)), np.full(cfg.num_spacecraft, 0.1), 0.1, cfg),
    "relative_input_matrix": relative_input_matrix,
    "absolute_input_matrix": lambda rel, cfg: absolute_input_matrix(
        np.concatenate([[0.0], rel]), cfg),
}


@pytest.mark.parametrize("entry", SEPARATION_CHECKS)
@pytest.mark.parametrize("rel, pair, gap", [
    ([5e-4, 100.0], "0 and 1", "5.000e-04"),
    ([2e-4, 4e-4], "0 and 1", "2.000e-04"),  # a tie with pair (1, 2) goes to the first pair
    ([100.0, 100.0004, 100.0006], "2 and 3", "2.000e-04"),  # two pairs too close
])
def test_rk4_singularity_names_closest_pair(entry, rel, pair, gap):
    cfg = make_config([50.0] * (len(rel) + 1))
    with pytest.raises(SingularityError, match=f"spacecraft {pair} are {gap} m apart"):
        SEPARATION_CHECKS[entry](np.array(rel), cfg)


@pytest.mark.parametrize("entry", SEPARATION_CHECKS)
def test_rk4_singularity_detected_beside_a_nan_separation(entry):
    # a NaN separation elsewhere must not hide a pair that is too close
    cfg = make_config([50.0, 50.0, 50.0])
    with pytest.raises(SingularityError, match="spacecraft 0 and 1 are 5.000e-04 m apart"):
        SEPARATION_CHECKS[entry](np.array([5e-4, np.nan]), cfg)


def test_rk4_rejects_bad_step():
    # a NaN or infinite step passes `dt <= 0` and would return a NaN state
    cfg = make_config([50.0, 50.0])
    state = RelativeState(np.array([22.0]), np.array([0.0]))
    for dt in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="step size must be finite and positive"):
            rk4_step(state, np.zeros(2), dt, cfg)
        with pytest.raises(ValueError, match="step size must be finite and positive"):
            propagate(state, np.zeros(2), 10 * dt, 10, cfg)
        with pytest.raises(ValueError, match="sample_period must be finite and positive"):
            build_discrete_model(np.array([22.0]), dt, cfg)


# -- discrete model -------------------------------------------------------------

def test_discrete_model_block_structure():
    cfg = make_config([50.0, 50.0])
    model = build_discrete_model(np.array([40.0]), 0.5, cfg)
    assert np.array_equal(model.A, np.array([[1.0, 0.5], [0.0, 1.0]]))
    gain = relative_input_matrix(np.array([40.0]), cfg)
    assert np.allclose(model.B, np.vstack([0.125 * gain, 0.5 * gain]), rtol=0, atol=0)


@pytest.mark.parametrize("reference", [[np.nan, 100.0, 150.0], [50.0, np.inf, 150.0]])
def test_discrete_model_rejects_a_non_finite_reference(reference):
    # it would build a NaN B, found only later as non-finite problem data
    cfg = make_config([50.0, 60.0, 70.0, 80.0])
    with pytest.raises(ValueError, match="reference positions must be finite"):
        build_discrete_model(np.array(reference), 0.5, cfg)


def test_discrete_model_unforced_matches_A():
    cfg = make_config([50.0, 60.0, 70.0, 80.0])
    model = build_discrete_model(np.array([50.0, 100.0, 150.0]), 0.5, cfg)
    state = np.array([51.0, 99.0, 150.5, 0.1, -0.2, 0.05])
    assert np.allclose(model.A @ state, np.concatenate(
        [state[:3] + 0.5 * state[3:], state[3:]]), rtol=0, atol=0)


def test_discrete_model_rank_matches_gain():
    cfg = make_config([50.0, 60.0, 70.0, 80.0])
    model = build_discrete_model(np.array([50.0, 100.0, 150.0]), 0.5, cfg)
    gain = relative_input_matrix(np.array([50.0, 100.0, 150.0]), cfg)
    assert np.linalg.matrix_rank(model.B) == np.linalg.matrix_rank(gain)


def test_discrete_model_close_to_rk4_near_reference():
    cfg = make_config(np.full(4, 750.0))
    ref = np.array([50.0, 100.0, 150.0])
    model = build_discrete_model(ref, 0.5, cfg)
    rng = np.random.default_rng(12)
    for _ in range(5):
        charges = rng.uniform(-0.05, 0.05, 4)
        state = RelativeState(ref.copy(), np.zeros(3))
        truth = rk4_step(state, charges, 0.5, cfg).as_vector()
        predicted = model.A @ state.as_vector() + model.B @ charge_products(charges)
        # at the reference geometry the only error is the in-step variation of
        # the force coefficients, third order in h
        assert np.linalg.norm(predicted - truth) <= 1e-8


def test_formation_config_validation():
    with pytest.raises(ValueError):
        make_config([50.0, -1.0])


@pytest.mark.parametrize("field,value,message", [
    ("min_separation", np.nan, "min_separation must be finite and positive"),
    ("masses", [50.0, np.nan], "masses must be finite and positive"),
    ("masses", np.inf, "masses must be finite and positive"),
    ("num_spacecraft", True, "num_spacecraft must be at least 2"),
    ("num_spacecraft", 2.0, "num_spacecraft must be at least 2"),
    ("masses", True, "masses must be a number, not true or false"),
    ("masses", np.array([True, True]), "masses must be a number, not true or false"),
])
def test_formation_config_rejects_bad_physics(field, value, message):
    # a NaN minimum separation would turn collision detection off, and a
    # non-finite constant or mass would fail every solve with no field named
    kwargs = {"num_spacecraft": 2, "masses": 50.0, field: value}
    with pytest.raises(ValueError, match=message):
        FormationConfig(**kwargs)
