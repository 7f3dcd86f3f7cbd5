import numpy as np
import pytest

from coulombmpc import charge_products, recover, saturate


def test_exact_rank_one_two_by_two():
    q = np.array([2.0, 1.0])
    rec = recover(np.outer(q, q))
    assert rec.charges @ rec.charges == pytest.approx(5.0, rel=1e-12)
    assert rec.rank_ratio == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(np.abs(rec.charges), [2.0, 1.0], atol=1e-12)


def test_sign_follows_previous_charges():
    q = np.array([2.0, 1.0])
    rec = recover(np.outer(q, q), previous=np.array([1.9, 1.1]))
    assert np.allclose(rec.charges, [2.0, 1.0], atol=1e-12)
    rec = recover(np.outer(q, q), previous=np.array([-1.9, -1.1]))
    assert np.allclose(rec.charges, [-2.0, -1.0], atol=1e-12)


def test_default_sign_makes_lead_component_nonnegative():
    q = np.array([-3.0, 1.0, 0.5])
    rec = recover(np.outer(q, q))
    lead = np.argmax(np.abs(rec.charges))
    assert rec.charges[lead] > 0


def test_tied_eigenvalues_degenerate_identity():
    rec = recover(np.eye(2))
    assert rec.rank_ratio == pytest.approx(0.5, abs=1e-12)
    assert rec.charges @ rec.charges == pytest.approx(1.0, rel=1e-12)


def test_random_rank_one_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(100):
        q = rng.normal(size=4)
        rec = recover(np.outer(q, q))
        assert np.linalg.norm(np.outer(rec.charges, rec.charges) - np.outer(q, q)) <= 1e-10
        assert rec.rank_ratio == pytest.approx(1.0, abs=1e-10)


def test_small_negative_eigenvalues_clamped():
    rec = recover(np.diag([1.0, -1e-9]))
    assert rec.charges @ rec.charges == pytest.approx(1.0, rel=1e-12)
    assert rec.rank_ratio == pytest.approx(1.0, abs=1e-12)


def test_zero_matrix_recovers_zero_charges():
    rec = recover(np.zeros((3, 3)))
    assert np.array_equal(rec.charges, np.zeros(3))
    assert rec.rank_ratio == 1.0


def test_nonfinite_rejected():
    with pytest.raises(ValueError):
        recover(np.array([[1.0, np.nan], [np.nan, 1.0]]))


def test_frobenius_dominance_monte_carlo():
    # no scaled rank-one candidate from 1e4 random directions beats the
    # dominant-eigenpair factor in Frobenius distance
    rng = np.random.default_rng(4)
    dirs = rng.normal(size=(10000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    for _ in range(10):
        root = rng.normal(size=(3, 3))
        mat = root @ root.T
        rec = recover(mat)
        mine = np.linalg.norm(np.outer(rec.charges, rec.charges) - mat)
        scales = np.einsum("ki,ij,kj->k", dirs, mat, dirs)  # optimal per direction
        # ||t vv' - M||^2 = ||M||^2 - t^2 at the optimal scale t = v'Mv
        best = np.sqrt(np.maximum(np.linalg.norm(mat) ** 2 - scales**2, 0.0).min())
        assert mine <= best + 1e-12


def test_products_invariant_under_sign_choice():
    rng = np.random.default_rng(5)
    q = rng.normal(size=4)
    plus = recover(np.outer(q, q), previous=q)
    minus = recover(np.outer(q, q), previous=-q)
    assert np.allclose(
        charge_products(plus.charges), charge_products(minus.charges), rtol=1e-12
    )


def test_saturate_clips_elementwise():
    charges = np.array([0.05, -0.2, 0.08, 0.15])
    clipped, flagged = saturate(charges, 0.1)
    assert np.allclose(clipped, [0.05, -0.1, 0.08, 0.1])
    assert flagged


def test_saturate_leaves_in_range_untouched():
    charges = np.array([0.05, -0.09])
    clipped, flagged = saturate(charges, 0.1)
    assert np.array_equal(clipped, charges)
    assert not flagged


def test_saturate_rejects_bad_limit():
    # a NaN limit would clamp every charge to NaN
    for limit in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="saturation_limit must be finite and positive"):
            saturate(np.array([0.1]), limit)


def recover_by_linalg_eigh(lifted, previous=None):
    """The textbook recovery on ``np.linalg.eigh``: the reference the lean
    recovery (the gufunc called directly) must match byte for byte."""
    mat = np.asarray(lifted, dtype=float)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (mat + mat.T))
    eigvals = np.maximum(eigvals, 0.0)
    dominant = float(eigvals[-1])
    charges = np.sqrt(dominant) * eigvecs[:, -1]
    if previous is not None and float(charges @ previous) != 0.0:
        flip = float(charges @ previous) < 0
    else:
        flip = charges[int(np.argmax(np.abs(charges)))] < 0
    charges = -charges if flip else charges
    trace = float(eigvals.sum())
    ratio = 1.0 if trace <= 0.0 else min(dominant / trace, 1.0)
    return charges, ratio


def recovery_inputs():
    """Lifted matrices of every kind recover sees, each with previous charges."""
    rng = np.random.default_rng(21)
    for size in (2, 3, 4):
        for _ in range(100):
            q = rng.normal(size=size) * 10.0 ** rng.integers(-4, 2)
            noise = rng.normal(size=(size, size)) * 10.0 ** rng.integers(-12, -2)
            mats = [np.outer(q, q), np.outer(q, q) + noise, noise @ noise.T, noise]
            prevs = [None, q, -q, rng.normal(size=size)]
            yield from zip(mats, prevs)
    yield np.zeros((3, 3)), None
    yield np.eye(2), np.array([1.0, -1.0])
    yield np.diag([1.0, -1e-9]), np.array([0.0, 1.0])  # orthogonal: default rule


@pytest.mark.bitexact
def test_recover_bit_identical_to_linalg_eigh_reference():
    for mat, previous in recovery_inputs():
        rec = recover(mat, previous=previous)
        charges, ratio = recover_by_linalg_eigh(mat, previous)
        assert rec.charges.tobytes() == charges.tobytes()
        assert rec.rank_ratio == ratio
        assert rec.charges.dtype == np.float64 and rec.charges.shape == (mat.shape[0],)


@pytest.mark.bitexact
def test_saturate_bit_identical_to_clip():
    rng = np.random.default_rng(22)
    charges = np.concatenate([rng.uniform(-0.3, 0.3, 200), [0.1, -0.1, 0.0, -0.0]])
    clipped, flagged = saturate(charges, 0.1)
    assert clipped.tobytes() == np.clip(charges, -0.1, 0.1).tobytes()
    assert flagged == bool(np.any(np.clip(charges, -0.1, 0.1) != charges))
