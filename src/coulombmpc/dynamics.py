"""Point-mass dynamics of collinear, electrostatically actuated spacecraft formations.

Positions are scalar (the formation line is the coordinate axis).  Charges are
expressed in units of 10 mC so the Coulomb constant can be scaled down to
8.99e5 N m^2/(10 mC)^2; accelerations then come out in m/s^2 for metre
positions and kilogram masses.  The acceleration of each craft is the sum of
inverse-square pair forces, each proportional to the product of the two
charges involved, so the dynamics are linear in the vector of pairwise charge
products rather than in the charges themselves.  :class:`FormationConfig`
holds the physics only, no bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

COULOMB_CONSTANT = 8.99e5  # N m^2 / (10 mC)^2


class SingularityError(ValueError):
    """Two spacecraft are closer than the configured minimum separation."""


def _as_float_vector(value, length: int | None = None, name: str = "array") -> np.ndarray:
    arr = np.atleast_1d(np.asarray(value, dtype=float))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and arr.size != length:
        raise ValueError(f"{name} must have length {length}, got {arr.size}")
    return arr


@lru_cache(maxsize=None)
def _pair_table(num_spacecraft: int) -> np.ndarray:
    first, second = np.triu_indices(num_spacecraft, k=1)
    table = np.column_stack([first, second])
    table.setflags(write=False)
    return table


def spacecraft_pairs(num_spacecraft: int) -> np.ndarray:
    """All index pairs (i, j), i < j, ordered (0,1), (0,2), ..., (n-2, n-1).

    This fixed ordering defines which spacecraft pair each flattened
    charge-product index refers to, everywhere in the package.
    """
    if num_spacecraft < 2:
        raise ValueError("a formation needs at least two spacecraft")
    return _pair_table(num_spacecraft)


def pair_count(num_spacecraft: int) -> int:
    return num_spacecraft * (num_spacecraft - 1) // 2


@dataclass(frozen=True)
class FormationConfig:
    """Physics of the formation: craft count, masses, Coulomb constant and the
    separation below which pair forces are singular.  The state and product
    box belong to ``MpcParams``, the charge limit to ``saturation_limit``.
    """

    num_spacecraft: int
    masses: np.ndarray
    coulomb_constant: float = COULOMB_CONSTANT
    min_separation: float = 1e-3  # m, below this pair forces are treated as singular

    def __post_init__(self):
        ns = int(self.num_spacecraft)
        if ns < 2:
            raise ValueError("num_spacecraft must be at least 2")
        object.__setattr__(self, "num_spacecraft", ns)

        masses = _as_float_vector(self.masses, name="masses")
        if masses.size == 1:
            masses = np.full(ns, masses[0])
        if masses.size != ns:
            raise ValueError(f"masses must have length {ns}")
        if np.any(masses <= 0):
            raise ValueError("all masses must be strictly positive")
        object.__setattr__(self, "masses", masses)

        if self.coulomb_constant <= 0:
            raise ValueError("coulomb_constant must be strictly positive")
        if self.min_separation <= 0:
            raise ValueError("min_separation must be strictly positive")

    @property
    def state_dim(self) -> int:
        return 2 * (self.num_spacecraft - 1)


@dataclass(frozen=True)
class RelativeState:
    """Positions and velocities of craft 2..N relative to craft 1."""

    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        pos = _as_float_vector(self.positions, name="positions")
        vel = _as_float_vector(self.velocities, pos.size, "velocities")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "velocities", vel)

    @classmethod
    def from_vector(cls, packed: np.ndarray) -> "RelativeState":
        packed = _as_float_vector(packed, name="packed state")
        if packed.size % 2:
            raise ValueError("packed state must have even length")
        half = packed.size // 2
        return cls(packed[:half], packed[half:])

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.positions, self.velocities])


def charge_products(charges: np.ndarray) -> np.ndarray:
    """All pairwise products q_i * q_j in :func:`spacecraft_pairs` order."""
    q = _as_float_vector(charges, name="charges")
    pairs = spacecraft_pairs(q.size)
    return q[pairs[:, 0]] * q[pairs[:, 1]]


def _pair_force_terms(positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Force per unit charge product on the first craft of each pair, kappa*(x_i-x_j)/|..|^3."""
    pairs = spacecraft_pairs(cfg.num_spacecraft)
    diff = positions[pairs[:, 0]] - positions[pairs[:, 1]]
    dist = np.abs(diff)
    if np.any(dist < cfg.min_separation):
        worst = int(np.nanargmin(dist))  # a NaN separation is not the closest
        i, j = pairs[worst]
        raise SingularityError(
            f"spacecraft {i} and {j} are {dist[worst]:.3e} m apart "
            f"(minimum separation {cfg.min_separation:g} m)"
        )
    return cfg.coulomb_constant * diff / dist**3


def absolute_input_matrix(positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Matrix mapping pairwise charge products to absolute accelerations.

    Column l holds the acceleration pattern of pair (i, j): the force acts
    equally and oppositely on the two craft, divided by their masses.
    """
    x = _as_float_vector(positions, cfg.num_spacecraft, "positions")
    pairs = spacecraft_pairs(cfg.num_spacecraft)
    terms = _pair_force_terms(x, cfg)
    mat = np.zeros((cfg.num_spacecraft, len(pairs)))
    cols = np.arange(len(pairs))
    mat[pairs[:, 0], cols] = terms / cfg.masses[pairs[:, 0]]
    mat[pairs[:, 1], cols] = -terms / cfg.masses[pairs[:, 1]]
    return mat


def relative_input_matrix(rel_positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Matrix mapping charge products to relative accelerations.

    Row i is row i+1 minus row 0 of the absolute matrix, evaluated at the
    positions implied by placing craft 1 at the origin.
    """
    rel = _as_float_vector(rel_positions, cfg.num_spacecraft - 1, "relative positions")
    x = np.concatenate([[0.0], rel])
    absolute = absolute_input_matrix(x, cfg)
    return absolute[1:] - absolute[0]


def continuous_rhs(state: RelativeState, charges: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Time derivative of the packed relative state [positions; velocities]."""
    accel = relative_input_matrix(state.positions, cfg) @ charge_products(charges)
    return np.concatenate([state.velocities, accel])


@lru_cache(maxsize=None)
def _pair_scatter(num_spacecraft: int) -> tuple[np.ndarray, ...]:
    """Each pair's first and second craft, and the flat indices of their
    entries in the row-major ``(num_spacecraft, pairs)`` absolute input matrix."""
    pairs = _pair_table(num_spacecraft)
    first, second = pairs[:, 0].copy(), pairs[:, 1].copy()
    cols = np.arange(len(pairs))
    plan = first, second, first * len(pairs) + cols, second * len(pairs) + cols
    for arr in plan:
        arr.setflags(write=False)
    return plan


def rk4_step(
    state: RelativeState, charges: np.ndarray, dt: float, cfg: FormationConfig
) -> RelativeState:
    """One classical fourth-order Runge-Kutta step with the charges held constant.

    The stages evaluate :func:`continuous_rhs` without its per-call checks
    and containers: the same floating-point operations in the same order, on
    buffers set up once per step and a pair plan cached per craft count, so
    the result is bit-identical to an RK4 built on :func:`continuous_rhs`.
    Two rewrites are exact: ``-t / m`` is computed as ``t / (-m)`` (IEEE
    division is sign-symmetric), and the separation test takes the NaN-
    ignoring minimum, which is below the limit exactly when some pair is.
    The returned state holds views of one fresh vector, not re-validated.
    """
    if dt <= 0:
        raise ValueError("step size must be positive")
    products = charge_products(charges)
    half = cfg.num_spacecraft - 1
    y = state.as_vector()
    if y.size != 2 * half:
        raise ValueError(f"relative positions must have length {half}, got {y.size // 2}")
    first, second, into_first, into_second = _pair_scatter(cfg.num_spacecraft)
    mass_first, neg_mass_second = cfg.masses[first], -cfg.masses[second]
    kappa, min_separation = cfg.coulomb_constant, cfg.min_separation
    positions = np.zeros(half + 1)  # craft 1 stays at the origin
    absolute = np.zeros((half + 1, len(first)))  # entries off the scatter stay 0
    absolute_flat, others, lead = absolute.reshape(-1), absolute[1:], absolute[0]

    def rhs(packed: np.ndarray) -> np.ndarray:
        positions[1:] = packed[:half]
        diff = positions[first] - positions[second]
        dist = np.abs(diff)
        if np.fmin.reduce(dist) < min_separation:
            _pair_force_terms(positions, cfg)  # raises, naming the closest pair
        terms = kappa * diff / dist**3
        absolute_flat[into_first] = terms / mass_first
        absolute_flat[into_second] = terms / neg_mass_second
        return np.concatenate([packed[half:], (others - lead) @ products])

    k1 = rhs(y)
    k2 = rhs(y + 0.5 * dt * k1)
    k3 = rhs(y + 0.5 * dt * k2)
    k4 = rhs(y + dt * k3)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    result = object.__new__(RelativeState)
    object.__setattr__(result, "positions", out[:half])
    object.__setattr__(result, "velocities", out[half:])
    return result


@dataclass(frozen=True)
class DiscreteModel:
    """Linear prediction model frozen at a reference relative geometry.

    With the input matrix frozen, the relative dynamics are a double
    integrator driven by charge products, whose zero-order-hold
    discretization over one sample period is exact:

        A = [[I, h I], [0, I]],   B = [[h^2/2 * G], [h * G]],

    where G is the relative input matrix at the reference positions.
    """

    sample_period: float
    A: np.ndarray
    B: np.ndarray
    reference_positions: np.ndarray

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def input_dim(self) -> int:
        return self.B.shape[1]


def build_discrete_model(
    reference_positions: np.ndarray, sample_period: float, cfg: FormationConfig
) -> DiscreteModel:
    """Exact zero-order-hold discretization of the frozen-coefficient dynamics."""
    if sample_period <= 0:
        raise ValueError("sample_period must be positive")
    ref = _as_float_vector(
        reference_positions, cfg.num_spacecraft - 1, "reference positions"
    )
    gain = relative_input_matrix(ref, cfg)
    half = cfg.num_spacecraft - 1
    h = float(sample_period)
    A = np.eye(2 * half)
    A[:half, half:] = h * np.eye(half)
    B = np.vstack([0.5 * h * h * gain, h * gain])
    return DiscreteModel(h, A, B, ref)
