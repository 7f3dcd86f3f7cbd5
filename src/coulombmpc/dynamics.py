"""Point-mass dynamics of collinear, electrostatically actuated spacecraft formations.

Positions are scalar (the formation line is the coordinate axis).  Charges are
expressed in units of 10 mC so the Coulomb constant can be scaled down to
8.99e5 N m^2/(10 mC)^2; accelerations then come out in m/s^2 for metre
positions and kilogram masses.  The acceleration of each craft is the sum of
inverse-square pair forces, each proportional to the product of the two
charges involved, so the dynamics are linear in the vector of pairwise charge
products rather than in the charges themselves.  :class:`FormationConfig`
holds the physics only, no bounds.

The truth trajectory of :func:`rk4_step` is bit-reproducible within one SIMD
class of CPU, not across classes: numpy computes ``dist**3`` with its array
``power``, which on AVX-512 CPUs runs an SVML kernel whose last bit differs
from a scalar cube on some inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

COULOMB_CONSTANT = 8.99e5  # N m^2 / (10 mC)^2


class SingularityError(ValueError):
    """Two spacecraft are closer than the configured minimum separation."""


def _check_count(value, name: str) -> int:
    """A whole number of at least 1, as an int; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be at least 1 (a whole int, not a bool), got {value!r}")
    return int(value)


def _as_floats(value, name: str) -> np.ndarray:
    """``value`` as floats, in a read-only array of its own: the one conversion of
    an input number.  A bool anywhere in it, which float() reads as 1 or 0, and
    anything float() cannot read raise a ``ValueError`` naming ``name``."""
    try:
        floats = np.array(value, dtype=float)
        # numpy would promote a bool among numbers away, so a list's items keep their type
        items = np.asarray(value, dtype=object if isinstance(value, (list, tuple)) else None)
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{name} must be numeric, got {value!r}") from exc
    if items.dtype.kind == "b" or (
        items.dtype.kind == "O" and any(isinstance(v, (bool, np.bool_)) for v in items.flat)
    ):
        raise ValueError(f"{name} must be a number, not true or false, got {value!r}")
    floats.setflags(write=False)
    return floats


def _check_positive(value, name: str, zero_ok: bool = False) -> float:
    """A finite number, strictly positive (or nonnegative if ``zero_ok``), as a float."""
    number = _as_floats(value, name).tolist()  # a float, unless value held several
    if not isinstance(number, float) or not (0 < number < math.inf or zero_ok and number == 0):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")
    return number


def _bound(value, size: int, name: str, positive: bool = False) -> np.ndarray:
    """A single value or a length-``size`` vector as a finite read-only vector of
    that length, every entry above 0 if ``positive``: the one rule for a value
    given once or per craft, state or product."""
    arr = _as_floats(value, name)
    if arr.size == 1:
        arr = np.full(size, arr.item())
        arr.setflags(write=False)
    if arr.shape != (size,):
        raise ValueError(f"{name} must have length {size}")
    if not np.isfinite(arr).all() or positive and not (arr > 0).all():
        raise ValueError(f"{name} must be finite" + (" and positive" if positive else ""))
    return arr


def _as_float_vector(value, length: int | None = None, name: str = "array",
                     finite: bool = False) -> np.ndarray:
    arr = np.atleast_1d(_as_floats(value, name))
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if length is not None and arr.size != length:
        raise ValueError(f"{name} must have length {length}, got {arr.size}")
    if finite and not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


@lru_cache(maxsize=None)
def spacecraft_pairs(num_spacecraft: int) -> np.ndarray:
    """All index pairs (i, j), i < j, ordered (0,1), (0,2), ..., (n-2, n-1), read-only.

    This fixed ordering defines which spacecraft pair each flattened
    charge-product index refers to, everywhere in the package.
    """
    if num_spacecraft < 2:
        raise ValueError("a formation needs at least two spacecraft")
    table = np.column_stack(np.triu_indices(num_spacecraft, k=1))
    table.setflags(write=False)
    return table


def pair_count(num_spacecraft: int) -> int:
    return num_spacecraft * (num_spacecraft - 1) // 2


@dataclass(frozen=True)
class FormationConfig:
    """Physics of the formation: craft count, masses and the separation below
    which pair forces are singular; the Coulomb constant is ``COULOMB_CONSTANT``.
    The state box belongs to ``MpcParams``, the charge limit to ``saturation_limit``.
    """

    num_spacecraft: int
    masses: np.ndarray = 750.0  # kg, one value for every craft or one per craft
    min_separation: float = 1e-3  # m, below this pair forces are treated as singular

    def __post_init__(self):
        ns = _check_count(self.num_spacecraft, "num_spacecraft")
        if ns < 2:
            raise ValueError("num_spacecraft must be at least 2")
        object.__setattr__(self, "num_spacecraft", ns)

        object.__setattr__(self, "masses", _bound(self.masses, ns, "masses", positive=True))
        separation = _check_positive(self.min_separation, "min_separation")
        object.__setattr__(self, "min_separation", separation)

    @property
    def state_dim(self) -> int:
        return 2 * (self.num_spacecraft - 1)

    @cached_property
    def _pair_plan(self) -> tuple[np.ndarray, ...]:
        """The constant plan of :func:`_input_block`.

        The input matrix is held as a ``(2, n - 1, pairs)`` block: ``others``,
        rows 1.. of the absolute input matrix, and ``lead``, its row 0 repeated
        in every row, so the relative matrix ``others - lead`` is a same-shape
        subtraction.  Each pair's force lands on its second craft's row, on its
        first craft's row, or, for a first craft 0, on every repeated row; the
        first landing spots are the second crafts', one per pair in pair order.
        The plan holds each pair's first and second craft, and per landing
        spot its flat index in the block, the first and second craft of its
        pair and the landing craft's mass, negated for a second craft.
        """
        half = self.num_spacecraft - 1
        pairs = spacecraft_pairs(self.num_spacecraft)
        first, second = pairs[:, 0].copy(), pairs[:, 1].copy()
        count = len(pairs)
        cols = np.arange(count)
        led = first == 0  # the pairs that act on craft 0
        lead_cols = np.tile(cols[led], half)
        lead_rows = np.repeat(np.arange(half), led.sum())
        pair_of = np.concatenate([cols, cols[~led], lead_cols])
        spot = np.concatenate([
            (second - 1) * count + cols,
            (first[~led] - 1) * count + cols[~led],
            (half + lead_rows) * count + lead_cols,
        ])
        signed_masses = np.concatenate([
            -self.masses[second], self.masses[first[~led]], self.masses[first[lead_cols]],
        ])
        plan = first, second, first[pair_of], second[pair_of], spot, signed_masses
        for arr in plan:
            arr.setflags(write=False)
        return plan


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


def _input_block(x: np.ndarray, cfg: FormationConfig, block=None) -> np.ndarray:
    """The input matrix at craft positions ``x[:n]`` as the ``(2, n - 1, pairs)``
    block of :attr:`FormationConfig._pair_plan`, flat, written into ``block``
    (zeros off the landing spots; a fresh one if None): the one pair-force kernel.

    A pair below ``min_separation`` raises :class:`SingularityError` naming the
    first closest pair (Python's ``min`` screens: it is below the limit or NaN
    whenever a pair is); a NaN separation alone does not.  The block is
    bit-identical to the textbook matrix of ``tests/test_dynamics.py``: ``-t / m``
    is ``t / (-m)``, IEEE division being sign-symmetric, and each landing spot
    computes its pair's ``kappa * diff / dist**3`` by the same elementwise
    operations, ``dist**3`` by numpy's array ``power`` (see the module notes).
    """
    first, _, spot_first, spot_second, spot, signed_masses = cfg._pair_plan
    if block is None:
        block = np.zeros(2 * (cfg.num_spacecraft - 1) * len(first))
    diff = x[spot_first] - x[spot_second]
    dist = np.abs(diff)
    if not min(dist.tolist()) >= cfg.min_separation and np.any(dist < cfg.min_separation):
        worst = int(np.nanargmin(dist[: len(first)]))  # a NaN separation is not the closest
        raise SingularityError(
            f"spacecraft {spot_first[worst]} and {spot_second[worst]} are "
            f"{dist[worst]:.3e} m apart (minimum separation {cfg.min_separation:g} m)")
    block[spot] = COULOMB_CONSTANT * diff / dist**3 / signed_masses
    return block


def absolute_input_matrix(positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Matrix mapping pairwise charge products to absolute accelerations.

    Column l holds the acceleration pattern of pair (i, j): the force acts
    equally and oppositely on the two craft, divided by their masses.
    """
    x = _as_float_vector(positions, cfg.num_spacecraft, "positions")
    others, lead = _input_block(x, cfg).reshape(2, cfg.num_spacecraft - 1, -1)
    return np.vstack([lead[:1], others])


def relative_input_matrix(rel_positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Matrix mapping charge products to relative accelerations.

    Row i is row i+1 minus row 0 of the absolute matrix, evaluated at the
    positions implied by placing craft 1 at the origin.
    """
    rel = _as_float_vector(rel_positions, cfg.num_spacecraft - 1, "relative positions")
    others, lead = _input_block(np.concatenate([[0.0], rel]), cfg).reshape(2, rel.size, -1)
    return others - lead


def rk4_step(
    state: RelativeState, charges: np.ndarray, dt: float, cfg: FormationConfig
) -> RelativeState:
    """One classical fourth-order Runge-Kutta step with the charges held constant.

    The stages evaluate ``[velocities; relative_input_matrix(positions) @
    charge_products(charges)]`` by the same floating-point operations in the
    same order, without its per-call checks and containers, so the result is
    bit-identical to the textbook RK4 kept in ``tests/test_dynamics.py``.  Each
    stage vector sits in a buffer ``[0, positions, velocities]`` whose leading 0
    is craft 1, which :func:`_input_block` reads directly into one block per
    step; the accelerations are the BLAS matvec ``(others - lead) @ products``,
    whose summation order fixes the bits.  The returned state holds views of
    one fresh vector, not re-validated.
    """
    _check_positive(dt, "step size")
    first, second = cfg._pair_plan[:2]
    half = cfg.num_spacecraft - 1
    q = np.asarray(charges, dtype=float)
    if q.shape != (half + 1,):
        raise ValueError(f"charges must have length {half + 1}, got shape {q.shape}")
    products = q[first] * q[second]
    positions, velocities = state.positions, state.velocities
    if positions.size != half:
        raise ValueError(f"relative positions must have length {half}, got {positions.size}")
    # stages[0] is [0, y], then the three stage vectors; derivs the four k
    stages = np.zeros((4, 2 * half + 1))
    stages[0, 1 : half + 1] = positions
    stages[0, half + 1 :] = velocities
    derivs = np.empty((4, 2 * half))
    block = np.zeros(2 * half * len(first))  # entries off the landing spots stay 0
    others, lead = block.reshape(2, half, -1)
    y = stages[0, 1:]
    step = np.empty(2 * half)

    for i, coeff in enumerate((0.5 * dt, 0.5 * dt, dt, None)):
        stage, k = stages[i], derivs[i]
        _input_block(stage, cfg, block)
        k[:half] = stage[half + 1 :]
        np.matmul(others - lead, products, k[half:])
        if coeff is not None:  # the next stage vector, y + coeff * k
            np.multiply(coeff, k, step)
            np.add(y, step, stages[i + 1, 1:])
    k1, k2, k3, k4 = derivs
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
    h = _check_positive(sample_period, "sample_period")
    ref = _as_float_vector(
        reference_positions, cfg.num_spacecraft - 1, "reference positions", finite=True
    )
    gain = relative_input_matrix(ref, cfg)
    half = cfg.num_spacecraft - 1
    A = np.eye(2 * half)
    A[:half, half:] = h * np.eye(half)
    B = np.vstack([0.5 * h * h * gain, h * gain])
    return DiscreteModel(h, A, B)
