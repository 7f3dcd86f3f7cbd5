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
from a scalar cube on some inputs.  The two-craft hold, which runs on Python
floats, still takes its cube from that ``power`` ufunc, never from Python's
``**``, so the caveat is the same for every craft count.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

COULOMB_CONSTANT = 8.99e5  # N m^2 / (10 mC)^2


class SingularityError(ValueError):
    """Two spacecraft are closer than the configured minimum separation."""


def _check_count(value, name: str, least: int = 1) -> int:
    """A whole number of at least ``least``, as an int; a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be at least {least} (a whole int, not a bool), got {value!r}")
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


def _rebuilt_through_checks(config):
    """The ``__reduce__`` of a checked, frozen config dataclass: a copy or an
    unpickled config is rebuilt from its fields through its checks, so its
    arrays stay read-only arrays of its own (pickle does not keep numpy's
    writeable flag, and a restored dataclass skips ``__post_init__``)."""
    return type(config), tuple(getattr(config, field.name) for field in fields(config))


def spacecraft_pairs(num_spacecraft: int) -> np.ndarray:
    """All index pairs (i, j), i < j, ordered (0,1), (0,2), ..., (n-2, n-1), read-only.

    This fixed ordering defines which spacecraft pair each flattened
    charge-product index refers to, everywhere in the package, and its length
    is the one pair count.  It owns the craft-count rule too: a count that is
    a bool, not a whole int, or below two raises ``ValueError``.
    """
    return _pair_table(_check_count(num_spacecraft, "num_spacecraft", least=2))


@lru_cache(maxsize=None)
def _pair_table(num_spacecraft: int) -> np.ndarray:
    table = np.column_stack(np.triu_indices(num_spacecraft, k=1))
    table.setflags(write=False)
    return table


@dataclass(frozen=True)
class FormationConfig:
    """Physics of the formation: craft count, masses and the separation below
    which pair forces are singular; the Coulomb constant is ``COULOMB_CONSTANT``.
    The state box belongs to ``MpcParams``, the charge limit to ``saturation_limit``,
    the pair order, the pair count and the craft-count rule to
    :func:`spacecraft_pairs` and the pair-force kernel's plan to
    :func:`_bind_input_block`.
    """

    num_spacecraft: int
    masses: np.ndarray = 750.0  # kg, one value for every craft or one per craft
    min_separation: float = 1e-3  # m, below this pair forces are treated as singular

    def __post_init__(self):
        spacecraft_pairs(self.num_spacecraft)  # the one craft-count rule
        ns = int(self.num_spacecraft)
        object.__setattr__(self, "num_spacecraft", ns)

        object.__setattr__(self, "masses", _bound(self.masses, ns, "masses", positive=True))
        separation = _check_positive(self.min_separation, "min_separation")
        object.__setattr__(self, "min_separation", separation)

    __reduce__ = _rebuilt_through_checks

    @property
    def state_dim(self) -> int:
        return 2 * (self.num_spacecraft - 1)


@lru_cache(maxsize=None)
def _pair_layout(num_spacecraft: int) -> tuple[np.ndarray, ...]:
    """The plan of :func:`_bind_input_block` that depends on the craft count
    alone, read-only, one per count.

    The input matrix is held as a ``(2, n - 1, pairs)`` block: ``others``,
    rows 1.. of the absolute input matrix, and ``lead``, its row 0 repeated in
    every row, so the relative matrix ``others - lead`` is a same-shape
    subtraction.  Each pair's force lands on its second craft's row, on its
    first craft's row, or, for a first craft 0, on every repeated row; the
    first landing spots are the second crafts', one per pair in pair order.
    The layout holds each pair's first and second craft, and per landing spot
    its flat index in the block, the first and second craft of its pair, the
    landing craft and the sign of its mass (-1 for a second craft).
    """
    half = num_spacecraft - 1
    pairs = spacecraft_pairs(num_spacecraft)
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
    landing = np.concatenate([second, first[~led], first[lead_cols]])
    sign = np.ones(len(spot))
    sign[:count] = -1.0
    layout = first, second, first[pair_of], second[pair_of], spot, landing, sign
    for arr in layout:
        arr.setflags(write=False)
    return layout


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


def _bind_input_block(cfg: FormationConfig):
    """The one pair-force kernel and the one owner of its block: returns
    ``(kernel, others, lead)``, where the call ``kernel(x)`` writes the input
    matrix at craft positions ``x[:n]`` into the ``(2, n - 1, pairs)`` block of
    :func:`_pair_layout`, whose two ``(n - 1, pairs)`` halves are the views
    ``others`` and ``lead`` (zeros off the landing spots).  The block, the
    layout with each landing spot's craft replaced by its mass (negated for a
    second craft), the scratch of one entry per landing spot and a vector of
    the Coulomb constant are built once per bind.

    A pair below ``min_separation`` raises :class:`SingularityError` naming the
    first closest pair (Python's ``min`` screens: it is below the limit or NaN
    whenever a pair is); a NaN separation alone does not.  The block is
    bit-identical to the textbook matrix of ``tests/test_dynamics.py``: ``-t / m``
    is ``t / (-m)``, IEEE division being sign-symmetric, and each landing spot
    computes its pair's ``kappa * diff / dist**3`` by the same elementwise
    operations, ``dist**3`` by numpy's array ``power`` (see the module notes);
    an elementwise product with a vector of kappa is the one with kappa.
    """
    first, _, spot_first, spot_second, spot, landing, sign = _pair_layout(cfg.num_spacecraft)
    count = len(first)
    signed_masses = cfg.masses[landing] * sign  # an exact sign flip
    block = np.zeros((2, cfg.num_spacecraft - 1, count))
    flat = block.reshape(-1)
    diff, dist, cube = np.empty((3, len(spot)))
    kappa = np.full(len(spot), COULOMB_CONSTANT)
    limit = cfg.min_separation
    subtract, absolute, power, multiply, divide = (
        np.subtract, np.absolute, np.power, np.multiply, np.divide)

    def kernel(x: np.ndarray) -> None:
        subtract(x[spot_first], x[spot_second], diff)
        absolute(diff, dist)
        if not min(dist.tolist()) >= limit and np.any(dist < limit):
            worst = int(np.nanargmin(dist[:count]))  # a NaN separation is not the closest
            raise SingularityError(
                f"spacecraft {spot_first[worst]} and {spot_second[worst]} are "
                f"{dist[worst]:.3e} m apart (minimum separation {limit:g} m)")
        power(dist, 3.0, cube)  # the loop of dist**3, without its int exponent's conversion
        multiply(kappa, diff, diff)
        divide(diff, cube, diff)
        divide(diff, signed_masses, diff)
        flat[spot] = diff

    return kernel, block[0], block[1]


def absolute_input_matrix(positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Matrix mapping pairwise charge products to absolute accelerations.

    Column l holds the acceleration pattern of pair (i, j): the force acts
    equally and oppositely on the two craft, divided by their masses.
    """
    x = _as_float_vector(positions, cfg.num_spacecraft, "positions")
    kernel, others, lead = _bind_input_block(cfg)
    kernel(x)
    return np.vstack([lead[:1], others])


def relative_input_matrix(rel_positions: np.ndarray, cfg: FormationConfig) -> np.ndarray:
    """Matrix mapping charge products to relative accelerations.

    Row i is row i+1 minus row 0 of the absolute matrix, evaluated at the
    positions implied by placing craft 1 at the origin.
    """
    rel = _as_float_vector(rel_positions, cfg.num_spacecraft - 1, "relative positions")
    kernel, others, lead = _bind_input_block(cfg)
    kernel(np.concatenate([[0.0], rel]))
    return others - lead


def _bind_hold(cfg: FormationConfig, dt: float, substeps: int):
    """The bound hold of :func:`rk4_step` for a checked step size and substep
    count: returns ``hold(positions, velocities, q)``, which runs the
    ``substeps`` steps from that state under the charges ``q`` and returns the
    final packed state as a fresh vector.

    The hold is picked by pair count, and both are bit-identical to the
    textbook RK4.  A formation of one pair (two craft) gets
    :func:`_bind_scalar_hold`, which runs each operation on Python floats,
    since a numpy call on one-entry arrays costs more than its arithmetic.
    Three or more craft get :func:`_bind_vector_hold`: their accelerations
    are a BLAS matvec summing several products, in the kernel's own order,
    which a Python sum would not reproduce bit for bit.
    """
    bind = _bind_scalar_hold if cfg.num_spacecraft == 2 else _bind_vector_hold
    return bind(cfg, dt, substeps)


def _bind_scalar_hold(cfg: FormationConfig, dt: float, substeps: int):
    """The hold of a one-pair formation on Python floats, each operation the
    one :func:`_bind_vector_hold` runs on that pair, in the same order.

    A stage computes ``diff = 0.0 - r``, its ``abs``, the separation check and
    ``kappa * diff / cube``, then ``t / (-m1) - t / m0`` (the one entry of
    ``others - lead``) times the charge product (the 1x1 matvec), and a
    substep ends in ``y + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)`` per entry.
    Three steps keep numpy's bits where Python's float differs:

    - the cube is numpy's ``power`` ufunc on one-entry buffers bound here, so
      it runs the array loop (see the module notes), not ``d ** 3.0``;
    - a cube that underflows to 0 divides through numpy, giving the IEEE inf
      where Python raises ``ZeroDivisionError``;
    - the matvec is numpy's dot, a sum started at 0.0, so the product is
      added to 0.0, which turns a -0.0 into 0.0.
    """
    lead_mass, other_mass = cfg.masses.tolist()
    signed_other = -other_mass  # an exact sign flip
    limit = cfg.min_separation
    half_dt, sixth = 0.5 * dt, dt / 6.0
    dist, three, cube = np.empty(1), np.full(1, 3.0), np.empty(1)
    power, divide = np.power, np.divide

    def acceleration(r: float, product: float) -> float:
        diff = 0.0 - r
        dist[0] = separation = abs(diff)
        if separation < limit:  # a NaN separation passes, as in the kernel
            raise SingularityError(
                f"spacecraft 0 and 1 are {separation:.3e} m apart (minimum separation {limit:g} m)")
        power(dist, three, cube)
        cubed = cube.item()
        t = COULOMB_CONSTANT * diff
        t = t / cubed if cubed else divide(t, cubed).item()
        return 0.0 + (t / signed_other - t / lead_mass) * product

    def hold(positions: np.ndarray, velocities: np.ndarray, q: np.ndarray) -> np.ndarray:
        (r,), (v,) = positions.tolist(), velocities.tolist()
        first, second = q.tolist()
        product = first * second
        for _ in range(substeps):
            a1 = acceleration(r, product)
            r2, v2 = r + half_dt * v, v + half_dt * a1
            a2 = acceleration(r2, product)
            r3, v3 = r + half_dt * v2, v + half_dt * a2
            a3 = acceleration(r3, product)
            r4, v4 = r + dt * v3, v + dt * a3
            a4 = acceleration(r4, product)
            r, v = (r + sixth * (((v + 2.0 * v2) + 2.0 * v3) + v4),
                    v + sixth * (((a1 + 2.0 * a2) + 2.0 * a3) + a4))
        return np.array([r, v])

    return hold


def _bind_vector_hold(cfg: FormationConfig, dt: float, substeps: int):
    """The hold of any formation on numpy buffers, one row per stage.  The
    pair-force kernel with its block, the four stage rows, the scratch and
    the coefficient vectors are built once per bind, and each call
    overwrites every entry it reads.

    Each stage is one row ``[0, positions, velocities, accelerations]``: the
    leading 0 is craft 1, which the kernel reads directly, and the stage's
    derivative k is the view of its velocities and accelerations.  The
    accelerations are the BLAS matvec ``(others - lead) @ products``, whose
    summation order fixes the bits; ``others - lead`` is subtracted on flat
    views, and the scalar operands (the stage coefficients, 2 and dt/6) are
    vectors built once, an elementwise product being the same either way.
    """
    first, second, *_ = _pair_layout(cfg.num_spacecraft)
    half = cfg.num_spacecraft - 1
    dim = 2 * half
    # stages[i] is [0, y, k1's accelerations] for i = 0, then [0, stage vector
    # i, its accelerations]: k(i+1) is stages[i, half + 1:]
    stages = np.zeros((4, 3 * half + 1))
    kernel, others, lead = _bind_input_block(cfg)
    matrix = np.empty_like(others)
    others, lead, relative = others.reshape(-1), lead.reshape(-1), matrix.reshape(-1)
    y = stages[0, 1 : dim + 1]
    y_positions, y_velocities = y[:half], y[half:]
    products = np.empty(len(first))
    step, total = np.empty((2, dim))
    k1, k2, k3, k4 = stages[:, half + 1 :]
    two, sixth = np.full(dim, 2.0), np.full(dim, dt / 6.0)
    # per stage: its row, its k and k's accelerations, and for the first three
    # the coefficient and the next stage vector, y + coeff * k
    plan = [(stages[i], stages[i, half + 1 :], stages[i, dim + 1 :],
             None if coeff is None else np.full(dim, coeff),
             None if coeff is None else stages[i + 1, 1 : dim + 1])
            for i, coeff in enumerate((0.5 * dt, 0.5 * dt, dt, None))]
    subtract, matmul, multiply, add, copyto = (
        np.subtract, np.matmul, np.multiply, np.add, np.copyto)

    def hold(positions: np.ndarray, velocities: np.ndarray, q: np.ndarray) -> np.ndarray:
        copyto(y_positions, positions)
        copyto(y_velocities, velocities)
        multiply(q[first], q[second], products)
        for _ in range(substeps):
            for stage, k, k_acc, coeff, following in plan:
                kernel(stage)
                subtract(others, lead, relative)
                matmul(matrix, products, k_acc)
                if coeff is not None:
                    multiply(coeff, k, step)
                    add(y, step, following)
            # y + (dt/6) * (((k1 + 2 k2) + 2 k3) + k4), into y
            multiply(two, k2, step)
            add(k1, step, total)
            multiply(two, k3, step)
            add(total, step, total)
            add(total, k4, total)
            multiply(sixth, total, total)
            add(y, total, y)
        return y.copy()

    return hold


class _HoldSlot(threading.local):
    """The last hold :func:`rk4_step` bound in this thread, as (a weak
    reference to its formation, dt, substeps, hold): concurrent callers never
    share its buffers, the formation stays free to be collected, pickled or
    copied, and a thread keeps one bound hold at most."""

    plan = (lambda: None, None, None, None)


_hold_slot = _HoldSlot()


def rk4_step(
    state: RelativeState, charges: np.ndarray, dt: float, cfg: FormationConfig,
    substeps: int = 1,
) -> RelativeState:
    """``substeps`` classical fourth-order Runge-Kutta steps of size ``dt`` with
    the charges held constant: the package's one RK4 kernel, called once per hold.

    The hold is bound by :func:`_bind_hold` once per formation, step size and
    substep count and per thread, and reused while the three repeat.  A float
    ``dt`` and an int ``substeps`` equal to the bound ones, which were
    checked, need no check; any other value is checked before the lookup.
    Each call checks the charges (their count, and that each is finite) and
    the state (its size, and that each entry is finite, since a hold from a
    non-finite state returns NaN: silently for two craft, with a warning
    for more), forms the charge products once in :func:`spacecraft_pairs`
    order and runs the substeps' four stages.  A stage evaluates
    ``[velocities; relative_input_matrix(positions) @
    charge_products(charges)]``, separation check included, by the same
    floating-point operations in the same order, and a substep ends in ``y +
    (dt/6) * (((k1 + 2 k2) + 2 k3) + k4)``, so each substep is bit-identical
    to the textbook RK4 kept in ``tests/test_dynamics.py``.

    The hold is picked by pair count.  A formation of one pair (two craft)
    runs on Python floats (:func:`_bind_scalar_hold`), as its numpy calls
    would cost more than their arithmetic.  Three or more craft run on
    bound numpy buffers, one stage row each, every elementwise operation
    writing through ``out`` (:func:`_bind_vector_hold`): their accelerations
    are a BLAS matvec whose summation order fixes the bits, and a Python sum
    would not follow it.  The returned state holds views of a fresh vector,
    not re-validated: a state that turns NaN inside the hold (a separation
    whose cube underflows to 0) is returned as it is.
    """
    formation, held_dt, held_substeps, hold = _hold_slot.plan
    if not (type(dt) is float and dt == held_dt and type(substeps) is int
            and substeps == held_substeps):
        dt, substeps = _check_positive(dt, "step size"), _check_count(substeps, "substeps")
    if not (formation() is cfg and dt == held_dt and substeps == held_substeps):
        hold = _bind_hold(cfg, dt, substeps)
        _hold_slot.plan = (weakref.ref(cfg), dt, substeps, hold)
    half = cfg.num_spacecraft - 1
    q = np.asarray(charges, dtype=float)
    if q.shape != (half + 1,):
        raise ValueError(f"charges must have length {half + 1}, got shape {q.shape}")
    if not np.isfinite(q).all():
        raise ValueError(f"charges must be finite, got {q}")
    positions, velocities = state.positions, state.velocities
    if positions.size != half:
        raise ValueError(f"relative positions must have length {half}, got {positions.size}")
    # one pass on Python floats: two numpy calls on one-entry arrays cost 8 times as much
    if not all(map(math.isfinite, positions.tolist() + velocities.tolist())):
        raise ValueError(
            f"state must be finite, got positions {positions}, velocities {velocities}")
    y = hold(positions, velocities, q)
    result = object.__new__(RelativeState)
    object.__setattr__(result, "positions", y[:half])
    object.__setattr__(result, "velocities", y[half:])
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
