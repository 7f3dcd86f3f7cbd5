import numpy as np
import pytest

from conftest import pinned_problem
from coulombmpc import (
    ConicSolver,
    HorizonProblem,
    MpcParams,
    SolverSettings,
    build_discrete_model,
    charge_products,
    to_conic,
    update_initial_state,
)
from coulombmpc.conic import sym_gather, vec_dim
from coulombmpc.horizon import _weight_matrix
from reference_admm import objective_value
from reference_conic import evaluate_cost, pack, sym_to_vec, vec_index, vec_to_sym


def conic_violation(prob, z):
    """Worst constraint violation of a point, by cone (no solver involved)."""
    slack = prob.b - prob.A @ z
    cones = prob.cones
    worst = np.abs(slack[: cones.zero]).max() if cones.zero else 0.0
    nn = slack[cones.zero : cones.zero + cones.nonneg]
    if nn.size:
        worst = max(worst, float(max(0.0, -nn.min())))
    off = cones.zero + cones.nonneg
    for side in cones.psd:
        block = slack[off : off + vec_dim(side)]
        worst = max(worst, float(max(0.0, -np.linalg.eigvalsh(vec_to_sym(block)).min())))
        off += vec_dim(side)
    return worst


def simple_params(ns, horizon, desired, trace_weight=0.0, margin=1e4, **kw):
    center = np.concatenate([desired, np.zeros(ns - 1)])
    return MpcParams(
        horizon=horizon,
        desired_positions=desired,
        state_weight=kw.get("state_weight", 1.0),
        product_weight=kw.get("product_weight", 0.0),
        product_delta_weight=kw.get("product_delta_weight", 0.0),
        state_min=center - margin,
        state_max=center + margin,
        trace_weight=trace_weight,
    )


def model_for(formation, desired, h=0.5):
    return build_discrete_model(desired, h, formation)


# -- vectorization ---------------------------------------------------------------

def test_sym_vec_round_trip():
    rng = np.random.default_rng(0)
    for side in (2, 3, 4, 6):
        mat = rng.normal(size=(side, side))
        mat = mat + mat.T
        assert np.allclose(vec_to_sym(sym_to_vec(mat)), mat, rtol=0, atol=1e-14)


def test_sym_vec_preserves_trace_inner_product():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))
    a, b = a + a.T, b + b.T
    assert sym_to_vec(a) @ sym_to_vec(b) == pytest.approx(np.trace(a @ b), rel=1e-12)


def test_vec_index_matches_tril_order():
    side = 4
    rows, cols = np.tril_indices(side)
    for pos, (r, c) in enumerate(zip(rows, cols)):
        assert vec_index(r, c) == pos
        assert vec_index(c, r) == pos


def test_sym_gather_is_one_cached_read_only_table():
    # to_conic reads its coupling columns and trace slots from this table
    for side in (2, 3, 4):
        index, scale = sym_gather(side)
        assert sym_gather(side)[0] is index and sym_gather(side)[1] is scale
        for r in range(side):
            for c in range(side):
                assert index[r, c] == vec_index(r, c)
        for arr in (index, scale):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0


# -- problem structure -----------------------------------------------------------

def test_single_stage_structure(twocraft_formation):
    desired = np.array([50.0])
    params = simple_params(2, 1, desired)
    model = model_for(twocraft_formation, desired)
    hp = HorizonProblem(model, params)
    prob = to_conic(hp)
    n, m, d = 2, 1, 3
    assert hp.num_vars == 2 * n + m + d
    assert prob.cones.zero == n + n + m          # pin + dynamics + coupling
    assert prob.cones.nonneg == 2 * n            # one stage of box bounds
    assert prob.cones.psd == (2,)
    assert prob.cones.total == prob.b.size


def test_fourcraft_structure_counts():
    from conftest import fourcraft_formation, fourcraft_params

    formation = fourcraft_formation()
    params = fourcraft_params()
    model = model_for(formation, params.desired_positions)
    prob = to_conic(HorizonProblem(model, params))
    assert prob.cones.psd == (4,) * 9            # 9 lifted blocks of side 4
    assert prob.cones.zero == 6 + 9 * 6 + 9 * 6  # pin + dynamics + coupling
    assert prob.cones.nonneg == 2 * 9 * 6


def test_pack_unpack_round_trip(threecraft_formation):
    desired = np.array([40.0, 80.0])
    params = simple_params(3, 4, desired)
    model = model_for(threecraft_formation, desired)
    hp = HorizonProblem(model, params)
    rng = np.random.default_rng(3)
    states = rng.normal(size=(5, 4))
    inputs = rng.normal(size=(4, 3))
    lifted = rng.normal(size=(4, 3, 3))
    lifted = lifted + np.transpose(lifted, (0, 2, 1))
    z = pack(hp, states, inputs, lifted)
    s2, u2, l2 = hp.unpack(z)
    assert np.allclose(s2, states, atol=1e-14)
    assert np.allclose(u2, inputs, atol=1e-14)
    assert np.allclose(l2, lifted, atol=1e-14)


@pytest.mark.parametrize("extra", [5, -1])
def test_unpack_rejects_a_vector_of_another_length(threecraft_formation, extra):
    # 5 entries too many were dropped silently, one too few raised IndexError
    desired = np.array([40.0, 80.0])
    model = model_for(threecraft_formation, desired)
    hp = HorizonProblem(model, simple_params(3, 4, desired))
    size = hp.num_vars + extra
    with pytest.raises(ValueError, match=rf"z must have length {hp.num_vars}, got shape \({size},\)"):
        hp.unpack(np.zeros(size))


# -- feasible point transfer -------------------------------------------------------

def rollout(hp, start, charge_plan):
    """Lift a per-stage charge plan from ``start`` into a (states, inputs,
    lifted) trajectory."""
    N, side = hp.params.horizon, hp.params.num_spacecraft
    states = np.zeros((N + 1, hp.model.state_dim))
    inputs = np.zeros((N, hp.model.input_dim))
    lifted = np.zeros((N, side, side))
    states[0] = start
    for j in range(N):
        q = charge_plan[j]
        inputs[j] = charge_products(q)
        lifted[j] = np.outer(q, q)
        states[j + 1] = hp.model.A @ states[j] + hp.model.B @ inputs[j]
    return states, inputs, lifted


def test_unforced_point_is_conic_feasible(threecraft_formation):
    desired = np.array([40.0, 80.0])
    params = simple_params(3, 5, desired)
    model = model_for(threecraft_formation, desired)
    start = np.array([40.0, 80.0, 0.0, 0.0])
    hp, prob = pinned_problem(model, params, start)
    states, inputs, lifted = rollout(hp, start, np.zeros((5, 3)))
    z = pack(hp, states, inputs, lifted)
    assert conic_violation(prob, z) <= 1e-9


def test_objective_transfer_matches_structured_cost(threecraft_formation):
    desired = np.array([40.0, 80.0])
    params = simple_params(
        3, 4, desired, trace_weight=0.7,
        state_weight=np.array([1.0, 2.0, 30.0, 40.0]),
        product_weight=0.5, product_delta_weight=200.0,
    )
    model = model_for(threecraft_formation, desired)
    start = np.array([40.5, 79.0, 0.01, -0.02])
    hp, prob = pinned_problem(model, params, start)
    rng = np.random.default_rng(4)
    plan = rng.uniform(-0.2, 0.2, size=(4, 3))
    states, inputs, lifted = rollout(hp, start, plan)
    z = pack(hp, states, inputs, lifted)
    structured = evaluate_cost(hp, states, inputs, lifted)
    assert objective_value(prob, z) == pytest.approx(structured, rel=1e-9)
    assert conic_violation(prob, z) <= 1e-8


def test_relaxation_soundness_lifted_charges_cost_identity(threecraft_formation):
    # lifting a feasible charge sequence is conic-feasible and its relaxation
    # cost equals the charge-space cost plus the trace penalty of the lift
    desired = np.array([40.0, 80.0])
    params_lifted = simple_params(3, 3, desired, trace_weight=1.3,
                                  state_weight=2.0, product_delta_weight=10.0)
    params_plain = simple_params(3, 3, desired, trace_weight=0.0,
                                 state_weight=2.0, product_delta_weight=10.0)
    model = model_for(threecraft_formation, desired)
    start = np.array([40.2, 80.3, 0.0, 0.0])
    hp, prob = pinned_problem(model, params_lifted, start)
    hp_plain = HorizonProblem(model, params_plain)
    rng = np.random.default_rng(5)
    for _ in range(5):
        plan = rng.uniform(-0.1, 0.1, size=(3, 3))
        states, inputs, lifted = rollout(hp, start, plan)
        z = pack(hp, states, inputs, lifted)
        assert conic_violation(prob, z) <= 1e-8
        plain = evaluate_cost(hp_plain, states, inputs, lifted)
        expected = plain + 1.3 * sum(float(q @ q) for q in plan)
        assert evaluate_cost(hp, states, inputs, lifted) == pytest.approx(expected, rel=1e-12)
    # and the relaxation optimum can only improve on any lifted feasible point
    result = ConicSolver(prob, SolverSettings(eps_abs=1e-8, eps_rel=1e-8)).solve()
    assert result.objective <= evaluate_cost(hp, states, inputs, lifted) + 1e-6


# -- cost evaluation -----------------------------------------------------------

def test_cost_zero_at_equilibrium(twocraft_formation):
    desired = np.array([50.0])
    params = simple_params(2, 3, desired, trace_weight=2.0)
    model = model_for(twocraft_formation, desired)
    hp = HorizonProblem(model, params)
    states = np.tile(params.desired_state, (4, 1))
    assert evaluate_cost(hp, states, np.zeros((3, 1)), np.zeros((3, 2, 2))) == 0.0


def test_cost_single_deviation_quadratic(twocraft_formation):
    desired = np.array([50.0])
    params = simple_params(2, 1, desired, state_weight=np.eye(2))
    model = model_for(twocraft_formation, desired)
    hp = HorizonProblem(model, params)
    states = np.tile(params.desired_state, (2, 1))
    delta = 0.37
    states[1, 0] += delta
    cost = evaluate_cost(hp, states, np.zeros((1, 1)), np.zeros((1, 2, 2)))
    assert cost == pytest.approx(delta**2, rel=1e-13)


def test_cost_matches_independent_recomputation(threecraft_formation):
    desired = np.array([40.0, 80.0])
    params = simple_params(
        3, 6, desired, trace_weight=1.5,
        state_weight=np.array([1.0, 1.0, 400.0, 400.0]),
        product_weight=0.25, product_delta_weight=1e6,
    )
    model = model_for(threecraft_formation, desired)
    hp = HorizonProblem(model, params)
    rng = np.random.default_rng(6)
    states = rng.normal(size=(7, 4))
    inputs = rng.normal(size=(6, 3)) * 0.01
    lifted = rng.normal(size=(6, 3, 3))
    lifted = lifted + np.transpose(lifted, (0, 2, 1))

    # second implementation: accumulate einsum terms in a different order
    target = params.desired_state
    dev = states[1:] - target
    expected = float(np.einsum("bi,ij,bj->", dev, params.state_weight, dev))
    expected += float(np.einsum("bi,ij,bj->", inputs, params.product_weight, inputs))
    steps = np.diff(inputs, axis=0)
    expected += float(np.einsum("bi,ij,bj->", steps, params.product_delta_weight, steps))
    expected += params.trace_weight * float(np.einsum("bii->", lifted))

    assert evaluate_cost(hp, states, inputs, lifted) == pytest.approx(expected, rel=1e-12)


# -- re-pinning and symmetry -----------------------------------------------------

def test_update_initial_state_repins_b(twocraft_formation):
    desired = np.array([50.0])
    params = simple_params(2, 4, desired)
    model = model_for(twocraft_formation, desired)
    hp = HorizonProblem(model, params)
    prob = to_conic(hp)
    assert np.array_equal(prob.b[:2], params.desired_state)  # the template pins the target
    new_state = np.array([51.5, -0.2])
    template_b = prob.b.copy()
    b = update_initial_state(prob, hp, new_state)
    assert np.array_equal(b[:2], new_state)
    assert np.array_equal(b[2:], prob.b[2:])
    assert np.array_equal(prob.b, template_b)
    with pytest.raises(ValueError, match="measured state has the wrong dimension"):
        update_initial_state(prob, hp, np.array([51.5, -0.2, 0.0]))


def test_equilibrium_solution_is_zero(twocraft_formation):
    desired = np.array([50.0])
    params = simple_params(2, 3, desired, trace_weight=1.0, product_delta_weight=10.0)
    model = model_for(twocraft_formation, desired)
    hp = HorizonProblem(model, params)
    result = ConicSolver(to_conic(hp), SolverSettings(eps_abs=1e-9, eps_rel=1e-9)).solve()
    assert result.status == "optimal"
    assert result.objective == pytest.approx(0.0, abs=1e-6)
    _, inputs, _ = hp.unpack(result.z)
    assert np.abs(inputs).max() <= 1e-6


def test_label_permutation_preserves_optimum():
    # swap craft 2 and 3 of a three-craft problem (craft 1 fixed): relabelled
    # problem must reach the same optimal value
    desired = np.array([40.0, 90.0])
    masses = np.array([50.0, 60.0, 80.0])
    from coulombmpc import FormationConfig

    def build(desired_positions, mass_vector, weight_diag, start_offsets):
        formation = FormationConfig(num_spacecraft=3, masses=mass_vector)
        params = simple_params(3, 3, desired_positions,
                               state_weight=np.array(weight_diag),
                               trace_weight=0.5, product_delta_weight=100.0)
        model = build_discrete_model(desired_positions, 0.5, formation)
        _, prob = pinned_problem(
            model, params,
            np.concatenate([desired_positions, [0.0, 0.0]]) + np.asarray(start_offsets))
        return ConicSolver(prob, SolverSettings(eps_abs=1e-9, eps_rel=1e-9)).solve()

    base = build(desired, masses, [1.0, 2.0, 30.0, 40.0], [0.4, -0.3, 0.01, -0.02])
    # craft labels (1,2,3) -> (1,3,2): relative coordinates swap, so do the
    # per-coordinate weights and the start offsets
    swapped = build(desired[::-1], masses[[0, 2, 1]], [2.0, 1.0, 40.0, 30.0],
                    [-0.3, 0.4, -0.02, 0.01])
    assert base.status == "optimal" and swapped.status == "optimal"
    assert swapped.objective == pytest.approx(base.objective, rel=1e-5, abs=1e-5)


def test_mpc_params_validation():
    desired = np.array([50.0])
    with pytest.raises(ValueError):
        simple_params(2, 0, desired)
    with pytest.raises(ValueError):
        MpcParams(
            horizon=2, desired_positions=desired,
            state_weight=np.array([[1.0, 2.0], [-2.0, 1.0]]),  # not symmetric
            product_weight=0.0, product_delta_weight=0.0,
            state_min=np.array([0.0, -1.0]), state_max=np.array([100.0, 1.0]),
        )
    with pytest.raises(ValueError):
        MpcParams(
            horizon=2, desired_positions=desired,
            state_weight=np.array([-1.0, 1.0]),  # indefinite diagonal
            product_weight=0.0, product_delta_weight=0.0,
            state_min=np.array([0.0, -1.0]), state_max=np.array([100.0, 1.0]),
        )
    with pytest.raises(ValueError):
        simple_params(2, 2, desired, trace_weight=-0.1)
    with pytest.raises(ValueError):
        MpcParams(
            horizon=2, desired_positions=desired,
            state_weight=1.0, product_weight=0.0, product_delta_weight=0.0,
            state_min=np.array([10.0, -5.0]), state_max=np.array([5.0, 5.0]),  # inverted
        )


@pytest.mark.parametrize("desired", [[], np.zeros(0)])
def test_mpc_params_of_one_craft_rejected(desired):
    # no desired relative position is one craft, which has no pair to actuate
    with pytest.raises(ValueError, match="num_spacecraft must be at least 2"):
        MpcParams(desired_positions=desired, state_min=-1.0, state_max=1.0)


@pytest.mark.parametrize("value,rule", [
    (np.nan, "finite"), (np.inf, "finite"), (True, "a number, not true or false"),
])
def test_mpc_params_rejects_nonfinite_trace_weight(value, rule):
    # a NaN weight passed the sign check and failed later, inside the
    # solver, with an error that named no field; a bool read as 1.0
    with pytest.raises(ValueError, match=f"trace_weight must be {rule}"):
        simple_params(2, 2, np.array([50.0]), trace_weight=value)


@pytest.mark.parametrize("kwargs,message", [
    ({"horizon": 1.5}, "horizon must be at least 1"),
    ({"horizon": True}, "horizon must be at least 1"),
    ({"state_weight": np.nan}, "state_weight must be finite"),
    ({"product_weight": [np.inf]}, "product_weight must be finite"),
    ({"product_delta_weight": [[np.nan]]}, "product_delta_weight must be finite"),
])
def test_mpc_params_rejects_non_count_horizon_and_nonfinite_weights(kwargs, message):
    # a fractional or boolean horizon would fail later inside to_conic, and a
    # NaN weight would be reported as not symmetric
    with pytest.raises(ValueError, match=message):
        simple_params(2, kwargs.pop("horizon", 2), np.array([50.0]), **kwargs)


def test_weight_matrix_takes_the_bound_rule():
    # one value or one per entry goes on the diagonal, byte for byte as the
    # scaled identity and np.diag; a one-element list broadcasts like a bound
    rng = np.random.default_rng(21)
    for _ in range(300):
        size = int(rng.integers(1, 8))
        s, v = float(rng.choice([0.0, rng.uniform(0.0, 1e4)])), rng.uniform(0.0, 1e4, size)
        assert _weight_matrix(s, size, "w").tobytes() == (s * np.eye(size)).tobytes()
        assert _weight_matrix(v, size, "w").tobytes() == np.diag(v).tobytes()
        assert _weight_matrix(v.tolist(), size, "w").tobytes() == np.diag(v).tobytes()
    assert np.array_equal(_weight_matrix([2.5], 3, "w"), 2.5 * np.eye(3))
    with pytest.raises(ValueError, match="w must have length 3"):
        _weight_matrix([1.0, 2.0], 3, "w")
    with pytest.raises(ValueError, match="w must be 3x3"):
        _weight_matrix(np.eye(2), 3, "w")


@pytest.mark.parametrize("scalars", [False, True], ids=["vectors", "scalars"])
def test_mpc_params_keep_their_own_read_only_arrays(scalars):
    # the params kept the caller's desired and bound buffers, so writing into
    # them changed a frozen params object after a controller was built from it
    d = np.array([50.0])
    lo, hi = (np.array(-1e3), np.array(1e3)) if scalars else (np.array([0.0, -1.0]),
                                                                np.array([100.0, 1.0]))
    params = MpcParams(desired_positions=d, state_min=lo, state_max=hi,
                       state_weight=1.0 if scalars else [1.0, 20.0],
                       product_weight=[0.5], product_delta_weight=np.eye(1))
    before = [params.desired_positions.copy(), params.state_min.copy(), params.state_max.copy()]
    d[...], lo[...], hi[...] = 60.0, 10.0, 90.0
    after = [params.desired_positions, params.state_min, params.state_max]
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    for name in ("desired_positions", "state_min", "state_max", "state_weight",
                 "product_weight", "product_delta_weight"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(params, name)[0] = 1.0


def fourcraft_bounds(**bounds):
    """Four-craft parameters (6 states, 6 products) with the given bounds."""
    desired = np.array([50.0, 100.0, 150.0])
    kwargs = dict(state_min=-1e3, state_max=1e3)
    kwargs.update(bounds)
    return MpcParams(horizon=2, desired_positions=desired, state_weight=1.0,
                     product_weight=0.0, product_delta_weight=0.0, **kwargs)


@pytest.mark.parametrize("field,value", [
    ("state_min", -np.inf),
    ("state_max", np.inf),
    ("state_min", [-1.0, np.nan, -1.0, -1.0, -1.0, -1.0]),
])
def test_mpc_params_rejects_nonfinite_bounds(field, value):
    # an infinite or NaN bound would put a non-finite entry in b, which every
    # solve then rejects: it is refused at construction instead
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        fourcraft_bounds(**{field: value})


def test_state_bounds_broadcast_scalars():
    params = fourcraft_bounds()
    assert np.array_equal(params.state_max, np.full(6, 1e3))
    # a one-element list broadcasts too, as a scenario file's `state_min = [-1e3]`
    params = fourcraft_bounds(state_min=[-1e3])
    assert np.array_equal(params.state_min, np.full(6, -1e3))


@pytest.mark.parametrize("field,value", [
    ("state_min", -np.ones(5)),
    ("state_max", np.ones(7)),
    ("state_min", -np.ones((2, 3))),
    ("state_max", np.ones((6, 1))),
])
def test_state_bounds_wrong_shape_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must have length 6"):
        fourcraft_bounds(**{field: value})
