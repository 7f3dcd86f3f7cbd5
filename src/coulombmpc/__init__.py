"""Receding-horizon control of collinear Coulomb spacecraft formations.

The per-sample optimal control problem is nonconvex because accelerations
depend on products of the commanded charges; it is lifted to a semidefinite
relaxation, solved with a first-order operator-splitting conic solver, and
the applied charges are recovered by rank-one rounding of the first lifted
matrix.
"""

from .conic import ConeDims, ConicProblem, vec_dim
from .controller import (
    INVALID_MEASUREMENT,
    MpcController,
    StepRecord,
    warm_start_payload,
)
from .dynamics import (
    COULOMB_CONSTANT,
    DiscreteModel,
    FormationConfig,
    RelativeState,
    SingularityError,
    absolute_input_matrix,
    build_discrete_model,
    charge_products,
    relative_input_matrix,
    rk4_step,
    spacecraft_pairs,
)
from .horizon import (
    HorizonProblem,
    MpcParams,
    to_conic,
    update_initial_state,
)
from .recovery import recover, saturate
from .simulate import (
    RUN_ABORTED_COLLISION,
    RUN_COMPLETED,
    RunLog,
    ScenarioConfig,
    box_edge_starts,
    brute_force_qcqp,
    propagate,
    read_csv,
    replay_cost,
    run_closed_loop,
    write_csv,
)
from .solver import (
    INFEASIBLE_SUSPECT,
    MAX_ITERS,
    OPTIMAL,
    ConicSolver,
    SolveResult,
    SolverSettings,
)

__version__ = "0.1.0"
