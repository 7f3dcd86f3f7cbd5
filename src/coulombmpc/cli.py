"""Command-line front end.

Subcommands:
  run          closed-loop simulation from a scenario file, CSV telemetry out
  replay-cost  recompute tracking cost and product consistency from a CSV
  oracle       compare the relaxation against the brute-force charge grid

Exit codes: 0 success, 1 configuration error, 2 runtime abort.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import _KNOWN_KEYS, ConfigError, load_scenario
from .dynamics import build_discrete_model
from .horizon import build_horizon_problem, to_conic
from .simulate import (
    RUN_COMPLETED,
    brute_force_qcqp,
    read_csv,
    replay_cost,
    run_closed_loop,
    write_csv,
)
from .solver import OPTIMAL, ConicSolver

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", required=True, help="scenario file path")
    parser.add_argument("--horizon", type=int, default=None, help="override horizon")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coulombmpc",
        description="Receding-horizon electrostatic formation control simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a closed-loop simulation")
    _add_common(p_run)
    p_run.add_argument("--steps", type=int, default=None, help="override step count")
    p_run.add_argument(
        "--no-warm-start",
        action="store_const",
        const=False,
        dest="warm_start",
        help="cold-start the solver at every sample",
    )
    p_run.add_argument("--output", default=None, help="CSV output path")
    p_run.set_defaults(func=_cmd_run)

    p_replay = sub.add_parser("replay-cost", help="recompute costs from telemetry")
    p_replay.add_argument("csv", help="telemetry CSV produced by 'run'")
    p_replay.add_argument("--config", required=True, help="scenario file path")
    p_replay.set_defaults(func=_cmd_replay)

    p_oracle = sub.add_parser("oracle", help="brute-force relaxation check")
    _add_common(p_oracle)
    p_oracle.add_argument(
        "--grid-points", type=int, default=41, help="charge levels per spacecraft"
    )
    p_oracle.set_defaults(func=_cmd_oracle)
    return parser


def _overrides(args) -> dict:
    """The scenario keys given on the command line: each flag's dest is its key."""
    return {key: value for key, value in vars(args).items() if key in _KNOWN_KEYS}


def _cmd_run(args) -> int:
    scenario = load_scenario(args.config, _overrides(args))
    log = run_closed_loop(scenario)
    if scenario.output_path:
        write_csv(log, scenario.output_path)
        print(f"wrote {len(log.records)} steps to {scenario.output_path}")
    summary = log.summary
    print(f"status:           {log.status}")
    print(f"steps:            {len(log.records)}")
    print(f"final deviation:  {summary['final_deviation']:.6g} m")
    print(f"max |charge|:     {summary['max_abs_charge']:.6g} (10 mC)")
    print(f"solver faults:    {summary['fault_count']}")
    print(f"saturated steps:  {summary['saturation_count']}")
    print(f"total solve time: {summary['total_solve_time']:.3f} s")
    return EXIT_OK if log.status == RUN_COMPLETED else EXIT_RUNTIME


def _cmd_replay(args) -> int:
    scenario = load_scenario(args.config)
    records = read_csv(args.csv)
    stats = replay_cost(records, scenario.params)
    print(f"steps:             {stats['steps']}")
    print(f"tracking cost:     {stats['tracking_cost']:.6g}")
    print(f"max product error: {stats['max_product_error']:.3g}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    scenario = load_scenario(args.config, _overrides(args))
    params = scenario.params
    model = build_discrete_model(
        params.desired_positions, scenario.sample_period, scenario.formation
    )
    limit = scenario.saturation_limit
    try:
        grid = np.linspace(-limit, limit, args.grid_points)
        best_charges, best_cost = brute_force_qcqp(
            scenario.initial_state, model, params, grid
        )
    except ValueError as exc:  # a grid or problem outside the search's limits
        raise ConfigError(str(exc)) from exc
    hp = build_horizon_problem(scenario.initial_state, model, params)
    result = ConicSolver(to_conic(hp), scenario.solver).solve()
    if result.status != OPTIMAL:
        print(f"solver did not converge: {result.status}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"grid optimum cost:       {best_cost:.9g}")
    print(f"grid optimum charges:    {best_charges.ravel()}")
    print(f"relaxation optimum cost: {result.objective:.9g}")
    gap = best_cost - result.objective
    print(f"relaxation gap (grid - sdr): {gap:.3g}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
