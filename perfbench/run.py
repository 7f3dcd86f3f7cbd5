#!/usr/bin/env python3
"""Closed-loop benchmark of the coulombmpc controller.

    python3 perfbench/run.py --workload fourcraft-warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

A run executes the workload's episodes in whole rounds, at least two, for
about `--seconds`: every round repeats the same episodes, and every repeat
must take the same control decisions as the first round.  Before each
episode the run moves to the fastest CPU (see `benchenv.pin_to_fastest_cpu`)
and sets the controller up a few extra times, for `setup_s`.  The first
round's episodes are gated (status, CSV round trip, replay).  With
`--trace 0` it reports the end-to-end metrics over every round, with each
time taken at reference speed (see reference.py), which keeps the slow
spells of a shared machine out of them; the plain wall-clock figures are
printed too.
With `--trace 1` every second round runs under the span tracer; the
per-layer metrics come from the traced rounds and the tracing overhead from
comparing them with the untraced ones.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from contextlib import nullcontext
from time import perf_counter

import benchenv

benchenv.pin_blas()

END_TO_END = {
    "setup_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "success_share": "ratio",
    "tracking_cost": "cost",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "config.load_scenario_ms": "ms",
    "horizon.to_conic_ms": "ms",
    "horizon.update_initial_state_us_p50": "us",
    "horizon.unpack_us_p50": "us",
    "solver.solve_ms_p50": "ms",
    "solver.solve_share": "ratio",
    "solver.iters_total": "count",
    "solver.iters_p50": "count",
    "solver.iters_p95": "count",
    "solver.us_per_iter": "us",
    "solver.factorizations": "count",
    "solver.factor_ms_total": "ms",
    "solver.optimal_share": "ratio",
    "controller.self_us_p50": "us",
    "controller.warm_accepted_share": "ratio",
    "controller.step0_ms": "ms",
    "recovery.us_p50": "us",
    "recovery.rank_ratio_p50": "ratio",
    "recovery.rank_ratio_min": "ratio",
    "recovery.saturated_share": "ratio",
    "dynamics.rk4_step_calls": "count",
    "dynamics.rk4_step_us_p50": "us",
    "simulate.propagate_ms_p50": "ms",
    "simulate.propagate_share": "ratio",
    "simulate.write_csv_ms": "ms",
    "simulate.read_csv_ms": "ms",
    "trace.coverage_share": "ratio",
    "trace.overhead_pct": "%",
}

SETUP_REPEATS = 5  # timed set-ups before each episode, for a steady setup_s median


def measure(workload: str, seed: int, seconds: float, traced: bool,
            episodes: int | None = None, steps: int | None = None) -> tuple[dict, dict]:
    """Run one workload; return the result object and the run's details."""
    import closedloop
    import reference
    import tracing
    import workloads
    from coulombmpc import config

    wl = workloads.WORKLOADS[workload]
    steps = steps or wl.steps
    scenarios = workloads.scenarios(wl, seed, episodes)
    tracer = tracing.Tracer() if traced else None
    env = benchenv.environment()  # before pinning narrows the affinity

    def traced_round(r: int) -> bool:
        return traced and r % 2 == 1

    cpus = os.sched_getaffinity(0)
    ref = None if traced else reference.Reference()
    load_s, setup_s, setup_kernel_s = [], [], []

    def time_setups():
        before = ref.time() if ref is not None else 0.0
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            scenario = config.load_scenario(benchenv.ROOT / wl.config,
                                            {"warm_start": wl.warm_start})
            t1 = perf_counter()
            closedloop.build_controller(scenario)
            setup_s.append(perf_counter() - t1)
            load_s.append(t1 - t0)
            if ref is not None:  # the kernel times that bracket this set-up
                after = ref.time()
                setup_kernel_s.append((before + after) / 2)
                before = after

    # a first, untimed set-up lets lazy imports and allocator pools settle
    closedloop.build_controller(scenarios[0])
    rounds = []
    start = perf_counter()
    while True:
        r = len(rounds)
        round_start = perf_counter()
        with tracer.installed() if traced_round(r) else nullcontext():
            episodes_run = []
            for i, scenario in enumerate(scenarios):
                benchenv.pin_to_fastest_cpu(cpus)
                time_setups()
                if traced_round(r):
                    tracer.episode = r * len(scenarios) + i
                episodes_run.append(closedloop.run_episode(
                    scenario, steps, tracer if traced_round(r) else None, ref))
            rounds.append(episodes_run)
        # whole rounds only, at least two so that every run repeats, and no
        # round that would end past the run's time
        now = perf_counter()
        if len(rounds) >= 2 and now - start + (now - round_start) > seconds:
            break
    first = rounds[0]

    benchenv.OUT.mkdir(exist_ok=True)
    csv_path = benchenv.OUT / f"{workload}-{os.getpid()}.csv"
    gates = [closedloop.gate(ep, sc, csv_path) for ep, sc in zip(first, scenarios)]
    csv_path.unlink(missing_ok=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    failed = 0
    for i, (ep, g) in enumerate(zip(first, gates)):
        problems += [f"episode {i}: {p}" for p in g.problems]
        repeats_agree = all(closedloop.same_decisions(ep.records, later[i].records)
                            for later in rounds[1:])
        if not repeats_agree:
            problems.append(f"episode {i}: a repeat took different control decisions")
        failed += closedloop.failed_steps(ep, not g.problems and repeats_agree)
    attempted = sum(ep.planned for ep in first)

    if traced:
        traced_ids = {r * len(scenarios) + i for r in range(len(rounds)) if traced_round(r)
                      for i in range(len(scenarios))}
        metrics = per_layer(tracer, traced_ids, rounds, traced_round, gates, load_s)
    else:
        timing = end_to_end_times(rounds, setup_s, setup_kernel_s)
        metrics = {
            **timing["reference_speed"],
            "success_share": 1.0 - failed / attempted,
            "tracking_cost": float(sum(g.tracking_cost for g in gates)),
            "peak_rss_mb": peak_rss_mb,
        }
    units = PER_LAYER if traced else END_TO_END
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(traced),
        "rounds": len(rounds),
        "episodes": len(scenarios),
        "steps_per_episode": steps,
        "initial_states": [sc.initial_state.tolist() for sc in scenarios],
        "iterations_per_episode": [sum(ep.iterations) for ep in first],
        "episode0_iterations": first[0].iterations,
        "round_loop_s": [sum(ep.loop_s for ep in eps) for eps in rounds],
        "round_reference_s": [[ep.reference_s for ep in eps] for eps in rounds],
        "round_step_s": [[ep.step_s for ep in eps] for eps in rounds],
        "round_cycle_s": [[ep.cycle_s for ep in eps] for eps in rounds],
        "problems": problems,
        "environment": env,
    }
    if not traced:
        details["wall_clock"] = timing["wall_clock"]
        details["reference_kernel_ms_p50"] = timing["reference_kernel_ms_p50"]
    if traced:
        trace_path = benchenv.OUT / f"trace-{workload}-seed{seed}.jsonl"
        tracer.dump(trace_path)
        details["trace_file"] = str(trace_path.relative_to(benchenv.ROOT))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, details


def end_to_end_times(rounds, setup_s, setup_kernel_s) -> dict:
    """The time metrics, at reference speed and as plain wall-clock times.

    Every sample of every round is pooled.  A step's time at reference
    speed is its wall time times REFERENCE_S over the mean of the reference
    kernel times just before and just after it (see reference.py); a
    set-up's uses the kernel times that bracket it.  The percentiles are
    Harrell-Davis estimates: they weigh the order statistics around each
    quantile, so a tail with few distinct steps does not jump across the
    gaps between them.
    """
    import numpy as np
    # imported only now: scipy.stats would add ~40 MB to peak RSS
    from scipy.stats.mstats import hdquantiles

    from reference import REFERENCE_S

    episodes = [ep for eps in rounds for ep in eps]
    # only whole cycles: a collision abort leaves a step without one (and fails the gate)
    step = np.concatenate([ep.step_s[:len(ep.cycle_s)] for ep in episodes])
    cycle = np.concatenate([ep.cycle_s for ep in episodes])
    kernel = np.concatenate([
        (np.asarray(ep.reference_s[:-1]) + ep.reference_s[1:])[:len(ep.cycle_s)] / 2
        for ep in episodes])
    scale, setup_scale = REFERENCE_S / kernel, REFERENCE_S / np.asarray(setup_kernel_s)

    def table(step, cycle, setup):
        p50, p95 = hdquantiles(step, prob=(0.5, 0.95))
        return {
            "setup_s": float(np.median(setup)),
            "steps_per_s": cycle.size / float(cycle.sum()),
            "step_ms_p50": 1e3 * float(p50),
            "step_ms_p95": 1e3 * float(p95),
        }

    return {
        "reference_speed": table(step * scale, cycle * scale, np.asarray(setup_s) * setup_scale),
        "wall_clock": table(step, cycle, np.asarray(setup_s)),
        "reference_kernel_ms_p50": 1e3 * float(np.median(kernel)),
    }


def per_layer(tracer, traced_ids, rounds, traced_round, gates, load_s) -> dict:
    """Per-layer metrics of the traced rounds, pooled; counts are per round."""
    import numpy as np

    from coulombmpc.solver import OPTIMAL
    from tracing import NOTE, STEP, durations

    traced_rounds = [eps for r, eps in enumerate(rounds) if traced_round(r)]
    plain_rounds = [eps for r, eps in enumerate(rounds) if not traced_round(r)]
    n = len(traced_rounds)
    loop_s = sum(ep.loop_s for eps in traced_rounds for ep in eps)
    records = [rec for ep in rounds[0] for rec in ep.records]  # every round took these
    iters = np.array([rec.iterations for rec in records])

    def spans(name):
        return tracer.select(name, traced_ids)

    def p50(name, scale):
        return scale * float(np.median(durations(spans(name))))

    def mean_round_s(group):
        return sum(ep.loop_s for eps in group for ep in eps) / len(group)

    solve = durations(spans("solver.solve"))
    step_spans = spans("controller.step")
    propagate = durations(spans("simulate.propagate"))
    ranks = np.array([rec.rank_ratio for rec in records if rec.solver_status == OPTIMAL])
    accepted = sum(1 for s in spans("controller.warm_start_payload") if s[NOTE]) / n
    splu = durations(spans("solver.splu"))
    return {
        "config.load_scenario_ms": 1e3 * float(np.median(load_s)),
        "horizon.to_conic_ms": 1e3 * float(np.median(durations(tracer.select("horizon.to_conic")))),
        "horizon.update_initial_state_us_p50": p50("horizon.update_initial_state", 1e6),
        "horizon.unpack_us_p50": p50("horizon.unpack", 1e6),
        "solver.solve_ms_p50": 1e3 * float(np.median(solve)),
        "solver.solve_share": float(solve.sum()) / loop_s,
        "solver.iters_total": int(iters.sum()),
        "solver.iters_p50": float(np.percentile(iters, 50)),
        "solver.iters_p95": float(np.percentile(iters, 95)),
        "solver.us_per_iter": 1e6 * float(solve.sum()) / (n * max(int(iters.sum()), 1)),
        "solver.factorizations": splu.size / n,
        "solver.factor_ms_total": 1e3 * float(splu.sum()) / n,
        "solver.optimal_share": ranks.size / len(records),
        "controller.self_us_p50": 1e6 * float(np.median(tracer.self_times("controller.step", traced_ids))),
        "controller.warm_accepted_share": accepted / len(records),
        "controller.step0_ms": 1e3 * float(np.median(durations([s for s in step_spans if s[STEP] == 0]))),
        "recovery.us_p50": p50("recovery.recover", 1e6),
        # no optimal step, no rank ratio: 0 keeps the result valid JSON
        "recovery.rank_ratio_p50": float(np.median(ranks)) if ranks.size else 0.0,
        "recovery.rank_ratio_min": float(ranks.min()) if ranks.size else 0.0,
        "recovery.saturated_share": sum(rec.saturated for rec in records) / len(records),
        "dynamics.rk4_step_calls": len(spans("dynamics.rk4_step")) / n,
        "dynamics.rk4_step_us_p50": p50("dynamics.rk4_step", 1e6),
        "simulate.propagate_ms_p50": 1e3 * float(np.median(propagate)),
        "simulate.propagate_share": float(propagate.sum()) / loop_s,
        "simulate.write_csv_ms": 1e3 * float(np.median([g.write_s for g in gates])),
        "simulate.read_csv_ms": 1e3 * float(np.median([g.read_s for g in gates])),
        "trace.coverage_share": float(durations(step_spans).sum() + propagate.sum()) / loop_s,
        "trace.overhead_pct": 100.0 * (mean_round_s(traced_rounds) / mean_round_s(plain_rounds) - 1.0),
    }


def print_result(result: dict, details: dict, prefix: str = "") -> None:
    print(f"{prefix}environment: {json.dumps(details['environment'])}")
    print(f"{prefix}{details['rounds']} rounds x {details['episodes']} episodes x "
          f"{details['steps_per_episode']} steps, iterations per episode "
          f"{details['iterations_per_episode']}")
    for problem in details["problems"]:
        print(f"{prefix}FAILED CHECK: {problem}")
    for name, m in result["metrics"].items():
        print(f"{prefix}{name:40s} {m['value']:14.6g} {m['unit']}")
    for name, value in details.get("wall_clock", {}).items():
        print(f"{prefix}{'(wall clock) ' + name:40s} {value:14.6g} {END_TO_END[name]}")


def run_all(args) -> int:
    """Every workload, each in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workload_names():
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.episodes:
            cmd += ["--episodes", str(args.episodes)]
        if args.steps:
            cmd += ["--steps", str(args.steps)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def workload_names() -> list[str]:
    import workloads

    return list(workloads.WORKLOADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="fourcraft-warm, fourcraft-cold, twocraft-tight or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--episodes", type=int, help="run only the first N episodes")
    parser.add_argument("--steps", type=int, help="override the steps per episode")
    args = parser.parse_args(argv)

    try:
        benchenv.import_package()
    except benchenv.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workload_names():
        parser.error(f"unknown workload {args.workload!r}; choose from {workload_names()}")

    result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.episodes, args.steps)
    benchenv.OUT.mkdir(exist_ok=True)
    out = benchenv.OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"result": result, "details": details}, indent=1))
    print_result(result, details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
