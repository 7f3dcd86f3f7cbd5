#!/usr/bin/env python3
"""Fast self-test of the benchmark, and the seed-commit baseline check.

    python3 perfbench/selftest.py             # ~30 s: tiny runs of every workload
    python3 perfbench/selftest.py --baseline  # a few minutes: iteration totals vs baseline.json

The self-test checks that every metric named in BENCHMARK.json prints with
its unit in both modes, that traced and untraced runs take the same control
decisions, that times at reference speed scale as they should, that the
gate fails on a tampered CSV row, that the benchmark's loop matches
`run_closed_loop`, that the generator is seeded and keeps the shipped
infinity-norm, and that the benchmark refuses to run without the package
source.  Exit code 0 means every check passed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys

import benchenv

benchenv.pin_blas()
benchenv.import_package()

import numpy as np  # noqa: E402

import closedloop  # noqa: E402
import workloads  # noqa: E402
from coulombmpc import simulate  # noqa: E402

HERE = benchenv.ROOT / "perfbench"
SPEC = json.loads((benchenv.ROOT / "BENCHMARK.json").read_text())
BASELINE = json.loads((HERE / "baseline.json").read_text())

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def run(*args: str, cwd=benchenv.ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def details(workload: str, seed: int, trace: int) -> dict:
    path = benchenv.OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())["details"]


def check_tiny_runs() -> None:
    expected = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    check(sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS),
          "BENCHMARK.json lists exactly the benchmark's workloads")
    for name in workloads.WORKLOADS:
        iterations = {}
        for trace in (0, 1):
            proc = run("--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--episodes", "2", "--steps", "4")
            label = f"{name} --trace {trace}"
            check(proc.returncode == 0, f"{label} exits 0")
            if proc.returncode != 0:
                print(proc.stderr)
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} last line has exactly the result keys")
            check(result["correct"] and result["attempted"] == 8 and result["failed"] == 0,
                  f"{label} is correct with 8 attempted steps and none failed")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            check(got == expected[trace], f"{label} reports every listed metric with its unit")
            check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
                  f"{label} metric values are numbers")
            printed = "\n".join(lines[:-1])
            check(all(f"{k} " in printed and f" {u}" in printed for k, u in expected[trace].items()),
                  f"{label} prints every metric by name and unit")
            iterations[trace] = details(name, 3, trace)["iterations_per_episode"]
        check(iterations.get(0) == iterations.get(1),
              f"{name}: traced and untraced runs take the same iterations")


def check_gate_and_loop() -> None:
    wl = workloads.WORKLOADS["twocraft-tight"]
    scenario = workloads.scenarios(wl, seed=0, count=1)[0]
    episode = closedloop.run_episode(scenario, 6)
    path = benchenv.OUT / "selftest.csv"
    check(not closedloop.gate(episode, scenario, path).problems, "gate passes an untouched run")

    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    col = header.index("u_1")
    row[col] = repr(float(row[col]) * (1 + 1e-12) + 1e-15)
    path.write_text("\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n")
    problems, _ = closedloop.verify(simulate.read_csv(path), episode.records, scenario.params)
    check(any("max_product_error" in p for p in problems) and len(problems) >= 2,
          "gate fails on a tampered CSV row")
    path.unlink()

    reference = simulate.run_closed_loop(dataclasses.replace(scenario, steps=6))
    check(closedloop.same_decisions(reference.records, episode.records),
          "the benchmark's loop takes the decisions of run_closed_loop")


def check_generator() -> None:
    for wl in workloads.WORKLOADS.values():
        base = workloads.load(wl)
        half = base.formation.num_spacecraft - 1
        desired = base.params.desired_positions
        norm = np.abs(base.initial_state - np.concatenate([desired, np.zeros(half)])).max()
        a = workloads.initial_states(base, 5, wl.episodes)
        check(np.array_equal(a, workloads.initial_states(base, 5, wl.episodes)),
              f"{wl.name}: same seed, same initial states")
        others = [workloads.initial_states(base, seed, wl.episodes) for seed in range(6, 10)]
        check(any(not np.array_equal(a, b) for b in others),
              f"{wl.name}: other seeds, other episode order")
        check(all(np.isclose(np.abs(x[:half] - desired).max(), norm) and not x[half:].any()
                  for x in a), f"{wl.name}: episodes start at rest with the shipped inf-norm")
        signs = {tuple(np.sign(x[:half] - desired)) for x in a}
        check(len(a) == len(signs) == wl.episodes, f"{wl.name}: one episode per sign pattern")
        check(all(signs == {tuple(np.sign(x[:half] - desired)) for x in b} for b in others),
              f"{wl.name}: every seed runs the same set of sign patterns")
        check(np.array_equal(workloads.initial_states(base, 0, wl.episodes)[0],
                             base.initial_state),
              f"{wl.name}: seed 0 starts from the shipped initial state")


def check_reference_speed() -> None:
    """Times at reference speed are wall times scaled by REFERENCE_S / kernel time."""
    from reference import REFERENCE_S
    from run import end_to_end_times

    rng = np.random.default_rng(1)

    def rounds(kernel_s):
        def episode():
            step = list(rng.uniform(1e-3, 5e-3, 30))
            return closedloop.Episode(30, [], simulate.RUN_COMPLETED, 0.0, 0.0, step,
                                      [t + 1e-4 for t in step], [kernel_s] * 31)
        return [[episode(), episode()], [episode(), episode()]]

    setup = list(rng.uniform(1e-3, 2e-3, 10))
    at_ref = end_to_end_times(rounds(REFERENCE_S), setup, [REFERENCE_S] * 10)
    check(all(np.isclose(at_ref["reference_speed"][k], v)
              for k, v in at_ref["wall_clock"].items()),
          "at reference-kernel speed, the reported times are the wall-clock times")
    slow = end_to_end_times(rounds(2 * REFERENCE_S), setup, [2 * REFERENCE_S] * 10)
    check(all(np.isclose(slow["reference_speed"][k], v * (2.0 if k == "steps_per_s" else 0.5))
              for k, v in slow["wall_clock"].items()),
          "a host twice as slow as the reference halves the reported times")


def check_bare_directory() -> None:
    bare = benchenv.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", bare)
    proc = run("--workload", "twocraft-tight", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    check(proc.returncode != 0 and not last[0].startswith("{"),
          "without the package source the benchmark fails and prints no result")
    shutil.rmtree(bare)


def check_baseline() -> None:
    """Seed 0, one episode from the shipped state, at the baseline's run lengths."""
    for name, ref in BASELINE["seed_commit"]["workloads"].items():
        proc = run("--workload", name, "--seed", "0", "--seconds", "1", "--trace", "0",
                   "--episodes", "1", "--steps", str(ref["steps"]))
        check(proc.returncode == 0, f"baseline {name} exits 0")
        if proc.returncode != 0:
            print(proc.stderr)
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        its = np.array(details(name, 0, 0)["episode0_iterations"])
        check(result["correct"] and int(its.sum()) == ref["iterations_total"],
              f"baseline {name}: {ref['steps']} steps take {int(its.sum())} iterations "
              f"(baseline {ref['iterations_total']})")
        if "iterations_p50" in ref:
            got = [int(np.median(its)), int(np.percentile(its, 95, method="lower")), int(its.max())]
            want = [ref["iterations_p50"], ref["iterations_p95"], ref["iterations_max"]]
            check(got == want, f"baseline {name}: iterations p50/p95/max {got} (baseline {want})")
        wall = details(name, 0, 0)["wall_clock"]  # the baseline timings are wall-clock
        print(f"     {name} (wall clock): steps_per_s {wall['steps_per_s']:.1f} "
              f"(baseline {ref['steps_per_s']}), step_ms_p50 {wall['step_ms_p50']:.1f} "
              f"(baseline {ref['step_ms_p50']}), step_ms_p95 {wall['step_ms_p95']:.1f} "
              f"(baseline {ref['step_ms_p95']})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", action="store_true",
                        help="check the seed-commit baseline instead of the fast self-test")
    args = parser.parse_args()
    benchenv.OUT.mkdir(exist_ok=True)
    if args.baseline:
        check_baseline()
    else:
        check_generator()
        check_reference_speed()
        check_gate_and_loop()
        check_tiny_runs()
        check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
