"""latticeplan benchmark: run one workload, or all three one after another.

    python3 perfbench/run.py --workload search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # search, simulate and cli, seed 1

Run from the root of a checkout. For each workload the script generates the
inputs from the seed, times cold imports of the package in fresh
interpreters before and after the workload, and runs the workload in a child
process (`workload.py`) with `src` on the path and PYTHONHASHSEED pinned.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced run and the tracing overhead. Each workload's
last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. Exit code 0 means every run completed
and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from generate import generate  # noqa: E402

WORKLOADS = ("search", "simulate", "cli")
IMPORTS = {"search": "latticeplan", "simulate": "latticeplan",
           "cli": "latticeplan.cli"}
IMPORT_RUNS = 13  # before the workload child, and again after it
CHILD_LIMIT_S = 160
END_TO_END = {"setup_s": "s", "op_ms_p50": "ms", "work_per_s": "1/s",
              "import_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics every workload produces; the traced run prints the
# others too (cli.*, games.*, scenario.validate_ms,
# planner.simulate_loop_ms), but they read 0 on workloads that never call
# their layer, so the result line leaves them out.
PER_LAYER = (
    "scenario.parse_ms", "scenario.build_ms", "scenario.yaml_kb",
    "phase.validate_monoid_ms", "phase.validate_op_cl_ms",
    "phase.enumerate_facts_ms", "phase.enumerate_facts_calls",
    "phase.subsets_scanned", "phase.fact_yield",
    "lattice.verify_poset_ms", "lattice.verify_poset_calls",
    "grid.reward_calls", "grid.reward_hit_ratio",
    "grid.observed_cells_calls", "grid.observed_cells_hit_ratio",
    "grid.agent_moves_calls", "grid.reachable_ms",
    "planner.select_intentions_ms", "planner.priority_evals",
    "planner.assign_ms", "planner.choose_play_ms",
    "planner.paths_per_agent", "planner.joint_plays",
    "planner.maximal_plays", "planner.maximal_share",
    "planner.play_reward_calls", "planner.play_reward_ms",
    "trace.overhead_pct",
)
UNITS = {"_ms": "ms", "_kb": "KB", "_ratio": "ratio", "_share": "ratio",
         "_yield": "ratio", "_pct": "%"}
# what op_ms_p50 and work_per_s are called on each workload
OP_NAMES = {"search": ("cycle_ms_p50", "cycles_per_s"),
            "simulate": ("sim_ms_p50", "steps_per_s"),
            "cli": ("cli_ms_p50", "commands_per_s")}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def import_seconds(module: str, warm: bool = True) -> list:
    """Cold import times in fresh interpreters, as CPU time.

    With `warm`, one unmeasured import first writes the bytecode caches, as
    any install has them."""
    code = ("import time; t = time.process_time(); import " + module
            + "; print(repr(time.process_time() - t))")
    times = []
    for i in range(IMPORT_RUNS + warm):
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        if i or not warm:
            times.append(float(out.stdout.strip()))
    return times


def unit(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, u in UNITS.items():
        if name.endswith(suffix):
            return u
    return "count"


def run(workload: str, seed: int, seconds: float, trace: int,
        walkthrough: str, readme: str) -> int:
    """One workload run; prints its lines and returns the exit code."""
    work = os.path.join(HERE, "work", f"{workload}-{seed}"
                        f"-{os.getpid()}")
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{trace}"
    try:
        inputs = generate(workload, seed,
                          os.path.join(work, "inputs"))
        cases = [{"name": "walkthrough", "path": walkthrough,
                  "game_depth": 3}]
        cases += [{"name": slot.name, "path": path,
                   "game_depth": slot.game_depth} for slot, path in inputs]
        cases_file = os.path.join(work, "cases.json")
        with open(cases_file, "w", encoding="utf-8") as fh:
            json.dump({"cases": cases, "readme": readme}, fh)

        metrics = {}
        imports = import_seconds(IMPORTS[workload]) if not trace else []
        child_result = os.path.join(work, "result.json")
        cmd = [sys.executable, os.path.join(HERE, "workload.py"),
               "--cases", cases_file, "--workload", workload,
               "--seconds", str(seconds), "--trace", str(trace),
               "--seed", str(seed), "--result", child_result]
        if trace:
            cmd += ["--trace-file", os.path.join(results, f"{tag}.spans")]
        child = subprocess.run(cmd, env=child_env(), cwd=ROOT,
                               timeout=CHILD_LIMIT_S)
        if child.returncode != 0:
            print(f"run.py: workload child exited {child.returncode}",
                  file=sys.stderr)
            return 1
        with open(child_result, encoding="utf-8") as fh:
            result = json.load(fh)
        if not trace:
            imports += import_seconds(IMPORTS[workload], warm=False)
            metrics["import_s"] = statistics.median(imports)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics.update(result["metrics"])
    with open(os.path.join(results, f"{tag}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({**result, "metrics": metrics}, fh, indent=1)

    detail = result["detail"]
    if trace:
        print(f"# {workload} traced: {detail['plain_rounds']} plain and"
              f" {detail['traced_rounds']} traced rounds,"
              f" {detail['spans']} spans")
        for k in sorted(set(metrics) - set(PER_LAYER)):
            print(f"# {k} = {metrics[k]:.6g} {unit(k)}")
        names = PER_LAYER
    else:
        names = tuple(END_TO_END)
        op_name, rate_name = OP_NAMES[workload]
        stats = detail["all"]
        tails = ", ".join(f"{k}={v:.3f}" for k, v in stats.items()
                          if k not in ("n", "p50"))
        print(f"# {workload}: {detail['rounds']} rounds,"
              f" {stats['n']} samples; {op_name}={stats['p50']:.3f} ms"
              f"{', ' + tails + ' ms' if tails else ''};"
              f" {rate_name}={metrics['work_per_s']:.3f}")
        for kind, s in detail["kinds"].items():
            print(f"#   {kind}: n={s['n']} p50={s['p50']:.3f} ms")
    report = {k: {"value": metrics[k], "unit": unit(k)} for k in names}
    for k in names:
        print(f"{k} = {metrics[k]:.6g} {report[k]['unit']}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": report}))
    return 0 if result["correct"] else 1



def main() -> int:
    # a terminated run still stops and waits for its workload child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = os.path.join(ROOT, "src", "latticeplan", "__init__.py")
    walkthrough = os.path.join(ROOT, "scenarios", "walkthrough.yaml")
    readme = os.path.join(ROOT, "README.md")
    for need in (src, walkthrough, readme):
        if not os.path.isfile(need):
            print(f"run.py: {need} is missing; run from a latticeplan"
                  " checkout", file=sys.stderr)
            return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    return max(run(w, args.seed, args.seconds, args.trace, walkthrough,
                   readme) for w in workloads)

if __name__ == "__main__":
    sys.exit(main())
