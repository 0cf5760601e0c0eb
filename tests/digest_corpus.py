"""SHA-256 digests of the program's outputs on a fixed corpus of inputs.

    PYTHONPATH=src python3 tests/digest_corpus.py            # list changes
    PYTHONPATH=src python3 tests/digest_corpus.py --write    # rebuild table

The inputs are the walkthrough and the documents `perfbench/generate.py`
writes for seeds 1-3. The generator seeds its random draws with strings, so
the documents do not depend on the hash seed, and neither do the outputs.

- On the walkthrough and the `cli` documents: stdout, stderr and exit code
  of `validate`, `facts`, `weights`, `plan` and `simulate` in both eq1
  modes, and of `dot` for the system lattice, each desire lattice, each
  agent game at depth 2 and one unknown target.
- On the `search` and `simulate` documents: `plan_once` from the goals in
  sight at the start, in both modes, with the full alternates list where it
  holds at most `FULL_READ` plays; on the `simulate` documents also the
  library `simulate` trace in both modes.

`tests/test_digest_corpus.py` checks the committed table. A change that
alters an output on purpose rebuilds it with `--write` and says which
digests changed and why.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "digest_corpus.json"
WALKTHROUGH = ROOT / "scenarios" / "walkthrough.yaml"
SEEDS = (1, 2, 3)
FULL_READ = 5_000
MODES = ("per-goal", "positionwise")

sys.path.insert(0, str(ROOT / "perfbench"))
import generate  # noqa: E402  the benchmark's input generator

from latticeplan import cli, planner  # noqa: E402
from latticeplan.scenario import load_scenario  # noqa: E402


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_runs(path: str) -> list:
    """The argument lists of every command run on one document."""
    sc = load_scenario(path)
    runs = [["validate"], ["facts"], ["weights"]]
    runs += [[cmd, "--eq1-mode", mode] for cmd in ("plan", "simulate")
             for mode in MODES]
    targets = (["system-lattice"]
               + [f"desire-lattice:{a}" for a in sorted(sc.desire_lattices)]
               + [f"agent-game:{a.id}:2" for a in sc.env.agents]
               + ["no-such-target"])
    runs += [["dot", t] for t in targets]
    return [run[:1] + ["--scenario", path] + run[1:] for run in runs]


def _cli_digest(argv: list) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return _digest(f"{out.getvalue()}\0{err.getvalue()}\0{code}")


def _plan_text(plan) -> str:
    lines = [f"chosen={plan.chosen_goals}",
             f"priority={sorted(plan.priority_value.members)}"
             f" {plan.priority_name}",
             f"tie={plan.tie_break}",
             f"assign={sorted(plan.assignment.items())}",
             f"plays={sorted(plan.plays.items())}",
             f"alternates={len(plan.alternates)}",
             f"reward={sorted(plan.total_reward)}"]
    if len(plan.alternates) <= FULL_READ:
        lines += [repr(sorted(play.items())) for play in plan.alternates]
    return "\n".join(lines)


def _library_digests(name: str, path: str, runs_simulate: bool) -> dict:
    sc = load_scenario(path)
    cfg = sc.planner
    discovered = cli._initial_discovered(sc)
    out = {}
    for mode in MODES:
        plan = planner.plan_once(sc.env, sc.spec, sc.desire_lattices,
                                 discovered=discovered, depth=cfg.depth,
                                 subset_cap=cfg.subset_cap, eq1_mode=mode)
        out[f"{name} plan_once {mode}"] = _digest(_plan_text(plan))
        if runs_simulate:
            trace = planner.simulate(
                sc.env, sc.spec, sc.desire_lattices, depth=cfg.depth,
                max_steps=cfg.max_steps, subset_cap=cfg.subset_cap,
                patience=cfg.patience, eq1_mode=mode)
            out[f"{name} simulate {mode}"] = _digest(trace.to_text())
    return out


def _generate(workload: str, seed: int, work_dir: str) -> list:
    """(name, path) of each generated document, written with libyaml's
    dumper where there is one, which is several times faster than the
    generator's own pure-Python dump of the same documents."""
    dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
    out = []
    for slot in generate.WORKLOADS[workload]:
        path = f"{work_dir}/{workload}-{seed}-{slot.name}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.dump(generate.scenario(slot, seed), fh, Dumper=dumper,
                      sort_keys=False, default_flow_style=None, width=100)
        out.append((f"{workload}/{seed}/{slot.name}", path))
    return out


def corpus(work_dir: str) -> dict:
    """Key -> digest for every run, with generated inputs under work_dir."""
    table = {}
    inputs = [("walkthrough", str(WALKTHROUGH))]
    for seed in SEEDS:
        inputs += _generate("cli", seed, work_dir)
    for name, path in inputs:
        for argv in _cli_runs(path):
            key = " ".join([name] + [a for a in argv if a not in (
                "--scenario", path)])
            table[key] = _cli_digest(argv)
    for workload in ("search", "simulate"):
        for seed in SEEDS:
            for name, path in _generate(workload, seed, work_dir):
                table.update(_library_digests(name, path,
                                              workload == "simulate"))
    return table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help="rewrite the committed table")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work_dir:
        table = corpus(work_dir)
    if args.write:
        TABLE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
        print(f"wrote {len(table)} digests to {TABLE}")
        return 0
    old = json.loads(TABLE.read_text())
    changed = sorted(k for k in old.keys() | table.keys()
                     if old.get(k) != table.get(k))
    for key in changed:
        print(key)
    print(f"{len(changed)} of {len(table)} digests differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
