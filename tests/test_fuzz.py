"""Seeded structural fuzzing of the CLI on mutated walkthrough documents.

Every mutated document goes through six commands. Each run must end with
exit code 0, 1, 2 or 3 and no traceback; exit 2 reports a parse error and
exit 3 an exceeded limit. The documents run in batches in a few child
processes, each under CPU-time and address-space limits that it sets on
itself, so a runaway search or allocation fails the test instead of the
test run. Paired deletions, which drop agents or goals from every section
that names them, down to none, must keep the document valid.
"""

import copy
import json
import random
import subprocess
import sys
from itertools import combinations, product

import yaml

from test_cli import BUNDLED, child_env

DOCUMENTS = 400
CHILDREN = 3
CPU_SECONDS = 60
ADDRESS_SPACE = 512 * 1024 * 1024

COMMANDS = [
    ["validate"],
    ["facts"],
    ["weights"],
    ["plan", "--depth", "1"],
    ["simulate", "--depth", "1", "--max-steps", "3"],
    ["dot", "system-lattice"],
]

DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)  # libyaml if present
with open(BUNDLED, encoding="utf-8") as fh:
    WALKTHROUGH = yaml.safe_load(fh)

EXTREME_INTS = [10**9, -10**9, 2**63, -2**63]
RETYPED = [None, True, "x", "", 1.5, 0, -1, [], {}, ["e"], {"k": 1}]
NEST = "__nest__"

# Reads a JSON list of scenario paths on stdin and prints one JSON line per
# (path, command): the exit code and stderr. An exception escaping the CLI
# is reported with its traceback as the run's stderr.
CHILD = f"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_CPU, ({CPU_SECONDS}, {CPU_SECONDS}))
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
from latticeplan.cli import main
for path in json.load(sys.stdin):
    for command in {COMMANDS!r}:
        argv = [command[0], "--scenario", path] + command[1:]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \\
                contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code, err = "raised", io.StringIO(traceback.format_exc())
        print(json.dumps({{"argv": argv, "code": code,
                          "stderr": err.getvalue()}}), flush=True)
"""


def positions(node):
    """Every (container, key) in the document tree, parents first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for key, value in list(items):
        out.append((node, key))
        out.extend(positions(value))
    return out


def resize(rng, value):
    if isinstance(value, list) and value:
        if rng.random() < 0.5:
            return value[:rng.randrange(len(value))]
        return value + [copy.deepcopy(rng.choice(value))
                        for _ in range(rng.randint(1, 4 * len(value)))]
    if isinstance(value, dict) and value:
        keys = list(value)
        if rng.random() < 0.5:
            return {k: value[k] for k in keys[:rng.randrange(len(keys))]}
        extra = {f"{k}-{i}": copy.deepcopy(value[k])
                 for i, k in enumerate(rng.choices(keys, k=rng.randint(1, 6)))}
        return {**value, **extra}
    return value


def mutate_once(rng, doc):
    """Apply one seeded edit. A swap keeps the value's type, so the
    document often stays well formed and reaches the semantic checks."""
    everywhere = positions(doc)
    container, key = rng.choice(everywhere)
    value = container[key]
    op, = rng.choices(["swap", "extreme", "resize", "duplicate", "drop",
                       "retype", "null", "nest"],
                      weights=[8, 3, 2, 2, 1, 1, 1, 1])
    if op == "swap":
        scalars = [(c, k) for c, k in everywhere
                   if isinstance(c[k], (str, int))]
        c, k = rng.choice(scalars)
        c[k] = rng.choice([c2[k2] for c2, k2 in scalars
                           if type(c2[k2]) is type(c[k])])
    elif op == "drop":
        del container[key]
    elif op == "retype":
        container[key] = copy.deepcopy(rng.choice(RETYPED))
    elif op == "null":
        container[key] = None
    elif op == "extreme":
        ints = [(c, k) for c, k in everywhere
                if type(c[k]) is int] or [(container, key)]
        c, k = rng.choice(ints)
        c[k] = rng.choice(EXTREME_INTS)
    elif op == "duplicate" and isinstance(container, list):
        container.insert(key, copy.deepcopy(value))
    elif op == "duplicate":
        container[f"{key}-copy"] = copy.deepcopy(value)
    elif op == "resize":
        container[key] = resize(rng, value)
    else:
        container[key] = NEST


def fuzzed_document(seed):
    """The walkthrough with 1-4 seeded mutations, as YAML text. Some texts
    repeat a top-level key (the last one wins) or nest up to 1,000 deep."""
    rng = random.Random(seed)
    doc = copy.deepcopy(WALKTHROUGH)
    for _ in range(rng.randint(1, 4)):
        if positions(doc):
            mutate_once(rng, doc)
    text = yaml.dump(doc, Dumper=DUMPER, sort_keys=False)
    if rng.random() < 0.1:
        section = rng.choice(["phase", "lattices", "environment", "planner"])
        text += yaml.dump({section: rng.choice(RETYPED)}, Dumper=DUMPER)
    depth = rng.randint(10, 1000)
    return text.replace(NEST, "[" * depth + "]" * depth)


def paired_deletions():
    """The walkthrough with each subset of its agents dropped from both
    environment.agents and lattices.agents, crossed with each subset of its
    goals dropped from both environment.goals and phase.goal_map."""
    def subsets(items):
        return [c for k in range(len(items) + 1)
                for c in combinations(items, k)]

    agents = [a["id"] for a in WALKTHROUGH["environment"]["agents"]]
    goals = [g["id"] for g in WALKTHROUGH["environment"]["goals"]]
    for gone_agents, gone_goals in product(subsets(agents), subsets(goals)):
        doc = copy.deepcopy(WALKTHROUGH)
        env = doc["environment"]
        env["agents"] = [a for a in env["agents"]
                         if a["id"] not in gone_agents]
        env["goals"] = [g for g in env["goals"] if g["id"] not in gone_goals]
        for a in gone_agents:
            del doc["lattices"]["agents"][a]
        for g in gone_goals:
            del doc["phase"]["goal_map"][g]
        yield yaml.dump(doc, Dumper=DUMPER, sort_keys=False)


def run_children(tmp_path, texts, children):
    """Run every command on every text in child processes; the runs."""
    paths = []
    for i, text in enumerate(texts):
        path = tmp_path / f"fuzz-{i:03d}.yaml"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    procs = [
        subprocess.Popen([sys.executable, "-c", CHILD], env=child_env(),
                         stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True)
        for _ in range(children)]
    outputs = [proc.communicate(json.dumps(paths[i::children]), timeout=600)
               for i, proc in enumerate(procs)]
    runs = []
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err[-2000:]
        runs += [json.loads(line) for line in out.splitlines()]
    assert len(runs) == len(paths) * len(COMMANDS)
    return runs


def test_every_run_ends_in_a_plan_or_a_typed_error(tmp_path):
    runs = run_children(
        tmp_path, [fuzzed_document(1000 + i) for i in range(DOCUMENTS)],
        CHILDREN)
    codes = set()
    for run in runs:
        code, err = run["code"], run["stderr"]
        assert code in (0, 1, 2, 3), run
        assert "Traceback" not in err, run
        if code == 2:
            assert err.startswith("parse error:"), run
        if code == 3:
            assert err.startswith("limit exceeded:"), run
        codes.add(code)
    assert codes == {0, 1, 2, 3}


def test_paired_deletions_down_to_none_still_plan(tmp_path):
    runs = run_children(tmp_path, list(paired_deletions()), 1)
    assert len(runs) == 64 * len(COMMANDS)
    for run in runs:
        assert (run["code"], run["stderr"]) == (0, ""), run
