"""One workload in one process: whole rounds of operations, timed and checked.

    python3 perfbench/workload.py --cases CASES.json --workload search \
        --seconds 20 --trace 0 --seed 1 --result OUT.json

`run.py` starts this script as a child process with `src` on PYTHONPATH and
the hash seed pinned. One caller drives the library or the CLI in a closed
loop: each operation starts after the previous one ends. A round runs every
case once; rounds repeat until `--seconds` have passed, so every run attempts
whole rounds of the same operations. Only the call under test is inside the
timed region; loading for it (timed separately as set-up), garbage
collection and the output checks are outside.

The first output of each case is checked against `reference.py` and the
method's properties; later rounds must repeat it exactly.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import re
import resource
import statistics
import sys
import time
import traceback
from itertools import product

import yaml

from latticeplan import cli, planner, scenario
from reference import Monoid, World, desire_weights, order_closure, \
    play_value, start_scouted

CLOCK = time.process_time
SAMPLED_PLAYS = 200
BRUTE_FORCE_LIMIT = 1000   # joint plays a search check enumerates in full


class CheckFailed(Exception):
    pass


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ------------------------------------------------------------- cases


class Case:
    """One input file with the reference view of its document."""

    def __init__(self, spec: dict, seed: int):
        self.name = spec["name"]
        self.path = spec["path"]
        self.game_depth = spec.get("game_depth", 2)
        with open(self.path, encoding="utf-8") as fh:
            self.doc = yaml.safe_load(fh)
        failed = [(check, message) for check, ok, message in
                  scenario.validation_report(
                      scenario.parse_scenario(self.path)) if not ok]
        if failed:
            raise SystemExit(f"{self.path} fails validate, so the generator"
                             f" has a bug: {failed}")
        self.world = World(self.doc)
        self.mon = Monoid(self.doc)
        cfg = self.doc.get("planner", {})
        self.depth = cfg.get("depth", 2)
        self.cap = cfg.get("subset_cap")
        self.mode = cfg.get("eq1_mode", "per-goal")
        self.patience = cfg.get("patience", 5)
        self.max_steps = cfg.get("max_steps", 40)
        self.agents = [aid for aid, _, _ in self.world.agents]
        self.movement = [a["movement_goal"]
                         for a in self.doc["environment"]["agents"]]
        self.discovered = sorted(self.world.visible_at(self.world.start))
        self.names = {frozenset(e["members"]): e["name"]
                      for e in self.doc["lattices"].get("system", {})
                      .get("names", [])}
        self.rng = random.Random(f"{seed}:{self.name}")
        self.expected: dict = {}

    def fact_name(self, members) -> str:
        return self.names.get(frozenset(members),
                              "{" + ",".join(sorted(members)) + "}")

    def repeat(self, key: str, output) -> bool:
        """True when an earlier round already checked this output.

        Later rounds must reproduce the first, checked output exactly."""
        if key not in self.expected:
            self.expected[key] = output
            return False
        require(self.expected[key] == output,
                f"{self.name} {key}: output differs from the first round")
        return True


def choice_check(case: Case, discovered, positions, chosen, priority_name,
                 tie) -> None:
    """The chosen goals have maximal priority under the reference algebra."""
    world, mon = case.world, case.mon
    pool = [g for g in discovered
            if any(world.connected(p, world.goals[g][0])
                   for p in positions.values())]
    n = len(case.agents)
    cap = n if case.cap is None else min(case.cap, n)
    best = mon.best_subsets(case.movement, pool, cap)
    chosen = tuple(chosen)
    if not best:
        require(chosen == (), f"{case.name}: chose {chosen} from no goals")
        prio = mon.priority(case.movement, ())
    else:
        combos = [c for c, _ in best]
        require(chosen in combos,
                f"{case.name}: chose {chosen}, maximal subsets are {combos}")
        if len(best) > 1:
            pick = min(combos, key=lambda c: (-mon.subset_score(c), len(c), c))
            require(chosen == pick,
                    f"{case.name}: tie broke to {chosen}, expected {pick}")
        prio = dict(best)[chosen]
    require(bool(tie) == (len(best) > 1), f"{case.name}: tie flag {tie}")
    require(priority_name == case.fact_name(prio),
            f"{case.name}: priority {priority_name},"
            f" expected {case.fact_name(prio)}")


def legal_path(world: World, start, path, depth: int) -> bool:
    cells = [start] + [tuple(c) for c in path]
    return len(path) == depth and all(
        b in world.moves(a) for a, b in zip(cells, cells[1:]))


def play_key(world: World, starts: dict, play: dict, agents, depth) -> tuple:
    """Interleaved move indices: step 0 of every agent, then step 1, ..."""
    key = []
    for t in range(depth):
        for aid in agents:
            cells = [starts[aid]] + [tuple(c) for c in play[aid]]
            key.append(world.moves(cells[t]).index(cells[t + 1]))
    return tuple(key)


def freeze(play: dict) -> tuple:
    return tuple(sorted((aid, tuple(tuple(c) for c in path))
                        for aid, path in play.items()))


# ------------------------------------------------------------- search


def check_plan(case: Case, plan) -> None:
    world, starts, agents = case.world, case.world.start, case.agents
    depth, goals = case.depth, plan.chosen_goals
    choice_check(case, case.discovered, starts, goals, plan.priority_name,
                 plan.tie_break)
    require(plan.priority_value.members
            == case.mon.priority(case.movement, goals),
            f"{case.name}: priority value differs")

    alts = list(plan.alternates)
    require(alts and freeze(plan.plays) == freeze(alts[0]),
            f"{case.name}: plays is not alternates[0]")
    for alt in alts:
        require(set(alt) == set(agents), f"{case.name}: play misses agents")
        for aid in agents:
            require(legal_path(world, starts[aid], alt[aid], depth),
                    f"{case.name}: illegal path {alt[aid]} for {aid}")
    keys = [play_key(world, starts, alt, agents, depth) for alt in alts]
    require(all(a < b for a, b in zip(keys, keys[1:])),
            f"{case.name}: alternates repeat or leave move-index order")

    scouted = start_scouted(world, starts)
    value = lambda play: play_value(world, starts, play, goals,  # noqa: E731
                                    scouted)
    require(value(plan.plays) == plan.total_reward,
            f"{case.name}: total_reward {sorted(plan.total_reward)} differs"
            f" from {sorted(value(plan.plays))}")
    maxima = {value(alt) for alt in alts}
    require(not any(a < b for a in maxima for b in maxima),
            f"{case.name}: alternate values are not an antichain")

    top = value(plan.plays)
    alt_set = {freeze(alt) for alt in alts}
    per_agent = {aid: world.paths(starts[aid], depth) for aid in agents}
    for _ in range(SAMPLED_PLAYS):
        play = {aid: case.rng.choice(per_agent[aid])[0] for aid in agents}
        v = value(play)
        require(not top < v, f"{case.name}: sampled play {play} dominates")
        if v in maxima:
            require(freeze(play) in alt_set,
                    f"{case.name}: maximal play {play} missing")
        else:
            require(any(v < m for m in maxima),
                    f"{case.name}: sampled value not below any alternate")

    joint = 1
    for aid in agents:
        joint *= len(per_agent[aid])
    if joint <= BRUTE_FORCE_LIMIT:
        scored = []
        for combo in product(*(per_agent[aid] for aid in agents)):
            play = {aid: cells for aid, (cells, _) in zip(agents, combo)}
            key = tuple(combo[i][1][t] for t in range(depth)
                        for i in range(len(agents)))
            scored.append((key, play, value(play)))
        values = {v for _, _, v in scored}
        best = {v for v in values if not any(v < w for w in values)}
        oracle = [freeze(p) for _, p, v in sorted(scored, key=lambda s: s[0])
                  if v in best]
        require(oracle == [freeze(a) for a in alts],
                f"{case.name}: alternates differ from the brute-force set")

    assigned = list(plan.assignment.values())
    require(len(set(assigned)) == len(assigned),
            f"{case.name}: an agent serves two goals")
    require(set(plan.assignment) <= set(goals) and set(assigned) <= set(agents)
            and len(assigned) == min(len(goals), len(agents)),
            f"{case.name}: assignment {plan.assignment} for goals {goals}")


def run_search(case: Case, rnd, tracer) -> None:
    t0 = CLOCK()
    loaded = scenario.load_scenario(case.path)
    rnd.setup += CLOCK() - t0
    gc.collect()
    with tracer.operation("search") if tracer else contextlib.nullcontext():
        t0 = CLOCK()
        plan = planner.plan_once(loaded.env, loaded.spec,
                                 loaded.desire_lattices,
                                 discovered=case.discovered, depth=case.depth,
                                 subset_cap=case.cap, eq1_mode="per-goal")
        rnd.add(case.name, CLOCK() - t0, 1)
    summary = (plan.chosen_goals, plan.priority_value.members,
               plan.priority_name, plan.tie_break,
               tuple(sorted(plan.assignment.items())), freeze(plan.plays),
               tuple(freeze(a) for a in plan.alternates), plan.total_reward)
    if not case.repeat("plan", summary):
        check_plan(case, plan)


# ----------------------------------------------------------- simulate

STEP = re.compile(r"^step=(\d+) pos=(\S*) discovered=(\S*) achieved=(\S*)"
                  r" chosen=(\S*) priority=(\S*) tie=([01]) assign=(\S*)"
                  r" move=(\S*) reward=(.*)$")
END = re.compile(r"^end reason=(.*) steps=(\d+) pos=(\S*)$")
CELL = re.compile(r"([^,:()>]+):\((\d+),(\d+)\)")
MOVE = re.compile(r"([^,:()>]+):\((\d+),(\d+)\)->\((\d+),(\d+)\)")


def split(text: str) -> list:
    return text.split(",") if text else []


def check_trace(case: Case, text: str) -> tuple:
    """Replay a simulate trace with the reference rules; (end, steps)."""
    world = case.world
    lines = text.rstrip("\n").split("\n")
    end = END.match(lines[-1])
    require(end is not None, f"{case.name}: bad last line {lines[-1]!r}")
    steps = [STEP.match(line) for line in lines[:-1]]
    require(all(steps), f"{case.name}: malformed step line")
    require(int(end.group(2)) == len(steps), f"{case.name}: step count")

    positions = dict(world.start)
    discovered: set = set()
    achieved: set = set()
    scouted: frozenset = frozenset()
    cumulative: set = set()
    stale = 0

    def perceive():
        """One step's perception; the end reason it triggers, or None."""
        nonlocal scouted, stale
        progress = False
        for g in world.visible_at(positions):
            if g not in discovered and g not in achieved:
                discovered.add(g)
                progress = True
        for aid in case.agents:
            for g in sorted(discovered):
                if world.goals[g][0] == positions[aid]:
                    discovered.discard(g)
                    achieved.add(g)
                    progress = True
        now = start_scouted(world, positions)
        if now - scouted:
            progress = True
            cumulative.update(f"scout:{c},{r}" for c, r in now - scouted)
            scouted |= now
        for aid in case.agents:
            for g in discovered | achieved:
                cumulative.update(world.view(positions[aid], g,
                                             world.horizon[aid]))
        stale = 0 if progress else stale + 1
        if world.goals and len(achieved) == len(world.goals):
            return "all goals achieved"
        if stale >= case.patience:
            return f"no progress for {case.patience} steps"
        return None

    for i, m in enumerate(steps):
        stop = perceive()
        require(stop is None, f"{case.name}: step {i} should have ended"
                f" the run ({stop})")
        require(int(m.group(1)) == i, f"{case.name}: step numbering")
        pos = {a: (int(c), int(r)) for a, c, r in CELL.findall(m.group(2))}
        require(pos == positions, f"{case.name}: step {i} positions")
        require(split(m.group(3)) == sorted(discovered),
                f"{case.name}: step {i} discovered {m.group(3)},"
                f" expected {sorted(discovered)}")
        require(split(m.group(4)) == sorted(achieved),
                f"{case.name}: step {i} achieved {m.group(4)}")
        require(m.group(10) == ",".join(sorted(cumulative)),
                f"{case.name}: step {i} cumulative reward")
        choice_check(case, sorted(discovered), positions,
                     split(m.group(5)), m.group(6), m.group(7) == "1")
        moves = MOVE.findall(m.group(9))
        require([a for a, *_ in moves] == case.agents,
                f"{case.name}: step {i} moves {m.group(9)}")
        nxt = {}
        for aid, c0, r0, c1, r1 in moves:
            frm, to = (int(c0), int(r0)), (int(c1), int(r1))
            require(frm == positions[aid] and to in world.moves(frm),
                    f"{case.name}: step {i} illegal move {frm}->{to}")
            nxt[aid] = to
        positions = nxt

    reason = end.group(1)
    if len(steps) == case.max_steps:
        require(reason == f"step limit {case.max_steps}",
                f"{case.name}: {reason} after {len(steps)} steps")
    else:
        require(perceive() == reason,
                f"{case.name}: end reason {reason!r} after {len(steps)}"
                f" steps, patience {case.patience}")
    final = {a: (int(c), int(r)) for a, c, r in CELL.findall(end.group(3))}
    require(final == positions, f"{case.name}: final positions")
    return reason, len(steps)


def run_simulate(case: Case, rnd, tracer) -> None:
    t0 = CLOCK()
    loaded = scenario.load_scenario(case.path)
    rnd.setup += CLOCK() - t0
    gc.collect()
    with tracer.operation("simulate") if tracer else contextlib.nullcontext():
        t0 = CLOCK()
        trace = planner.simulate(loaded.env, loaded.spec,
                                 loaded.desire_lattices, depth=case.depth,
                                 max_steps=case.max_steps,
                                 subset_cap=case.cap, patience=case.patience,
                                 eq1_mode="positionwise")
        rnd.add(case.name, CLOCK() - t0, len(trace.steps))
    text = trace.to_text()
    if not case.repeat("simulate", text):
        check_trace(case, text)


# ---------------------------------------------------------------- cli


def node_lines(text: str) -> int:
    return sum(1 for line in text.splitlines()
               if re.match(r'^  "[^"]*" \[label=', line))


def check_validate(case: Case, out: str) -> None:
    rows = out.splitlines()
    require(all(r.endswith(": PASS") for r in rows),
            f"{case.name}: validate printed a non-PASS row")
    require(len(rows) == 6 + len(case.doc["lattices"]["agents"]),
            f"{case.name}: validate printed {len(rows)} rows")


def check_facts(case: Case, out: str) -> None:
    mon = case.mon
    opens, closeds = set(mon.op), set(mon.cl)
    want = []
    for f in mon.facts():
        marks = [m for m, hit in (
            ("0", f == mon.zero), ("1", f == mon.one), ("I", f == mon.i_fact),
            ("bot", f == mon.bot), ("Op", f in opens), ("Cl", f in closeds))
                 if hit]
        want.append(f"fact {{{','.join(sorted(f))}}} name={case.fact_name(f)}"
                    f" marks={','.join(marks) or '-'}")
    require(out.splitlines() == want,
            f"{case.name}: facts differ from the reference facts")


def check_weights(case: Case, out: str) -> None:
    want = []
    lattices = case.doc["lattices"]["agents"]
    for aid in sorted(lattices):
        body = lattices[aid]
        weights = desire_weights(body)
        leq = order_closure(body["elements"],
                            [tuple(p) for p in body.get("covers",
                                                        body.get("order"))])
        top = next(v for v in body["elements"]
                   if all((u, v) in leq for u in body["elements"]))
        rows = [top] + sorted((v for v in weights if v != top),
                              key=lambda v: (-weights[v], v))
        want.append(f"agent {aid} desires={','.join(body['desires'])}"
                    f" intention={body['intention']}")
        want += [f"  {v} {weights[v].numerator}/{weights[v].denominator}"
                 for v in rows]
    require(out.splitlines() == want,
            f"{case.name}: weights differ from the reference fractions")


def check_plan_text(case: Case, out: str, frozen) -> None:
    if frozen is not None:
        require(out.rstrip("\n") == frozen,
                f"{case.name}: plan differs from the README block")
    rows = dict(line.split("=", 1) for line in out.splitlines()
                if not line.startswith("play "))
    require(split(rows["discovered"]) == case.discovered,
            f"{case.name}: discovered {rows['discovered']}")
    chosen = split(rows["chosen"])
    choice_check(case, case.discovered, case.world.start, chosen,
                 rows["priority"], rows["tie"] == "1")
    play = {}
    for line in out.splitlines():
        if line.startswith("play "):
            aid, cells = line[5:].split("=", 1)
            path = [tuple(map(int, c.strip("()").split(",")))
                    for c in cells.split("->")]
            require(path[0] == case.world.start[aid]
                    and legal_path(case.world, path[0], path[1:], case.depth),
                    f"{case.name}: illegal play {line}")
            play[aid] = path[1:]
    require(list(play) == case.agents, f"{case.name}: play rows")
    scouted = start_scouted(case.world, case.world.start)
    value = play_value(case.world, case.world.start, play, chosen, scouted,
                       case.mode)
    require(rows["reward"] == ",".join(sorted(value)),
            f"{case.name}: reward {rows['reward']} differs from"
            f" {','.join(sorted(value))}")
    pairs = [p.split("->") for p in split(rows["assign"])]
    require(len({a for _, a in pairs}) == len(pairs)
            and {g for g, _ in pairs} <= set(chosen),
            f"{case.name}: assignment {rows['assign']}")
    require(int(rows["alternates"]) >= 1, f"{case.name}: no alternates")


def check_simulate_text(case: Case, out: str, frozen_steps) -> None:
    reason, steps = check_trace(case, out)
    if frozen_steps is not None:
        require((reason, steps) == ("all goals achieved", frozen_steps),
                f"{case.name}: simulate ended {reason!r} after {steps}"
                f" steps, README says all goals in {frozen_steps}")


def commands(case: Case) -> list:
    agent = case.agents[0]
    return [["validate"], ["facts"], ["weights"], ["plan"], ["simulate"],
            ["dot", "system-lattice"], ["dot", f"desire-lattice:{agent}"],
            ["dot", f"agent-game:{agent}:{case.game_depth}"]]


def check_command(case: Case, argv, out: str, readme) -> None:
    cmd = argv[0]
    walk = case.name == "walkthrough"
    if cmd == "validate":
        check_validate(case, out)
    elif cmd == "facts":
        check_facts(case, out)
    elif cmd == "weights":
        check_weights(case, out)
    elif cmd == "plan":
        check_plan_text(case, out, readme["plan"] if walk else None)
    elif cmd == "simulate":
        check_simulate_text(case, out, readme["steps"] if walk else None)
    elif argv[1] == "system-lattice":
        require(node_lines(out) == len(case.mon.facts()),
                f"{case.name}: system lattice nodes")
    elif argv[1].startswith("desire-lattice:"):
        body = case.doc["lattices"]["agents"][case.agents[0]]
        require(node_lines(out) == len(body["elements"]),
                f"{case.name}: desire lattice nodes")
    else:
        start = case.world.start[case.agents[0]]
        prefixes = sum(case.world.count_paths(start, k)
                       for k in range(case.game_depth + 1))
        require(node_lines(out) == 2 * prefixes - 1,
                f"{case.name}: agent game has {node_lines(out)} nodes,"
                f" expected {2 * prefixes - 1}")


def run_cli(case: Case, rnd, tracer, readme) -> None:
    t0 = CLOCK()
    scenario.load_scenario(case.path)
    rnd.setup += CLOCK() - t0
    for cmd in commands(case):
        argv = cmd[:1] + ["--scenario", case.path] + cmd[1:]
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        kind = f"cli.{cmd[0]}"
        try:
            with tracer.operation(kind) if tracer \
                    else contextlib.nullcontext(), \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = CLOCK()
                code = cli.main(argv)
                dt = CLOCK() - t0
        except Exception:  # a crash is a failed operation, not a stop
            rnd.fail(f"{case.name} {' '.join(cmd)}: {traceback.format_exc()}")
            continue
        if code != 0:
            rnd.fail(f"{case.name} {' '.join(cmd)}: exit {code}:"
                     f" {err.getvalue().strip()}")
            continue
        rnd.add(kind, dt, 1)
        if not case.repeat(" ".join(cmd), out.getvalue()):
            check_command(case, cmd, out.getvalue(), readme)


def readme_facts(path: str) -> dict:
    """The walkthrough's documented plan block and simulate step count."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    block = re.search(r"```\n(discovered=.*?)\n```", text, re.S)
    steps = re.search(r"reached in\s+(\d+)\s+steps", text)
    if block is None or steps is None:
        raise SystemExit(f"{path}: the walkthrough's plan block or simulate"
                         " step count is missing")
    return {"plan": block.group(1), "steps": int(steps.group(1))}


# ------------------------------------------------------------- rounds


class Round:
    def __init__(self):
        self.setup = 0.0
        self.samples: list = []     # (kind, seconds, work units)
        self.failed: list = []

    def add(self, kind: str, seconds: float, units: int) -> None:
        self.samples.append((kind, seconds, units))

    def fail(self, message: str) -> None:
        self.failed.append(message)

    @property
    def busy(self) -> float:
        return sum(s for _, s, _ in self.samples)


def run_rounds(cases, op, seconds: float, min_rounds: int, errors: list,
               tracer=None) -> list:
    rounds = []
    start = CLOCK()
    while len(rounds) < min_rounds or CLOCK() - start < seconds:
        rnd = Round()
        for case in cases:
            try:
                op(case, rnd, tracer)
            except CheckFailed as exc:
                errors.append(str(exc))
            except Exception:  # a crash is a failed operation, not a stop
                rnd.fail(f"{case.name}: {traceback.format_exc()}")
        rounds.append(rnd)
    return rounds


def tail(samples: list) -> dict:
    """Median, and the highest percentile with ten samples beyond it."""
    ms = sorted(1e3 * s for s in samples)
    out = {"n": len(ms), "p50": statistics.median(ms)}
    if len(ms) >= 40:
        for q in (99, 90):
            if len(ms) * (100 - q) / 100 >= 10:
                out[f"p{q}"] = statistics.quantiles(ms, n=100)[q - 1]
                break
    return out


def summarize(workload: str, rounds: list) -> tuple:
    samples = [s for r in rounds for s in r.samples]
    times = [s for _, s, _ in samples]
    units = sum(u for _, _, u in samples)
    metrics = {
        "setup_s": statistics.median(r.setup for r in rounds),
        "op_ms_p50": 1e3 * statistics.median(times),
        "work_per_s": units / sum(times),
    }
    by_kind: dict = {}
    for kind, s, _ in samples:
        by_kind.setdefault(kind, []).append(s)
    detail = {"rounds": len(rounds), "all": tail(times),
              "kinds": {k: tail(v) for k, v in sorted(by_kind.items())}}
    return metrics, detail


OPS = {"search": run_search, "simulate": run_simulate, "cli": run_cli}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", required=True)
    parser.add_argument("--workload", choices=sorted(OPS), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-file")
    args = parser.parse_args()

    with open(args.cases, encoding="utf-8") as fh:
        spec = json.load(fh)
    cases = [Case(c, args.seed) for c in spec["cases"]]
    op = OPS[args.workload]
    if args.workload == "cli":
        readme = readme_facts(spec["readme"])
        op = lambda case, rnd, tracer: run_cli(  # noqa: E731
            case, rnd, tracer, readme)

    errors: list = []
    result = {"workload": args.workload}
    if not args.trace:
        rounds = run_rounds(cases, op, args.seconds, 3, errors)
        metrics, detail = summarize(args.workload, rounds)
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                  .ru_maxrss / 1024)
        result["detail"] = detail
    else:
        from tracing import Tracer
        plain = run_rounds(cases, op, args.seconds / 3, 1, errors)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rounds(cases, op, args.seconds * 2 / 3, 1, errors,
                                tracer)
        finally:
            tracer.uninstall()
        rounds = plain + traced
        metrics = tracer.layers()
        base = statistics.median(r.busy for r in plain)
        metrics["trace.overhead_pct"] = 100 * (
            statistics.median(r.busy for r in traced) / base - 1)
        result["detail"] = {"plain_rounds": len(plain),
                            "traced_rounds": len(traced),
                            "spans": tracer.spans}
        if args.trace_file:
            tracer.write(args.trace_file)
    failures = [f for r in rounds for f in r.failed]
    for message in (errors + failures)[:10]:
        print(f"check: {message}", file=sys.stderr)
    result.update({
        "correct": not errors,
        "attempted": sum(len(r.samples) + len(r.failed) for r in rounds),
        "failed": len(failures),
        "metrics": metrics,
    })
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
