"""Command-line front end.

Subcommands: validate, facts, weights, plan, simulate, dot. Every
command loads a scenario file and prints deterministic text. Exit codes:
0 success, 1 validation failure, 2 parse error, 3 runtime limit.
"""

from __future__ import annotations

import argparse
import sys

from . import grid
from .errors import LatticePlanError, LimitExceeded
from .games import game_to_dot
from .lattice import subset_id
from .phase import enumerate_facts  # noqa: F401  perfbench traces this name
from .planner import EQ1_MODES, plan_once, simulate, vertex_weight
from .scenario import (
    ParseError,
    RawScenario,
    Scenario,
    build_scenario,
    parse_scenario,
    validation_report,
)


class UnknownTarget(LatticePlanError):
    """Unrecognized DOT export target."""


def cmd_validate(path: str) -> int:
    rows = validation_report(parse_scenario(path))
    for name, ok, message in rows:
        if ok:
            print(f"{name}: PASS")
        else:
            print(f"{name}: FAIL ({message})")
    return 0 if all(ok for _, ok, _ in rows) else 1


def cmd_facts(scenario: Scenario) -> int:
    phase, op_cl = scenario.phase, scenario.op_cl
    marked = [("0", {phase.zero}), ("1", {phase.one}), ("I", {phase.i_fact}),
              ("bot", {phase.false_fact}), ("Op", op_cl.open_facts),
              ("Cl", op_cl.closed_facts)]
    for fact in scenario.spec.facts:
        name = scenario.spec.fact_name(fact)
        marks = ",".join(m for m, facts in marked if fact in facts) or "-"
        print(f"fact {subset_id(fact.members)} name={name} marks={marks}")
    return 0


def cmd_weights(scenario: Scenario) -> int:
    for agent_id in sorted(scenario.desire_lattices):
        dl = scenario.desire_lattices[agent_id]
        print(f"agent {agent_id} desires={','.join(dl.desires)}"
              f" intention={dl.intention}")
        weights = {v: vertex_weight(dl, v) for v in dl.lattice.elements}
        top = dl.lattice.top
        rows = [top] + sorted((v for v in weights if v != top),
                              key=lambda v: (-weights[v], v))
        for v in rows:
            w = weights[v]
            print(f"  {v} {w.numerator}/{w.denominator}")
    return 0


def _initial_discovered(scenario: Scenario) -> list:
    found = set()
    for agent in scenario.env.agents:
        for goal_id, _ in grid.visible_goals(scenario.env, agent):
            found.add(goal_id)
    return sorted(found)


def _fmt_path(start, path) -> str:
    cells = [start] + [tuple(c) for c in path]
    return "->".join(f"({c},{r})" for c, r in cells)


def cmd_plan(scenario: Scenario) -> int:
    cfg = scenario.planner
    discovered = _initial_discovered(scenario)
    plan = plan_once(scenario.env, scenario.spec, scenario.desire_lattices,
                     discovered=discovered, depth=cfg.depth,
                     subset_cap=cfg.subset_cap, eq1_mode=cfg.eq1_mode)
    print(f"discovered={','.join(discovered)}")
    print(f"chosen={','.join(plan.chosen_goals)}")
    print(f"priority={plan.priority_name}")
    print(f"tie={'1' if plan.tie_break else '0'}")
    print("assign=" + ",".join(f"{g}->{a}"
                               for g, a in sorted(plan.assignment.items())))
    assigned = set(plan.assignment.values())
    free = [a.id for a in scenario.env.agents if a.id not in assigned]
    print(f"free={','.join(free)}")
    for agent in scenario.env.agents:
        path = plan.plays[agent.id]
        print(f"play {agent.id}={_fmt_path(agent.position, path)}")
    print(f"alternates={len(plan.alternates)}")
    print(f"reward={','.join(sorted(plan.total_reward))}")
    return 0


def cmd_simulate(scenario: Scenario) -> int:
    cfg = scenario.planner
    trace = simulate(scenario.env, scenario.spec, scenario.desire_lattices,
                     depth=cfg.depth, max_steps=cfg.max_steps,
                     subset_cap=cfg.subset_cap, patience=cfg.patience,
                     eq1_mode=cfg.eq1_mode)
    sys.stdout.write(trace.to_text())
    return 0


def cmd_dot(scenario: Scenario, target: str) -> int:
    parts = target.split(":")
    if parts == ["system-lattice"]:
        sys.stdout.write(scenario.spec.lattice.to_dot("system-lattice"))
        return 0
    if len(parts) == 2 and parts[0] == "desire-lattice":
        agent_id = parts[1]
        if agent_id not in scenario.desire_lattices:
            raise UnknownTarget(f"no desire lattice for agent {agent_id!r}")
        dl = scenario.desire_lattices[agent_id]
        sys.stdout.write(dl.lattice.to_dot(f"desire-lattice-{agent_id}"))
        return 0
    if len(parts) == 3 and parts[0] == "agent-game":
        agent_id = parts[1]
        if agent_id not in {a.id for a in scenario.env.agents}:
            raise UnknownTarget(f"no agent {agent_id!r} in the environment")
        try:
            depth = int(parts[2])
        except ValueError:
            raise UnknownTarget(f"bad game depth {parts[2]!r}") from None
        game = grid.build_agent_game(scenario.env, agent_id, depth)
        sys.stdout.write(game_to_dot(game, f"agent-game-{agent_id}-{depth}"))
        return 0
    raise UnknownTarget(
        f"unknown target {target!r}; expected system-lattice,"
        f" desire-lattice:<agent>, or agent-game:<agent>:<depth>")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeplan",
        description="Plan itineraries for agent groups in a grid world.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, overrides=False, target=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", required=True, help="scenario YAML path")
        if overrides:
            p.add_argument("--depth", type=int, default=None,
                           help="override planner depth")
            p.add_argument("--max-steps", type=int, default=None,
                           help="override simulation step limit")
            p.add_argument("--eq1-mode", default=None, choices=EQ1_MODES,
                           help="override reward mode")
        if target:
            p.add_argument("target",
                           help="system-lattice | desire-lattice:<agent>"
                                " | agent-game:<agent>:<depth>")
        return p

    add("validate", "check every scenario section, print PASS/FAIL lines")
    add("facts", "list the facts of the system phase space")
    add("weights", "print desire-lattice vertex weight tables")
    add("plan", "run one planning cycle from the start state",
        overrides=True)
    add("simulate", "run the full receding-horizon simulation",
        overrides=True)
    add("dot", "emit a DOT graph for a lattice or an agent game",
        target=True)
    return parser


def _apply_overrides(raw: RawScenario, args) -> RawScenario:
    """Set the command-line planner overrides before validation sees them."""
    given = {name: getattr(args, name, None)
             for name in ("depth", "max_steps", "eq1_mode")}
    raw.planner = raw.planner._replace(**{
        name: value for name, value in given.items() if value is not None})
    return raw


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(args.scenario)
        scenario = build_scenario(
            _apply_overrides(parse_scenario(args.scenario), args))
        if args.command == "facts":
            return cmd_facts(scenario)
        if args.command == "weights":
            return cmd_weights(scenario)
        if args.command == "plan":
            return cmd_plan(scenario)
        if args.command == "simulate":
            return cmd_simulate(scenario)
        if args.command == "dot":
            return cmd_dot(scenario, args.target)
        raise AssertionError(f"unhandled command {args.command}")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return 3
    except LatticePlanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
