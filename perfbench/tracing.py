"""Spans and counters around the calls into latticeplan's layers.

The traced run patches each public function where its caller looks it up
(for example `latticeplan.planner.choose_play`, which `plan_once` calls
through the planner module's globals), so nothing under `src/` changes.
A span records its name, start, end, parent span and the operation it
belongs to; a layer's self time is its duration minus the time its child
spans cover. `grid.reward`, `grid.observed_cells`, `grid.agent_moves` and
`planner.process_priority` are hot, so they are counted, not timed; their
time stays in the self time of the span that called them.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager

from latticeplan import cli, grid, planner, scenario

# span name -> the (module, attribute) pairs its callers look it up through
TIMED = {
    "scenario.parse": [(scenario, "parse_scenario"), (cli, "parse_scenario")],
    "scenario.build": [(scenario, "build_scenario"), (cli, "build_scenario")],
    "scenario.validate": [(scenario, "validation_report"),
                          (cli, "validation_report")],
    "phase.validate_monoid": [(scenario, "validate_monoid")],
    "phase.validate_op_cl": [(scenario, "validate_op_cl")],
    "phase.enumerate_facts": [(planner, "enumerate_facts"),
                              (cli, "enumerate_facts")],
    "lattice.verify_poset": [(scenario, "verify_poset"),
                             (planner, "verify_poset")],
    "grid.reachable": [(grid, "reachable")],
    "planner.select_intentions": [(planner, "select_intentions")],
    "planner.assign": [(planner, "assign_agents")],
    "planner.choose_play": [(planner, "choose_play")],
    "planner.play_reward": [(planner, "play_reward")],
    "planner.plan_once": [(planner, "plan_once"), (cli, "plan_once")],
    "planner.simulate_loop": [(planner, "simulate"), (cli, "simulate")],
    "games.build_agent_game": [(grid, "build_agent_game")],
    "games.game_to_dot": [(cli, "game_to_dot")],
}

# counted name -> (module, attribute); the first two also keep the keys of
# their caches, to give hit ratios
COUNTED = {
    "grid.reward": (grid, "reward"),
    "grid.observed_cells": (grid, "observed_cells"),
    "grid.agent_moves": (grid, "agent_moves"),
    "planner.process_priority": (planner, "process_priority"),
}

MAX_RECORDS = 50_000


class Tracer:
    """Collects spans and counts; aggregates self time as spans close."""

    def __init__(self):
        self.records: list = []
        self.dropped = 0
        self.spans = 0
        self.stack: list = []
        self.ops = 0    # operations so far; the current one's id is ops - 1
        self.op_s = defaultdict(list)
        self.paths_memo: dict = {}
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.keys = {"grid.reward": set(), "grid.observed_cells": set()}
        self.counts = {name: [0] for name in COUNTED}
        self.distinct = defaultdict(int)
        self.extra = defaultdict(float)
        self._originals: list = []

    # -- spans

    def _open(self, name: str) -> list:
        parent = self.stack[-1][4] if self.stack else -1
        self.spans += 1
        frame = [name, time.perf_counter(), 0.0, parent, self.spans]
        self.stack.append(frame)
        return frame

    def _close(self, frame: list) -> float:
        end = time.perf_counter()
        self.stack.pop()
        name, start, child, parent, ident = frame
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self.stack:
            self.stack[-1][2] += duration
        if len(self.records) < MAX_RECORDS:
            self.records.append((ident, parent, self.ops - 1, name, start,
                                 end))
        else:
            self.dropped += 1
        return duration

    @contextmanager
    def operation(self, kind: str):
        """One decision cycle, simulate run or command: one shared id.

        Grid caches live as long as one operation's environment, so the
        distinct keys seen by a counted call are tallied per operation.
        """
        self.ops += 1
        frame = self._open(f"op.{kind}")
        try:
            yield
        finally:
            self.op_s[kind].append(self._close(frame))
            for name, seen in self.keys.items():
                self.distinct[name] += len(seen)
                seen.clear()
            self.paths_memo.clear()

    def timed(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after is not None:
                after(out, args, kwargs)
            return out
        return wrapper

    def counted(self):
        """Wrappers that count calls; no clock is read, these run hot."""
        reward, seen = grid.reward, grid.observed_cells
        n_reward, n_seen = (self.counts["grid.reward"],
                            self.counts["grid.observed_cells"])
        k_reward, k_seen = (self.keys["grid.reward"],
                            self.keys["grid.observed_cells"])

        def counted_reward(env, position, goal, horizon=None):
            n_reward[0] += 1
            k_reward.add((tuple(position), goal if isinstance(goal, str)
                          else goal.id, horizon))
            return reward(env, position, goal, horizon)

        def counted_seen(env, position, horizon):
            n_seen[0] += 1
            k_seen.add((tuple(position), horizon))
            return seen(env, position, horizon)

        def plain(name, fn):
            n = self.counts[name]

            def wrapper(*args, **kwargs):
                n[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        return {"grid.reward": counted_reward,
                "grid.observed_cells": counted_seen,
                "grid.agent_moves": plain("grid.agent_moves",
                                          grid.agent_moves),
                "planner.process_priority": plain("planner.process_priority",
                                                  planner.process_priority)}

    # -- patching

    def install(self) -> None:
        moves = grid.agent_moves
        paths_memo = self.paths_memo

        def count_paths(env, cell, depth):
            key = (id(env.obstacles), cell, depth)
            if key not in paths_memo:
                paths_memo[key] = 1 if depth == 0 else sum(
                    count_paths(env, n, depth - 1) for n in moves(env, cell))
            return paths_memo[key]

        choose_sig = inspect.signature(planner.choose_play)

        def after_choose(out, args, kwargs):
            bound = choose_sig.bind(*args, **kwargs)
            env, depth = bound.arguments["env"], bound.arguments["depth"]
            joint = 1
            for a in env.agents:
                n = count_paths(env, tuple(a.position), depth)
                self.extra["paths"] += n
                self.extra["agents"] += 1
                joint *= n
            self.extra["joint_plays"] += joint
            self.extra["maximal_plays"] += len(out)
            self.extra["choose_calls"] += 1

        def after_parse(out, args, kwargs):
            path = args[0] if args else kwargs["path"]
            self.extra["yaml_bytes"] += os.path.getsize(path)

        def after_facts(out, args, kwargs):
            space = args[0] if args else kwargs["space"]
            self.extra["subsets"] += 2 ** len(space.carrier)
            self.extra["facts"] += len(out)

        def after_game(out, args, kwargs):
            self.extra["game_vertices"] += len(out.vertices)

        after = {"planner.choose_play": after_choose,
                 "scenario.parse": after_parse,
                 "phase.enumerate_facts": after_facts,
                 "games.build_agent_game": after_game}
        for name, sites in TIMED.items():
            fn = getattr(*sites[0])
            wrapped = self.timed(name, fn, after.get(name))
            for module, attr in sites:
                if getattr(module, attr) is not fn:
                    raise RuntimeError(f"{module.__name__}.{attr} is not "
                                       f"{sites[0][0].__name__}.{sites[0][1]}")
                self._patch(module, attr, wrapped)
        wrappers = self.counted()
        for name, (module, attr) in COUNTED.items():
            self._patch(module, attr, wrappers[name])

    def _patch(self, module, attr, value) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._originals):
            setattr(module, attr, value)
        self._originals.clear()

    # -- results

    def ms(self, name: str) -> float:
        """Mean self time of one call, in ms (0 when never called)."""
        n = self.calls.get(name, 0)
        return 1e3 * self.self_s[name] / n if n else 0.0

    def per_op(self, name: str) -> float:
        n = self.counts[name][0] if name in self.counts else self.calls[name]
        return n / max(self.ops, 1)

    def hit_ratio(self, name: str) -> float:
        n = self.counts[name][0]
        return 1 - self.distinct[name] / n if n else 0.0

    def layers(self) -> dict:
        """Every per-layer figure this run produced, by metric name."""
        x, ops = self.extra, max(self.ops, 1)
        out = {
            "scenario.parse_ms": self.ms("scenario.parse"),
            "scenario.build_ms": self.ms("scenario.build"),
            "scenario.validate_ms": self.ms("scenario.validate"),
            "scenario.yaml_kb": (x["yaml_bytes"] / 1024
                                 / max(self.calls["scenario.parse"], 1)),
            "phase.validate_monoid_ms": self.ms("phase.validate_monoid"),
            "phase.validate_op_cl_ms": self.ms("phase.validate_op_cl"),
            "phase.enumerate_facts_ms": self.ms("phase.enumerate_facts"),
            "phase.enumerate_facts_calls":
                self.per_op("phase.enumerate_facts"),
            "phase.subsets_scanned": x["subsets"] / ops,
            "phase.fact_yield": x["facts"] / max(x["subsets"], 1),
            "lattice.verify_poset_ms": self.ms("lattice.verify_poset"),
            "lattice.verify_poset_calls": self.per_op("lattice.verify_poset"),
            "grid.reward_calls": self.per_op("grid.reward"),
            "grid.reward_hit_ratio": self.hit_ratio("grid.reward"),
            "grid.observed_cells_calls": self.per_op("grid.observed_cells"),
            "grid.observed_cells_hit_ratio":
                self.hit_ratio("grid.observed_cells"),
            "grid.agent_moves_calls": self.per_op("grid.agent_moves"),
            "grid.reachable_ms": self.ms("grid.reachable"),
            "planner.select_intentions_ms":
                self.ms("planner.select_intentions"),
            "planner.priority_evals": self.per_op("planner.process_priority"),
            "planner.assign_ms": self.ms("planner.assign"),
            "planner.choose_play_ms": self.ms("planner.choose_play"),
            "planner.paths_per_agent": x["paths"] / max(x["agents"], 1),
            "planner.joint_plays": (x["joint_plays"]
                                    / max(x["choose_calls"], 1)),
            "planner.maximal_plays": (x["maximal_plays"]
                                      / max(x["choose_calls"], 1)),
            "planner.maximal_share": (x["maximal_plays"]
                                      / max(x["joint_plays"], 1)),
            "planner.play_reward_calls": self.per_op("planner.play_reward"),
            "planner.play_reward_ms": self.ms("planner.play_reward"),
            "planner.simulate_loop_ms": self.ms("planner.simulate_loop"),
            "games.build_agent_game_ms": self.ms("games.build_agent_game"),
            "games.game_vertices": (x["game_vertices"]
                                    / max(self.calls["games.build_agent_game"],
                                          1)),
            "games.game_to_dot_ms": self.ms("games.game_to_dot"),
        }
        for cmd in ("validate", "facts", "weights", "plan", "simulate", "dot"):
            runs = self.op_s.get(f"cli.{cmd}", [])
            out[f"cli.{cmd}_ms"] = 1e3 * sum(runs) / len(runs) if runs else 0.0
        return out

    def write(self, path: str) -> None:
        """Span records as JSON lines: id, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_records": self.dropped}) + "\n")
