"""Seeded scenario generator: the YAML files a workload feeds the program.

    python3 perfbench/generate.py --workload search --seed 1 --out DIR

Every document is valid by construction and re-checked here with the
reference arithmetic before it is written:

- the monoid is a cyclic group, a union semilattice, a min or max chain, or a
  product of two of these, so the laws hold by construction;
- the false set is drawn until the number of facts falls in the slot's range;
- the open class is every fact between zero and I, the closed class its dual
  image, which makes both classes closed under their connectives;
- goal-map targets are facts, drawn from the reference fact list;
- each desire lattice is a chain of joins over every goal, so every goal is
  a vertex and the atoms generate it;
- obstacles are cut back to one connected free region, and agents and goals
  stand on distinct cells of it. Agents start near a common centre, each in
  an obstacle-free box of radius `clear`: with `clear >= depth` every agent
  has exactly 5**depth paths, so a slot's joint-play count does not depend on
  the seed.

The seed changes layouts, false sets, goal targets and desires; the shape of
each slot (grid size, agents, depth, goal and feature counts, carrier, and
for the CLI slots the false-set size and fact count) is fixed, so runs with
different seeds do about the same amount of work.
"""

from __future__ import annotations

import argparse
import os
import random
from dataclasses import dataclass
from itertools import product

import yaml

from reference import Monoid, World, order_closure

FEATURES = ("profile", "outline", "detail", "contact", "colour", "texture",
            "marking", "heat")


@dataclass(frozen=True)
class Slot:
    """The fixed shape of one generated scenario."""

    name: str
    monoid: tuple          # recipe, see build_monoid
    facts: tuple           # accepted (low, high) number of facts
    size: tuple            # grid (width, height)
    density: float         # share of cells drawn as obstacles
    agents: int
    horizon: int
    goals: int
    visible: int           # goals placed in sight of an agent at the start
    features: int
    depth: int
    mode: str = "per-goal"
    patience: int = 5
    max_steps: int = 40
    false_size: int = 0    # size of the false set; 0 draws it
    spread: int = 1        # agents start within this distance of a centre
    clear: int = 0         # obstacle-free box radius around each agent
    far_goal: bool = False  # one goal out of reach within max_steps
    game_depth: int = 2


SMALL_MONOIDS = [("cyclic", 4), ("union", 2), ("min", 4), ("cyclic", 5),
                 ("max", 4), ("cyclic", 6),
                 ("prod", ("cyclic", 2), ("min", 3)), ("cyclic", 3)]


def _monoid(i: int):
    return SMALL_MONOIDS[i % len(SMALL_MONOIDS)]


# Search: 3 agents at depth 2 or 2 agents at depth 3 (15,625 joint plays
# each), and 2 agents at depth 2 (625), small enough for a brute-force check.
SEARCH = (
    [Slot(f"s3d2-{i}", _monoid(i), facts=(4, 9), size=(12, 12), density=0.18,
          agents=3, horizon=2, goals=4, visible=2, features=4, depth=2,
          clear=2) for i in range(12)]
    + [Slot(f"s2d3-{i}", _monoid(i + 3), facts=(4, 9), size=(12, 12),
            density=0.18, agents=2, horizon=2, goals=4, visible=2,
            features=4, depth=3, clear=3) for i in range(12)]
    + [Slot(f"s2d2-{i}", _monoid(i + 5), facts=(4, 9), size=(9, 9),
            density=0.15, agents=2, horizon=2, goals=3, visible=2,
            features=4, depth=2, clear=2) for i in range(4)]
)

# Simulate: positionwise receding-horizon runs of 2 agents at depth 2. The
# agents' reach over max_steps is obstacle-free, so every step searches 625
# joint plays. Most runs reach the step limit (a goal stays out of reach and
# patience equals max_steps); the p2d2s runs can stop on patience.
SIMULATE = (
    [Slot(f"p2d2-{i}", _monoid(i), facts=(4, 9), size=(20, 19), density=0.15,
          agents=2, horizon=2, goals=4, visible=2, features=4, depth=2,
          mode="positionwise", patience=6, max_steps=6, far_goal=True,
          clear=8) for i in range(12)]
    + [Slot(f"p2d2s-{i}", _monoid(i + 2), facts=(4, 9), size=(9, 9),
            density=0.15, agents=2, horizon=2, goals=3, visible=2,
            features=4, depth=2, mode="positionwise", patience=2,
            max_steps=6) for i in range(2)]
)

# CLI: large phase carriers (8-12 elements) with a fixed false-set size and
# fact count, many goals and features, grids of 15x15 and up, depth 0-1.
CLI = tuple(
    Slot(name, monoid, facts=facts, size=size, density=0.2, agents=3,
         horizon=3, goals=8, visible=2, features=6, depth=depth, patience=3,
         max_steps=10, game_depth=3, false_size=false_size, spread=3,
         clear=3)
    for name, monoid, facts, size, depth, false_size in (
        ("c12", ("prod", ("cyclic", 3), ("union", 2)), (16, 17), (16, 16),
         1, 5),
        ("c10", ("prod", ("cyclic", 2), ("cyclic", 5)), (12, 12), (15, 15),
         1, 4),
        ("c9", ("prod", ("min", 3), ("cyclic", 3)), (14, 14), (18, 15), 0,
         3)))

WORKLOADS = {"search": SEARCH, "simulate": SIMULATE, "cli": CLI}


# ------------------------------------------------------------- monoids


def build_monoid(recipe, tag: str = "a"):
    """(elements, unit, product) of a commutative monoid from a recipe."""
    kind = recipe[0]
    if kind == "prod":
        ea, ua, ma = build_monoid(recipe[1], "a")
        eb, ub, mb = build_monoid(recipe[2], "b")
        elems = [x + y for x, y in product(ea, eb)]
        mul = {(x1 + y1, x2 + y2): ma[(x1, x2)] + mb[(y1, y2)]
               for x1, y1 in product(ea, eb) for x2, y2 in product(ea, eb)}
        return elems, ua + ub, mul
    n = recipe[1]
    if kind == "union":
        elems = [f"{tag}{i}" for i in range(2 ** n)]
        op = lambda i, j: i | j  # noqa: E731
        unit = 0
    elif kind == "cyclic":
        elems = [f"{tag}{i}" for i in range(n)]
        op = lambda i, j: (i + j) % n  # noqa: E731
        unit = 0
    elif kind == "min":
        elems = [f"{tag}{i}" for i in range(n)]
        op = min
        unit = n - 1
    elif kind == "max":
        elems = [f"{tag}{i}" for i in range(n)]
        op = max
        unit = 0
    else:
        raise ValueError(f"unknown monoid {kind!r}")
    mul = {(elems[i], elems[j]): elems[op(i, j)]
           for i in range(len(elems)) for j in range(len(elems))}
    return elems, elems[unit], mul


def phase_section(rng: random.Random, slot: Slot, goal_ids, movement_ids):
    elems, unit, mul = build_monoid(slot.monoid)
    product_doc = {x: {y: mul[(x, y)] for y in elems} for x in elems}
    low, high = slot.facts
    best = None
    for _ in range(200):
        size = slot.false_size or rng.randint(1, len(elems) - 1)
        false = sorted(rng.sample(elems, size))
        mon = Monoid({"phase": {"carrier": elems, "unit": unit,
                                "product": product_doc, "false_set": false,
                                "goal_map": {}, "op": [], "cl": []}})
        facts = mon.facts()
        miss = max(low - len(facts), len(facts) - high, 0)
        if best is None or miss < best[0]:
            best = (miss, false, mon, facts)
        if miss == 0:
            break
    _, false, mon, facts = best
    opens = [f for f in facts if mon.zero <= f <= mon.i_fact]
    closeds = [mon.dual(f) for f in opens]
    _check_classes(mon, opens, closeds)
    inner = [f for f in facts if f != mon.zero] or facts
    goal_map = {m: sorted(rng.choice([mon.i_fact] + inner))
                for m in movement_ids}
    goal_map.update({g: sorted(rng.choice(inner)) for g in goal_ids})
    names = [{"members": sorted(f), "name": f"F{i}"}
             for i, f in enumerate(facts) if rng.random() < 0.5]
    return ({"carrier": elems, "unit": unit, "product": product_doc,
             "false_set": false,
             "op": [sorted(f) for f in opens],
             "cl": [sorted(f) for f in closeds],
             "goal_map": goal_map},
            names)


def _require(cond, what: str) -> None:
    if not cond:
        raise RuntimeError(f"generated scenario is invalid: {what}")


def _check_classes(mon: Monoid, opens, closeds) -> None:
    """The open/closed class laws, checked with the reference arithmetic."""
    oset, cset = set(opens), set(closeds)
    _require(all(mon.tensor(a, b) in oset and mon.closure(a | b) in oset
                 for a in opens for b in opens), "open class not closed")
    _require(all(a & b in cset and mon.par(a, b) in cset
                 for a in closeds for b in closeds), "closed class not closed")
    _require({mon.zero, mon.i_fact} <= oset, "open class extremes")
    _require({mon.one, mon.bot} <= cset, "closed class extremes")


# ------------------------------------------------------------- lattices


def desire_lattice(rng: random.Random, goal_ids, full_order: bool) -> dict:
    """0 below every goal; J2..Jk join the goals in a drawn order.

    The order is given as cover pairs, or in full when `full_order`."""
    order = list(goal_ids)
    rng.shuffle(order)
    joins = [f"J{i}" for i in range(2, len(order) + 1)]
    covers = [["0", g] for g in order]
    covers += [[order[0], "J2"], [order[1], "J2"]]
    for i in range(3, len(order) + 1):
        covers += [[f"J{i - 1}", f"J{i}"], [order[i - 1], f"J{i}"]]
    elements = ["0"] + sorted(goal_ids) + joins
    body = {"elements": elements}
    if full_order:
        body["order"] = sorted([list(p) for p in
                                order_closure(elements, covers)])
    else:
        body["covers"] = covers
    body["generators"] = sorted(goal_ids)
    body["desires"] = sorted(rng.sample(sorted(goal_ids),
                                        rng.randint(1, len(goal_ids))))
    body["intention"] = rng.choice(elements)
    return body


# ---------------------------------------------------------------- grid


def _component(free: set, start) -> set:
    seen, todo = {start}, [start]
    while todo:
        c, r = todo.pop()
        for n in ((c, r - 1), (c + 1, r), (c, r + 1), (c - 1, r)):
            if n in free and n not in seen:
                seen.add(n)
                todo.append(n)
    return seen


def environment(rng: random.Random, slot: Slot, goal_ids, movement_ids):
    width, height = slot.size
    cells = [(c, r) for r in range(height) for c in range(width)]
    blocked = {cell for cell in cells if rng.random() < slot.density}
    taken: set = set()

    # agents stand within `spread` of a centre cell; each gets an
    # obstacle-free box of radius `clear` that fits in the grid
    agents = []
    edge = slot.clear + slot.spread
    centres = [c for c in cells
               if edge <= c[0] < width - edge and edge <= c[1] < height - edge]
    centre = rng.choice(centres)
    near = sorted((centre[0] + dc, centre[1] + dr)
                  for dc in range(-slot.spread, slot.spread + 1)
                  for dr in range(-slot.spread, slot.spread + 1))
    blocked -= set(near)
    for i, cell in enumerate(rng.sample(near, slot.agents)):
        box = {(c, r)
               for c in range(cell[0] - slot.clear, cell[0] + slot.clear + 1)
               for r in range(cell[1] - slot.clear, cell[1] + slot.clear + 1)}
        blocked -= box
        taken.add(cell)
        agents.append({"id": f"agent-{i + 1}", "position": list(cell),
                       "horizon": slot.horizon,
                       "movement_goal": movement_ids[i % len(movement_ids)]})
    region = _component(set(cells) - blocked, min(taken))
    blocked = set(cells) - region

    probe = World({"environment": {
        "width": width, "height": height,
        "obstacles": sorted(blocked), "agents": agents,
        "goals": []}})
    starts = [tuple(a["position"]) for a in agents]
    in_sight = sorted(c for c in region - taken
                      if any(max(abs(c[0] - s[0]), abs(c[1] - s[1]))
                             <= slot.horizon - 1 and probe.clear(s, c)
                             for s in starts))
    out_of_sight = sorted(c for c in region - taken
                          if all(max(abs(c[0] - s[0]), abs(c[1] - s[1]))
                                 > slot.horizon for s in starts))
    far = sorted(c for c in out_of_sight
                 if all(abs(c[0] - s[0]) + abs(c[1] - s[1])
                        > slot.max_steps for s in starts))
    goals = []
    for j, gid in enumerate(goal_ids):
        if j < slot.visible:
            pool = in_sight
        elif slot.far_goal and j == len(goal_ids) - 1:
            pool = far
        else:
            pool = out_of_sight
        pool = [c for c in pool if c not in taken]
        if not pool:
            raise RuntimeError(f"slot {slot.name}: no free cell for {gid}")
        cell = rng.choice(pool)
        taken.add(cell)
        names = rng.sample(FEATURES, slot.features)
        goals.append({"id": gid, "position": list(cell),
                      "features": [{"name": n, "range": rng.randint(0, 4)}
                                   for n in names]})
        # the goal must show at least one feature from where it is seen
        goals[-1]["features"][0]["range"] = max(
            goals[-1]["features"][0]["range"], slot.horizon)
    return {"width": width, "height": height,
            "obstacles": [list(c) for c in sorted(blocked)],
            "agents": agents, "goals": goals}


# ------------------------------------------------------------ documents


def scenario(slot: Slot, seed: int) -> dict:
    rng = random.Random(f"{seed}:{slot.name}")
    goal_ids = [f"g{j}" for j in range(slot.goals)]
    movement_ids = [f"m{i}" for i in range(min(slot.agents, 2))]
    phase, names = phase_section(rng, slot, goal_ids, movement_ids)
    env = environment(rng, slot, goal_ids, movement_ids)
    lattices = {"system": {"names": names},
                "agents": {a["id"]: desire_lattice(rng, goal_ids, i % 2 == 1)
                           for i, a in enumerate(env["agents"])}}
    planner = {"depth": slot.depth, "eq1_mode": slot.mode,
               "patience": slot.patience, "max_steps": slot.max_steps}
    doc = {"phase": phase, "lattices": lattices, "environment": env,
           "planner": planner}
    _check_document(doc, slot)
    return doc


def _check_document(doc: dict, slot: Slot) -> None:
    mon = Monoid(doc)
    facts = set(mon.facts())
    _require(all(t in facts for t in mon.goal_map.values()),
             f"{slot.name}: a goal-map target is not a fact")
    world = World(doc)
    starts = world.start
    region = {c for c in product(range(world.width), range(world.height))
              if world.free(c)}
    _require(_component(region, next(iter(starts.values()))) == region,
             f"{slot.name}: free cells are not connected")
    _require(len(world.visible_at(starts)) >= min(slot.visible, 1),
             f"{slot.name}: no goal in sight at the start")
    if slot.clear >= slot.depth:
        _require(all(world.count_paths(cell, slot.depth) == 5 ** slot.depth
                     for cell in starts.values()),
                 f"{slot.name}: an agent has fewer than 5**depth paths")


def generate(workload: str, seed: int, out_dir: str) -> list:
    """Write one YAML file per slot; return [(slot, path), ...]."""
    os.makedirs(out_dir, exist_ok=True)
    out = []
    for slot in WORKLOADS[workload]:
        path = os.path.join(out_dir, f"{slot.name}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(scenario(slot, seed), fh, sort_keys=False,
                           default_flow_style=None, width=100)
        out.append((slot, path))
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    for slot, path in generate(args.workload, args.seed, args.out):
        print(f"{slot.name} {path}")


if __name__ == "__main__":
    main()
