"""Reference computations for the output checks, apart from latticeplan.

Nothing here imports the package under test. Each function restates one rule
of the method from its definition: the move rule, fog-of-war visibility, the
scout set, phase-space duals and facts, goal priorities, desire weights and
the reward of a joint play. The checks in `workload.py` compare the
program's outputs with these.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

SCOUT = "scout:"

# ---------------------------------------------------------------- grid


class World:
    """Grid geometry and the objects on it, read from a scenario document."""

    def __init__(self, doc: dict):
        env = doc["environment"]
        self.width = env["width"]
        self.height = env["height"]
        self.blocked = {tuple(c) for c in env.get("obstacles", [])}
        self.agents = [(a["id"], tuple(a["position"]), a["horizon"])
                       for a in env["agents"]]
        self.horizon = {aid: h for aid, _, h in self.agents}
        self.start = {aid: pos for aid, pos, _ in self.agents}
        self.goals = {g["id"]: (tuple(g["position"]),
                                [(f["name"], f["range"])
                                 for f in g["features"]])
                      for g in env["goals"]}
        self._sight: dict = {}
        self._seen: dict = {}
        self._view: dict = {}

    def free(self, cell) -> bool:
        c, r = cell
        return (0 <= c < self.width and 0 <= r < self.height
                and cell not in self.blocked)

    def moves(self, cell) -> list:
        """Legal next cells: north, east, south, west, then staying put."""
        c, r = cell
        out = [n for n in ((c, r - 1), (c + 1, r), (c, r + 1), (c - 1, r))
               if self.free(n)]
        return out + [cell]

    def clear(self, a, b) -> bool:
        """No obstacle strictly between a and b on the Bresenham line."""
        key = (a, b)
        if key not in self._sight:
            self._sight[key] = not any(
                cell in self.blocked for cell in line(a, b)[1:-1])
        return self._sight[key]

    def view(self, cell, goal_id: str, horizon: int) -> frozenset:
        """Features of a goal seen from a cell through the fog."""
        key = (cell, goal_id, horizon)
        if key not in self._view:
            where, features = self.goals[goal_id]
            d = chebyshev(cell, where)
            self._view[key] = frozenset(
                n for n, rng in features
                if d <= min(rng, horizon) and self.clear(cell, where))
        return self._view[key]

    def seen(self, cell, horizon: int) -> frozenset:
        """Cells inside the square horizon that the cell has sight of."""
        key = (cell, horizon)
        if key not in self._seen:
            c, r = cell
            self._seen[key] = frozenset(
                (x, y)
                for x in range(c - horizon, c + horizon + 1)
                for y in range(r - horizon, r + horizon + 1)
                if 0 <= x < self.width and 0 <= y < self.height
                and self.clear(cell, (x, y)))
        return self._seen[key]

    def visible_at(self, positions: dict) -> set:
        """Goals some agent sees at least one feature of."""
        return {g for aid, cell in positions.items() for g in self.goals
                if self.view(cell, g, self.horizon[aid])}

    def connected(self, a, b) -> bool:
        seen, todo = {a}, [a]
        while todo:
            cell = todo.pop()
            if cell == b:
                return True
            for n in self.moves(cell)[:-1]:
                if n not in seen:
                    seen.add(n)
                    todo.append(n)
        return False

    def count_paths(self, cell, depth: int) -> int:
        """Number of move sequences of the given length from a cell."""
        layer = {cell: 1}
        for _ in range(depth):
            nxt: dict = {}
            for at, k in layer.items():
                for n in self.moves(at):
                    nxt[n] = nxt.get(n, 0) + k
            layer = nxt
        return sum(layer.values())

    def paths(self, cell, depth: int) -> list:
        """Every move sequence of the given length, in move-index order."""
        out = [((), ())]
        for _ in range(depth):
            out = [(cells + (n,), idx + (i,))
                   for cells, idx in out
                   for i, n in enumerate(
                       self.moves(cells[-1] if cells else cell))]
        return out


def chebyshev(a, b) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def line(a, b) -> list:
    """Bresenham's integer line from a to b, endpoints included."""
    x, y = a
    x1, y1 = b
    dx, dy = abs(x1 - x), abs(y1 - y)
    sx = 1 if x1 > x else -1
    sy = 1 if y1 > y else -1
    err = dx - dy
    out = [(x, y)]
    while (x, y) != (x1, y1):
        twice = 2 * err
        if twice >= -dy:
            err -= dy
            x += sx
        if twice <= dx:
            err += dx
            y += sy
        out.append((x, y))
    return out


def scout_name(cell) -> str:
    return f"{SCOUT}{cell[0]},{cell[1]}"


def start_scouted(world: World, positions: dict) -> frozenset:
    out = frozenset()
    for aid, cell in positions.items():
        out |= world.seen(cell, world.horizon[aid])
    return out


def play_value(world: World, starts: dict, play: dict, goals, scouted,
               mode: str = "per-goal") -> frozenset:
    """Reward of a joint play: new scout cells joined with the goal term."""
    visits = {aid: [starts[aid]] + [tuple(c) for c in play[aid]]
              for aid in starts}
    fresh = set()
    for aid, cells in visits.items():
        for cell in cells:
            fresh |= world.seen(cell, world.horizon[aid])
    value = {scout_name(c) for c in fresh - scouted}
    if goals:
        if mode == "per-goal":
            term = None
            for g in goals:
                best = set()
                for aid, cells in visits.items():
                    for cell in cells:
                        best |= world.view(cell, g, world.horizon[aid])
                term = best if term is None else term & best
        else:
            term = set()
            for aid, cells in visits.items():
                for cell in cells:
                    here = None
                    for g in goals:
                        v = world.view(cell, g, world.horizon[aid])
                        here = v if here is None else here & v
                    term |= here
        value |= term
    return frozenset(value)


# ---------------------------------------------------------------- phase


class Monoid:
    """A finite commutative monoid with a false set, from a scenario doc."""

    def __init__(self, doc: dict):
        phase = doc["phase"]
        self.carrier = list(phase["carrier"])
        self.unit = phase["unit"]
        self.mul = {(x, y): z for x, row in phase["product"].items()
                    for y, z in row.items()}
        self.false = frozenset(phase["false_set"])
        # x -o false, one set per element; every dual is an intersection
        self.principal = {
            x: frozenset(z for z in self.carrier
                         if self.mul[(x, z)] in self.false)
            for x in self.carrier}
        self.goal_map = {g: frozenset(m) for g, m in phase["goal_map"].items()}
        self.op = [frozenset(m) for m in phase["op"]]
        self.cl = [frozenset(m) for m in phase["cl"]]

    def dual(self, xs) -> frozenset:
        out = frozenset(self.carrier)
        for x in xs:
            out &= self.principal[x]
        return out

    def closure(self, xs) -> frozenset:
        return self.dual(self.dual(xs))

    def product(self, xs, ys) -> frozenset:
        return frozenset(self.mul[(x, y)] for x in xs for y in ys)

    def tensor(self, a, b) -> frozenset:
        return self.closure(self.product(a, b))

    def par(self, a, b) -> frozenset:
        return self.dual(self.product(self.dual(a), self.dual(b)))

    def facts(self) -> list:
        """All facts, as the intersections of principal duals."""
        found = {frozenset(self.carrier)}
        for p in self.principal.values():
            found |= {f & p for f in found}
        return sorted(found, key=lambda f: (len(f), sorted(f)))

    @property
    def zero(self):
        return self.closure(())

    @property
    def one(self):
        return frozenset(self.carrier)

    @property
    def i_fact(self):
        return self.closure((self.unit,))

    @property
    def bot(self):
        return self.closure(self.false)

    def priority(self, movement_ids, goal_ids) -> frozenset:
        """par(dual(a1 (x) ... (x) al), b1 (x) ... (x) bk); empty folds: I."""
        a = self.i_fact
        for m in movement_ids:
            a = self.tensor(a, self.goal_map[m])
        b = self.i_fact
        for g in goal_ids:
            b = self.tensor(b, self.goal_map[g])
        return self.par(self.dual(a), b)

    def best_subsets(self, movement_ids, pool, cap: int) -> list:
        """(subset, priority) pairs of maximal priority, in subset order."""
        pool = sorted(pool)
        scored = [(combo, self.priority(movement_ids, combo))
                  for k in range(1, min(cap, len(pool)) + 1)
                  for combo in combinations(pool, k)]
        return [(c, p) for c, p in scored
                if not any(p < q for _, q in scored)]

    def subset_score(self, subset) -> Fraction:
        """Tie-break score: goal-map targets at or below each member's fact."""
        targets = set(self.goal_map.values())
        return sum((Fraction(sum(1 for t in targets if t <= self.goal_map[g]),
                             len(targets)) for g in subset), Fraction(0))


# -------------------------------------------------------------- desires


def order_closure(elements, pairs) -> set:
    """Reflexive-transitive closure of an order given by pairs."""
    up = {e: {e} for e in elements}
    for lo, hi in pairs:
        up[lo].add(hi)
    changed = True
    while changed:
        changed = False
        for e in elements:
            grown = set().union(*(up[x] for x in up[e]))
            if grown != up[e]:
                up[e] = grown
                changed = True
    return {(e, x) for e in elements for x in up[e]}


def desire_weights(body: dict) -> dict:
    """Exact share of an agent's desires at or below each vertex."""
    pairs = [tuple(p) for p in body.get("covers", body.get("order", []))]
    leq = order_closure(body["elements"], pairs)
    desires = body["desires"]
    return {v: Fraction(sum(1 for d in desires if (d, v) in leq), len(desires))
            for v in body["elements"]}
