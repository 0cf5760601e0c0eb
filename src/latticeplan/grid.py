"""Grid world: obstacles, agents, goal objects, fog-of-war rewards.

Cells are (col, row) pairs, zero-based. Visibility uses a square Chebyshev
horizon with straight-line occlusion; each goal feature carries its own
visibility range, so nearer observers see more features. Rewards are
frozensets of feature names, ordered by inclusion.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import Iterable, Mapping, NamedTuple

from .errors import LatticePlanError, LimitExceeded
from .games import SET_PAYOFFS, ConwayGame, build_game

Cell = tuple  # (col, row)

SCOUT_PREFIX = "scout:"

_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bytes 0 and 1

# Largest agent game `build_agent_game` unrolls. Walkthrough agent-1 has
# 31,819 vertices at depth 6 (2.0 s, 62 MB for `dot`) and 148,455 at
# depth 7 (10.5 s, 224 MB).
GAME_VERTEX_BOUND = 50_000

# Largest observer horizon, checked first in `build_environment`. One
# `sight` mask at the centre of a 64x64 grid (CPU time, Python 3.11, warm
# tables, cold environment cache) takes 0.02-0.03 ms at horizon 8 and
# 0.07-0.11 ms at 16 on an open grid, and 0.04 and 0.15 ms with 30% of the
# cells blocked; at a corner, where the clipped square is walked instead
# of the shadow offsets, 0.02 and 0.06 ms open, 0.02 and 0.09 ms blocked.
# The search makes one per distinct visited cell; `observed_cells` lists a
# mask's cells in 0.005-0.03 ms more at horizon 8 and 0.013-0.12 ms at 16,
# about in proportion to the cells in sight.
# Building the shadow tables of both horizons takes 10-16 ms once per
# process. The bound also sizes the caches of sight lines, one per
# endpoint difference, that `_between` keeps, and of shadow tables and bit
# offsets, one per horizon, that `_shadows` and `_offsets` keep.
HORIZON_BOUND = 16

# Largest grid, in cells, checked first in `build_environment`. Flooding
# an open grid in `reachable` takes 16 ms at 4,096 cells, 65 ms at 16,384,
# 268 ms at 65,536 and 1.2 s at 262,144; an environment and its moved
# copies flood each free component at most once.
GRID_CELL_BOUND = 65_536


class GridError(LatticePlanError):
    """Base class for grid environment errors."""


class OutOfBounds(GridError):
    pass


class OnObstacle(GridError):
    pass


class DuplicateId(GridError):
    pass


class InvalidEnvironment(GridError):
    pass


class GameTooLarge(GridError, LimitExceeded):
    pass


class GridTooLarge(GridError, LimitExceeded):
    """A grid or an observer horizon is past its bound."""


class AgentState(NamedTuple):
    id: str
    position: Cell
    horizon: int
    movement_goal_id: str


class GoalObject(NamedTuple):
    id: str
    position: Cell
    features: tuple  # ((name, visibility_range), ...)

    def feature_names(self) -> tuple:
        return tuple(name for name, _ in self.features)


class GridEnvironment:
    """A grid with its agents and goals; equal only to itself."""

    def __init__(self, width: int, height: int, obstacles: frozenset,
                 agents: tuple, goals: tuple):
        self.width, self.height, self.obstacles = width, height, obstacles
        self.agents, self.goals = agents, goals
        self._seen_cache: dict = {}
        self._flood_cache: dict = {}

    def in_bounds(self, cell: Cell) -> bool:
        c, r = cell
        return 0 <= c < self.width and 0 <= r < self.height

    def agent(self, agent_id: str) -> AgentState:
        for a in self.agents:
            if a.id == agent_id:
                return a
        raise InvalidEnvironment(f"no agent {agent_id!r}")

    def goal(self, goal_id: str) -> GoalObject:
        for g in self.goals:
            if g.id == goal_id:
                return g
        raise InvalidEnvironment(f"no goal {goal_id!r}")

    def with_positions(self, positions: Mapping[str, Cell]) -> "GridEnvironment":
        """Copy with agents moved; caches are shared (geometry is unchanged)."""
        moved = []
        for a in self.agents:
            if a.id in positions:
                cell = positions[a.id]
                _check_free(self, cell, f"agent {a.id}")
                a = a._replace(position=cell)
            moved.append(a)
        env = GridEnvironment(self.width, self.height, self.obstacles,
                              tuple(moved), self.goals)
        env._seen_cache, env._flood_cache = self._seen_cache, self._flood_cache
        return env


def _check_free(env: GridEnvironment, cell: Cell, what: str) -> None:
    if not env.in_bounds(cell):
        raise OutOfBounds(f"{what} at {cell} is outside the "
                          f"{env.width}x{env.height} grid")
    if cell in env.obstacles:
        raise OnObstacle(f"{what} at {cell} sits on an obstacle")


def build_environment(width: int, height: int, obstacles: Iterable[Cell],
                      agents: Iterable[AgentState],
                      goals: Iterable[GoalObject]) -> GridEnvironment:
    if width < 1 or height < 1:
        raise InvalidEnvironment("grid must be at least 1x1")
    if width * height > GRID_CELL_BOUND:
        raise GridTooLarge(f"grid of {width}x{height} has {width * height}"
                           f" cells; grids are bounded at {GRID_CELL_BOUND}")
    agents = tuple(agents)
    for a in agents:
        if a.horizon > HORIZON_BOUND:
            raise GridTooLarge(f"agent {a.id} has horizon {a.horizon};"
                               f" horizons are bounded at {HORIZON_BOUND}")
    env = GridEnvironment(width=width, height=height,
                          obstacles=frozenset(tuple(c) for c in obstacles),
                          agents=agents, goals=tuple(goals))
    for cell in env.obstacles:
        if not env.in_bounds(cell):
            raise OutOfBounds(f"obstacle at {cell} is outside the grid")
    seen_ids = set()
    for a in env.agents:
        if a.id in seen_ids:
            raise DuplicateId(f"agent id {a.id!r} repeats")
        seen_ids.add(a.id)
        if a.horizon < 0:
            raise InvalidEnvironment(f"agent {a.id} has negative horizon")
        _check_free(env, a.position, f"agent {a.id}")
    seen_ids = set()
    for g in env.goals:
        if g.id in seen_ids:
            raise DuplicateId(f"goal id {g.id!r} repeats")
        seen_ids.add(g.id)
        _check_free(env, g.position, f"goal {g.id}")
        names = set()
        for name, rng in g.features:
            if name in names:
                raise DuplicateId(f"feature {name!r} repeats on goal {g.id}")
            names.add(name)
            if rng < 0:
                raise InvalidEnvironment(
                    f"feature {name!r} of goal {g.id} has negative range")
            if name.startswith(SCOUT_PREFIX):
                raise InvalidEnvironment(
                    f"feature name {name!r} uses the reserved scout prefix")
    return env


def chebyshev(a: Cell, b: Cell) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def bresenham_line(a: Cell, b: Cell) -> list:
    """Integer line from a to b, both endpoints included."""
    (c0, r0), (c1, r1) = a, b
    cells = []
    dc, dr = abs(c1 - c0), -abs(r1 - r0)
    sc = 1 if c0 < c1 else -1
    sr = 1 if r0 < r1 else -1
    err = dc + dr
    while True:
        cells.append((c0, r0))
        if (c0, r0) == (c1, r1):
            return cells
        e2 = 2 * err
        if e2 >= dr:
            err += dr
            c0 += sc
        if e2 <= dc:
            err += dc
            r0 += sr


@lru_cache(maxsize=(2 * HORIZON_BOUND + 1) ** 2)
def _between(dc: int, dr: int) -> tuple:
    """Offsets of the line's cells strictly between (0, 0) and (dc, dr).

    A Bresenham line depends only on the difference of its endpoints, and
    sight lines within the horizon bound span at most 33x33 differences.
    """
    return tuple(bresenham_line((0, 0), (dc, dr))[1:-1])


@lru_cache(maxsize=HORIZON_BOUND + 1)
def _shadows(horizon: int) -> dict:
    """Each offset of the horizon's square that hides a cell, with the
    offsets it hides as a square mask (see `sight`).

    An obstacle at offset o hides the offsets d whose `_between` line
    passes through o: exactly the cells `line_of_sight` would refuse. Such
    an o lies strictly between d and the position: an offset of the inner
    square, one cell narrower on each side, other than the position's own.
    That is 8 of 25 at horizon 2, and none at horizon 1.
    """
    side = 2 * horizon + 1
    span = range(-horizon, horizon + 1)
    shadows: dict = {}
    for x in span:
        for y in span:
            for o in _between(x, y):
                shadows[o] = shadows.get(o, 0) | 1 << (y + horizon) * side \
                    + x + horizon
    return shadows


@lru_cache(maxsize=HORIZON_BOUND + 1)
def _offsets(horizon: int) -> tuple:
    """The offset of each bit of the horizon's square (see `sight`)."""
    span = range(-horizon, horizon + 1)
    return tuple((x, y) for y in span for x in span)


@lru_cache(maxsize=1024)
def _square(horizon: int, xs: range, ys: range) -> int:
    """The mask of the horizon's square clipped to the offsets xs by ys."""
    side = 2 * horizon + 1
    row = (1 << len(xs)) - 1 << xs.start + horizon
    return sum(row << (y + horizon) * side for y in ys)


def line_of_sight(env: GridEnvironment, a: Cell, b: Cell) -> bool:
    """True when no obstacle lies strictly between the endpoints."""
    c, r = a
    obstacles = env.obstacles
    return not any((c + x, r + y) in obstacles
                   for x, y in _between(b[0] - c, b[1] - r))


def sight(env: GridEnvironment, position: Cell, horizon: int) -> int:
    """The cells in bounds, within the horizon and in line of sight, as a
    mask over the horizon's square: offset (x, y) from the position is bit
    `(y + horizon) * (2 * horizon + 1) + x + horizon`.

    It is the square clipped to the grid, less the shadows of the
    obstacles among the offsets that cast one. Near an edge, where many
    of those offsets fall off the grid, the clipped square can be the
    shorter list, and then it is walked instead, as an offset without a
    shadow hides nothing. Masks are kept in the environment's cache, which
    its moved copies share.
    """
    key = (tuple(position), horizon)
    mask = env._seen_cache.get(key)
    if mask is None:
        c, r = position
        xs = range(max(-c, -horizon), min(env.width - c, horizon + 1))
        ys = range(max(-r, -horizon), min(env.height - r, horizon + 1))
        mask = _square(horizon, xs, ys)
        shadows, obstacles = _shadows(horizon), env.obstacles
        offsets = shadows
        if len(xs) * len(ys) < len(shadows):
            offsets = [(x, y) for x in xs for y in ys if (x, y) in shadows]
        for x, y in offsets:
            if (c + x, r + y) in obstacles:
                mask &= ~shadows[x, y]
        env._seen_cache[key] = mask
    return mask


def in_sight(mask: int, horizon: int, x: int, y: int) -> bool:
    """Whether offset (x, y) from the position is a cell of its `sight`."""
    return max(abs(x), abs(y)) <= horizon and bool(
        mask >> (y + horizon) * (2 * horizon + 1) + x + horizon & 1)


def restride(mask: int, horizon: int, width: int) -> int:
    """A `sight` mask with the square's rows `width` bits apart: offset
    (x, y) at bit `(y + horizon) * width + x + horizon`. Offsets of one
    row stay distinct when `width` is at least the row's span of cells."""
    side = 2 * horizon + 1
    row = (1 << side) - 1
    return sum((mask >> y * side & row) << y * width for y in range(side))


def reward(env: GridEnvironment, position: Cell, goal,
           horizon: int) -> frozenset:
    """Features of the goal visible from the position through the fog.

    A feature shows iff the Chebyshev distance stays within both the feature
    range and the observer horizon, and the goal's cell is in the
    position's `sight`, whose mask the environment's cache keeps.
    """
    if isinstance(goal, str):
        goal = env.goal(goal)
    _check_free(env, position, "observer")
    x, y = goal.position[0] - position[0], goal.position[1] - position[1]
    dist = max(abs(x), abs(y))
    if dist > horizon or not in_sight(sight(env, position, horizon),
                                      horizon, x, y):
        return frozenset()
    return frozenset(name for name, rng in goal.features if dist <= rng)


def visible_goals(env: GridEnvironment, agent) -> list:
    """Goals with a nonempty reward from the agent's position, sorted by id."""
    if isinstance(agent, str):
        agent = env.agent(agent)
    out = []
    for g in sorted(env.goals, key=lambda g: g.id):
        value = reward(env, agent.position, g, agent.horizon)
        if value:
            out.append((g.id, value))
    return out


def observed_cells(env: GridEnvironment, position: Cell,
                   horizon: int) -> frozenset:
    """In-bounds cells within the horizon and in line of sight: the cells
    of the position's `sight` mask.

    The mask's digits, lowest bit first, become bytes 0 and 1 by which
    `compress` selects the offsets, so the loop below runs once per cell
    in sight, not once per offset of the square: the offsets off the grid
    or in shadow cost it no step.
    """
    c, r = position
    bits = bin(sight(env, position, horizon))[:1:-1].encode().translate(_BITS)
    return frozenset((c + x, r + y)
                     for x, y in compress(_offsets(horizon), bits))


def scout_feature(cell: Cell) -> str:
    return f"{SCOUT_PREFIX}{cell[0]},{cell[1]}"


def agent_moves(env: GridEnvironment, position: Cell) -> list:
    """Legal targets in fixed order: north, east, south, west, stay.

    Bounds and obstacles are tested inline; `_check_free` only words the
    error for an illegal position.
    """
    c, r = position
    width, height, obstacles = env.width, env.height, env.obstacles
    if not (0 <= c < width and 0 <= r < height) or (c, r) in obstacles:
        _check_free(env, position, "position")
    out = []
    if r and (c, r - 1) not in obstacles:
        out.append((c, r - 1))
    if c + 1 < width and (c + 1, r) not in obstacles:
        out.append((c + 1, r))
    if r + 1 < height and (c, r + 1) not in obstacles:
        out.append((c, r + 1))
    if c and (c - 1, r) not in obstacles:
        out.append((c - 1, r))
    out.append((c, r))
    return out


def reachable(env: GridEnvironment, start: Cell, target: Cell) -> bool:
    """Whether a 4-connected obstacle-free path joins the two cells.

    Floods are kept in the environment's cache under every cell they
    have reached. A call resumes the flood that reached its start until
    that flood reaches the target or fills its component, so each free
    cell is expanded at most once per environment and its moved copies.
    """
    start, target = tuple(start), tuple(target)
    _check_free(env, start, "start")
    _check_free(env, target, "target")
    if start == target:
        return True
    flood = env._flood_cache.get(start)
    if flood is None:
        flood = env._flood_cache[start] = ({start}, [start])
    seen, frontier = flood
    while target not in seen and frontier:
        for nxt in agent_moves(env, frontier.pop())[:-1]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
                env._flood_cache[nxt] = flood
    return target in seen


def agent_game_vertices(env: GridEnvironment, start: Cell, depth: int) -> int:
    """Vertex count of the unrolled agent game, without building it.

    The root plus a move and a reveal vertex per path of 1..depth steps;
    paths are counted per end cell, one step at a time. Counting stops
    once the total passes `GAME_VERTEX_BOUND`.
    """
    ends = {tuple(start): 1}
    prefixes = 1
    for _ in range(depth):
        if 2 * prefixes - 1 > GAME_VERTEX_BOUND:
            break
        step: dict = {}
        for cell, n in ends.items():
            for target in agent_moves(env, cell):
                step[target] = step.get(target, 0) + n
        ends = step
        prefixes += sum(ends.values())
    return 2 * prefixes - 1


def agent_paths(env: GridEnvironment, start: Cell, depth: int) -> list:
    """An agent's paths of 0..depth steps from start, level by level.

    Level k lists the (cells, move indices) of every k-step path, cells
    starting with start, in lexicographic order of the move indices.
    """
    level = [((tuple(start),), ())]
    levels = [level]
    for _ in range(depth):
        level = [(cells + (target,), idxs + (i,)) for cells, idxs in level
                 for i, target in enumerate(agent_moves(env, cells[-1]))]
        levels.append(level)
    return levels


def build_agent_game(env: GridEnvironment, agent, depth: int) -> ConwayGame:
    """Unrolled movement game for one agent, over its `agent_paths`.

    The system (Opponent, -1) moves between cells; the environment
    (Proponent, +1) answers each move with a single automatic reveal edge.
    Vertices are ("m"|"r", visited-cell-tuple); payoff joins the rewards of
    every goal at the vertex cell.
    """
    if isinstance(agent, str):
        agent = env.agent(agent)
    if depth < 0:
        raise InvalidEnvironment("game depth must be nonnegative")
    if agent_game_vertices(env, agent.position, depth) > GAME_VERTEX_BOUND:
        raise GameTooLarge(f"agent game of {agent.id} at depth {depth} has"
                           f" over {GAME_VERTEX_BOUND} vertices")

    def cell_payoff(cell):
        value = frozenset()
        for g in env.goals:
            value |= reward(env, cell, g, agent.horizon)
        return value

    root = ("r", (tuple(agent.position),))
    vertices = [root]
    edges = []
    payoff = {root: cell_payoff(agent.position)}
    for level in agent_paths(env, agent.position, depth)[1:]:
        for cells, _ in level:
            mid, landed = ("m", cells), ("r", cells)
            value = cell_payoff(cells[-1])
            vertices.extend([mid, landed])
            payoff[mid] = value
            payoff[landed] = value
            edges.append((("r", cells[:-1]), mid, -1))
            edges.append((mid, landed, 1))
    return build_game(vertices, root, edges, payoff=payoff,
                      payoff_lattice=SET_PAYOFFS)
