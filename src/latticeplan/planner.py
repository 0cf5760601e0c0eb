"""Decision core: goal priorities, play selection, weights, assignment.

Priorities of goal subsets are evaluated in the system phase space as
par(dual(a1 (x) ... (x) al), b1 (x) ... (x) bk). Joint plays are scored in
the reward lattice, which sees each agent's path only through a small
signature; the exact search combines classes of equal signatures and
expands only the maximal ones into plays. Ties between agents break on
desire-lattice vertex weights, then on agent order. The simulation loop is
receding-horizon: one committed move per step, full re-planning after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import LatticePlanError, LimitExceeded
from .lattice import FiniteLattice, ForeignElement, subset_id, verify_poset
from .phase import (
    MonoidSubset,
    OpClPartition,
    PhaseSpace,
    SpaceMismatch,
    dual,
    enumerate_facts,
    is_fact,
    par,
    tensor,
)
from . import grid
from .grid import GridEnvironment, scout_feature

EXHAUSTIVE_DEPTH_BOUND = 4
EXHAUSTIVE_AGENT_BOUND = 3
EQ1_MODES = ("per-goal", "positionwise")


class PlannerError(LatticePlanError):
    """Base class for planning errors."""


class UnknownGoalId(PlannerError):
    pass


class LengthMismatch(PlannerError):
    pass


class DepthTooLarge(PlannerError, LimitExceeded):
    pass


class NoLegalPlay(PlannerError):
    pass


class MissingDesireVertex(PlannerError):
    pass


class InvalidDesires(PlannerError):
    pass


@dataclass(eq=False)
class GoalLatticeSpec:
    """System goal lattice: a phase space plus the goal-to-fact map."""

    phase: PhaseSpace
    goal_map: dict
    op_cl: OpClPartition | None
    names: dict
    lattice: FiniteLattice = field(repr=False)
    target_names: tuple
    facts: tuple = field(repr=False)  # in enumerate_facts order

    def fact_name(self, fact: MonoidSubset) -> str:
        return self.names.get(fact.members, subset_id(fact.members))

    def fact_of(self, goal_id: str) -> MonoidSubset:
        try:
            return self.goal_map[goal_id]
        except KeyError:
            raise UnknownGoalId(f"no goal lattice entry for {goal_id!r}") \
                from None


def build_goal_lattice_spec(phase: PhaseSpace, goal_map: Mapping,
                            op_cl: OpClPartition | None = None,
                            names: Mapping | None = None) -> GoalLatticeSpec:
    """Validate targets and materialize the fact lattice with display names."""
    names = {frozenset(k): v for k, v in (names or {}).items()}
    for goal_id, target in goal_map.items():
        if target.space is not phase:
            raise SpaceMismatch(
                f"goal {goal_id!r} maps into a different phase space")
        if not is_fact(target):
            raise PlannerError(
                f"goal {goal_id!r} maps to {target.display()}, not a fact")
    facts = tuple(enumerate_facts(phase))
    fact_members = {f.members for f in facts}
    for key in names:
        if key not in fact_members:
            raise PlannerError(f"display name for non-fact {subset_id(key)}")
    ids = []
    for f in facts:
        name = names.get(f.members, subset_id(f.members))
        if name in ids:
            raise PlannerError(f"fact display name {name!r} used twice")
        ids.append(name)
    by_members = dict(zip((f.members for f in facts), ids))
    pairs = [(by_members[a.members], by_members[b.members])
             for a in facts for b in facts if a.members <= b.members]
    lattice = verify_poset(ids, pairs)
    targets = tuple(sorted({by_members[t.members] for t in goal_map.values()}))
    return GoalLatticeSpec(phase=phase, goal_map=dict(goal_map), op_cl=op_cl,
                           names=names, lattice=lattice, target_names=targets,
                           facts=facts)


def _tensor_fold(spec: GoalLatticeSpec, facts: Iterable[MonoidSubset]):
    out = spec.phase.i_fact
    for f in facts:
        out = tensor(out, f)
    return out


def process_priority(spec: GoalLatticeSpec, movement_ids: Sequence[str],
                     goal_subset: Sequence[str]) -> MonoidSubset:
    """Priority of pursuing the goal subset, as a fact of the system lattice.

    Empty folds default to the tensor unit, so with no goals the value
    reduces to the pure-movement term.
    """
    a_fold = _tensor_fold(spec, [spec.fact_of(i) for i in movement_ids])
    b_fold = _tensor_fold(spec, [spec.fact_of(i) for i in goal_subset])
    return par(dual(a_fold), b_fold)


def select_intentions(spec: GoalLatticeSpec, discovered: Iterable[str],
                      reachability_filter: Callable[[str], bool] | None = None,
                      *, movement_ids: Sequence[str] = (),
                      max_size: int | None = None) -> list:
    """All goal subsets of maximal priority, in deterministic subset order.

    Candidates are the non-empty subsets of the (filtered) discovered goals
    up to max_size. Every subset whose priority is maximal in the fact
    lattice is returned; incomparable maxima are all kept.
    """
    pool = sorted(discovered)
    if reachability_filter is not None:
        pool = [g for g in pool if reachability_filter(g)]
    cap = len(pool) if max_size is None else min(max_size, len(pool))
    candidates = []
    for size in range(1, cap + 1):
        for combo in combinations(pool, size):
            candidates.append((combo, process_priority(spec, movement_ids,
                                                       combo)))
    out = []
    for combo, priority in candidates:
        dominated = any(priority.members < other.members
                        for _, other in candidates)
        if not dominated:
            out.append((combo, priority))
    return out


def subset_score(spec: GoalLatticeSpec, subset: Sequence[str]) -> Fraction:
    """Tie-break score: summed generator weights of the members' facts."""
    desires = spec.target_names
    total = Fraction(0)
    for goal_id in subset:
        vertex = spec.fact_name(spec.fact_of(goal_id))
        below = sum(1 for d in desires if spec.lattice.leq(d, vertex))
        total += Fraction(below, len(desires))
    return total


def _positions_of(env: GridEnvironment, joint_play: Mapping) -> dict:
    agents = {a.id: a for a in env.agents}
    if set(joint_play) != set(agents):
        raise LengthMismatch("joint play must cover exactly the env agents")
    lengths = {len(path) for path in joint_play.values()}
    if len(lengths) > 1:
        raise LengthMismatch(f"per-agent path lengths differ: {sorted(lengths)}")
    return {aid: (agents[aid].position,) + tuple(tuple(c) for c in path)
            for aid, path in joint_play.items()}


def _seen_at_start(env: GridEnvironment) -> frozenset:
    return frozenset().union(*(grid.observed_cells(env, a.position, a.horizon)
                               for a in env.agents))


def _signature(env: GridEnvironment, agent, cells, goals, eq1_mode: str,
               scouted: frozenset) -> tuple:
    """All that the reward of a joint play needs from one agent's path.

    Per-goal mode keeps the newly scouted features and the agent's best
    view of each goal over its cells. Positionwise mode joins each cell's
    meet of the goal views into the scouted features, as both join along
    the play anyway.
    """
    seen = frozenset().union(
        *(grid.observed_cells(env, c, agent.horizon) for c in cells))
    scouts = frozenset(scout_feature(c) for c in seen - scouted)
    if eq1_mode == "per-goal":
        return scouts, tuple(
            frozenset().union(*(grid.reward(env, c, g, agent.horizon)
                                for c in cells)) for g in goals)
    if goals:
        for c in cells:
            scouts |= frozenset.intersection(
                *(grid.reward(env, c, g, agent.horizon) for g in goals))
    return scouts, ()


def _combine(signatures) -> frozenset:
    """Joint reward: scouted features plus the meet of the goal views."""
    value = frozenset().union(*(scouts for scouts, _ in signatures))
    views = [frozenset().union(*per_goal)
             for per_goal in zip(*(v for _, v in signatures))]
    return value | frozenset.intersection(*views) if views else value


def play_reward(env: GridEnvironment, joint_play: Mapping,
                chosen_goals: Sequence[str], *, eq1_mode: str = "per-goal",
                scouted: frozenset | None = None) -> frozenset:
    """Reward of a joint play: exploration join plus the goal conjunction.

    In per-goal mode each goal contributes its best view over every visited
    position and the goals meet afterwards; positionwise mode meets the
    goals at each single position before joining along the play.
    """
    if eq1_mode not in EQ1_MODES:
        raise PlannerError(f"unknown eq1 mode {eq1_mode!r}")
    positions = _positions_of(env, joint_play)
    goals = [env.goal(g) for g in chosen_goals]
    if scouted is None:
        scouted = _seen_at_start(env)
    return _combine([_signature(env, a, positions[a.id], goals, eq1_mode,
                                scouted) for a in env.agents])


def check_search_bounds(depth: int, agent_count: int) -> None:
    """Reject a search the exhaustive planner cannot run exactly."""
    if not 0 <= depth <= EXHAUSTIVE_DEPTH_BOUND:
        error = DepthTooLarge if depth > EXHAUSTIVE_DEPTH_BOUND else PlannerError
        raise error(f"planner depth {depth} outside exact range"
                    f" 0..{EXHAUSTIVE_DEPTH_BOUND}")
    if agent_count > EXHAUSTIVE_AGENT_BOUND:
        raise DepthTooLarge(f"{agent_count} agents exceed the exact bound"
                            f" {EXHAUSTIVE_AGENT_BOUND}")


def _agent_paths(env: GridEnvironment, start, depth: int) -> list:
    """All position sequences of the given depth, with move-index keys."""
    paths = []

    def walk(cells, idxs):
        if len(idxs) == depth:
            paths.append((cells, idxs))
            return
        for i, target in enumerate(grid.agent_moves(env, cells[-1])):
            walk(cells + (target,), idxs + (i,))

    walk((tuple(start),), ())
    return paths


def choose_play(env: GridEnvironment, spec: GoalLatticeSpec,
                chosen_goals: Sequence[str], depth: int, *,
                eq1_mode: str = "per-goal",
                scouted: frozenset | None = None) -> list:
    """Every reward-maximal joint play of the given depth, exactly.

    Each agent's paths are grouped into classes of equal `_signature`, and
    `_combine` scores each combination of classes once. Values are scanned
    by decreasing size against the maxima found so far: a set lies strictly
    below only larger sets, and what lies below a non-maximal value lies
    below a maximal one found before it. Only maximal class combinations
    are expanded into joint plays (agent id to cells, start excluded), in
    lexicographic order of their interleaved move indices.
    """
    check_search_bounds(depth, len(env.agents))
    known = {g.id for g in env.goals}
    for g in chosen_goals:
        if g not in known:
            raise UnknownGoalId(f"no goal {g!r} in the environment")
        spec.fact_of(g)
    if eq1_mode not in EQ1_MODES:
        raise PlannerError(f"unknown eq1 mode {eq1_mode!r}")
    goals = [env.goal(g) for g in chosen_goals]
    if scouted is None:
        scouted = _seen_at_start(env)

    per_agent = []
    for a in env.agents:
        paths = _agent_paths(env, a.position, depth)
        if not paths:
            raise NoLegalPlay(f"agent {a.id} has no legal path")
        classes: dict = {}
        for cells, idxs in paths:
            sig = _signature(env, a, cells, goals, eq1_mode, scouted)
            classes.setdefault(sig, []).append((cells[1:], idxs))
        per_agent.append(classes.items())

    by_value: dict = {}
    for combo in product(*per_agent):
        value = _combine([sig for sig, _ in combo])
        by_value.setdefault(value, []).append([paths for _, paths in combo])
    maxima: list = []
    for value in sorted(by_value, key=len, reverse=True):
        if not any(value < m for m in maxima):
            maxima.append(value)

    chosen = []
    for value in maxima:
        for members in by_value[value]:
            for combo in product(*members):
                key = tuple(chain.from_iterable(
                    zip(*(idxs for _, idxs in combo))))
                chosen.append((key, combo))
    chosen.sort(key=lambda kp: kp[0])
    agent_ids = [a.id for a in env.agents]
    return [{aid: cells for aid, (cells, _) in zip(agent_ids, combo)}
            for _, combo in chosen]


@dataclass(frozen=True)
class DesireLattice:
    """An agent's desire lattice with its marked intention."""

    lattice: FiniteLattice
    desires: tuple
    intention: str


def build_desire_lattice(lattice: FiniteLattice, desires: Sequence[str],
                         intention: str) -> DesireLattice:
    if not desires:
        raise InvalidDesires("at least one desire is required")
    if len(set(desires)) != len(desires):
        raise InvalidDesires("desires repeat")
    for d in desires:
        if d not in lattice.generators:
            raise InvalidDesires(f"desire {d!r} is not a lattice generator")
    if intention not in lattice:
        raise ForeignElement(f"intention {intention!r} is not in the lattice")
    return DesireLattice(lattice=lattice, desires=tuple(desires),
                         intention=intention)


def vertex_weight(desire_lattice: DesireLattice, vertex: str) -> Fraction:
    """Share of the agent's desires that lie at or below the vertex."""
    lat = desire_lattice.lattice
    if vertex not in lat:
        raise ForeignElement(f"{vertex!r} is not a lattice element")
    joined = sum(1 for d in desire_lattice.desires if lat.leq(d, vertex))
    return Fraction(joined, len(desire_lattice.desires))


def assign_agents(env: GridEnvironment, goals: Sequence[str],
                  per_agent_rewards: Mapping,
                  desire_lattices: Mapping) -> dict:
    """Match goals to agents in three stages.

    A goal goes to the agent whose reward strictly dominates all other
    unassigned agents'; failing that, to the maximal-reward candidate with
    the largest desire weight for the goal; residual ties take the earliest
    agent. Each agent serves at most one goal.
    """
    order = [a.id for a in env.agents]
    unassigned = list(order)
    assignment: dict = {}
    remaining = []
    for goal_id in goals:
        if not unassigned:
            break
        rewards = {aid: per_agent_rewards[aid][goal_id] for aid in unassigned}
        dominator = None
        for aid in unassigned:
            if all(rewards[b] < rewards[aid] for b in unassigned if b != aid):
                dominator = aid
                break
        if dominator is not None:
            assignment[goal_id] = dominator
            unassigned.remove(dominator)
        else:
            remaining.append(goal_id)
    for goal_id in remaining:
        if not unassigned:
            break
        rewards = {aid: per_agent_rewards[aid][goal_id] for aid in unassigned}
        candidates = [aid for aid in unassigned
                      if not any(rewards[aid] < rewards[b]
                                 for b in unassigned)]
        weighted = []
        for aid in candidates:
            dl = desire_lattices[aid]
            if goal_id not in dl.lattice:
                raise MissingDesireVertex(
                    f"agent {aid} has no desire vertex for goal {goal_id!r}")
            weighted.append((vertex_weight(dl, goal_id), aid))
        best = max(w for w, _ in weighted)
        tied = [aid for w, aid in weighted if w == best]
        pick = min(tied, key=order.index)
        assignment[goal_id] = pick
        unassigned.remove(pick)
    return assignment


@dataclass(frozen=True)
class ItineraryPlan:
    """One planning cycle's outcome."""

    chosen_goals: tuple
    priority_value: MonoidSubset
    priority_name: str
    tie_break: bool
    assignment: dict
    plays: dict
    alternates: tuple
    total_reward: frozenset


def plan_once(env: GridEnvironment, spec: GoalLatticeSpec,
              desire_lattices: Mapping, *, discovered: Iterable[str],
              scouted: frozenset | None = None, depth: int = 2,
              subset_cap: int | None = None,
              eq1_mode: str = "per-goal") -> ItineraryPlan:
    """Select intentions, assign agents, and pick the maximal joint play."""
    movement_ids = [a.movement_goal_id for a in env.agents]

    def filter_reachable(goal_id: str) -> bool:
        target = env.goal(goal_id).position
        return any(grid.reachable(env, a.position, target)
                   for a in env.agents)

    cap = len(env.agents) if subset_cap is None \
        else min(subset_cap, len(env.agents))
    ranked = select_intentions(spec, discovered, filter_reachable,
                               movement_ids=movement_ids, max_size=cap)
    tie_break = len(ranked) > 1
    if not ranked:
        chosen: tuple = ()
        priority = process_priority(spec, movement_ids, ())
    elif tie_break:
        scored = sorted(
            ranked, key=lambda cp: (-subset_score(spec, cp[0]),
                                    len(cp[0]), cp[0]))
        chosen, priority = scored[0]
    else:
        chosen, priority = ranked[0]

    rewards = {a.id: {g: grid.reward(env, a.position, g, a.horizon)
                      for g in chosen}
               for a in env.agents}
    assignment = assign_agents(env, chosen, rewards, desire_lattices)
    maxima = choose_play(env, spec, chosen, depth, eq1_mode=eq1_mode,
                         scouted=scouted)
    play = maxima[0]
    total = play_reward(env, play, chosen, eq1_mode=eq1_mode, scouted=scouted)
    return ItineraryPlan(
        chosen_goals=tuple(chosen), priority_value=priority,
        priority_name=spec.fact_name(priority), tie_break=tie_break,
        assignment=assignment, plays=play, alternates=tuple(maxima),
        total_reward=total)


@dataclass(frozen=True)
class TraceStep:
    step: int
    positions: tuple
    discovered: tuple
    achieved: tuple
    chosen: tuple
    priority_name: str
    tie_break: bool
    assignment: tuple
    moves: tuple
    cumulative_reward: tuple

    def to_line(self) -> str:
        pos = ",".join(f"{a}:({c},{r})" for a, (c, r) in self.positions)
        mv = ",".join(f"{a}:({c0},{r0})->({c1},{r1})"
                      for a, (c0, r0), (c1, r1) in self.moves)
        asg = ",".join(f"{g}->{a}" for g, a in self.assignment)
        return (f"step={self.step} pos={pos}"
                f" discovered={','.join(self.discovered)}"
                f" achieved={','.join(self.achieved)}"
                f" chosen={','.join(self.chosen)}"
                f" priority={self.priority_name}"
                f" tie={'1' if self.tie_break else '0'}"
                f" assign={asg} move={mv}"
                f" reward={','.join(self.cumulative_reward)}")


@dataclass(frozen=True)
class Trace:
    steps: tuple
    end_reason: str
    final_positions: tuple

    def to_text(self) -> str:
        lines = [s.to_line() for s in self.steps]
        pos = ",".join(f"{a}:({c},{r})" for a, (c, r) in self.final_positions)
        lines.append(f"end reason={self.end_reason} steps={len(self.steps)}"
                     f" pos={pos}")
        return "\n".join(lines) + "\n"


def simulate(env: GridEnvironment, spec: GoalLatticeSpec,
             desire_lattices: Mapping, depth: int = 2, max_steps: int = 40,
             *, subset_cap: int | None = None, patience: int = 5,
             eq1_mode: str = "per-goal") -> Trace:
    """Receding-horizon loop: perceive, plan, commit one joint move.

    Discovery is shared and persistent; a goal is achieved when an agent
    stands on its cell, after which it leaves the discovered pool. The run
    ends when every goal is achieved, when no progress (discovery,
    achievement, or newly scouted cell) occurs for `patience` consecutive
    steps, or at max_steps.
    """
    for a in env.agents:
        spec.fact_of(a.movement_goal_id)
    positions = {a.id: a.position for a in env.agents}
    discovered: set = set()
    achieved: set = set()
    scouted: frozenset = frozenset()
    cumulative: set = set()
    stale = 0
    steps = []
    end_reason = f"step limit {max_steps}"

    for step in range(max_steps):
        current = env.with_positions(positions)
        progress = False
        for a in current.agents:
            for goal_id, value in grid.visible_goals(current, a):
                if goal_id not in discovered and goal_id not in achieved:
                    discovered.add(goal_id)
                    progress = True
        for a in current.agents:
            for goal_id in sorted(discovered):
                if current.goal(goal_id).position == a.position:
                    discovered.discard(goal_id)
                    achieved.add(goal_id)
                    progress = True
        seen_now = frozenset()
        for a in current.agents:
            seen_now |= grid.observed_cells(current, a.position, a.horizon)
        if seen_now - scouted:
            progress = True
            cumulative |= {scout_feature(c) for c in seen_now - scouted}
            scouted |= seen_now
        for a in current.agents:
            for goal_id in sorted(discovered | achieved):
                cumulative |= grid.reward(current, a.position, goal_id,
                                          a.horizon)

        stale = 0 if progress else stale + 1
        if env.goals and len(achieved) == len(env.goals):
            end_reason = "all goals achieved"
            break
        if stale >= patience:
            end_reason = f"no progress for {patience} steps"
            break

        plan = plan_once(current, spec, desire_lattices,
                         discovered=sorted(discovered), scouted=scouted,
                         depth=depth, subset_cap=subset_cap,
                         eq1_mode=eq1_mode)
        moves = []
        new_positions = {}
        for a in current.agents:
            path = plan.plays.get(a.id, ())
            target = tuple(path[0]) if path else a.position
            moves.append((a.id, a.position, target))
            new_positions[a.id] = target
        steps.append(TraceStep(
            step=step,
            positions=tuple(sorted(positions.items())),
            discovered=tuple(sorted(discovered)),
            achieved=tuple(sorted(achieved)),
            chosen=plan.chosen_goals,
            priority_name=plan.priority_name,
            tie_break=plan.tie_break,
            assignment=tuple(sorted(plan.assignment.items())),
            moves=tuple(moves),
            cumulative_reward=tuple(sorted(cumulative))))
        positions = new_positions

    return Trace(steps=tuple(steps), end_reason=end_reason,
                 final_positions=tuple(sorted(positions.items())))
