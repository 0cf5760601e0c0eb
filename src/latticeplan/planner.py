"""Decision core: goal priorities, play selection, weights, assignment.

Priorities of goal subsets are evaluated in the system phase space as
(a1 (x) ... (x) al) -o (b1 (x) ... (x) bk), once per multiset of the
goals' facts, and kept in the goal lattice's table for later decision
cycles. Joint plays are scored in the reward lattice, which sees
each agent's path only through a signature of its visited cells packed
into one int, so join, cover and reward are single int operations. A
cell's sight is one int as well; each search numbers its scout bits on
frames, one box of cells per cluster of agents whose windows overlap. The
exact search builds each agent's classes of equal signature in one pass
over (cell, signature) states, with no predecessors: a class keeps its
path count and first member, and its other members come from the
agent's paths as `grid.agent_paths` lists them, on the first read past
that member. One scan by bit count groups each agent's classes under the
classes that no other covers; it finds the maximal rewards over those
with per-bit columns over their product, picks the
dominated classes that may tie them from per-agent columns, and returns
the plays of the maximal combinations as a lazy sequence: its length,
first play and reward come from per-agent vectors of class sizes and
first members, and the plays are expanded only when read past the first.
Ties between agents break on desire-lattice vertex weights, then on
agent order. The simulation loop is receding-horizon: one committed move
per step, full re-planning after.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, compress, count, islice, product
from math import comb, prod
from operator import and_, itemgetter, or_
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import LatticePlanError, LimitExceeded
from .games import NotAPlay
from .lattice import (
    FiniteLattice,
    ForeignElement,
    check_lattice_size,
    subset_id,
    verify_poset,
)
from .phase import (
    MonoidSubset,
    PhaseSpace,
    SpaceMismatch,
    enumerate_facts,
    is_fact,
    linear_implication,
    tensor,
)
from . import grid
from .grid import GridEnvironment, scout_feature

EXHAUSTIVE_DEPTH_BOUND = 4
EXHAUSTIVE_AGENT_BOUND = 3
EQ1_MODES = ("per-goal", "positionwise")
# `simulate` on the walkthrough with its goals walled off, one CLI process
# on Python 3.11: 1,000 steps took 0.55 s of CPU and 20.9 MB max RSS, and
# 10,000 steps 3.19 s and 53.1 MB, as every step keeps its trace line.
SIMULATE_STEP_BOUND = 10_000
# `plan` on the walkthrough with extra visible goals mapped in turn onto the
# facts of b1-b3 and no subset cap, one CLI process on Python 3.11: 84 goals
# (98,854 subsets of at most three) took 0.36-0.37 s of CPU and 36 MB max
# RSS, and 102 goals (176,953 subsets, bound lifted) 0.50-0.76 s and 51 MB.
INTENTION_SUBSET_BOUND = 100_000


class PlannerError(LatticePlanError):
    """Base class for planning errors."""


class UnknownGoalId(PlannerError):
    pass


class LengthMismatch(PlannerError):
    pass


class DepthTooLarge(PlannerError, LimitExceeded):
    pass


class TooManySteps(PlannerError, LimitExceeded):
    pass


class TooManyGoalSubsets(PlannerError, LimitExceeded):
    pass


class MissingDesireVertex(PlannerError):
    pass


class InvalidDesires(PlannerError):
    pass


class GoalLatticeSpec:
    """System goal lattice: a phase space plus the goal-to-fact map; equal
    only to itself.

    `names` maps every fact's members to its display name, and `facts` is
    in enumerate_facts order. `_table` keeps each priority the planner
    evaluates, for every later decision cycle: a (movement-fact multiset,
    goal-fact multiset) pair, each the sorted tuple of its facts' names,
    maps to its priority.
    """

    def __init__(self, phase: PhaseSpace, goal_map: dict, names: dict,
                 lattice: FiniteLattice, target_names: tuple, facts: tuple):
        self.phase, self.goal_map, self.names = phase, goal_map, names
        self.lattice, self.target_names = lattice, target_names
        self.facts = facts
        self._table: dict = {}

    def fact_name(self, fact: MonoidSubset) -> str:
        return self.names[fact.members]

    def fact_of(self, goal_id: str) -> MonoidSubset:
        try:
            return self.goal_map[goal_id]
        except KeyError:
            raise UnknownGoalId(f"no goal lattice entry for {goal_id!r}") \
                from None


def build_goal_lattice_spec(phase: PhaseSpace, goal_map: Mapping,
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
    check_lattice_size(len(facts), "fact lattice")
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
    return GoalLatticeSpec(phase=phase, goal_map=dict(goal_map),
                           names=by_members, lattice=lattice,
                           target_names=targets, facts=facts)


def _multiset(spec: GoalLatticeSpec, goal_ids: Iterable[str]) -> tuple:
    """The goals' facts as a multiset: the sorted tuple of their names."""
    return tuple(sorted([spec.fact_name(spec.fact_of(g)) for g in goal_ids]))


def _kept(spec: GoalLatticeSpec, key, compute):
    """The spec's table entry for the key, computed only on a miss."""
    value = spec._table.get(key)
    if value is None:
        value = spec._table[key] = compute()
    return value


def process_priority(spec: GoalLatticeSpec, movement_ids: Sequence[str],
                     goal_subset: Sequence[str]) -> MonoidSubset:
    """Priority of pursuing the goal subset, as a fact of the system lattice.

    The movement facts' tensor A implies the goals' tensor B: A -o B,
    which is par(dual(A), B) as B is a fact. Empty folds default to the
    tensor unit, so with no goals the value is the pure-movement term.
    """
    i_fact = spec.phase.i_fact
    moves = reduce(tensor, [spec.fact_of(i) for i in movement_ids], i_fact)
    goals = reduce(tensor, [spec.fact_of(i) for i in goal_subset], i_fact)
    return linear_implication(moves, goals)


def select_intentions(spec: GoalLatticeSpec, discovered: Iterable[str],
                      *, movement_ids: Sequence[str] = (),
                      max_size: int | None = None) -> list:
    """All goal subsets of maximal priority, in deterministic subset order.

    Candidates are the non-empty subsets of the discovered goals up to
    max_size. Every subset whose priority is maximal in the fact
    lattice is returned; incomparable maxima are all kept. A priority
    depends only on the multiset of the goals' facts, as tensor is
    commutative, so it is evaluated once per multiset. The maxima are
    found among the distinct priorities, which are facts, so there are at
    most as many as facts however many candidates there are. More than
    INTENTION_SUBSET_BOUND candidates are refused before any is listed.
    Priorities are read from the spec's table, so across calls each
    multiset is evaluated once.
    """
    pool = sorted(discovered)
    cap = len(pool) if max_size is None else min(max_size, len(pool))
    name: dict = {}  # goal id -> its fact's name
    if cap:
        # unknown ids fail in the order process_priority reads them
        moves = _multiset(spec, movement_ids)
        name = {g: spec.fact_name(spec.fact_of(g)) for g in pool}
    count = sum(comb(len(pool), size) for size in range(1, cap + 1))
    if count > INTENTION_SUBSET_BOUND:
        raise TooManyGoalSubsets(f"{count} goal subsets exceed the bound"
                                 f" {INTENTION_SUBSET_BOUND}")
    candidates = []
    for size in range(1, cap + 1):
        for combo in combinations(pool, size):
            key = (moves, tuple(sorted([name[g] for g in combo])))
            candidates.append((combo, _kept(
                spec, key,
                lambda: process_priority(spec, movement_ids, combo))))
    values = {priority.members for _, priority in candidates}
    maxima = {v for v in values if not any(v < other for other in values)}
    return [(combo, priority) for combo, priority in candidates
            if priority.members in maxima]


def _weight(lattice: FiniteLattice, desires: Sequence[str],
            vertex: str) -> Fraction:
    """Share of the desires that lie at or below the vertex."""
    below = sum(1 for d in desires if lattice.leq(d, vertex))
    return Fraction(below, len(desires))


def subset_score(spec: GoalLatticeSpec, subset: Sequence[str]) -> Fraction:
    """Tie-break score: summed weights of the members' facts over targets."""
    return sum((_weight(spec.lattice, spec.target_names,
                        spec.fact_name(spec.fact_of(g))) for g in subset),
               Fraction(0))


def _positions_of(env: GridEnvironment, joint_play: Mapping) -> dict:
    """Each agent's cells, start first. Every cell must be free, and then
    every step a move of `grid.agent_moves`, each checked in agent order
    and then path order."""
    agents = {a.id: a for a in env.agents}
    if set(joint_play) != set(agents):
        raise LengthMismatch("joint play must cover exactly the env agents")
    lengths = {len(path) for path in joint_play.values()}
    if len(lengths) > 1:
        raise LengthMismatch(f"per-agent path lengths differ: {sorted(lengths)}")
    positions = {a.id: (a.position,) + tuple(map(tuple, joint_play[a.id]))
                 for a in env.agents}
    for cells in positions.values():
        for cell in cells:
            grid._check_free(env, cell, "observer")
    for aid, cells in positions.items():
        for here, there in zip(cells, cells[1:]):
            if there not in grid.agent_moves(env, here):
                raise NotAPlay(f"agent {aid} cannot move from {here} to"
                               f" {there} in one step")
    return positions


def _seen_at_start(env: GridEnvironment) -> frozenset:
    return frozenset().union(*(grid.observed_cells(env, a.position, a.horizon)
                               for a in env.agents))


def _frames(env: GridEnvironment, reach: int) -> list:
    """Disjoint cell boxes that number the scout bits, as (c0, r0, c1, r1,
    offset): cell (c, r) of a box is bit `offset + (r - r0) * (c1 - c0 + 1)
    + c - c0`, and the boxes' bit ranges follow one another.

    Each agent has a window, the box of radius reach plus its horizon
    around its position, which holds every cell that the agent sees on a
    path of at most reach moves; windows that overlap are merged into
    their bounding box until the boxes are pairwise disjoint, so a cell
    has one bit however many agents see it.
    """
    boxes: list = []
    for a in env.agents:
        (c, r), d = a.position, reach + a.horizon
        box = (max(c - d, 0), max(r - d, 0),
               min(c + d, env.width - 1), min(r + d, env.height - 1))
        while True:
            hit = next((b for b in boxes if b[0] <= box[2] and box[0] <= b[2]
                        and b[1] <= box[3] and box[1] <= b[3]), None)
            if hit is None:
                break
            boxes.remove(hit)
            box = (min(box[0], hit[0]), min(box[1], hit[1]),
                   max(box[2], hit[2]), max(box[3], hit[3]))
        boxes.append(box)
    frames, offset = [], 0
    for c0, r0, c1, r1 in boxes:
        frames.append((c0, r0, c1, r1, offset))
        offset += (c1 - c0 + 1) * (r1 - r0 + 1)
    return frames


class _Encoder:
    """Path signatures packed into single ints, scout bits numbered on the
    search's frames.

    A signature is all that the reward of a joint play needs from one
    agent's path: the agent's best view of each goal (per-goal mode), or
    each cell's meet of the goal views (positionwise mode, as that meet
    joins along the play anyway), and the newly scouted features. It packs
    them into one int: a slot of `width` bits per goal view, or a single
    slot in positionwise mode, where `width` counts the distinct feature
    names of the goals, numbered up front; the scouted features sit above
    the slots, one bit per cell of the frames (`_frames`), the agents'
    windows of `reach` moves, so only paths of at most that many moves
    may be signed. A signature is the join of its cells' signatures, kept
    per horizon and cell in `_cells`, so it depends only on the set of
    cells visited. Join is `|`, and `a` lies within `b` when `a | b == b`;
    `value` reads the reward off a signature. Building one checks the mode
    and the goal ids, and without `scouted` takes the cells the agents see
    at the start as scouted.
    """

    def __init__(self, env: GridEnvironment, goal_ids: Sequence[str],
                 eq1_mode: str, scouted: frozenset | None, reach: int):
        check_eq1_mode(eq1_mode)
        known = {g.id for g in env.goals}
        for g in goal_ids:
            if g not in known:
                raise UnknownGoalId(f"no goal {g!r} in the environment")
        self.env, self.goals = env, [env.goal(g) for g in goal_ids]
        self.features: dict = {}  # goal feature name -> bit position
        for g in self.goals:
            for name in g.feature_names():
                self.features.setdefault(name, len(self.features))
        # per goal: its cell, and each feature's bit and visibility range
        self.views = [(tuple(g.position),
                       [(1 << self.features[name], rng)
                        for name, rng in g.features]) for g in self.goals]
        self.width = len(self.features)
        self.per_goal = eq1_mode == "per-goal"
        slots = len(self.goals) if self.per_goal else 1
        self.shifts = [i * self.width for i in range(slots)]
        self.scout_shift = slots * self.width
        self.frames = _frames(env, reach)
        self._strides: dict = {}  # (sight mask, horizon, width) -> restrided
        self._cells: dict = defaultdict(dict)  # horizon -> cell -> signature
        self.scouted = reduce(or_, [self._seen(a.position, a.horizon)[0]
                                    for a in env.agents], 0) \
            if scouted is None else self._mask(scouted)

    def _seen(self, cell, horizon: int) -> tuple:
        """The cell's sight as frame bits, and as its `grid.sight` mask.

        The frame that holds the cell must hold its sight too, as the
        frames are built to. The mask's rows, restrided to the frame's
        width, are shifted to the bit of the square's corner, which lies
        before the frame's start when the square is clipped there.
        """
        mask = grid.sight(self.env, cell, horizon)
        c, r = cell
        c0, r0, c1, r1, offset = next(f for f in self.frames if f[0] <= c
                                      <= f[2] and f[1] <= r <= f[3])
        width = c1 - c0 + 1
        key = (mask, horizon, width)
        spread = self._strides.get(key)
        if spread is None:
            spread = self._strides[key] = grid.restride(*key)
        shift = offset + (r - horizon - r0) * width + c - horizon - c0
        return (spread << shift if shift >= 0 else spread >> -shift), mask

    def _mask(self, cells) -> int:
        """The frame bits of the cells; cells outside the frames have none.
        Each frame walks the shorter of its box and the cells."""
        mask = 0
        for c0, r0, c1, r1, offset in self.frames:
            width = c1 - c0 + 1
            if width * (r1 - r0 + 1) < len(cells):
                inside = [(c, r) for r in range(r0, r1 + 1)
                          for c in range(c0, c1 + 1) if (c, r) in cells]
            else:
                inside = [(c, r) for c, r in cells
                          if c0 <= c <= c1 and r0 <= r <= r1]
            for c, r in inside:
                mask |= 1 << offset + (r - r0) * width + c - c0
        return mask

    def _cell(self, cell, horizon: int) -> int:
        """The signature of one cell: its scout bits, then its goal views.

        The scout bits are its sight's frame bits not yet scouted. A goal
        shows from the cell exactly when its own cell's bit is set in the
        cell's `grid.sight` mask, and then shows the features whose range
        covers the distance: `grid.reward`, without calling it.
        """
        known = self._cells[horizon]
        sig = known.get(cell)
        if sig is None:
            seen, mask = self._seen(cell, horizon)
            sig = (seen & ~self.scouted) << self.scout_shift
            c, r = cell
            views = []
            for (gc, gr), features in self.views:
                view = 0
                x, y = gc - c, gr - r
                if grid.in_sight(mask, horizon, x, y):
                    dist = max(abs(x), abs(y))
                    for bit, rng in features:
                        if dist <= rng:
                            view |= bit
                views.append(view)
            if self.per_goal:
                for shift, view in zip(self.shifts, views):
                    sig |= view << shift
            elif views:
                sig |= reduce(and_, views)
            known[cell] = sig
        return sig

    def signature(self, agent, cells) -> int:
        sig = 0
        for c in cells:
            sig |= self._cell(c, agent.horizon)
        return sig

    def values(self, sigs: list) -> list:
        """Reward bits of each signature: the goal features, then the
        scouted features.

        The meet of the goal slots, below the scout bits shifted down to
        sit right above it, taken with one comprehension per slot; with one
        slot or none, the signatures themselves.
        """
        if len(self.shifts) < 2:
            return sigs
        meets = [sig & (1 << self.width) - 1 for sig in sigs]
        for shift in self.shifts[1:]:
            meets = [meet & sig >> shift for meet, sig in zip(meets, sigs)]
        return [sig >> self.scout_shift << self.width | meet
                for sig, meet in zip(sigs, meets)]

    def value(self, sig: int) -> int:
        return self.values([sig])[0]

    def maxima(self, groups: list) -> tuple:
        """The maximal combinations of the agents' tops, and their ties.

        `groups[k]` lists agent k's member lists, each headed by its top
        signature. Combination i of the tops joins, for each agent, its top
        at digit i of the mixed radix of the agents' top counts, the last
        agent's digit lowest: `product` order. `values` lists the value of
        each combination in that order, and `best` is the set of values
        that no other covers. `ties` maps a combination i of a value in
        `best` to (kept, value) when some member ties it:
        per agent, the top and then the members of its list, in list
        order, whose join with the other agents' tops still has that value.

        Combination i is bit i of a mask. `column(k, b)` marks the
        combinations whose k-th top holds bit b: for its c-th top, a block
        of `stride` bits at `c * stride`, repeated every `stride * n_k`
        bits. `col[b]` is their OR over the agents. Only `col` is kept, one
        mask per bit; a single agent's column is built again from its
        `holders` where the tie test below needs it. A value covers v when
        it holds v's scout bits, which are its combination's members' scout
        bits, and, in every slot, each bit of v's goal part (its low
        `width` bits in every layout). So the AND of those columns marks
        every combination whose value covers v, and v is maximal when it
        marks no more than the combinations of value v itself; those marks
        are then exactly the combinations of value v, and `maximal` is
        their OR.

        A value's scout part is its join's scout bits. So a member that
        lacks a scout bit which its top holds and no other agent's top
        holds loses that bit from the value, and cannot tie. A member's
        candidates are thus the maximal combinations of its top, ANDed
        with the OR of the other agents' columns of each such bit, and
        only they are scored. With one slot or none, `value` is the
        signature itself, so every bit counts and the test is exact.
        """
        tops = [[members[0] for members in gs] for gs in groups]
        joins = [0]
        for sigs in tops:
            joins = [j | s for j in joins for s in sigs]
        values = self.values(joins)
        n = len(values)
        count = Counter(values)
        every = (1 << n) - 1
        bases, strides = [], []  # per agent: its first top's combinations
        stride = n
        for sigs in tops:
            period, stride = stride, stride // len(sigs)
            strides.append(stride)
            bases.append(((1 << stride) - 1) * (every // ((1 << period) - 1)))
        col: dict = {}  # signature bit -> combinations whose join holds it
        holders: list = []  # per agent: signature bit -> its tops holding it
        for sigs, base, stride in zip(tops, bases, strides):
            holders.append(holding := {})
            for c, sig in enumerate(sigs):
                mask = base << c * stride
                while sig:
                    bit = sig.bit_length() - 1
                    col[bit] = col.get(bit, 0) | mask
                    holding[bit] = holding.get(bit, 0) | 1 << c
                    sig ^= 1 << bit

        def column(k: int, bit: int) -> int:
            """The combinations whose k-th top holds the bit."""
            marks, held = 0, holders[k].get(bit, 0)
            while held:
                c = held.bit_length() - 1
                marks |= bases[k] << c * strides[k]
                held ^= 1 << c
            return marks

        def marked(bits: int, shifts) -> int:
            marks = every
            while bits:
                bit = bits.bit_length() - 1
                for shift in shifts:
                    marks &= col[shift + bit]
                bits ^= 1 << bit
            return marks

        holds = [[marked(sig >> self.scout_shift, (self.scout_shift,))
                  for sig in sigs] for sigs in tops]
        cover: dict = {}  # goal part -> combinations that hold it
        best = set()
        maximal = 0
        goal_bits = (1 << self.width) - 1
        # every combination of one value holds exactly its scout bits, so
        # any one of them gives the value's scout columns
        for v, hs in dict(zip(values, product(*holds))).items():
            goals = v & goal_bits
            marks = cover.get(goals)
            if marks is None:
                marks = cover[goals] = marked(goals, self.shifts)
            for h in hs:
                marks &= h
            if marks.bit_count() == count[v]:
                best.add(v)
                maximal |= marks

        ties: dict = {}  # index of a maximal combination -> (kept, value)
        tested = ~0 if len(self.shifts) < 2 else -1 << self.scout_shift
        for k, gs in enumerate(groups):
            others: dict = {}  # bit -> where another agent's top holds it
            for c, members in enumerate(gs):
                t, block = members[0], (bases[k] << c * strides[k]) & maximal
                for s in members[1:] if block else ():
                    candidates, lack = block, t & ~s & tested
                    while lack and candidates:
                        bit = lack.bit_length() - 1
                        other = others.get(bit)
                        if other is None:
                            other = others[bit] = reduce(or_, (
                                column(j, bit) for j in range(len(tops))
                                if j != k), 0)
                        candidates &= other
                        lack ^= 1 << bit
                    while candidates:
                        i = candidates.bit_length() - 1
                        candidates ^= 1 << i
                        top = tuple(sigs[i // stride % len(sigs)]
                                    for sigs, stride in zip(tops, strides))
                        if self.value(s | reduce(or_, top[:k] + top[k + 1:],
                                                 0)) == values[i]:
                            ties.setdefault(i, ([[m] for m in top],
                                                values[i]))[0][k].append(s)
        return values, best, ties

    def decode(self, value: int) -> frozenset:
        names = [name for name, bit in self.features.items()
                 if value >> bit & 1]
        scouts = value >> self.width
        for c0, r0, c1, r1, offset in self.frames:
            width = c1 - c0 + 1
            part = scouts >> offset & (1 << width * (r1 - r0 + 1)) - 1
            while part:
                bit = part.bit_length() - 1
                names.append(scout_feature((c0 + bit % width,
                                            r0 + bit // width)))
                part ^= 1 << bit
        return frozenset(names)


def _by_dominance(signatures: list) -> dict:
    """Each non-dominated signature, with the signatures it stands for.

    A signature is dominated when another one covers it (`b` covers `a`
    when `a | b == b`). Scanned by decreasing bit count, anything covering
    a signature comes before it, and so does a maximum covering that. A
    maximum covering the signature holds its top bit, so only the maxima
    found so far that hold that bit are tried; each bit's list of them is
    brought up to date when a signature with that top bit is tried, and 0
    is tried against every maximum. A signature joins the group of the
    first maximum that covers it, or heads a new group: no other covers
    it. Any covering maximum will do: a tie's members, each replaced by
    its group's head, make a maximal combination of the same value.
    """
    groups: dict = {}  # maximum -> its group, in scan order
    maxima: list = []
    holding: dict = {}  # top bit -> (maxima holding it, maxima read so far)
    for s in sorted(signatures, key=int.bit_count, reverse=True):
        bucket = maxima
        if s:
            top = 1 << s.bit_length() - 1
            bucket, read = holding.get(top, ([], 0))
            bucket.extend(filter(top.__and__, maxima[read:]))
            holding[top] = bucket, len(maxima)
        head = next((t for t in bucket if s | t == t), None)
        if head is None:
            maxima.append(s)
            groups[s] = [s]
        else:
            groups[head].append(s)
    return groups


def play_reward(env: GridEnvironment, joint_play: Mapping,
                chosen_goals: Sequence[str], *, eq1_mode: str = "per-goal",
                scouted: frozenset | None = None) -> frozenset:
    """Reward of a joint play: exploration join plus the goal conjunction.

    In per-goal mode each goal contributes its best view over every visited
    position and the goals meet afterwards; positionwise mode meets the
    goals at each single position before joining along the play. The
    scout bits are numbered on the frames of the play's length, so every
    step must be a move (`_positions_of`).
    """
    enc = _Encoder(env, chosen_goals, eq1_mode, scouted,
                   max(map(len, joint_play.values()), default=0))
    positions = _positions_of(env, joint_play)
    return enc.decode(enc.value(reduce(
        or_, [enc.signature(a, positions[a.id]) for a in env.agents], 0)))


def check_search_bounds(depth: int, agent_count: int) -> None:
    """Reject a search the exhaustive planner cannot run exactly."""
    if not 0 <= depth <= EXHAUSTIVE_DEPTH_BOUND:
        error = DepthTooLarge if depth > EXHAUSTIVE_DEPTH_BOUND else PlannerError
        raise error(f"planner depth {depth} outside exact range"
                    f" 0..{EXHAUSTIVE_DEPTH_BOUND}")
    if agent_count > EXHAUSTIVE_AGENT_BOUND:
        raise DepthTooLarge(f"{agent_count} agents exceed the exact bound"
                            f" {EXHAUSTIVE_AGENT_BOUND}")


def check_eq1_mode(eq1_mode: str) -> None:
    """Reject a reward mode that is not in EQ1_MODES."""
    if eq1_mode not in EQ1_MODES:
        raise PlannerError(f"unknown eq1 mode {eq1_mode!r}")


def check_run_limits(depth: int, agent_count: int, eq1_mode: str, *,
                     subset_cap: int | None = None, patience: int = 1,
                     max_steps: int = 0) -> None:
    """Reject a planner setting out of range, checked in this order: the
    search bounds, the mode, the subset cap, patience, and the step count
    against 0 and against SIMULATE_STEP_BOUND. Scenario validation,
    `plan_once` and `simulate` call it before any other work."""
    check_search_bounds(depth, agent_count)
    check_eq1_mode(eq1_mode)
    if subset_cap is not None and subset_cap < 1:
        raise PlannerError(f"subset cap {subset_cap} must be >= 1")
    if patience < 1:
        raise PlannerError(f"patience {patience} must be >= 1")
    if max_steps < 0:
        raise PlannerError(f"max steps {max_steps} must be >= 0")
    if max_steps > SIMULATE_STEP_BOUND:
        raise TooManySteps(f"max steps {max_steps} exceed the bound"
                           f" {SIMULATE_STEP_BOUND}")


class _Lazy(SequenceABC):
    """Read-only sequence whose `len` and `[0]` are known up front.

    Any other read calls `listing` once and keeps the list it returns.
    """

    def __init__(self, size: int, first, listing):
        self._len, self._first, self._listing = size, first, listing
        self._items: list | None = None

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if index == 0:
            return self._first
        return self._listed()[index]

    def __iter__(self):
        return iter(self._listed())

    def __eq__(self, other):
        if not isinstance(other, SequenceABC):
            return NotImplemented
        return len(self) == len(other) and list(self) == list(other)

    def _listed(self) -> list:
        if self._items is None:
            self._items = self._listing()
        return self._items


def _agent_classes(enc: _Encoder, agent, depth: int, base: int,
                   scale: int) -> dict:
    """An agent's paths of `depth` steps, by signature, as `_Lazy` lists
    of (cells after the start, share) in share order.

    Plays are ordered by their interleaved move indices: each step's
    indices in agent order. Read as base-5 digits (a move index is 0-4),
    that sequence is a number, the sum of the agents' shares: an agent's
    share is its moves read as digits of `base` (5 to the agent count),
    times `scale` (5 to the count of agents after it).

    The pass goes layer by layer over states (last cell, signature), as a
    step's signature is the join of the state's and the target cell's,
    and keeps only the current layer. A state holds its path count and
    its smallest path with that path's share before `scale`. Each layer
    lists its states in order of their smallest paths: by induction, the
    next layer's states arrive in that order, as their first arrivals
    extend the smallest paths in order, move by move. So a state's first
    arrival is its smallest path, and a class's first final state holds
    the class's first member. Any other member is read from the agent's
    paths as `grid.agent_paths` lists them, in share order, grouped by
    signature once for all of the agent's classes.
    """
    position, horizon = tuple(agent.position), agent.horizon
    known = enc._cells[horizon]  # cell -> its signature
    layer = {(position, enc._cell(position, horizon)): [1, 0, (position,)]}
    for _ in range(depth):
        layer, previous = {}, layer
        for (cell, sig), (count, share, cells) in previous.items():
            share *= base
            for move, target in enumerate(grid.agent_moves(enc.env, cell)):
                step = known.get(target)
                if step is None:
                    step = enc._cell(target, horizon)
                key = target, sig | step
                into = layer.get(key)
                if into is None:
                    layer[key] = [count, share + move, cells + (target,)]
                else:
                    into[0] += count

    listed: dict = {}  # signature -> its members, once any is read

    def members(sig: int) -> list:
        if not listed:
            for cells, moves in grid.agent_paths(enc.env, position,
                                                 depth)[-1]:
                share = 0
                for move in moves:
                    share = share * base + move
                listed.setdefault(enc.signature(agent, cells), []).append(
                    (cells[1:], share * scale))
        return listed[sig]

    finals: dict = {}  # signature -> [path count, first member]
    for (_, sig), (count, share, cells) in layer.items():
        final = finals.get(sig)
        if final is None:
            finals[sig] = [count, (cells[1:], share * scale)]
        else:
            final[0] += count
    return {sig: _Lazy(count, first, partial(members, sig))
            for sig, (count, first) in finals.items()}


def _expand_plays(agent_ids: tuple, combos: list) -> list:
    """Every play of the class combinations, in order of their keys."""
    keyed = []
    for members in combos:
        shares = product(*([share for _, share in m] for m in members))
        paths = product(*([cells for cells, _ in m] for m in members))
        keyed.extend(zip(map(sum, shares), paths))
    keyed.sort(key=itemgetter(0))
    return [dict(zip(agent_ids, paths)) for _, paths in keyed]


class MaximalPlays(_Lazy):
    """Read-only sequence of the reward-maximal joint plays, in order,
    with the first play's decoded value as `reward`.

    `len`, `[0]` and `reward` are given up front. Any other read calls
    `listing` once, which expands and sorts every play.
    """

    def __init__(self, size: int, first: dict, listing, reward: frozenset):
        super().__init__(size, first, listing)
        self.reward = reward


def choose_play(env: GridEnvironment, spec: GoalLatticeSpec,
                chosen_goals: Sequence[str], depth: int, *,
                eq1_mode: str = "per-goal",
                scouted: frozenset | None = None) -> MaximalPlays:
    """Every reward-maximal joint play of the given depth, exactly.

    Each agent's paths are grouped into classes of equal signature by one
    pass over (cell, signature) states (`_agent_classes`), and a class
    combination is scored as the `value` of the join of its signatures. A
    class is dominated when another class of the same agent covers it,
    scouted features and every goal view, and `_by_dominance` groups each
    agent's classes under non-dominated ones. Join and `value` are
    monotone, so a combination's value lies at or below that of the
    combination with each dominated class replaced by its group's head.
    Every value thus lies below a value of the product of non-dominated
    classes, so the maximal values of the full product are the maxima of
    that smaller product, which `_Encoder.maxima` finds. A dominated class
    can still tie a maximal value, so every combination over all classes
    whose value is maximal is kept. Such a tie lies below its maximal combination member by
    member, so by monotonicity each of its members, joined with the other
    agents' tops, still has the maximal value. `_Encoder.maxima` keeps
    only the members that pass this, testing just the candidates its
    columns leave, and only combinations of kept members are scored.

    The result is a lazy `MaximalPlays` over those combinations: joint
    plays (agent id to cells, start excluded) in lexicographic order of
    their interleaved move indices. A play's key is the sum of its agents'
    shares, so a combination's smallest play joins its classes' first
    members. The tops' class sizes and first shares, multiplied and
    summed over the tops' product in `maxima`'s order, give each maximal
    combination's play count and smallest key, and the ties add theirs;
    the combinations' member lists are built only when a later play is
    read.
    """
    check_search_bounds(depth, len(env.agents))
    enc = _Encoder(env, chosen_goals, eq1_mode, scouted, depth)
    for g in chosen_goals:
        spec.fact_of(g)

    n = len(env.agents)
    per_agent = [_agent_classes(enc, a, depth, 5 ** n, 5 ** (n - 1 - i))
                 for i, a in enumerate(env.agents)]
    groups = [_by_dominance(list(classes)) for classes in per_agent]
    values, best, ties = enc.maxima([list(g.values()) for g in groups])
    maximal = list(map(best.__contains__, values))
    heads = [[classes[top] for top in g]
             for classes, g in zip(per_agent, groups)]
    sizes, keys = [1], [0]
    for hs in heads:
        counts, shares = [len(h) for h in hs], [h[0][1] for h in hs]
        sizes = [size * count for size in sizes for count in counts]
        keys = [key + share for key in keys for share in shares]
    size = sum(compress(sizes, maximal))
    key, i = min(compress(zip(keys, count()), maximal))
    first, reward = next(islice(product(*heads), i, None)), values[i]
    tied = []  # the classes of each other combination of kept members
    for kept, value in ties.values():
        others = product(*kept)
        next(others)  # the maximal combination itself, counted above
        for combo in others:
            if enc.value(reduce(or_, combo, 0)) == value:
                tied.append(classes := [c[sig] for c, sig in
                                        zip(per_agent, combo)])
                size += prod(map(len, classes))
                share = sum([c[0][1] for c in classes])
                if share < key:
                    key, first, reward = share, classes, value
    agent_ids = tuple(a.id for a in env.agents)
    return MaximalPlays(
        size, dict(zip(agent_ids, (c[0][0] for c in first))),
        lambda: _expand_plays(
            agent_ids, list(compress(product(*heads), maximal)) + tied),
        enc.decode(reward))


class DesireLattice(NamedTuple):
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
    if vertex not in desire_lattice.lattice:
        raise ForeignElement(f"{vertex!r} is not a lattice element")
    return _weight(desire_lattice.lattice, desire_lattice.desires, vertex)


def assign_agents(env: GridEnvironment, goals: Sequence[str],
                  per_agent_rewards: Mapping,
                  desire_lattices: Mapping) -> dict:
    """Match goals to agents in three stages.

    A goal goes to the agent whose reward strictly dominates all other
    unassigned agents'; failing that, to the maximal-reward candidate with
    the largest desire weight for the goal; residual ties take the earliest
    agent. Each agent serves at most one goal. Rewards are finite sets
    under strict inclusion, so an agent dominates all the others exactly
    when it is the only maximal one: each other agent lies below some
    maximal agent, and an agent with equal reward would be maximal too.
    """
    order = [a.id for a in env.agents]
    unassigned = list(order)
    assignment: dict = {}

    def maximal(goal_id: str) -> list:
        rewards = [per_agent_rewards[aid][goal_id] for aid in unassigned]
        return [aid for aid, r in zip(unassigned, rewards)
                if not any(r < other for other in rewards)]

    remaining = []
    for goal_id in goals:
        if not unassigned:
            break
        candidates = maximal(goal_id)
        if len(candidates) == 1:
            assignment[goal_id] = candidates[0]
            unassigned.remove(candidates[0])
        else:
            remaining.append(goal_id)
    for goal_id in remaining:
        if not unassigned:
            break
        weighted = []
        for aid in maximal(goal_id):
            dl = desire_lattices[aid]
            if goal_id not in dl.lattice:
                raise MissingDesireVertex(
                    f"agent {aid} has no desire vertex for goal {goal_id!r}")
            weighted.append((vertex_weight(dl, goal_id), aid))
        best = max(w for w, _ in weighted)
        pick = min((aid for w, aid in weighted if w == best), key=order.index)
        assignment[goal_id] = pick
        unassigned.remove(pick)
    return assignment


class ItineraryPlan(NamedTuple):
    """One planning cycle's outcome."""

    chosen_goals: tuple
    priority_value: MonoidSubset
    priority_name: str
    tie_break: bool
    assignment: dict
    plays: dict
    alternates: Sequence  # a MaximalPlays, expanded only when read
    total_reward: frozenset


def plan_once(env: GridEnvironment, spec: GoalLatticeSpec,
              desire_lattices: Mapping, *, discovered: Iterable[str],
              scouted: frozenset | None = None, depth: int = 2,
              subset_cap: int | None = None,
              eq1_mode: str = "per-goal") -> ItineraryPlan:
    """Select intentions, assign agents, and pick the maximal joint play."""
    check_run_limits(depth, len(env.agents), eq1_mode, subset_cap=subset_cap)
    movement_ids = [a.movement_goal_id for a in env.agents]

    def filter_reachable(goal_id: str) -> bool:
        target = env.goal(goal_id).position
        return any(grid.reachable(env, a.position, target)
                   for a in env.agents)

    cap = len(env.agents) if subset_cap is None \
        else min(subset_cap, len(env.agents))
    goals = [g for g in sorted(discovered) if filter_reachable(g)]
    ranked = select_intentions(spec, goals, movement_ids=movement_ids,
                               max_size=cap)
    tie_break = len(ranked) > 1
    if ranked:
        # each goal's score once, as an int: every weight is a count of
        # targets over their number, so a subset's sum is exact and cheap
        score = {g: int(subset_score(spec, (g,)) * len(spec.target_names))
                 for g in goals}
        chosen, priority = min(ranked, key=lambda cp: (
            -sum(score[g] for g in cp[0]), len(cp[0]), cp[0]))
    else:
        chosen, priority = (), _kept(
            spec, (_multiset(spec, movement_ids), ()),
            lambda: process_priority(spec, movement_ids, ()))

    rewards = {a.id: {g: grid.reward(env, a.position, g, a.horizon)
                      for g in chosen}
               for a in env.agents}
    assignment = assign_agents(env, chosen, rewards, desire_lattices)
    maxima = choose_play(env, spec, chosen, depth, eq1_mode=eq1_mode,
                         scouted=scouted)
    return ItineraryPlan(
        chosen_goals=tuple(chosen), priority_value=priority,
        priority_name=spec.fact_name(priority), tie_break=tie_break,
        assignment=assignment, plays=maxima[0], alternates=maxima,
        total_reward=maxima.reward)


class TraceStep(NamedTuple):
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


class Trace(NamedTuple):
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
    stands on its cell, after which it leaves the discovered pool. An
    agent on a goal's cell sees every feature of it, so one sweep over
    each agent's visible goals finds discovery, achievement and the
    goals' part of the cumulative reward. The run
    ends when every goal is achieved, when no progress (discovery,
    achievement, or newly scouted cell) occurs for `patience` consecutive
    steps, or at max_steps, which may not exceed SIMULATE_STEP_BOUND.
    """
    check_run_limits(depth, len(env.agents), eq1_mode, subset_cap=subset_cap,
                     patience=patience, max_steps=max_steps)
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
                cumulative |= value
                if goal_id in achieved:
                    continue
                if current.goal(goal_id).position == a.position:
                    discovered.discard(goal_id)
                    achieved.add(goal_id)
                    progress = True
                elif goal_id not in discovered:
                    discovered.add(goal_id)
                    progress = True
        seen_now = _seen_at_start(current)
        if seen_now - scouted:
            progress = True
            cumulative |= {scout_feature(c) for c in seen_now - scouted}
            scouted |= seen_now

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
