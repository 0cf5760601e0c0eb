"""Priorities, intention selection, play choice, weights, assignment."""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations, product
from math import prod
from operator import and_, or_

import pytest

import digest_corpus
from latticeplan import grid
from latticeplan import planner as planner_module
from latticeplan.grid import (
    AgentState,
    GoalObject,
    OnObstacle,
    OutOfBounds,
    build_environment,
)
from latticeplan.errors import LimitExceeded
from latticeplan.games import NotAPlay
from latticeplan.lattice import (
    LATTICE_ELEMENT_BOUND,
    ForeignElement,
    LatticeTooLarge,
    verify_poset,
)
from latticeplan.phase import (
    SpaceMismatch,
    dual,
    enumerate_facts,
    linear_implication,
    par,
    tensor,
    validate_monoid,
)
from latticeplan.planner import (
    EQ1_MODES,
    SIMULATE_STEP_BOUND,
    DepthTooLarge,
    DesireLattice,
    InvalidDesires,
    LengthMismatch,
    MissingDesireVertex,
    PlannerError,
    TooManyGoalSubsets,
    TooManySteps,
    UnknownGoalId,
    assign_agents,
    build_desire_lattice,
    build_goal_lattice_spec,
    choose_play,
    plan_once,
    play_reward,
    process_priority,
    select_intentions,
    simulate,
    subset_score,
    vertex_weight,
)
from latticeplan.scenario import load_scenario


def union_phase():
    join = {("e", "e"): "e", ("e", "u"): "u", ("e", "v"): "v", ("e", "w"): "w",
            ("u", "u"): "u", ("u", "v"): "w", ("u", "w"): "w",
            ("v", "v"): "v", ("v", "w"): "w", ("w", "w"): "w"}
    table = {(x, y): join.get((x, y)) or join[(y, x)]
             for x in "euvw" for y in "euvw"}
    return validate_monoid(tuple("euvw"), table, "e", ("u", "v"))


SYSTEM_NAMES = {
    frozenset(): "0", frozenset({"e"}): "I", frozenset({"u"}): "u",
    frozenset({"v"}): "v", frozenset({"e", "u"}): "B1",
    frozenset({"e", "v"}): "B2", frozenset({"u", "v"}): "B3",
    frozenset({"e", "u", "v", "w"}): "1",
}


def system_spec(phase=None):
    phase = phase or union_phase()
    i_fact = phase.i_fact
    goal_map = {
        "a1": i_fact, "a2": i_fact, "a3": i_fact,
        "b1": phase.subset(["e", "u"]),
        "b2": phase.subset(["e", "v"]),
        "b3": phase.subset(["u", "v"]),
    }
    return build_goal_lattice_spec(phase, goal_map, SYSTEM_NAMES)


def desire_lattice(desires, intention):
    elements = ["0", "b1", "b2", "b3", "U12", "U123"]
    covers = [("0", "b1"), ("0", "b2"), ("0", "b3"), ("b1", "U12"),
              ("b2", "U12"), ("U12", "U123"), ("b3", "U123")]
    lat = verify_poset(elements, covers, covers=True,
                       generators=["b1", "b2", "b3"])
    return build_desire_lattice(lat, desires, intention)


def walkthrough_desires():
    return {
        "agent-1": desire_lattice(["b1", "b2"], "U12"),
        "agent-2": desire_lattice(["b1", "b2"], "U12"),
        "agent-3": desire_lattice(["b1", "b2", "b3"], "U123"),
    }


def walkthrough_env():
    feats = (("profile", 4), ("outline", 2), ("detail", 1), ("contact", 0))
    near_feats = (("profile", 3), ("outline", 2), ("detail", 1),
                  ("contact", 0))
    agents = [AgentState("agent-1", (2, 4), 3, "a1"),
              AgentState("agent-2", (4, 3), 3, "a2"),
              AgentState("agent-3", (6, 3), 3, "a3")]
    goals = [GoalObject("b1", (1, 5), feats),
             GoalObject("b2", (4, 1), feats),
             GoalObject("b3", (0, 0), near_feats)]
    return build_environment(7, 7, [(0, 2), (1, 2)], agents, goals)


MOVEMENT = ("a1", "a2", "a3")


class TestGoalLatticeSpec:
    def test_bundled_spec_builds(self):
        spec = system_spec()
        assert len(spec.lattice.elements) == 8
        assert spec.lattice.top == "1"
        assert spec.lattice.bottom == "0"
        assert spec.fact_name(spec.fact_of("b1")) == "B1"
        assert spec.target_names == ("B1", "B2", "B3", "I")
        assert [f.members for f in spec.facts] \
            == [f.members for f in enumerate_facts(spec.phase)]

    def test_non_fact_target_rejected(self):
        phase = union_phase()
        with pytest.raises(PlannerError):
            build_goal_lattice_spec(phase, {"b1": phase.subset(["w"])})

    def test_foreign_space_target_rejected(self):
        with pytest.raises(SpaceMismatch):
            build_goal_lattice_spec(union_phase(),
                                    {"b1": union_phase().i_fact})

    def test_name_for_non_fact_rejected(self):
        phase = union_phase()
        with pytest.raises(PlannerError):
            build_goal_lattice_spec(phase, {"b1": phase.i_fact},
                                    names={frozenset({"w"}): "W"})

    def test_duplicate_names_rejected(self):
        phase = union_phase()
        names = {frozenset(): "X", frozenset({"e"}): "X"}
        with pytest.raises(PlannerError):
            build_goal_lattice_spec(phase, {"b1": phase.i_fact}, names=names)

    def test_unknown_goal(self):
        spec = system_spec()
        with pytest.raises(UnknownGoalId):
            spec.fact_of("b9")

    def test_fact_count_bounded_before_the_order_is_listed(self, monkeypatch):
        # Z_10 with every non-zero element false: dual(X) is the complement
        # of -X, so every one of the 1,024 subsets is a fact
        carrier = [str(i) for i in range(10)]
        table = {(x, y): str((int(x) + int(y)) % 10)
                 for x in carrier for y in carrier}
        phase = validate_monoid(carrier, table, "0", carrier[1:])
        assert len(enumerate_facts(phase)) == 1024 > LATTICE_ELEMENT_BOUND

        def unreachable(*args, **kwargs):
            raise AssertionError("the fact lattice was built")
        monkeypatch.setattr(planner_module, "verify_poset", unreachable)
        with pytest.raises(LatticeTooLarge) as info:
            build_goal_lattice_spec(phase, {"b1": phase.i_fact})
        assert isinstance(info.value, LimitExceeded)
        assert str(info.value) == ("fact lattice has 1024 elements; lattices"
                                   f" are bounded at {LATTICE_ELEMENT_BOUND}")


class TestProcessPriority:
    def test_single_agent_single_goal_is_linear_implication(self):
        spec = system_spec()
        got = process_priority(spec, ["a1"], ["b1"])
        expected = linear_implication(spec.fact_of("a1"), spec.fact_of("b1"))
        assert got.members == expected.members

    def test_empty_subset_reduces_to_movement_term(self):
        spec = system_spec()
        got = process_priority(spec, MOVEMENT, [])
        assert got.members == {"e"}
        assert spec.fact_name(got) == "I"

    def test_bundled_values(self):
        spec = system_spec()
        assert process_priority(spec, MOVEMENT, ["b1"]).members == {"e", "u"}
        assert process_priority(spec, MOVEMENT, ["b2"]).members == {"e", "v"}
        assert process_priority(spec, MOVEMENT, ["b1", "b2"]).members == \
            {"e", "u", "v", "w"}
        assert process_priority(spec, MOVEMENT, ["b3"]).members == {"u", "v"}

    def test_unknown_ids(self):
        spec = system_spec()
        with pytest.raises(UnknownGoalId):
            process_priority(spec, ["zz"], ["b1"])
        with pytest.raises(UnknownGoalId):
            process_priority(spec, MOVEMENT, ["zz"])

    def test_matches_par_of_the_dual(self):
        """Seeded monoids (cyclic, min, max, union) with random false sets:
        the priority is par(dual(A), B), for A the tensor of the movement
        facts and B that of the goal facts."""
        def monoid(rng, kind):
            if kind == "union":
                carrier = range(2 ** rng.randint(1, 3))
                op, unit = or_, 0
            else:
                n = rng.randint(1, 6)
                carrier = range(n)
                op, unit = {"cyclic": (lambda x, y: (x + y) % n, 0),
                            "min": (min, n - 1), "max": (max, 0)}[kind]
            names = [str(x) for x in carrier]
            table = {(str(x), str(y)): str(op(x, y))
                     for x in carrier for y in carrier}
            false_set = rng.sample(names, rng.randint(0, len(names)))
            return validate_monoid(names, table, str(unit), false_set)

        def fold(spec, ids):
            return reduce(tensor, [spec.fact_of(i) for i in ids],
                          spec.phase.i_fact)

        seen = set()
        for seed in range(80):
            rng = random.Random(seed)
            kind = rng.choice(["cyclic", "min", "max", "union"])
            phase = monoid(rng, kind)
            facts = enumerate_facts(phase)
            ids = [f"x{i}" for i in range(5)]
            spec = build_goal_lattice_spec(
                phase, {i: rng.choice(facts) for i in ids})
            movement = rng.choices(ids, k=rng.randint(0, 3))
            goals = rng.sample(ids, rng.randint(0, 3))
            expected = par(dual(fold(spec, movement)), fold(spec, goals))
            got = process_priority(spec, movement, goals)
            assert got.members == expected.members, seed
            if expected.members not in (phase.i_fact.members,
                                        fold(spec, goals).members):
                seen.add(kind)  # neither the unit nor the goals alone
        assert seen == {"cyclic", "min", "max", "union"}

    def test_permutation_invariance(self):
        spec = system_spec()
        rng = random.Random(17)
        base = process_priority(spec, MOVEMENT, ["b1", "b2", "b3"]).members
        for _ in range(30):
            moves = list(MOVEMENT)
            goals = ["b1", "b2", "b3"]
            rng.shuffle(moves)
            rng.shuffle(goals)
            assert process_priority(spec, moves, goals).members == base


class TestSelectIntentions:
    def test_no_discovered_goals(self):
        spec = system_spec()
        assert select_intentions(spec, [], movement_ids=MOVEMENT) == []

    def test_single_goal_is_the_only_candidate(self):
        spec = system_spec()
        out = select_intentions(spec, ["b1"], movement_ids=MOVEMENT)
        assert [s for s, _ in out] == [("b1",)]

    def test_pair_strictly_dominates_singletons(self):
        spec = system_spec()
        out = select_intentions(spec, ["b1", "b2"], movement_ids=MOVEMENT)
        assert [s for s, _ in out] == [("b1", "b2")]
        assert spec.fact_name(out[0][1]) == "1"

    def test_all_maximal_subsets_returned(self):
        spec = system_spec()
        out = select_intentions(spec, ["b1", "b2", "b3"],
                                movement_ids=MOVEMENT)
        assert [s for s, _ in out] == [("b1", "b2"), ("b1", "b3"),
                                       ("b2", "b3"), ("b1", "b2", "b3")]
        for _, priority in out:
            assert spec.fact_name(priority) == "1"

    def test_max_size_cap(self):
        spec = system_spec()
        out = select_intentions(spec, ["b1", "b2", "b3"],
                                movement_ids=MOVEMENT, max_size=1)
        assert [s for s, _ in out] == [("b1",), ("b2",), ("b3",)]

    def test_reachability_filter(self):
        spec = system_spec()
        out = select_intentions(spec, [g for g in ["b1", "b2"] if g != "b1"],
                                movement_ids=MOVEMENT)
        assert [s for s, _ in out] == [("b2",)]

    def test_maximality_against_every_candidate(self):
        spec = system_spec()
        discovered = ["b1", "b2", "b3"]
        out = select_intentions(spec, discovered, movement_ids=MOVEMENT)
        for _, priority in out:
            for size in (1, 2, 3):
                for combo in combinations(discovered, size):
                    other = process_priority(spec, MOVEMENT, combo)
                    assert not priority.members < other.members

    def test_matches_the_pairwise_definition(self):
        """Seeded instances of up to 20 goals, against a brute-force copy
        that compares every candidate with every other one."""
        def pairwise(spec, discovered, keep, movement_ids, max_size):
            pool = [g for g in sorted(discovered) if keep(g)]
            cap = len(pool) if max_size is None else min(max_size, len(pool))
            candidates = [(combo, process_priority(spec, movement_ids, combo))
                          for size in range(1, cap + 1)
                          for combo in combinations(pool, size)]
            kept = [(combo, p) for combo, p in candidates
                    if not any(p.members < q.members for _, q in candidates)]
            return kept, len(candidates)

        phase = union_phase()
        facts = enumerate_facts(phase)
        tied = dropped = 0
        for seed in range(16):
            rng = random.Random(seed)
            n = rng.randint(1, 20)
            goals = [f"g{i}" for i in range(n)]
            movement = [f"m{i}" for i in range(rng.randint(0, 3))]
            spec = build_goal_lattice_spec(
                phase, {g: rng.choice(facts) for g in goals + movement})
            discovered = rng.sample(goals, rng.randint(0, n))
            hidden = set(rng.sample(discovered, len(discovered) // 4))
            max_size = rng.choice([1, 2, 3] + ([None] if n <= 10 else []))
            expected, candidates = pairwise(
                spec, discovered, lambda g: g not in hidden, movement,
                max_size)
            pool = [g for g in sorted(discovered) if g not in hidden]
            assert select_intentions(spec, pool, movement_ids=movement,
                                     max_size=max_size) == expected, seed
            tied += len({p.members for _, p in expected}) > 1
            dropped += len(expected) < candidates
        assert tied and dropped, (tied, dropped)

    def test_one_priority_per_fact_multiset(self, monkeypatch):
        """Goals mapped in turn onto three facts: the priority is
        evaluated once per multiset of the candidates' facts, and the
        result is the pairwise definition's."""
        spec = system_spec()
        goals = [f"g{i:02}" for i in range(12)]
        fact_no = {g: i % 3 for i, g in enumerate(goals)}
        facts = [spec.fact_of(b) for b in ("b1", "b2", "b3")]
        spec = build_goal_lattice_spec(spec.phase, {
            **spec.goal_map, **{g: facts[fact_no[g]] for g in goals}})
        candidates = [combo for size in (1, 2, 3)
                      for combo in combinations(goals, size)]
        priorities = [process_priority(spec, MOVEMENT, c) for c in candidates]
        expected = [(c, p) for c, p in zip(candidates, priorities)
                    if not any(p.members < q.members for q in priorities)]
        evaluated = []

        def spy(spec, movement_ids, goal_subset):
            evaluated.append(tuple(sorted(fact_no[g] for g in goal_subset)))
            return process_priority(spec, movement_ids, goal_subset)

        monkeypatch.setattr(planner_module, "process_priority", spy)
        out = select_intentions(spec, goals, movement_ids=MOVEMENT,
                                max_size=3)
        assert out == expected
        assert len(candidates) == 298 and len(evaluated) == 3 + 6 + 10
        assert len(set(evaluated)) == len(evaluated)

    def test_goal_subsets_bounded_before_any_priority(self, monkeypatch):
        """Six goals give 6 + 15 + 20 = 41 subsets of at most three: a
        bound of 41 lists them, one of 40 refuses them before any priority
        is evaluated."""
        spec = system_spec()
        goals = [f"g{i:02}" for i in range(6)]
        facts = [spec.fact_of(b) for b in ("b1", "b2", "b3")]
        spec = build_goal_lattice_spec(spec.phase, {
            **spec.goal_map, **{g: facts[i % 3] for i, g in enumerate(goals)}})
        monkeypatch.setattr(planner_module, "INTENTION_SUBSET_BOUND", 41)
        assert select_intentions(spec, goals, movement_ids=MOVEMENT,
                                 max_size=3)
        evaluated = []

        def spy(*args):
            evaluated.append(args)
            return process_priority(*args)

        monkeypatch.setattr(planner_module, "process_priority", spy)
        monkeypatch.setattr(planner_module, "INTENTION_SUBSET_BOUND", 40)
        with pytest.raises(TooManyGoalSubsets) as info:
            select_intentions(spec, goals, movement_ids=MOVEMENT, max_size=3)
        assert isinstance(info.value, LimitExceeded)
        assert str(info.value) == "41 goal subsets exceed the bound 40"
        assert evaluated == []

    def test_subset_score_values(self):
        spec = system_spec()
        assert subset_score(spec, ["b1"]) == Fraction(1, 2)
        assert subset_score(spec, ["b3"]) == Fraction(1, 4)
        assert subset_score(spec, ["b1", "b2"]) == Fraction(1)


class TestPlayReward:
    def env_one_agent(self, agent_at=(1, 1), horizon=5, goal_at=(2, 1),
                      feats=(("f1", 2), ("f2", 0))):
        return build_environment(
            4, 3, [], [AgentState("a", agent_at, horizon, "m")],
            [GoalObject("g", goal_at, feats)])

    def test_length_mismatch(self):
        env = self.env_one_agent()
        with pytest.raises(LengthMismatch):
            play_reward(env, {}, ["g"])
        env2 = build_environment(
            4, 3, [], [AgentState("a", (0, 0), 1, "m"),
                       AgentState("b", (3, 2), 1, "m")], [])
        with pytest.raises(LengthMismatch):
            play_reward(env2, {"a": ((0, 1),), "b": ()}, [])

    def test_standing_on_goal_sees_all_features(self):
        env = self.env_one_agent(agent_at=(2, 1))
        assert play_reward(env, {"a": ()}, ["g"]) == {"f1", "f2"}

    def test_empty_goals_gives_exploration_only(self):
        env = self.env_one_agent(horizon=0)
        quiet = play_reward(env, {"a": ((1, 1),)}, [])
        assert quiet == frozenset()
        moving = play_reward(env, {"a": ((2, 1),)}, [])
        assert moving == {"scout:2,1"}

    def test_scouted_baseline_suppresses_known_cells(self):
        env = self.env_one_agent(horizon=0)
        all_cells = frozenset((c, r) for c in range(4) for r in range(3))
        assert play_reward(env, {"a": ((2, 1),)}, [],
                           scouted=all_cells) == frozenset()

    def test_join_accumulates_along_play(self):
        env = self.env_one_agent(agent_at=(0, 1), horizon=9)
        # passes the goal cell and leaves: the close-range feature stays
        value = play_reward(env, {"a": ((1, 1), (2, 1), (3, 1))}, ["g"],
                            scouted=frozenset(
                                (c, r) for c in range(4) for r in range(3)))
        assert value == {"f1", "f2"}

    def test_per_goal_vs_positionwise(self):
        agents = [AgentState("a", (0, 0), 2, "m"),
                  AgentState("b", (4, 0), 2, "m")]
        goals = [GoalObject("g1", (0, 1), (("f", 1),)),
                 GoalObject("g2", (4, 1), (("f", 1),))]
        env = build_environment(5, 2, [], agents, goals)
        scouted = frozenset((c, r) for c in range(5) for r in range(2))
        joint = {"a": ((0, 0),), "b": ((4, 0),)}
        per_goal = play_reward(env, joint, ["g1", "g2"], scouted=scouted)
        literal = play_reward(env, joint, ["g1", "g2"], scouted=scouted,
                              eq1_mode="positionwise")
        assert per_goal == {"f"}
        assert literal == frozenset()

    def test_bad_mode(self):
        env = self.env_one_agent()
        with pytest.raises(PlannerError):
            play_reward(env, {"a": ()}, [], eq1_mode="nope")

    def test_first_error_class_and_message(self):
        """The mode is checked first, then the goal ids, then the play."""
        env = self.env_one_agent()
        with pytest.raises(PlannerError) as info:
            play_reward(env, {}, ["nope"], eq1_mode="joint")
        assert type(info.value) is PlannerError
        assert str(info.value) == "unknown eq1 mode 'joint'"
        with pytest.raises(UnknownGoalId) as info:
            play_reward(env, {}, ["g", "nope"])
        assert str(info.value) == "no goal 'nope' in the environment"

    @pytest.mark.parametrize("goal_ids", [["b1", "b2"], []])
    def test_illegal_cells_raise_with_and_without_goals(self, goal_ids):
        """A play through an obstacle or off the grid raises, goals or
        none: the first illegal cell in agent order, then path order,
        whatever the order of the play's keys."""
        env = walkthrough_env()
        cases = [
            ({"agent-3": ((7, 3),), "agent-1": ((1, 2),),
              "agent-2": ((4, 2),)},
             OnObstacle, "observer at (1, 2) sits on an obstacle"),
            ({"agent-1": ((2, 3),), "agent-2": ((4, 2),),
              "agent-3": ((7, 3),)},
             OutOfBounds, "observer at (7, 3) is outside the 7x7 grid"),
            ({"agent-1": ((-1, 4), (1, 2)), "agent-2": ((4, 2), (4, 1)),
              "agent-3": ((6, 2), (6, 1))},
             OutOfBounds, "observer at (-1, 4) is outside the 7x7 grid"),
        ]
        for play, error, message in cases:
            with pytest.raises(error) as info:
                play_reward(env, play, goal_ids)
            assert type(info.value) is error
            assert str(info.value) == message

    @pytest.mark.parametrize("goal_ids", [["b1", "b2"], []])
    def test_jumps_raise_with_and_without_goals(self, goal_ids):
        """A step that is not a move raises NotAPlay, naming the agent and
        both cells: the first such step in agent order, then path order,
        and only once every cell is free."""
        env = walkthrough_env()
        cases = [
            ({"agent-1": ((0, 0),), "agent-2": ((4, 3),),
              "agent-3": ((6, 3),)},
             NotAPlay, "agent agent-1 cannot move from (2, 4) to (0, 0)"
             " in one step"),
            ({"agent-3": ((5, 3), (5, 1)), "agent-2": ((5, 4), (5, 5)),
              "agent-1": ((2, 3), (3, 2))},
             NotAPlay, "agent agent-1 cannot move from (2, 3) to (3, 2)"
             " in one step"),
            ({"agent-1": ((2, 3), (2, 3)), "agent-2": ((4, 2), (4, 4)),
              "agent-3": ((6, 1), (6, 1))},
             NotAPlay, "agent agent-2 cannot move from (4, 2) to (4, 4)"
             " in one step"),
            ({"agent-1": ((0, 4),), "agent-2": ((4, 3),),
              "agent-3": ((1, 2),)},
             OnObstacle, "observer at (1, 2) sits on an obstacle"),
        ]
        for play, error, message in cases:
            with pytest.raises(error) as info:
                play_reward(env, play, goal_ids)
            assert type(info.value) is error
            assert str(info.value) == message
        stay = {a.id: (a.position,) for a in env.agents}
        assert play_reward(env, stay, goal_ids) == play_reward(
            env, {a.id: () for a in env.agents}, goal_ids)

    def test_matches_frozenset_reward(self):
        """Seeded joint plays against the reward computed on frozensets,
        in both modes: no goals, goals without features, and goals that
        share feature names."""
        def oracle(env, play, goal_ids, mode, scouted):
            visits = [(a, c) for a in env.agents
                      for c in (a.position,) + play[a.id]]
            seen = frozenset().union(*(grid.observed_cells(env, c, a.horizon)
                                       for a, c in visits))
            value = {grid.scout_feature(c) for c in seen - scouted}
            views = [[grid.reward(env, c, g, a.horizon) for g in goal_ids]
                     for a, c in visits]
            if not goal_ids:
                return frozenset(value)
            if mode == "per-goal":
                return frozenset(value).union(frozenset.intersection(
                    *(frozenset().union(*per_goal)
                      for per_goal in zip(*views))))
            return frozenset(value).union(
                *(frozenset.intersection(*v) for v in views))

        names = ["f", "g", "h", "k"]
        seen_kinds = set()
        for seed in range(40):
            rng = random.Random(seed)
            width, height = rng.randint(2, 5), rng.randint(2, 4)
            cells = [(c, r) for c in range(width) for r in range(height)]
            obstacles = [c for c in cells if rng.random() < 0.15]
            free = [c for c in cells if c not in obstacles]
            if not free:
                obstacles, free = [], cells
            agents = [AgentState(f"a{i}", cell, rng.randint(0, 3), "m")
                      for i, cell in enumerate(
                          rng.sample(free, min(len(free), rng.randint(1, 3))))]
            goals = [GoalObject(f"g{i}", rng.choice(free), tuple(
                (name, rng.randint(0, 3))
                for name in rng.sample(names, rng.randint(0, 3))))
                for i in range(rng.randint(0, 3))]
            env = build_environment(width, height, obstacles, agents, goals)
            steps = rng.randint(0, 3)
            play = {}
            for a in agents:
                path = (a.position,)
                for _ in range(steps):
                    path += (rng.choice(grid.agent_moves(env, path[-1])),)
                play[a.id] = path[1:]
            scouted = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
            for k in range(len(goals) + 1):
                goal_ids = [g.id for g in rng.sample(goals, k)]
                for mode in EQ1_MODES:
                    got = play_reward(env, play, goal_ids, eq1_mode=mode,
                                      scouted=scouted)
                    assert got == oracle(env, play, goal_ids, mode,
                                         scouted), (seed, goal_ids, mode)
                chosen = [env.goal(g) for g in goal_ids]
                seen_kinds.add(len(goal_ids))
                if any(not g.features for g in chosen):
                    seen_kinds.add("featureless")
                shared = [n for g in chosen for n in g.feature_names()]
                if len(shared) > len(set(shared)):
                    seen_kinds.add("shared")
        assert {0, 1, 2, 3, "featureless", "shared"} <= seen_kinds


class TestGoalViewsFromSight:
    def test_cell_goal_part_matches_the_reward_formula(self):
        """Seeded grids up to 20x20 and 1x1 grids, horizons 0-16, feature
        ranges 0 to horizon + 2, both modes: for every free cell, edges
        and corners included, the goal part of `_cell` is what the bits of
        `grid.reward` give, one slot per goal or their meet."""
        kinds = set()
        for seed in range(36):
            rng = random.Random(seed)
            width, height = (1, 1) if seed % 9 == 0 else (
                rng.randint(1, 20), rng.randint(1, 20))
            cells = [(c, r) for c in range(width) for r in range(height)]
            density = rng.choice([0.0, 0.15, 0.3])
            obstacles = [c for c in cells[1:] if rng.random() < density]
            free = [c for c in cells if c not in obstacles]
            horizon = (0, 1, 16)[seed % 3] if seed < 6 \
                else rng.randint(0, 16)
            goals = [GoalObject(f"g{i}", rng.choice(free), tuple(
                (name, rng.randint(0, horizon + 2))
                for name in rng.sample(["p", "q", "r", "s"],
                                       rng.randint(0, 4))))
                for i in range(rng.randint(1, 3))]
            # one agent whose window of width + height moves is the grid
            env = build_environment(width, height, obstacles,
                                    [AgentState("a", free[0], horizon, "m")],
                                    goals)
            for mode in EQ1_MODES:
                enc = planner_module._Encoder(env, [g.id for g in goals],
                                              mode, frozenset(),
                                              width + height)
                slots = (1 << enc.scout_shift) - 1

                def bits(names):
                    return sum(1 << enc.features[n] for n in names)

                for cell in free:
                    views = [bits(grid.reward(env, cell, g, horizon))
                             for g in goals]
                    if mode == "per-goal":
                        expected = sum(v << s
                                       for v, s in zip(views, enc.shifts))
                    else:
                        expected = reduce(and_, views)
                    assert enc._cell(cell, horizon) & slots == expected, (
                        seed, mode, cell)
                    for g in goals:
                        dist = grid.chebyshev(cell, g.position)
                        sight = grid.line_of_sight(env, cell, g.position)
                        if dist <= horizon and not sight:
                            kinds.add("hidden")
                        if dist <= horizon and sight and any(
                                dist > reach for _, reach in g.features):
                            kinds.add("out of range")
                        if dist > horizon and any(
                                dist <= reach for _, reach in g.features):
                            kinds.add("past the horizon")
        assert kinds == {"hidden", "out of range", "past the horizon"}


class TestChoosePlay:
    def one_agent_env(self):
        return build_environment(
            3, 3, [], [AgentState("a", (1, 1), 5, "m")],
            [GoalObject("g", (2, 1), (("far", 2), ("touch", 0)))])

    def spec_for(self, env):
        phase = union_phase()
        goal_map = {a.movement_goal_id: phase.i_fact for a in env.agents}
        goal_map.update({g.id: phase.subset(["e", "u"]) for g in env.goals})
        return build_goal_lattice_spec(phase, goal_map)

    def test_depth_zero_single_play(self):
        env = self.one_agent_env()
        out = choose_play(env, self.spec_for(env), ["g"], 0)
        assert out == [{"a": ()}]

    def test_step_onto_adjacent_goal_dominates(self):
        env = self.one_agent_env()
        out = choose_play(env, self.spec_for(env), ["g"], 1)
        assert out == [{"a": ((2, 1),)}]

    def test_unknown_eq1_mode(self):
        env = self.one_agent_env()
        with pytest.raises(PlannerError) as info:
            choose_play(env, self.spec_for(env), ["g"], 1, eq1_mode="joint")
        assert str(info.value) == "unknown eq1 mode 'joint'"

    def test_two_agents_split_between_goals(self):
        agents = [AgentState("a1", (1, 0), 5, "m1"),
                  AgentState("a2", (3, 0), 5, "m2")]
        goals = [GoalObject("ga", (0, 0), (("f", 0),)),
                 GoalObject("gb", (4, 0), (("f", 0),))]
        env = build_environment(5, 1, [], agents, goals)
        out = choose_play(env, self.spec_for(env), ["ga", "gb"], 1)
        assert out == [{"a1": ((0, 0),), "a2": ((4, 0),)}]

    def test_exploration_orders_incomparable_maxima_lexicographically(self):
        env = build_environment(3, 3, [],
                                [AgentState("a", (1, 1), 0, "m")], [])
        out = choose_play(env, self.spec_for(env), [], 1)
        assert out == [{"a": ((1, 0),)}, {"a": ((2, 1),)},
                       {"a": ((1, 2),)}, {"a": ((0, 1),)}]

    def test_depth_and_agent_bounds(self):
        env = self.one_agent_env()
        with pytest.raises(DepthTooLarge):
            choose_play(env, self.spec_for(env), ["g"], 5)
        agents = [AgentState(f"a{i}", (i, 0), 1, "m") for i in range(4)]
        wide = build_environment(5, 1, [], agents, [])
        spec = self.spec_for(wide)
        with pytest.raises(DepthTooLarge):
            choose_play(wide, spec, [], 1)

    def test_negative_depth_is_a_typed_error(self):
        env = self.one_agent_env()
        with pytest.raises(PlannerError, match="depth -1 outside"):
            choose_play(env, self.spec_for(env), ["g"], -1)

    def test_unknown_goal(self):
        env = self.one_agent_env()
        with pytest.raises(UnknownGoalId):
            choose_play(env, self.spec_for(env), ["nope"], 1)

    def test_first_error_class_and_message(self):
        """The mode is checked first, then the goal ids in the grid, then
        in the goal map."""
        env = self.one_agent_env()
        spec = self.spec_for(env)
        with pytest.raises(PlannerError) as info:
            choose_play(env, spec, ["nope"], 1, eq1_mode="joint")
        assert type(info.value) is PlannerError
        assert str(info.value) == "unknown eq1 mode 'joint'"
        with pytest.raises(UnknownGoalId) as info:
            choose_play(env, spec, ["g", "nope"], 1)
        assert str(info.value) == "no goal 'nope' in the environment"
        unmapped = build_goal_lattice_spec(spec.phase, {"m": spec.fact_of("m")})
        with pytest.raises(UnknownGoalId) as info:
            choose_play(env, unmapped, ["g", "nope"], 1)
        assert str(info.value) == "no goal 'nope' in the environment"
        with pytest.raises(UnknownGoalId) as info:
            choose_play(env, unmapped, ["g"], 1)
        assert str(info.value) == "no goal lattice entry for 'g'"

    @pytest.mark.parametrize("goals", [[], ["g"]])
    def test_no_agents_get_the_one_empty_play(self, goals):
        """The group of no agents is the tensor unit: one empty play, of
        empty reward, in both modes."""
        env = build_environment(3, 3, [], [],
                                [GoalObject("g", (2, 1), (("far", 2),))])
        for mode in EQ1_MODES:
            out = choose_play(env, self.spec_for(env), goals, 2,
                              eq1_mode=mode)
            assert len(out) == 1 and out[0] == {}
            assert out.reward == frozenset()
            assert out == [{}]
            assert play_reward(env, {}, goals, eq1_mode=mode) == frozenset()

    def test_matches_brute_force_on_small_instance(self):
        env = self.one_agent_env()
        spec = self.spec_for(env)
        got = choose_play(env, spec, ["g"], 2)
        paths = []

        def walk(cells, left):
            if left == 0:
                paths.append(cells)
                return
            from latticeplan.grid import agent_moves
            for target in agent_moves(env, cells[-1]):
                walk(cells + (target,), left - 1)

        walk(((1, 1),), 2)
        scored = [(p, play_reward(env, {"a": p[1:]}, ["g"])) for p in paths]
        maximal = [dict(a=p[1:]) for p, v in scored
                   if not any(v < w for _, w in scored)]
        assert [dict(p) for p in got] == maximal


def maximal(values) -> set:
    """The heads of `_by_dominance`: the values that no other covers."""
    return set(planner_module._by_dominance(list(values)))


class TestMaximal:
    def test_matches_the_pairwise_definition(self):
        """Seeded int sets with duplicates and 0, against the values that
        no other value covers, compared pairwise: those head the groups,
        each group's members are covered by its head, and every value
        appears once over the groups."""
        for seed in range(300):
            rng = random.Random(seed)
            bits = rng.randint(1, 12)
            values = [rng.getrandbits(bits) for _ in range(rng.randint(0, 60))]
            values += rng.sample(values, len(values) // 3) + [0] * (seed % 3)
            expected = {v for v in values
                        if not any(v != w and v | w == w for w in values)}
            groups = planner_module._by_dominance(values)
            assert set(groups) == expected, seed
            assert all(head == members[0] and all(
                s | head == head for s in members)
                for head, members in groups.items()), seed
            assert sorted(s for members in groups.values()
                          for s in members) == sorted(values), seed
        assert planner_module._by_dominance([0, 0]) == {0: [0, 0]}
        assert planner_module._by_dominance([]) == {}


def random_encoder(rng, mode):
    """An encoder of 0-2 goals over three features on a 1x1 grid."""
    names = ["f0", "f1", "f2"]
    goals = [GoalObject(f"g{i}", (0, 0),
                        tuple((name, 1) for name in rng.sample(
                            names, rng.randint(1, 3))))
             for i in range(rng.randint(0, 2))]
    env = build_environment(1, 1, [], [], goals)
    return planner_module._Encoder(env, [g.id for g in goals], mode,
                                   frozenset(), 0)


class TestColumnMaxima:
    def test_matches_maximal_over_the_flat_product(self):
        """Seeded signatures for 0-3 agents and 0-2 slots in both layouts,
        with duplicates and zeros, against the heads of `_by_dominance`
        over the value of every combination, kept in `product` order."""
        for seed in range(240):
            rng = random.Random(seed)
            enc = random_encoder(rng, EQ1_MODES[seed % 2])
            bound = 1 << enc.scout_shift + rng.randint(0, 4)
            tops = []
            for _ in range(rng.randint(0, 3)):
                sigs = [rng.randrange(bound) for _ in range(rng.randint(1, 5))]
                sigs += rng.sample(sigs, len(sigs) // 2) + [0] * (seed % 3 // 2)
                tops.append(sigs)
            values = [enc.value(reduce(or_, combo, 0))
                      for combo in product(*tops)]
            best = maximal(values)
            got, maxima, ties = enc.maxima([[[s] for s in sigs]
                                             for sigs in tops])
            assert [(combo, v) for combo, v in zip(product(*tops), got)
                    if v in maxima] == [
                (combo, v) for combo, v in zip(product(*tops), values)
                if v in best], seed
            assert ties == {}, seed


def filtered_members(enc, groups, found):
    """Per maximal combination, the members that the per-member `value`
    scan keeps: the top, and each member whose join with the other
    agents' tops has the combination's value."""
    out = {}
    for top, best in found:
        kept = []
        for k, t in enumerate(top):
            rest = reduce(or_, top[:k] + top[k + 1:], 0)
            members = next(m for m in groups[k] if m[0] == t)
            kept.append([s for s in members
                         if s == t or enc.value(s | rest) == best])
        out[top] = kept
    return out


def by_combination(groups, values, best, ties):
    """`maxima`'s answer as (tops, value) for each maximal combination, in
    `product` order, and its ties keyed by tops, not by index."""
    combos = list(product(*([m[0] for m in gs] for gs in groups)))
    return ([(combo, v) for combo, v in zip(combos, values) if v in best],
            {combos[i]: tie for i, tie in ties.items()})


class TestTieCandidates:
    def test_kept_members_match_the_per_member_scan(self):
        """Seeded tops with dominated members for 1-3 agents, in both
        layouts: two or more goal slots (the columns are a prefilter) and
        one slot or none (they are exact)."""
        tied = {True: 0, False: 0}
        for seed in range(300):
            rng = random.Random(seed)
            enc = random_encoder(rng, EQ1_MODES[seed % 2])
            bound = 1 << enc.scout_shift + rng.randint(1, 4)
            groups = []
            for _ in range(rng.randint(1, 3)):
                tops = rng.sample(range(1, bound), min(rng.randint(1, 4),
                                                       bound - 1))
                groups.append([[t] + sorted({t & rng.randrange(bound)
                                             for _ in range(4)} - {t})
                               for t in tops])
            found, ties = by_combination(groups, *enc.maxima(groups))
            expected = filtered_members(enc, groups, found)
            for top, best in found:
                kept, value = ties.get(top, ([[t] for t in top], best))
                assert value == best and kept == expected[top], seed
            assert all(top in expected for top in ties), seed
            tied[len(enc.shifts) > 1] += len(ties)
        assert tied[True] > 0 and tied[False] > 0, tied


def brute_force_plays(env, goal_ids, depth, eq1_mode, scouted=None):
    """Maximal plays by scoring every joint play with play_reward."""
    per_agent = []
    for a in env.agents:
        paths = [((), ())]   # (cells after the start, move indices)
        for _ in range(depth):
            paths = [(cells + (t,), idxs + (i,)) for cells, idxs in paths
                     for i, t in enumerate(grid.agent_moves(
                         env, cells[-1] if cells else a.position))]
        per_agent.append(paths)
    scored = []
    for combo in product(*per_agent):
        play = {a.id: cells for a, (cells, _) in zip(env.agents, combo)}
        key = tuple(idxs[t] for t in range(depth) for _, idxs in combo)
        scored.append((key, play, play_reward(env, play, goal_ids,
                                              eq1_mode=eq1_mode,
                                              scouted=scouted)))
    values = {v for _, _, v in scored}
    best = {v for v in values if not any(v < w for w in values)}
    return [play for _, play, v in sorted(scored, key=lambda s: s[0])
            if v in best]


def random_walkthrough_like(rng):
    """A small random grid with 1-3 walkthrough agents and goals b1, b2."""
    width, height = rng.randint(2, 4), rng.randint(2, 3)
    cells = [(c, r) for c in range(width) for r in range(height)]
    obstacles = [cell for cell in cells if rng.random() < 0.2]
    free = [cell for cell in cells if cell not in obstacles]
    if len(free) < 3:
        obstacles, free = [], cells
    agents = [AgentState(f"agent-{i + 1}", cell, rng.randint(0, 2), f"a{i + 1}")
              for i, cell in enumerate(rng.sample(free, rng.randint(1, 3)))]
    goals = [GoalObject(gid, rng.choice(free),
                        tuple((name, rng.randint(0, 2))
                              for name in rng.sample(["far", "mid", "near"],
                                                     rng.randint(1, 3))))
             for gid in ("b1", "b2")]
    return build_environment(width, height, obstacles, agents, goals)


class TestChoosePlayOracle:
    def test_ordered_brute_force_in_both_modes(self, monkeypatch):
        """Also with a scouted set given, as simulate gives one: the plan's
        reward is the first play's, and plan_once takes it from the search,
        not from play_reward."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return play_reward(*args, **kwargs)

        monkeypatch.setattr(planner_module, "play_reward", spy)
        spec = system_spec()
        for k in range(16):
            rng = random.Random(7100 + k)
            env = random_walkthrough_like(rng)
            depth = rng.randint(0, 2)
            chosen = rng.sample(["b1", "b2"], rng.randint(1, 2))
            cells = [(c, r) for c in range(env.width)
                     for r in range(env.height)]
            scouted = frozenset(rng.sample(cells, rng.randint(0, len(cells))))
            for mode in EQ1_MODES:
                for goals in ([], chosen):
                    expected = brute_force_plays(env, goals, depth, mode)
                    assert choose_play(env, spec, goals, depth,
                                       eq1_mode=mode) == expected, (k, mode)
                plan = plan_once(env, spec, walkthrough_desires(),
                                 discovered=chosen, depth=depth,
                                 eq1_mode=mode)
                assert list(plan.alternates) == brute_force_plays(
                    env, plan.chosen_goals, depth, mode), (k, mode)
                assert plan.total_reward == play_reward(
                    env, plan.plays, plan.chosen_goals, eq1_mode=mode)
                plan = plan_once(env, spec, walkthrough_desires(),
                                 discovered=chosen, scouted=scouted,
                                 depth=depth, eq1_mode=mode)
                assert list(plan.alternates) == brute_force_plays(
                    env, plan.chosen_goals, depth, mode, scouted), (k, mode)
                assert plan.total_reward == play_reward(
                    env, plan.plays, plan.chosen_goals, eq1_mode=mode,
                    scouted=scouted), (k, mode)
        assert calls == []


def path_signature(env, agent, cells, goal_ids, eq1_mode, scouted):
    """What the reward needs of one agent's cells (start included): newly
    scouted features, then each goal's best view (per-goal), or each
    cell's meet of the goal views joined into them (positionwise)."""
    seen = frozenset().union(*(grid.observed_cells(env, c, agent.horizon)
                               for c in cells))
    scouts = frozenset(grid.scout_feature(c) for c in seen - scouted)
    views = [[grid.reward(env, c, g, agent.horizon) for g in goal_ids]
             for c in cells]
    if eq1_mode == "per-goal":
        return scouts, tuple(frozenset().union(*per_goal)
                             for per_goal in zip(*views))
    if goal_ids:
        scouts = scouts.union(*(frozenset.intersection(*v) for v in views))
    return scouts, ()


def covered(low, high):
    return low[0] <= high[0] and all(a <= b for a, b in zip(low[1], high[1]))


def dominated_paths(env, goal_ids, depth, eq1_mode):
    """Per agent, the paths (start excluded) whose signature another of
    its paths covers componentwise and strictly."""
    scouted = frozenset().union(*(grid.observed_cells(env, a.position,
                                                      a.horizon)
                                  for a in env.agents))
    out = {}
    for a in env.agents:
        paths = [(a.position,)]
        for _ in range(depth):
            paths = [p + (t,) for p in paths
                     for t in grid.agent_moves(env, p[-1])]
        sigs = {p[1:]: path_signature(env, a, p, goal_ids, eq1_mode, scouted)
                for p in paths}
        out[a.id] = {p for p, mine in sigs.items()
                     if any(s != mine and covered(mine, s)
                            for s in sigs.values())}
    return out


def random_small_grid(rng):
    """A grid of at most 3x3 with 1-2 walkthrough agents and goals b1, b2."""
    width, height = rng.randint(2, 3), rng.randint(2, 3)
    cells = [(c, r) for c in range(width) for r in range(height)]
    obstacles = [cell for cell in cells if rng.random() < 0.15]
    free = [cell for cell in cells if cell not in obstacles]
    if len(free) < 2:
        obstacles, free = [], cells
    agents = [AgentState(f"agent-{i + 1}", cell, rng.randint(0, 2), f"a{i + 1}")
              for i, cell in enumerate(rng.sample(free, rng.randint(1, 2)))]
    goals = [GoalObject(gid, rng.choice(free),
                        tuple((name, rng.randint(0, 2))
                              for name in rng.sample(["far", "mid", "near"],
                                                     rng.randint(1, 3))))
             for gid in ("b1", "b2")]
    return build_environment(width, height, obstacles, agents, goals)


class TestChoosePlayOracleDepthThree:
    """The benchmark's depth, where dominated classes tie maximal values."""

    def test_ordered_brute_force_with_dominated_ties(self):
        spec = system_spec()
        ties = 0
        for k in range(12):
            rng = random.Random(9300 + k)
            env = random_small_grid(rng)
            chosen = rng.sample(["b1", "b2"], rng.randint(1, 2))
            for mode in EQ1_MODES:
                for goals in ([], chosen):
                    expected = brute_force_plays(env, goals, 3, mode)
                    got = choose_play(env, spec, goals, 3, eq1_mode=mode)
                    assert len(got) == len(expected), (k, mode, goals)
                    assert got[0] == expected[0], (k, mode, goals)
                    assert list(got) == expected, (k, mode, goals)
                    dominated = dominated_paths(env, goals, 3, mode)
                    ties += any(play[aid] in paths for play in expected
                                for aid, paths in dominated.items())
        assert ties > 0

    def test_each_tie_candidate_scored_once(self, monkeypatch):
        """A signature is scored (through `values`, which `value` calls)
        once per combination of tops (the maxima), once per column
        candidate, and once per other combination of the kept members;
        the maximal combination itself is not scored again. A member is a
        column candidate of a maximal combination when each bit its top
        holds and it lacks is held by another agent's top in the
        combination, counting scout bits only with two or more goal
        slots."""
        values, maxima = (planner_module._Encoder.values,
                          planner_module._Encoder.maxima)
        calls, found = [], []

        def spy_maxima(enc, groups):
            calls.clear()
            out = maxima(enc, groups)
            found.append((enc, groups, by_combination(groups, *out)))
            return out

        monkeypatch.setattr(planner_module._Encoder, "values",
                            lambda enc, sigs: calls.extend(sigs)
                            or values(enc, sigs))
        monkeypatch.setattr(planner_module._Encoder, "maxima", spy_maxima)
        spec = system_spec()
        rejected = tied = 0
        for k in range(12):
            rng = random.Random(9300 + k)
            env = random_small_grid(rng)
            goals = rng.sample(["b1", "b2"], rng.randint(1, 2))
            for mode in EQ1_MODES:
                found.clear()
                choose_play(env, spec, goals, 3, eq1_mode=mode)
                scored = len(calls)
                (enc, groups, (maximal, ties)), = found
                tested = ~0 if len(enc.shifts) < 2 else -1 << enc.scout_shift
                expected = prod(map(len, groups))
                for top, _ in maximal:
                    for i, t in enumerate(top):
                        rest = reduce(or_, top[:i] + top[i + 1:], 0)
                        members = next(m for m in groups[i] if m[0] == t)
                        for s in members[1:]:
                            candidate = t & ~s & tested & ~rest == 0
                            expected += candidate
                            rejected += not candidate
                for kept, _ in ties.values():
                    expected += prod(map(len, kept)) - 1
                    tied += 1
                assert scored == expected, (k, mode)
        assert rejected > 0 and tied > 0


def windows_env(rng, agents, depth, relation):
    """Agents along a row, with a random row each, whose windows (radius
    depth plus horizon) are disjoint, touch, or overlap by one column,
    on a grid that clips them at random; obstacles away from the agents."""
    horizon = rng.randint(0, 1)
    reach = depth + horizon
    gap = {"disjoint": 2 * reach + 2, "touching": 2 * reach + 1,
           "overlap": 2 * reach}[relation]
    margin = rng.randint(0, reach)
    starts = [(margin + i * gap, rng.randint(0, 2)) for i in range(agents)]
    width, height = starts[-1][0] + 1 + rng.randint(0, reach), 3
    obstacles = [(c, r) for c in range(width) for r in range(height)
                 if (c, r) not in starts and rng.random() < 0.15]
    free = [(c, r) for c in range(width) for r in range(height)
            if (c, r) not in obstacles]
    goals = [GoalObject(gid, rng.choice(free),
                        tuple((name, rng.randint(0, 2))
                              for name in rng.sample(["far", "mid", "near"],
                                                     rng.randint(1, 3))))
             for gid in ("b1", "b2")]
    return build_environment(
        width, height, obstacles,
        [AgentState(f"agent-{i + 1}", cell, horizon, f"a{i + 1}")
         for i, cell in enumerate(starts)], goals)


class TestFrames:
    def test_windows_disjoint_touching_or_overlapping(self):
        """Seeded 2- and 3-agent grids at depths 1-3 (2 agents) and 1-2 (3
        agents), in both modes: the plays are the brute-force ones, the
        frames are one per agent unless the windows overlap, and a cell
        that two agents' paths see newly is one scout bit of the play's
        join, as the scout features of its reward count them."""
        spec = system_spec()
        shared = 0
        cases = [(agents, depth, relation)
                 for agents, depths in ((2, (1, 2, 3)), (3, (1, 2)))
                 for depth in depths
                 for relation in ("disjoint", "touching", "overlap")]
        for k, (agents, depth, relation) in enumerate(cases):
            rng = random.Random(9800 + k)
            env = windows_env(rng, agents, depth, relation)
            goals = rng.sample(["b1", "b2"], rng.randint(0, 2))
            for mode in EQ1_MODES:
                where = (k, agents, depth, relation, mode)
                got = choose_play(env, spec, goals, depth, eq1_mode=mode)
                assert list(got) == brute_force_plays(env, goals, depth,
                                                      mode), where
                assert got.reward == play_reward(env, got[0], goals,
                                                 eq1_mode=mode), where
                enc = planner_module._Encoder(env, goals, mode, None, depth)
                assert len(enc.frames) == (
                    1 if relation == "overlap" else agents), where
                start = enc.scouted
                for play in got:
                    seen = [enc.signature(a, (a.position,) + play[a.id])
                            >> enc.scout_shift for a in env.agents]
                    join = reduce(or_, seen)
                    scouts = [name for name in enc.decode(enc.value(
                        join << enc.scout_shift))
                        if name.startswith(grid.SCOUT_PREFIX)]
                    assert len(scouts) == join.bit_count(), where
                    assert join & start == 0, where
                    shared += any(a & b for a, b in combinations(seen, 2))
        assert shared > 0

    def test_scout_bits_fit_the_clusters_on_a_wide_grid(self, monkeypatch):
        """On a 256x256 grid with agents in opposite corners, every cell
        signature's scout part fits in the two clusters' box areas. The
        first play's `play_reward` is the plan's reward, and it numbers its
        bits on the same two frames, not on one frame of the grid."""
        cells = []
        cell = planner_module._Encoder._cell

        def spy(enc, *args):
            cells.append((enc, cell(enc, *args)))
            return cells[-1][1]

        monkeypatch.setattr(planner_module._Encoder, "_cell", spy)
        agents = [AgentState("agent-1", (1, 2), 2, "a1"),
                  AgentState("agent-2", (3, 1), 2, "a2"),
                  AgentState("agent-3", (250, 250), 2, "a3")]
        feats = (("far", 3), ("mid", 2), ("near", 1))
        env = build_environment(256, 256, [(2, 2), (249, 251)], agents,
                                [GoalObject("b1", (4, 4), feats),
                                 GoalObject("b2", (252, 250), feats)])
        for mode in EQ1_MODES:
            cells.clear()
            got = choose_play(env, system_spec(), ["b1", "b2"], 3,
                              eq1_mode=mode)
            enc = cells[0][0]
            boxes = [(c1 - c0 + 1) * (r1 - r0 + 1)
                     for c0, r0, c1, r1, _ in enc.frames]
            assert boxes == [9 * 8, 11 * 11], mode
            assert all(sig >> enc.scout_shift < 1 << sum(boxes)
                       for _, sig in cells), mode
            assert all(e is enc for e, _ in cells), mode
            cells.clear()
            assert play_reward(env, got[0], ["b1", "b2"],
                               eq1_mode=mode) == got.reward, mode
            assert cells[0][0] is not enc, mode
            assert cells[0][0].frames == enc.frames, mode


def share(idxs, agent, agents):
    """One agent's part of a joint play's order key: the play's
    interleaved move indices, each step's in agent order, read as base-5
    digits, are the sum of the agents' shares."""
    out = 0
    for move in idxs:
        out = out * 5 ** agents + move
    return out * 5 ** (agents - 1 - agent)


def listed_classes(enc, env, i, depth):
    """Agent i's classes by listing every path with `agent_paths`, one
    signature per visited set: signature -> [(cells after the start,
    share)] in share order."""
    a = env.agents[i]
    classes = {}
    for cells, idxs in grid.agent_paths(env, a.position, depth)[-1]:
        classes.setdefault(enc.signature(a, frozenset(cells)), []).append(
            (cells[1:], share(idxs, i, len(env.agents))))
    return classes


def reference_kernel(env, goal_ids, depth, eq1_mode):
    """The joint search over listed paths, without the column maxima or
    the tie candidates: every combination of non-dominated classes valued,
    the heads of `_by_dominance` over those values, and every member
    combination of a maximal one scored."""
    enc = planner_module._Encoder(env, goal_ids, eq1_mode, None, depth)
    per_agent = [listed_classes(enc, env, i, depth)
                 for i in range(len(env.agents))]
    groups = [planner_module._by_dominance(list(c)) for c in per_agent]
    values = {top: enc.value(reduce(or_, top, 0)) for top in product(*groups)}
    maxima = maximal(values.values())
    combos = [([c[sig] for c, sig in zip(per_agent, combo)], best)
              for top, best in values.items() if best in maxima
              for combo in product(*(g[sig] for g, sig in zip(groups, top)))
              if enc.value(reduce(or_, combo, 0)) == best]
    agent_ids = [a.id for a in env.agents]
    first, best = min(combos, key=lambda combo: sum(
        [m[0][1] for m in combo[0]]))
    return planner_module.MaximalPlays(
        sum(prod(map(len, ms)) for ms, _ in combos),
        dict(zip(agent_ids, (m[0][0] for m in first))),
        lambda: planner_module._expand_plays(agent_ids,
                                             [ms for ms, _ in combos]),
        enc.decode(best))


class TestChoosePlayDepthFour:
    def test_three_agents_on_an_open_grid_match_the_reference(self):
        feats = (("far", 3), ("mid", 2), ("near", 1))
        agents = [AgentState("agent-1", (4, 4), 1, "a1"),
                  AgentState("agent-2", (5, 4), 1, "a2"),
                  AgentState("agent-3", (4, 5), 1, "a3")]
        goals = [GoalObject("b1", (0, 8), feats),
                 GoalObject("b2", (8, 0), feats)]
        for mode in EQ1_MODES:
            expected = reference_kernel(build_environment(9, 9, [], agents, goals),
                                     ["b1", "b2"], 4, mode)
            got = choose_play(build_environment(9, 9, [], agents, goals),
                              system_spec(), ["b1", "b2"], 4, eq1_mode=mode)
            assert len(got) == len(expected) <= 5000, mode
            assert got[0] == expected[0] and got.reward == expected.reward
            assert list(got) == list(expected), mode


class TestChoosePlayDepthFive:
    def test_two_agents_match_the_path_listing(self, monkeypatch):
        """Past the depth bound, which is lifted here only, on seeded 9x9
        grids: `len`, `[0]` and `reward` against the search over listed
        paths."""
        monkeypatch.setattr(planner_module, "EXHAUSTIVE_DEPTH_BOUND", 5)
        feats = (("far", 3), ("mid", 2), ("near", 1))
        starts = [(4, 4), (5, 4)]
        for k in range(16):
            rng = random.Random(9900 + k)
            free = [(c, r) for c in range(9) for r in range(9)
                    if (c, r) not in starts and rng.random() > 0.12]
            obstacles = [(c, r) for c in range(9) for r in range(9)
                         if (c, r) not in starts and (c, r) not in free]
            agents = [AgentState(f"agent-{i + 1}", cell, rng.randint(1, 2),
                                 f"a{i + 1}") for i, cell in enumerate(starts)]
            goals = [GoalObject(gid, rng.choice(free), feats)
                     for gid in ("b1", "b2")]
            env = build_environment(9, 9, obstacles, agents, goals)
            for mode in EQ1_MODES:
                expected = reference_kernel(env, ["b1", "b2"], 5, mode)
                got = choose_play(env, system_spec(), ["b1", "b2"], 5,
                                  eq1_mode=mode)
                assert len(got) == len(expected), (k, mode)
                assert got[0] == expected[0], (k, mode)
                assert got.reward == expected.reward, (k, mode)


class TestAgentClasses:
    def test_move_by_move_pass_matches_the_path_listing(self):
        """Per agent: the same signatures, and for each the same count,
        first member and member list, in both modes at depths 0-4, on
        small seeded grids and the walkthrough."""
        for k in range(25):
            rng = random.Random(9700 + k)
            env = random_walkthrough_like(rng) if k else walkthrough_env()
            goals = rng.sample(["b1", "b2"], rng.randint(0, 2))
            n = len(env.agents)
            for mode in EQ1_MODES:
                for depth in range(5):
                    enc = planner_module._Encoder(env, goals, mode, None,
                                                  depth)
                    for i, a in enumerate(env.agents):
                        got = planner_module._agent_classes(
                            enc, a, depth, 5 ** n, 5 ** (n - 1 - i))
                        expected = listed_classes(enc, env, i, depth)
                        where = (k, mode, depth, a.id)
                        assert sorted(got) == sorted(expected), where
                        for sig, members in expected.items():
                            assert len(got[sig]) == len(members), where
                            assert got[sig][0] == members[0], where
                            assert list(got[sig]) == members, where


class TestOneUnroller:
    def test_game_reveals_are_the_search_paths(self, monkeypatch):
        """The members of an agent's classes in the search at depth d,
        with the start, are the cells of the agent game's reveal vertices
        at depth d, each once, for every agent."""
        spec = system_spec()
        built = []
        agent_classes = planner_module._agent_classes

        def recording(enc, agent, *args):
            built.append((agent, agent_classes(enc, agent, *args)))
            return built[-1][1]

        monkeypatch.setattr(planner_module, "_agent_classes", recording)
        for k in range(8):
            rng = random.Random(9500 + k)
            env = random_small_grid(rng)
            for depth in range(4):
                built.clear()
                choose_play(env, spec, ["b1"], depth)
                assert [a for a, _ in built] == list(env.agents)
                for a, classes in built:
                    paths = [(a.position,) + cells
                             for members in classes.values()
                             for cells, _ in members]
                    game = grid.build_agent_game(env, a.id, depth)
                    reveals = [cells for kind, cells in game.vertices
                               if kind == "r" and len(cells) == depth + 1]
                    assert len(set(paths)) == len(paths)
                    assert sorted(paths) == sorted(reveals), (k, depth, a.id)


class TestVertexWeight:
    def test_walkthrough_weights_exact(self):
        desires = walkthrough_desires()
        assert vertex_weight(desires["agent-3"], "U12") == Fraction(2, 3)
        assert vertex_weight(desires["agent-2"], "b2") == Fraction(1, 2)
        assert vertex_weight(desires["agent-3"], "b2") == Fraction(1, 3)

    def test_top_weight_is_one(self):
        for dl in walkthrough_desires().values():
            assert vertex_weight(dl, dl.lattice.top) == Fraction(1)

    def test_monotone_along_order(self):
        for dl in walkthrough_desires().values():
            lat = dl.lattice
            for v in lat.elements:
                for w in lat.elements:
                    if lat.leq(v, w):
                        assert vertex_weight(dl, v) <= vertex_weight(dl, w)

    def test_foreign_vertex(self):
        dl = walkthrough_desires()["agent-2"]
        with pytest.raises(ForeignElement):
            vertex_weight(dl, "b9")

    def test_desire_lattice_validation(self):
        lat = walkthrough_desires()["agent-2"].lattice
        with pytest.raises(InvalidDesires):
            build_desire_lattice(lat, [], "U12")
        with pytest.raises(InvalidDesires):
            build_desire_lattice(lat, ["b1", "b1"], "U12")
        with pytest.raises(InvalidDesires):
            build_desire_lattice(lat, ["U12"], "U12")
        with pytest.raises(ForeignElement):
            build_desire_lattice(lat, ["b1"], "zz")

    def test_weight_rationals_are_exact(self):
        dl = walkthrough_desires()["agent-3"]
        assert vertex_weight(dl, "b1") == Fraction(1, 3)
        assert vertex_weight(dl, "0") == Fraction(0, 1)
        assert vertex_weight(dl, "U123") == Fraction(3, 3)


class TestAssignAgents:
    def test_assignment_with_constructed_rewards(self):
        env = walkthrough_env()
        rewards = {
            "agent-1": {"b1": frozenset({"profile", "outline", "detail"}),
                        "b2": frozenset({"profile"})},
            "agent-2": {"b1": frozenset({"profile"}),
                        "b2": frozenset({"profile", "outline"})},
            "agent-3": {"b1": frozenset(),
                        "b2": frozenset({"profile", "outline"})},
        }
        got = assign_agents(env, ["b1", "b2"], rewards, walkthrough_desires())
        assert got == {"b1": "agent-1", "b2": "agent-2"}
        assert "agent-3" not in got.values()

    def test_assignment_from_live_rewards(self):
        env = walkthrough_env()
        rewards = {a.id: {g.id: grid.reward(env, a.position, g, a.horizon)
                          for g in env.goals}
                   for a in env.agents}
        got = assign_agents(env, ["b1", "b2"], rewards, walkthrough_desires())
        assert got == {"b1": "agent-1", "b2": "agent-2"}

    def test_single_agent_single_goal(self):
        env = build_environment(
            3, 3, [], [AgentState("agent-1", (0, 0), 1, "m")],
            [GoalObject("g", (2, 2), (("f", 1),))])
        got = assign_agents(env, ["g"], {"agent-1": {"g": frozenset()}},
                            walkthrough_desires())
        assert got == {"g": "agent-1"}

    def test_identical_rewards_and_weights_take_lowest_index(self):
        env = walkthrough_env()
        rewards = {a: {"b1": frozenset({"profile"})}
                   for a in ("agent-1", "agent-2", "agent-3")}
        desires = {a: desire_lattice(["b1", "b2"], "U12")
                   for a in ("agent-1", "agent-2", "agent-3")}
        got = assign_agents(env, ["b1"], rewards, desires)
        assert got == {"b1": "agent-1"}

    def test_incomparable_rewards_fall_back_to_weights(self):
        env = walkthrough_env()
        rewards = {
            "agent-1": {"b2": frozenset()},
            "agent-2": {"b2": frozenset({"left-view"})},
            "agent-3": {"b2": frozenset({"right-view"})},
        }
        # agent-1 is dominated; 2 and 3 are incomparable maxima
        got = assign_agents(env, ["b2"], rewards, walkthrough_desires())
        assert got == {"b2": "agent-2"}

    def test_missing_desire_vertex(self):
        env = walkthrough_env()
        elements = ["0", "b1"]
        lat = verify_poset(elements, [("0", "b1")], covers=True)
        small = build_desire_lattice(lat, ["b1"], "b1")
        rewards = {a: {"b2": frozenset({"x"})}
                   for a in ("agent-1", "agent-2", "agent-3")}
        with pytest.raises(MissingDesireVertex):
            assign_agents(env, ["b2"], rewards,
                          {a: small for a in
                           ("agent-1", "agent-2", "agent-3")})

    def test_dominator_always_beats_weights(self):
        env = walkthrough_env()
        rewards = {
            "agent-1": {"b2": frozenset({"x"})},
            "agent-2": {"b2": frozenset({"x", "y"})},
            "agent-3": {"b2": frozenset({"x"})},
        }
        got = assign_agents(env, ["b2"], rewards, walkthrough_desires())
        assert got == {"b2": "agent-2"}

    def test_injective_and_covering(self):
        env = walkthrough_env()
        rng = random.Random(23)
        features = ["p", "q", "r"]
        for _ in range(40):
            rewards = {
                a: {g: frozenset(f for f in features if rng.random() < 0.5)
                    for g in ("b1", "b2", "b3")}
                for a in ("agent-1", "agent-2", "agent-3")}
            got = assign_agents(env, ["b1", "b2", "b3"], rewards,
                                walkthrough_desires())
            assert len(got) == 3
            assert len(set(got.values())) == 3


def three_stage_assignment(agent_ids, goals, rewards, desire_lattices):
    """The assignment rule, stage by stage: a goal goes to an agent whose
    reward strictly dominates every other unassigned agent's; the goals
    left go to the maximal agent of largest desire weight, then the
    earliest."""
    unassigned = list(agent_ids)
    assignment = {}
    remaining = []
    for goal in goals:
        if not unassigned:
            break
        dominators = [a for a in unassigned
                      if all(rewards[b][goal] < rewards[a][goal]
                             for b in unassigned if b != a)]
        if dominators:
            assignment[goal] = dominators[0]
            unassigned.remove(dominators[0])
        else:
            remaining.append(goal)
    for goal in remaining:
        if not unassigned:
            break
        maximal = [a for a in unassigned
                   if not any(rewards[a][goal] < rewards[b][goal]
                              for b in unassigned)]
        weights = {}
        for a in maximal:
            if goal not in desire_lattices[a].lattice:
                raise MissingDesireVertex(goal)
            weights[a] = vertex_weight(desire_lattices[a], goal)
        best = max(weights.values())
        pick = next(a for a in agent_ids if weights.get(a) == best)
        assignment[goal] = pick
        unassigned.remove(pick)
    return assignment


class TestAssignAgentsOracle:
    def test_matches_three_stage_definition(self):
        rng = random.Random(31)
        small = build_desire_lattice(
            verify_poset(["0", "b1"], [("0", "b1")], covers=True), ["b1"],
            "b1")
        lattices = [desire_lattice(["b1", "b2"], "U12"),
                    desire_lattice(["b1", "b2", "b3"], "U123"),
                    desire_lattice(["b3"], "b3"), small]
        views = [frozenset(c) for n in range(4)
                 for c in combinations("pqr", n)]
        outcomes = {"assigned": 0, "missing vertex": 0}
        for _ in range(3000):
            n = rng.randint(1, 3)
            agents = [AgentState(f"agent-{i}", (i, 0), 1, "a1")
                      for i in rng.sample(range(1, 4), n)]
            env = build_environment(4, 1, [], agents, [])
            ids = [a.id for a in agents]
            goals = rng.sample(["b1", "b2", "b3"], rng.randint(1, 3))
            pool = rng.sample(views, rng.randint(1, 4))
            rewards = {a: {g: rng.choice(pool) for g in goals} for a in ids}
            desires = {a: rng.choice(lattices) for a in ids}
            try:
                expected = three_stage_assignment(ids, goals, rewards,
                                                  desires)
            except MissingDesireVertex:
                outcomes["missing vertex"] += 1
                with pytest.raises(MissingDesireVertex):
                    assign_agents(env, goals, rewards, desires)
                continue
            outcomes["assigned"] += 1
            assert assign_agents(env, goals, rewards, desires) == expected
        assert min(outcomes.values()) > 100, outcomes


class TestPlanOnce:
    def test_bundled_decision_step(self):
        env = walkthrough_env()
        spec = system_spec()
        plan = plan_once(env, spec, walkthrough_desires(),
                         discovered=["b1", "b2"], depth=2)
        assert plan.chosen_goals == ("b1", "b2")
        assert plan.priority_name == "1"
        assert not plan.tie_break
        assert plan.assignment == {"b1": "agent-1", "b2": "agent-2"}
        assert "agent-3" not in plan.assignment.values()
        assert set(plan.plays) == {"agent-1", "agent-2", "agent-3"}
        assert all(len(p) == 2 for p in plan.plays.values())
        assert plan.alternates[0] == plan.plays

    @pytest.mark.parametrize("cap", [0, -1])
    def test_subset_cap_below_one_before_any_work(self, monkeypatch, cap):
        """A cap that scenario validation refuses fails at once, with its
        class and text; it used to choose no goal."""
        calls = []
        monkeypatch.setattr(grid, "reachable",
                            lambda *args: calls.append(args) or True)
        with pytest.raises(PlannerError) as info:
            plan_once(walkthrough_env(), system_spec(), walkthrough_desires(),
                      discovered=["b1", "b2"], depth=0, subset_cap=cap)
        assert type(info.value) is PlannerError
        assert str(info.value) == f"subset cap {cap} must be >= 1"
        assert calls == []

    def test_tie_break_prefers_score_then_size_then_order(self):
        # subset scores: b1 and b2 1/2, b3 1/4, {b1,b2} 1, {b1,b3} and
        # {b2,b3} 3/4, {b1,b2,b3} 5/4; maxima are listed smallest first,
        # so the first case's pick is the last one listed
        env = walkthrough_env()
        for discovered, cap, chosen in (
                (["b1", "b2", "b3"], 3, ("b1", "b2", "b3")),
                (["b1", "b2", "b3"], 2, ("b1", "b2")),
                (["b3", "b2"], 1, ("b2",)),
                (["b2", "b1"], 1, ("b1",))):
            plan = plan_once(env, system_spec(), walkthrough_desires(),
                             discovered=discovered, depth=0, subset_cap=cap)
            assert plan.tie_break
            assert plan.chosen_goals == chosen

    def test_tie_break_size_rule(self):
        """A singleton and a pair tie on priority and score: the smaller
        subset wins, although the pair comes first in subset order."""
        carrier = [str(i) for i in range(5)]
        table = {(x, y): str(min(int(x) + int(y), 4))
                 for x in carrier for y in carrier}
        phase = validate_monoid(carrier, table, "0", ["1", "4"])
        # the second agent's movement goal is I, the unit of tensor, so the
        # movement term is m0 alone
        spec = build_goal_lattice_spec(phase, {
            "g0": phase.subset(["1", "4"]), "g1": phase.subset(["0", "3", "4"]),
            "g2": phase.subset(["1", "4"]), "m0": phase.subset(["3", "4"]),
            "i0": phase.i_fact})
        ranked = select_intentions(spec, ["g0", "g1", "g2"],
                                   movement_ids=["m0", "i0"], max_size=2)
        assert [goals for goals, _ in ranked] == [("g1",), ("g0", "g2")]
        assert all(priority.members == frozenset(carrier)
                   for _, priority in ranked)
        assert [subset_score(spec, goals) for goals, _ in ranked] \
            == [Fraction(2, 3)] * 2
        feats = (("f", 1),)
        env = build_environment(
            5, 5, [], [AgentState("a", (0, 0), 2, "m0"),
                       AgentState("b", (4, 4), 2, "i0")],
            [GoalObject("g0", (2, 0), feats), GoalObject("g1", (2, 2), feats),
             GoalObject("g2", (0, 2), feats)])
        lat = verify_poset(
            ["0", "g0", "g1", "g2", "1"],
            [("0", "g0"), ("0", "g1"), ("0", "g2"),
             ("g0", "1"), ("g1", "1"), ("g2", "1")], covers=True)
        desires = {a: build_desire_lattice(lat, ["g0", "g1", "g2"], "1")
                   for a in ("a", "b")}
        plan = plan_once(env, spec, desires, discovered=["g0", "g1", "g2"],
                         depth=0, subset_cap=2)
        assert plan.tie_break
        assert plan.chosen_goals == ("g1",)

    def test_tie_break_matches_the_per_subset_score(self):
        """Up to 14 goals on three facts, so many maximal subsets tie on
        priority and score: summing one score per goal picks the subset
        that scoring each subset picked."""
        phase = union_phase()
        facts = [phase.subset(["e", "u"]), phase.subset(["e", "v"]),
                 phase.subset(["u", "v"])]
        env = walkthrough_env()
        free = [(c, r) for c in range(7) for r in range(7)
                if (c, r) not in env.obstacles]
        tied = 0
        for seed in range(24):
            rng = random.Random(seed)
            ids = [f"g{i:02}" for i in range(rng.randint(2, 14))]
            spec = build_goal_lattice_spec(phase, {
                **{g: rng.choice(facts) for g in ids},
                **{m: phase.i_fact for m in MOVEMENT}}, SYSTEM_NAMES)
            goals = [GoalObject(g, rng.choice(free), (("f", 1),)) for g in ids]
            lat = verify_poset(["0", *ids, "1"],
                               [("0", g) for g in ids] + [(g, "1") for g in ids],
                               covers=True, generators=ids)
            desires = {a.id: build_desire_lattice(lat, ids, "1")
                       for a in env.agents}
            discovered = rng.sample(ids, rng.randint(1, len(ids)))
            cap = rng.randint(1, 3)
            ranked = select_intentions(spec, discovered, movement_ids=MOVEMENT,
                                       max_size=cap)
            scores = [subset_score(spec, combo) for combo, _ in ranked]
            tied += scores.count(max(scores)) > 1
            chosen, priority = min(ranked, key=lambda cp: (
                -subset_score(spec, cp[0]), len(cp[0]), cp[0]))
            plan = plan_once(
                build_environment(7, 7, env.obstacles, env.agents, goals),
                spec, desires, discovered=discovered, depth=0, subset_cap=cap)
            assert plan.chosen_goals == chosen, seed
            assert plan.priority_value.members == priority.members, seed
        assert tied > 12

    def test_search_limits_before_any_work(self, monkeypatch):
        """A depth or mode the search refuses fails before any goal is
        flooded for or any intention selected."""
        calls = []
        monkeypatch.setattr(grid, "reachable",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(planner_module, "select_intentions",
                            lambda *args, **kwargs: calls.append(args))
        for kwargs, error, message in (
                ({"depth": 9}, DepthTooLarge, "planner depth 9"),
                ({"eq1_mode": "bogus"}, PlannerError,
                 "unknown eq1 mode 'bogus'")):
            with pytest.raises(error, match=message):
                plan_once(walkthrough_env(), system_spec(),
                          walkthrough_desires(), discovered=["b1", "b2"],
                          **kwargs)
        assert calls == []

    def test_walkthrough_depth_three(self):
        env = walkthrough_env()
        plan = plan_once(env, system_spec(), walkthrough_desires(),
                         discovered=["b1", "b2"], depth=3)
        assert len(plan.alternates) == 1050
        assert plan.alternates[0] == plan.plays
        values = {play_reward(env, play, plan.chosen_goals)
                  for play in plan.alternates}
        assert not any(a < b for a in values for b in values)


    def test_walled_off_goals_cost_one_flood_per_component(self,
                                                          monkeypatch):
        """b1 and b2 are walled into corners: one flood of the agents'
        component answers every (goal, agent) pair, and the next cycle's
        environment floods nothing."""
        env = walkthrough_env()
        walls = [(0, 2), (1, 2), (0, 4), (1, 5), (0, 6), (3, 1), (5, 1),
                 (4, 0), (4, 2)]
        env = build_environment(7, 7, walls, env.agents, [
            GoalObject("b1", (0, 5), env.goal("b1").features),
            GoalObject("b2", (4, 1), env.goal("b2").features)])
        calls = []
        moves = grid.agent_moves

        def spy(env, cell):
            calls.append(cell)
            return moves(env, cell)

        monkeypatch.setattr(grid, "agent_moves", spy)
        for step in range(2):
            plan = plan_once(env, system_spec(), walkthrough_desires(),
                             discovered=["b1", "b2"], depth=0)
            assert plan.chosen_goals == ()
            assert len(calls) == 7 * 7 - len(walls) - 2
            env = env.with_positions({"agent-1": (2, 3)})


DEPTH_FOUR_PLAY = {
    "agent-1": ((2, 3), (2, 4), (2, 5), (1, 5)),
    "agent-2": ((4, 2), (4, 1), (4, 0), (3, 0)),
    "agent-3": ((6, 2), (6, 1), (6, 0), (6, 1)),
}


class TestLazyAlternates:
    def test_walkthrough_depth_four(self, monkeypatch):
        expansions = []
        expand = planner_module._expand_plays

        def spy(*args):
            expansions.append(args)
            return expand(*args)

        monkeypatch.setattr(planner_module, "_expand_plays", spy)
        env = walkthrough_env()
        plan = plan_once(env, system_spec(), walkthrough_desires(),
                         discovered=["b1", "b2"], depth=4)
        assert plan.plays == DEPTH_FOUR_PLAY
        assert len(plan.alternates) == 475024
        assert plan.alternates[0] == plan.plays
        assert plan.total_reward == {"contact", "detail", "outline", "profile",
                                     "scout:0,0", "scout:0,1"}
        assert expansions == []

        moves = {}

        def move_indices(start, path):
            if (start, path) not in moves:
                cells = (start,) + path
                moves[start, path] = tuple(
                    grid.agent_moves(env, a).index(b)
                    for a, b in zip(cells, cells[1:]))
            return moves[start, path]

        previous = None
        for play in plan.alternates:
            per_agent = [move_indices(a.position, play[a.id])
                         for a in env.agents]
            key = tuple(i for step in zip(*per_agent) for i in step)
            assert previous is None or previous < key
            previous = key
        assert len(expansions) == 1
        assert list(plan.alternates)[0] == plan.plays
        assert len(expansions) == 1

    def spy_on_agent_paths(self, monkeypatch) -> list:
        calls = []
        agent_paths = grid.agent_paths

        def spy(env, start, depth):
            calls.append((tuple(start), depth))
            return agent_paths(env, start, depth)

        monkeypatch.setattr(grid, "agent_paths", spy)
        return calls

    def test_later_plays_need_no_path_listing(self, monkeypatch):
        """A plan reads `len` and `[0]`; reading a later play expands the
        classes the search built, and never lists paths with
        `grid.agent_paths`."""
        calls = self.spy_on_agent_paths(monkeypatch)
        env = walkthrough_env()
        plan = plan_once(env, system_spec(), walkthrough_desires(),
                         discovered=["b1", "b2"], depth=3)
        assert len(plan.alternates) == 1050
        assert plan.alternates[1] != plan.plays
        assert calls == []

    def test_reading_every_play_twice_lists_no_paths(self, monkeypatch):
        """Reading every play, twice, gives the same list, and no search
        lists paths with `grid.agent_paths`."""
        calls = self.spy_on_agent_paths(monkeypatch)
        spec = system_spec()
        for k in range(6):
            env = random_small_grid(random.Random(9600 + k))
            for mode in EQ1_MODES:
                for depth in range(1, 4):
                    out = choose_play(env, spec, ["b1"], depth,
                                      eq1_mode=mode)
                    plays = list(out)
                    assert list(out) == plays and len(plays) == len(out)
                    assert calls == [], (k, mode, depth)

    def test_sequence_protocol(self):
        env = TestChoosePlay().one_agent_env()
        spec = TestChoosePlay().spec_for(env)
        out = choose_play(env, spec, [], 1)
        assert len(out) == 5 and out[0] == {"a": ((1, 0),)}
        assert out[-1] == {"a": ((1, 1),)}
        assert out[1:3] == [{"a": ((2, 1),)}, {"a": ((1, 2),)}]
        assert {"a": ((0, 1),)} in out
        assert out == tuple(out) and out != list(out)[:4] and out != "abc"
        with pytest.raises(IndexError):
            out[5]
        with pytest.raises(TypeError):
            out[0] = {}


class TestSimulate:
    def test_step_bound_before_the_first_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(planner_module, "plan_once",
                            lambda *args, **kwargs: calls.append(args))
        with pytest.raises(TooManySteps) as info:
            simulate(walkthrough_env(), system_spec(), walkthrough_desires(),
                     max_steps=SIMULATE_STEP_BOUND + 1)
        assert isinstance(info.value, LimitExceeded)
        assert str(info.value) == "max steps 10001 exceed the bound 10000"
        assert calls == []

    def test_search_limits_before_the_first_step(self):
        """A depth or mode the search refuses fails at once, even when no
        step would run."""
        env, spec, desires = (walkthrough_env(), system_spec(),
                              walkthrough_desires())
        with pytest.raises(DepthTooLarge, match="planner depth 9"):
            simulate(env, spec, desires, depth=9, max_steps=0)
        with pytest.raises(PlannerError, match="unknown eq1 mode 'bogus'"):
            simulate(env, spec, desires, max_steps=0, eq1_mode="bogus")

    @pytest.mark.parametrize("limits, message", [
        ({"max_steps": -1}, "max steps -1 must be >= 0"),
        ({"patience": -2}, "patience -2 must be >= 1"),
        ({"patience": 0}, "patience 0 must be >= 1"),
        ({"subset_cap": 0}, "subset cap 0 must be >= 1")])
    def test_run_limits_before_any_work(self, monkeypatch, limits, message):
        """The limits scenario validation refuses fail at once, with its
        class and text, before the first perception or plan."""
        calls = []
        monkeypatch.setattr(planner_module, "plan_once",
                            lambda *args, **kwargs: calls.append(args))
        monkeypatch.setattr(grid, "visible_goals",
                            lambda *args: calls.append(args) or [])
        with pytest.raises(PlannerError) as info:
            simulate(walkthrough_env(), system_spec(), walkthrough_desires(),
                     **limits)
        assert type(info.value) is PlannerError
        assert str(info.value) == message
        assert calls == []

    def test_walled_in_no_goals_ends_by_patience(self):
        agents = [AgentState("a", (1, 1), 1, "m")]
        env = build_environment(3, 3, [(1, 0), (2, 1), (1, 2), (0, 1)],
                                agents, [])
        phase = union_phase()
        spec = build_goal_lattice_spec(phase, {"m": phase.i_fact})
        trace = simulate(env, spec, {}, depth=1, max_steps=20, patience=3)
        assert trace.end_reason == "no progress for 3 steps"
        for step in trace.steps:
            for _, src, dst in step.moves:
                assert src == dst

    def test_adjacent_goal_achieved_in_one_step(self):
        agents = [AgentState("a", (1, 1), 2, "m")]
        goals = [GoalObject("g", (2, 1), (("profile", 2), ("contact", 0)))]
        env = build_environment(4, 3, [], agents, goals)
        phase = union_phase()
        spec = build_goal_lattice_spec(
            phase, {"m": phase.i_fact, "g": phase.subset(["e", "u"])})
        dl = {"a": desire_lattice(["b1", "b2"], "U12")}
        trace = simulate(env, spec, dl, depth=1, max_steps=10)
        assert trace.end_reason == "all goals achieved"
        assert len(trace.steps) == 1
        assert trace.steps[0].moves == (("a", (1, 1), (2, 1)),)
        assert trace.steps[0].chosen == ("g",)

    def test_trace_is_deterministic(self):
        env_a, env_b = walkthrough_env(), walkthrough_env()
        spec_a, spec_b = system_spec(), system_spec()
        t1 = simulate(env_a, spec_a, walkthrough_desires(), depth=2, max_steps=6,
                      subset_cap=2)
        t2 = simulate(env_b, spec_b, walkthrough_desires(), depth=2, max_steps=6,
                      subset_cap=2)
        assert t1.to_text() == t2.to_text()

    def test_bundled_first_step_decision(self):
        trace = simulate(walkthrough_env(), system_spec(), walkthrough_desires(),
                         depth=2, max_steps=4, subset_cap=2)
        first = trace.steps[0]
        assert first.discovered == ("b1", "b2")
        assert first.chosen == ("b1", "b2")
        assert first.priority_name == "1"
        assert first.assignment == (("b1", "agent-1"), ("b2", "agent-2"))

    def test_perception_from_positions(self):
        """Each step's discovered, achieved and cumulative reward sets,
        read off the positions so far: a goal is achieved once an agent
        has stood on its cell, discovered once seen and not achieved, and
        the reward is every goal feature seen plus every scouted cell."""
        env = walkthrough_env()
        trace = simulate(env, system_spec(), walkthrough_desires(),
                         depth=2, max_steps=40, subset_cap=2, patience=6)
        seen, stood, reward = set(), set(), set()
        for step in trace.steps:
            for aid, cell in step.positions:
                horizon = env.agent(aid).horizon
                for g in env.goals:
                    view = grid.reward(env, cell, g, horizon)
                    if view:
                        seen.add(g.id)
                    if g.position == cell:
                        stood.add(g.id)
                    reward |= view
                reward |= {grid.scout_feature(c) for c in
                           grid.observed_cells(env, cell, horizon)}
            assert step.achieved == tuple(sorted(stood))
            assert step.discovered == tuple(sorted(seen - stood))
            assert step.cumulative_reward == tuple(sorted(reward))
        assert stood and seen - stood and reward

    def test_bundled_full_run_achieves_everything(self):
        trace = simulate(walkthrough_env(), system_spec(), walkthrough_desires(),
                         depth=2, max_steps=40, subset_cap=2, patience=6)
        assert trace.end_reason == "all goals achieved"
        assert trace.steps[-1].achieved == ("b1", "b2")
        discovered_later = {g for s in trace.steps for g in s.discovered}
        assert "b3" in discovered_later


class TestSpecTable:
    @staticmethod
    def spy_priorities(monkeypatch) -> list:
        """Record each `process_priority` call as its pair of fact
        multisets: (movement facts, goal facts)."""
        calls = []

        def multiset(spec, ids):
            return frozenset(Counter(spec.fact_of(i).members
                                     for i in ids).items())

        def spy(spec, movement_ids, goal_subset):
            calls.append((multiset(spec, movement_ids),
                          multiset(spec, goal_subset)))
            return process_priority(spec, movement_ids, goal_subset)

        monkeypatch.setattr(planner_module, "process_priority", spy)
        return calls

    def test_walkthrough_run_evaluates_each_multiset_once(self, monkeypatch):
        calls = self.spy_priorities(monkeypatch)
        trace = simulate(walkthrough_env(), system_spec(),
                         walkthrough_desires(), depth=2, max_steps=40,
                         subset_cap=2, patience=6)
        assert trace.end_reason == "all goals achieved"
        assert calls and len(set(calls)) == len(calls) < len(trace.steps)

    def test_generated_run_evaluates_each_multiset_once(self, monkeypatch,
                                                        tmp_path):
        [(_, path)] = [(name, path) for name, path in
                       digest_corpus._generate("simulate", 1, str(tmp_path))
                       if name.endswith("/p2d2s-0")]
        sc = load_scenario(path)
        calls = self.spy_priorities(monkeypatch)
        cfg = sc.planner
        trace = simulate(sc.env, sc.spec, sc.desire_lattices,
                         depth=cfg.depth, max_steps=cfg.max_steps,
                         subset_cap=cfg.subset_cap, patience=cfg.patience,
                         eq1_mode=cfg.eq1_mode)
        assert len(set(calls)) == len(calls) == 5
        assert len(trace.steps) == 6

    def test_warm_table_selects_as_a_fresh_spec(self):
        """200 seeded pools of goals mapped onto the system facts, with
        seeded movement goals and caps, through one spec and through a
        fresh spec each."""
        base = system_spec()
        facts = list(base.facts)
        goal_map = dict(base.goal_map)
        for i in range(10):
            goal_map[f"g{i}"] = facts[i % len(facts)]
        warm = build_goal_lattice_spec(base.phase, goal_map, SYSTEM_NAMES)
        ids = sorted(goal_map)
        for seed in range(200):
            rng = random.Random(seed)
            pool = rng.sample(ids, rng.randint(0, 5))
            movement = rng.sample(ids, rng.randint(0, 3))
            cap = rng.choice([None, 1, 2, 3])
            fresh = build_goal_lattice_spec(base.phase, goal_map,
                                            SYSTEM_NAMES)
            assert select_intentions(warm, pool, movement_ids=movement,
                                     max_size=cap) == select_intentions(
                fresh, pool, movement_ids=movement, max_size=cap), seed
        assert len(warm._table) > 20

    def test_specs_from_one_document_share_no_table(self):
        first, second = (load_scenario(digest_corpus.WALKTHROUGH)
                         for _ in range(2))
        assert first.spec._table is not second.spec._table
        plan_once(first.env, first.spec, first.desire_lattices,
                  discovered=["b1", "b2"])
        assert first.spec._table and not second.spec._table
