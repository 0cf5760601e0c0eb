"""Grid geometry, fog rewards, movement, and agent game construction."""

import random

import pytest

from latticeplan import grid as grid_module
from latticeplan.errors import LimitExceeded
from latticeplan.games import enumerate_plays
from latticeplan.grid import (
    AgentState,
    GAME_VERTEX_BOUND,
    GRID_CELL_BOUND,
    HORIZON_BOUND,
    DuplicateId,
    GameTooLarge,
    GridTooLarge,
    GoalObject,
    InvalidEnvironment,
    OnObstacle,
    OutOfBounds,
    agent_game_vertices,
    agent_moves,
    agent_paths,
    bresenham_line,
    build_agent_game,
    build_environment,
    chebyshev,
    line_of_sight,
    observed_cells,
    reachable,
    reward,
    scout_feature,
    visible_goals,
)


def make_env(width=7, height=7, obstacles=(), agents=(), goals=()):
    return build_environment(width, height, obstacles, agents, goals)


def one_goal_env(features, goal_at=(5, 5), agent_at=(2, 2), horizon=10,
                 obstacles=(), size=9):
    agent = AgentState("a1", agent_at, horizon, "m1")
    goal = GoalObject("g1", goal_at, tuple(features))
    return make_env(size, size, obstacles, [agent], [goal])


class TestBuildEnvironment:
    def test_unknown_agent_and_goal_ids(self):
        env = one_goal_env([("f", 1)])
        assert env.agent("a1").id == "a1" and env.goal("g1").id == "g1"
        with pytest.raises(InvalidEnvironment) as info:
            env.agent("g1")
        assert str(info.value) == "no agent 'g1'"
        with pytest.raises(InvalidEnvironment) as info:
            env.goal("a1")
        assert str(info.value) == "no goal 'a1'"

    def test_rejects_degenerate_grid(self):
        with pytest.raises(InvalidEnvironment):
            make_env(0, 3)

    def test_rejects_out_of_bounds(self):
        with pytest.raises(OutOfBounds):
            make_env(obstacles=[(9, 9)])
        with pytest.raises(OutOfBounds):
            make_env(agents=[AgentState("a", (7, 0), 1, "m")])
        with pytest.raises(OutOfBounds):
            make_env(goals=[GoalObject("g", (-1, 0), ())])

    def test_rejects_positions_on_obstacles(self):
        with pytest.raises(OnObstacle):
            make_env(obstacles=[(1, 1)],
                     agents=[AgentState("a", (1, 1), 1, "m")])
        with pytest.raises(OnObstacle):
            make_env(obstacles=[(1, 1)], goals=[GoalObject("g", (1, 1), ())])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateId):
            make_env(agents=[AgentState("a", (0, 0), 1, "m"),
                             AgentState("a", (1, 0), 1, "m")])
        with pytest.raises(DuplicateId):
            make_env(goals=[GoalObject("g", (0, 0), ()),
                            GoalObject("g", (1, 0), ())])
        with pytest.raises(DuplicateId):
            make_env(goals=[GoalObject("g", (0, 0),
                                       (("f", 1), ("f", 2)))])

    def test_rejects_negative_numbers(self):
        with pytest.raises(InvalidEnvironment):
            make_env(agents=[AgentState("a", (0, 0), -1, "m")])
        with pytest.raises(InvalidEnvironment):
            make_env(goals=[GoalObject("g", (0, 0), (("f", -2),))])

    def test_size_and_horizon_bounds_are_checked_first(self):
        def untouched():
            raise AssertionError("obstacles read before the bounds")
            yield

        far = AgentState("a", (9, 9), HORIZON_BOUND + 1, "m")
        for width, height, agents, message in [
                (GRID_CELL_BOUND + 1, 1, [],
                 f"grid of {GRID_CELL_BOUND + 1}x1 has {GRID_CELL_BOUND + 1}"
                 f" cells; grids are bounded at {GRID_CELL_BOUND}"),
                (4, 4, [AgentState("b", (0, 0), 0, "m"), far],
                 f"agent a has horizon {HORIZON_BOUND + 1};"
                 f" horizons are bounded at {HORIZON_BOUND}")]:
            with pytest.raises(GridTooLarge) as info:
                make_env(width, height, untouched(), agents)
            assert str(info.value) == message
            assert isinstance(info.value, LimitExceeded)
        # the bounds themselves are admitted
        env = make_env(GRID_CELL_BOUND // 2, 2,
                       agents=[AgentState("a", (0, 0), HORIZON_BOUND, "m")])
        assert env.width * env.height == GRID_CELL_BOUND

    def test_rejects_reserved_feature_prefix(self):
        with pytest.raises(InvalidEnvironment):
            make_env(goals=[GoalObject("g", (0, 0), (("scout:1,1", 3),))])


class TestGeometry:
    def test_chebyshev(self):
        assert chebyshev((0, 0), (3, 3)) == 3
        assert chebyshev((2, 5), (4, 1)) == 4
        assert chebyshev((1, 1), (1, 1)) == 0

    def test_bresenham_diagonal_and_straight(self):
        assert bresenham_line((0, 0), (3, 3)) == [(0, 0), (1, 1), (2, 2),
                                                  (3, 3)]
        assert bresenham_line((0, 0), (0, 2)) == [(0, 0), (0, 1), (0, 2)]
        assert bresenham_line((2, 2), (2, 2)) == [(2, 2)]

    def test_line_of_sight_blocking(self):
        env = make_env(obstacles=[(2, 2)])
        assert not line_of_sight(env, (0, 0), (4, 4))
        assert line_of_sight(env, (0, 0), (4, 0))
        # endpoints never block
        assert line_of_sight(env, (2, 2), (4, 2))
        assert line_of_sight(env, (0, 2), (2, 2))

    def test_line_of_sight_matches_bresenham(self):
        """Every difference within the horizon bound, from the centre of
        seeded random obstacle grids (the centre itself an obstacle in
        half of them), and from random observers."""
        side = 2 * HORIZON_BOUND + 1
        centre = (HORIZON_BOUND, HORIZON_BOUND)
        cells = [(c, r) for c in range(side) for r in range(side)]
        for seed in range(6):
            rng = random.Random(seed)
            obstacles = {cell for cell in cells
                         if rng.random() < rng.choice([0.1, 0.3])}
            obstacles.discard(centre)
            if seed % 2:
                obstacles.add(centre)
            env = make_env(side, side, obstacles)
            for a in [centre] + rng.sample(cells, 4):
                for b in cells:
                    expected = not any(c in obstacles
                                       for c in bresenham_line(a, b)[1:-1])
                    assert line_of_sight(env, a, b) == expected, (seed, a, b)


class TestReward:
    def test_standing_on_goal_sees_everything(self):
        env = one_goal_env([("shape", 5), ("mark", 0)], goal_at=(4, 4),
                           agent_at=(4, 4))
        assert reward(env, (4, 4), "g1", 10) == {"shape", "mark"}

    def test_beyond_every_range_sees_nothing(self):
        env = one_goal_env([("shape", 2), ("mark", 1)], goal_at=(8, 8),
                           agent_at=(0, 0))
        assert reward(env, (0, 0), "g1", 10) == frozenset()

    def test_per_feature_ranges(self):
        # distance 3: range-5 feature shows, range-2 feature hides
        env = one_goal_env([("r1", 5), ("r2", 2)], goal_at=(5, 5),
                           agent_at=(2, 2))
        assert reward(env, (2, 2), "g1", 6) == {"r1"}

    def test_horizon_caps_ranges(self):
        env = one_goal_env([("r1", 5)], goal_at=(5, 5), agent_at=(2, 2))
        assert reward(env, (2, 2), "g1", 2) == frozenset()
        assert reward(env, (2, 2), "g1", 3) == {"r1"}

    def test_occlusion_hides_goal(self):
        env = one_goal_env([("r1", 8)], goal_at=(6, 6), agent_at=(2, 2),
                           obstacles=[(4, 4)])
        assert reward(env, (2, 2), "g1", 8) == frozenset()
        assert reward(env, (2, 3), "g1", 8) == {"r1"}

    def test_invalid_observer_position(self):
        env = one_goal_env([("r1", 3)], obstacles=[(1, 1)])
        with pytest.raises(OutOfBounds):
            reward(env, (40, 0), "g1", 3)
        with pytest.raises(OnObstacle):
            reward(env, (1, 1), "g1", 3)

    def test_reward_is_cached_and_stable(self):
        env = one_goal_env([("r1", 5), ("r2", 2)])
        first = reward(env, (2, 2), "g1", 6)
        assert reward(env, (2, 2), "g1", 6) == first
        assert ((2, 2), 6) in env._seen_cache

    def test_fog_monotone_without_obstacles(self):
        rng = random.Random(3)
        env = one_goal_env([("f1", 6), ("f2", 4), ("f3", 1)], goal_at=(4, 4))
        for _ in range(60):
            p = (rng.randrange(9), rng.randrange(9))
            q = (rng.randrange(9), rng.randrange(9))
            if chebyshev(p, (4, 4)) <= chebyshev(q, (4, 4)):
                assert reward(env, q, "g1", 7) <= reward(env, p, "g1", 7)

    def test_matches_a_line_of_sight_formula(self):
        """Seeded grids up to 16x16, horizons 0-16, ranges 0 to horizon + 2,
        every free observer cell: a feature shows exactly when the distance
        is within its range and the horizon and `line_of_sight` holds."""
        kinds = set()
        for seed in range(24):
            rng = random.Random(seed)
            width, height = rng.randint(1, 16), rng.randint(1, 16)
            cells = [(c, r) for c in range(width) for r in range(height)]
            goal_at = rng.choice(cells)
            obstacles = [cell for cell in cells
                         if cell != goal_at and rng.random() < 0.25]
            horizon = rng.randint(0, HORIZON_BOUND)
            features = [(name, rng.randint(0, horizon + 2))
                        for name in ("p", "q", "r")]
            env = make_env(width, height, obstacles, [],
                           [GoalObject("g1", goal_at, tuple(features))])
            for cell in cells:
                if cell in env.obstacles:
                    continue
                dist = chebyshev(cell, goal_at)
                sight = dist <= horizon and line_of_sight(env, cell, goal_at)
                expected = {name for name, reach in features
                            if sight and dist <= reach}
                assert reward(env, cell, "g1", horizon) == expected, (
                    seed, cell)
                kinds.add("seen" if sight else
                          "hidden" if dist <= horizon else "far")
        assert kinds == {"seen", "hidden", "far"}


class TestVisibleGoals:
    def test_no_goals(self):
        env = make_env(agents=[AgentState("a", (0, 0), 3, "m")])
        assert visible_goals(env, "a") == []

    def test_horizon_zero_sees_only_its_cell(self):
        env = one_goal_env([("r1", 5)], goal_at=(5, 5), agent_at=(2, 2),
                           horizon=0)
        assert visible_goals(env, "a1") == []

    def test_sorted_by_goal_id(self):
        agent = AgentState("a", (3, 3), 5, "m")
        goals = [GoalObject("z", (4, 3), (("zf", 5),)),
                 GoalObject("b", (2, 3), (("bf", 5),))]
        env = make_env(agents=[agent], goals=goals)
        assert [g for g, _ in visible_goals(env, "a")] == ["b", "z"]


class TestObservedCells:
    def test_horizon_zero(self):
        env = make_env()
        assert observed_cells(env, (3, 3), 0) == {(3, 3)}

    def test_walls_hide_cells_behind(self):
        env = make_env(obstacles=[(3, 2)])
        seen = observed_cells(env, (3, 4), 4)
        assert (3, 2) in seen  # the wall itself shows
        assert (3, 0) not in seen  # the cell behind it does not
        assert (3, 3) in seen

    def test_clipped_at_grid_edge(self):
        env = make_env(3, 3)
        assert observed_cells(env, (0, 0), 5) == {
            (c, r) for c in range(3) for r in range(3)}

    def test_matches_a_line_of_sight_scan(self):
        """Random grids up to 20x20 and 1x1 grids, from every corner and
        some inner cells, horizons 0-16: every in-bounds cell within the
        horizon that `line_of_sight` reaches, and no other."""
        for seed in range(48):
            rng = random.Random(seed)
            width, height = (1, 1) if seed % 8 == 0 else (
                rng.randint(1, 20), rng.randint(1, 20))
            cells = [(c, r) for c in range(width) for r in range(height)]
            density = rng.choice([0.0, 0.1, 0.3, 0.6])
            env = make_env(width, height,
                           [cell for cell in cells if rng.random() < density])
            corners = [(0, 0), (width - 1, 0), (0, height - 1),
                       (width - 1, height - 1)]
            for i, position in enumerate(
                    corners + rng.sample(cells, min(4, len(cells)))):
                horizons = [0, 1, HORIZON_BOUND] if i == 0 \
                    else [rng.randint(0, HORIZON_BOUND)]
                for horizon in horizons:
                    expected = {
                        cell for cell in cells
                        if chebyshev(position, cell) <= horizon
                        and line_of_sight(env, position, cell)}
                    assert observed_cells(env, position, horizon) \
                        == expected, (seed, position, horizon)

    def test_scout_feature_name(self):
        assert scout_feature((4, 2)) == "scout:4,2"


class TestAgentMoves:
    def test_interior_order(self):
        env = make_env()
        assert agent_moves(env, (3, 3)) == [(3, 2), (4, 3), (3, 4), (2, 3),
                                            (3, 3)]

    def test_corner(self):
        env = make_env()
        assert agent_moves(env, (0, 0)) == [(1, 0), (0, 1), (0, 0)]

    def test_walled_in(self):
        env = make_env(obstacles=[(3, 2), (4, 3), (3, 4), (2, 3)])
        assert agent_moves(env, (3, 3)) == [(3, 3)]

    def test_moves_avoid_obstacles(self):
        env = make_env(obstacles=[(3, 2)])
        assert agent_moves(env, (3, 3)) == [(4, 3), (3, 4), (2, 3), (3, 3)]

    def test_illegal_position_class_and_message(self):
        env = make_env(5, 4, obstacles=[(3, 2)])
        cases = [((-1, 0), OutOfBounds,
                  "position at (-1, 0) is outside the 5x4 grid"),
                 ((2, 4), OutOfBounds,
                  "position at (2, 4) is outside the 5x4 grid"),
                 ((3, 2), OnObstacle, "position at (3, 2) sits on an obstacle")]
        for position, error, message in cases:
            with pytest.raises(error) as info:
                agent_moves(env, position)
            assert type(info.value) is error
            assert str(info.value) == message

    def test_matches_a_filtered_scan(self):
        """Seeded grids up to 12x12 and 1x1 grids: every free cell's moves
        are its in-bounds, obstacle-free neighbours in north, east, south,
        west order, then the cell itself."""
        for seed in range(40):
            rng = random.Random(seed)
            width, height = (1, 1) if seed % 8 == 0 else (
                rng.randint(1, 12), rng.randint(1, 12))
            cells = [(c, r) for c in range(width) for r in range(height)]
            density = rng.choice([0.0, 0.2, 0.5])
            env = make_env(width, height,
                           [cell for cell in cells if rng.random() < density])
            for c, r in cells:
                if (c, r) in env.obstacles:
                    continue
                expected = [cell for cell in [(c, r - 1), (c + 1, r),
                                              (c, r + 1), (c - 1, r)]
                            if cell in cells and cell not in env.obstacles]
                assert agent_moves(env, (c, r)) == expected + [(c, r)], (
                    seed, (c, r))


class TestReachable:
    def test_reflexive(self):
        env = make_env()
        assert reachable(env, (2, 2), (2, 2))

    def test_enclosed_goal(self):
        walls = [(1, 0), (0, 1), (1, 1)]
        env = make_env(obstacles=walls)
        assert not reachable(env, (5, 5), (0, 0))
        assert reachable(env, (5, 5), (2, 2))

    def test_wall_with_gap_matches_hand_answer(self):
        # 4x4, vertical wall at col 2 except row 3: the gap is the only way
        env = make_env(4, 4, obstacles=[(2, 0), (2, 1), (2, 2)])
        assert reachable(env, (0, 0), (3, 0))
        assert reachable(env, (1, 2), (3, 1))
        env2 = make_env(4, 4, obstacles=[(2, 0), (2, 1), (2, 2), (2, 3)])
        assert not reachable(env2, (0, 0), (3, 0))

    def test_symmetric(self):
        rng = random.Random(5)
        env = make_env(5, 5, obstacles=[(1, 1), (2, 3), (3, 1)])
        free = [(c, r) for c in range(5) for r in range(5)
                if (c, r) not in env.obstacles]
        for _ in range(40):
            a, b = rng.choice(free), rng.choice(free)
            assert reachable(env, a, b) == reachable(env, b, a)

    def test_one_flood_per_component(self, monkeypatch):
        """Each free component is flooded at most once, whatever the start
        and target, a flood stops at its target, and a `with_positions`
        copy reuses the floods."""
        walls = [(1, 0), (0, 1), (5, 6), (6, 5)]
        env = make_env(obstacles=walls,
                       agents=[AgentState("a", (3, 3), 1, "m")])
        calls = []
        moves = agent_moves

        def spy(env, cell):
            calls.append(cell)
            return moves(env, cell)

        monkeypatch.setattr(grid_module, "agent_moves", spy)
        main = 49 - len(walls) - 2
        assert reachable(env, (3, 3), (3, 4))
        assert calls == [(3, 3)]
        for start in [(3, 3), (2, 2), (4, 6)]:
            for target in [(0, 0), (6, 6), (6, 0)]:
                assert reachable(env, start, target) == (target == (6, 0))
        assert len(calls) == main
        moved = env.with_positions({"a": (2, 3)})
        assert not reachable(moved, (2, 3), (0, 0))
        assert reachable(moved, (0, 0), (0, 0))
        assert not reachable(moved, (6, 6), (0, 0))
        assert len(calls) == main + 1

    def test_invalid_cells(self):
        env = make_env(obstacles=[(1, 1)])
        with pytest.raises(OutOfBounds):
            reachable(env, (0, 0), (9, 9))
        with pytest.raises(OnObstacle):
            reachable(env, (1, 1), (0, 0))


class TestAgentGame:
    def env(self):
        agent = AgentState("a1", (3, 3), 3, "m1")
        goal = GoalObject("g1", (4, 3), (("near", 0), ("far", 5)))
        return make_env(agents=[agent], goals=[goal])

    def test_depth_zero_is_root_only(self):
        g = build_agent_game(self.env(), "a1", 0)
        assert len(g.vertices) == 1
        assert g.payoff[g.root] == {"far"}

    def test_depth_one_interior_counts(self):
        g = build_agent_game(self.env(), "a1", 1)
        assert len(g.vertices) == 1 + 2 * 5
        opp = [e for e in g.edges if e[2] == -1]
        pro = [e for e in g.edges if e[2] == 1]
        assert len(opp) == 5 and len(pro) == 5

    def test_every_play_alternates(self):
        g = build_agent_game(self.env(), "a1", 2)
        for p in enumerate_plays(g, 4):
            assert p.is_alternating()

    def test_reveal_payoff_reflects_landing_cell(self):
        g = build_agent_game(self.env(), "a1", 1)
        east = ("r", ((3, 3), (4, 3)))
        assert g.payoff[east] == {"near", "far"}

    def test_agent_paths_by_level_in_move_index_order(self):
        env = make_env(width=3, height=3, obstacles=[(1, 0)])
        levels = agent_paths(env, (0, 0), 3)
        assert levels[0] == [(((0, 0),), ())]
        for depth, level in enumerate(levels):
            idxs = [i for _, i in level]
            assert idxs == sorted(idxs) and len(set(idxs)) == len(idxs)
            for cells, path in level:
                assert len(cells) == depth + 1 and len(path) == depth
                for step, i in enumerate(path):
                    assert agent_moves(env, cells[step])[i] == cells[step + 1]
        # (0, 0) can go south or stay; (0, 1) north, east, south or stay
        assert [len(level) for level in levels[:3]] == [1, 2, 6]
        assert 1 + 2 * sum(map(len, levels[1:])) \
            == agent_game_vertices(env, (0, 0), 3)

    def test_vertex_count_bound(self):
        g = build_agent_game(self.env(), "a1", 2)
        assert len(g.vertices) <= 1 + 2 * (5 + 25)

    def test_negative_depth_rejected(self):
        with pytest.raises(InvalidEnvironment):
            build_agent_game(self.env(), "a1", -1)

    def test_vertex_count_matches_the_built_game(self):
        env = make_env(agents=[AgentState("a1", (0, 0), 1, "m1")],
                       obstacles=[(1, 1)])
        for depth in range(5):
            built = build_agent_game(env, "a1", depth)
            assert agent_game_vertices(env, (0, 0), depth) \
                == len(built.vertices)

    def test_oversized_game_is_refused_before_building(self):
        walled = make_env(agents=[AgentState("a1", (1, 1), 1, "m1")],
                          obstacles=[(1, 0), (2, 1), (1, 2), (0, 1)])
        staying = GAME_VERTEX_BOUND // 2
        assert agent_game_vertices(walled, (1, 1), staying - 1) \
            == 2 * staying - 1
        for env, depth in ((walled, staying), (self.env(), 14),
                           (self.env(), 10 ** 9)):
            with pytest.raises(GameTooLarge, match="over 50000 vertices"):
                build_agent_game(env, "a1", depth)
        assert issubclass(GameTooLarge, LimitExceeded)


class TestWithPositions:
    def test_positions_move_and_caches_survive(self):
        env = one_goal_env([("r1", 5)], goal_at=(5, 5), agent_at=(2, 2))
        value = reward(env, (2, 2), "g1", 6)
        moved = env.with_positions({"a1": (3, 3)})
        assert moved.agent("a1").position == (3, 3)
        assert env.agent("a1").position == (2, 2)
        assert moved._seen_cache is env._seen_cache
        assert moved._flood_cache is env._flood_cache
        assert reward(moved, (2, 2), "g1", 6) == value

    def test_moving_onto_obstacle_fails(self):
        env = one_goal_env([("r1", 5)], obstacles=[(3, 3)])
        with pytest.raises(OnObstacle):
            env.with_positions({"a1": (3, 3)})
