"""The package's records: value records compare and hash by their fields,
identity records only by identity, and plays check their moves."""

import pytest

from latticeplan.cli import main
from latticeplan.games import NotAPlay, Play, Strategy, build_game
from latticeplan.grid import AgentState, GoalObject, build_environment
from latticeplan.lattice import chain_lattice
from latticeplan.phase import MonoidSubset, OpClPartition, validate_monoid
from latticeplan.planner import (
    DesireLattice,
    ItineraryPlan,
    Trace,
    TraceStep,
)
from latticeplan.scenario import PlannerConfig, load_scenario, parse_scenario

from test_cli import BUNDLED, run_main


def two_element_space():
    return validate_monoid(["e", "a"], {("e", "e"): "e", ("e", "a"): "a",
                                        ("a", "e"): "a", ("a", "a"): "a"},
                           "e", ["a"])


def small_game():
    return build_game(["r", "x", "y"], "r", [("r", "x", -1), ("x", "y", 1)])


def value_records():
    """Per value record type, a factory that builds equal records from
    the same fields on every call."""
    space = two_element_space()
    subset = MonoidSubset(space, frozenset({"a"}))
    lattice = chain_lattice(["lo", "hi"])
    game = small_game()
    step = dict(step=0, positions=(("a", (0, 0)),), discovered=("g",),
                achieved=(), chosen=("g",), priority_name="I",
                tie_break=False, assignment=(("g", "a"),),
                moves=(("a", (0, 0), (0, 1)),), cumulative_reward=("f",))
    return {
        "AgentState": lambda: AgentState("a", (0, 0), 2, "m"),
        "GoalObject": lambda: GoalObject("g", (1, 1), (("f", 2),)),
        "MonoidSubset": lambda: MonoidSubset(space, frozenset({"a"})),
        "OpClPartition": lambda: OpClPartition(
            space, frozenset({subset}), frozenset({subset})),
        "DesireLattice": lambda: DesireLattice(lattice, ("hi",), "hi"),
        "TraceStep": lambda: TraceStep(**step),
        "Trace": lambda: Trace((TraceStep(**step),), "done",
                               (("a", (0, 1)),)),
        "PlannerConfig": lambda: PlannerConfig(depth=3,
                                               eq1_mode="positionwise"),
        "Strategy": lambda: Strategy(game, frozenset({Play(game, ())})),
        "Play": lambda: Play(game, (("r", "x", -1),)),
    }


class TestValueRecords:
    @pytest.mark.parametrize("name", sorted(value_records()))
    def test_equal_fields_give_equal_records_and_hashes(self, name):
        make = value_records()[name]
        a, b = make(), make()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_hash_is_the_hash_of_the_field_tuple(self):
        space = two_element_space()
        members = frozenset({"e", "a"})
        assert hash(MonoidSubset(space, members)) == hash((space, members))
        agent = AgentState("a", (0, 0), 2, "m")
        assert hash(agent) == hash(("a", (0, 0), 2, "m"))

    def test_a_changed_field_gives_an_unequal_record(self):
        agent = AgentState("a", (0, 0), 2, "m")
        moved = agent._replace(position=(0, 1))
        assert moved != agent and moved.position == (0, 1)
        assert agent.position == (0, 0)
        assert PlannerConfig() != PlannerConfig(max_steps=41)

    def test_itinerary_plan_compares_by_fields(self):
        fields = dict(chosen_goals=("g",), priority_value=None,
                      priority_name="I", tie_break=False,
                      assignment={"g": "a"}, plays={"a": ()},
                      alternates=(), total_reward=frozenset())
        assert ItineraryPlan(**fields) == ItineraryPlan(**fields)

    def test_subsets_of_different_spaces_differ(self):
        members = frozenset({"a"})
        assert MonoidSubset(two_element_space(), members) != MonoidSubset(
            two_element_space(), members)


class TestIdentityRecords:
    def test_records_built_twice_from_one_input_differ(self):
        first, second = load_scenario(BUNDLED), load_scenario(BUNDLED)
        pairs = [(first, second),
                 (parse_scenario(BUNDLED), parse_scenario(BUNDLED)),
                 (first.env, second.env), (first.phase, second.phase),
                 (first.spec, second.spec),
                 (first.spec.lattice, second.spec.lattice),
                 (small_game(), small_game())]
        for a, b in pairs:
            assert a == a and a != b, type(a).__name__
            assert hash(a) == object.__hash__(a)
            assert len({a, b}) == 2


class TestPlay:
    def test_bad_moves_raise(self):
        game = small_game()
        with pytest.raises(NotAPlay, match="not an edge"):
            Play(game, (("r", "y", -1),))
        with pytest.raises(NotAPlay, match="does not continue"):
            Play(game, (("x", "y", 1),))

    def test_len_counts_moves(self):
        game = small_game()
        assert len(Play(game, ())) == 0 and not Play(game, ())
        play = Play(game, (("r", "x", -1), ("x", "y", 1)))
        assert len(play) == 2 and play.prefix(1) == Play(
            game, (("r", "x", -1),))

    def test_plays_of_different_games_differ(self):
        assert Play(small_game(), ()) != Play(small_game(), ())
        assert Play(small_game(), ()) != ()


class TestMovedCopies:
    def test_with_positions_shares_the_caches(self):
        env = build_environment(4, 4, [], [AgentState("a", (0, 0), 2, "m")],
                                [GoalObject("g", (3, 3), (("f", 5),))])
        moved = env.with_positions({"a": (1, 1)})
        assert moved is not env and moved != env
        for cache in ("_seen_cache", "_flood_cache"):
            assert getattr(moved, cache) is getattr(env, cache)
        assert [k for k in vars(env) if k.endswith("_cache")] == [
            "_seen_cache", "_flood_cache"]
        assert moved.agents == (AgentState("a", (1, 1), 2, "m"),)
        assert env.agents == (AgentState("a", (0, 0), 2, "m"),)
        assert (moved.width, moved.height, moved.obstacles, moved.goals) == (
            env.width, env.height, env.obstacles, env.goals)


class TestOverrides:
    """Command-line overrides replace the planner record before validation.
    `tests/test_cli.py` checks the exits 1 and 3 of out-of-range `--depth`
    and `--max-steps` values; these are the exits 2."""

    def test_unknown_mode_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--scenario", BUNDLED, "--eq1-mode", "both"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_overrides_on_a_malformed_file_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("phase: [", encoding="utf-8")
        code, out, err = run_main(capsys, "simulate", "--scenario", str(path),
                                  "--depth", "1", "--max-steps", "3",
                                  "--eq1-mode", "positionwise")
        assert (code, out) == (2, "")
        assert err.startswith("parse error:")
