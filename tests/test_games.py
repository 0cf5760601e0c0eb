"""Game graphs, plays, strategies, duals, and tensor products."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from latticeplan.games import (
    SET_PAYOFFS,
    ConwayGame,
    EmptyStrategy,
    InvalidGame,
    NoPayoff,
    NotAlternating,
    NotAPlay,
    NotDeterministic,
    NotPrefixClosed,
    OddLength,
    PayoffLatticeMismatch,
    Play,
    WrongOpening,
    build_game,
    dual_game,
    enumerate_plays,
    game_to_dot,
    graph_equal,
    tensor_games,
    validate_strategy,
)
from latticeplan.lattice import chain_lattice

BOOL = chain_lattice(["0", "1"])


def chain_game():
    # * -(O)-> a -(P)-> b -(O)-> c
    return build_game(
        ["*", "a", "b", "c"], "*",
        [("*", "a", -1), ("a", "b", 1), ("b", "c", -1)])


def fork_game():
    # two Opponent openings, each with Proponent replies
    return build_game(
        ["*", "a", "b", "c", "d", "e"], "*",
        [("*", "a", -1), ("a", "b", 1), ("a", "c", 1),
         ("*", "d", -1), ("d", "e", 1)])


def single_vertex():
    return build_game(["r"], "r", [])


def random_game(rng, max_vertices=6):
    n = rng.randint(1, max_vertices)
    names = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(1, n):
        edges.add((names[rng.randrange(i)], names[i], rng.choice([-1, 1])))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(names, 2) if n > 1 else (None, None)
        if u is not None:
            edges.add((u, v, rng.choice([-1, 1])))
    return build_game(names, names[0], edges)


class TestBuildGame:
    def test_missing_root(self):
        with pytest.raises(InvalidGame):
            build_game(["a"], "b", [])

    def test_foreign_endpoint(self):
        with pytest.raises(InvalidGame):
            build_game(["a", "b"], "a", [("a", "q", 1)])

    def test_bad_polarity(self):
        with pytest.raises(InvalidGame):
            build_game(["a", "b"], "a", [("a", "b", 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGame):
            build_game(["a"], "a", [("a", "a", 1)])

    @pytest.mark.parametrize("edge", [("a", "b"), ("a", "b", 1, 1)])
    def test_edge_not_a_triple(self, edge):
        with pytest.raises(InvalidGame) as info:
            build_game(["a", "b"], "a", [edge])
        assert str(info.value) == f"edge {edge!r} is not (from, to, polarity)"

    def test_unreachable_vertex(self):
        with pytest.raises(InvalidGame):
            build_game(["a", "b", "c"], "a", [("a", "b", 1)])

    def test_payoff_must_be_total(self):
        with pytest.raises(InvalidGame):
            build_game(["a", "b"], "a", [("a", "b", 1)],
                       payoff={"a": "1"}, payoff_lattice=BOOL)

    def test_payoff_unknown_vertex(self):
        with pytest.raises(InvalidGame):
            build_game(["a", "b"], "a", [("a", "b", 1)],
                       payoff={"a": "1", "b": "0", "q": "1"},
                       payoff_lattice=BOOL)

    def test_payoff_without_lattice(self):
        with pytest.raises(NoPayoff):
            build_game(["a"], "a", [], payoff={"a": "1"})

    def test_payoff_value_outside_lattice(self):
        with pytest.raises(InvalidGame):
            build_game(["a"], "a", [], payoff={"a": "2"}, payoff_lattice=BOOL)

    def test_first_offender_in_the_order_given(self):
        # each call has two offenders; a walk over a set names the one or
        # the other, depending on the hash seed (1 and 3 differ on 3.11)
        script = (
            "from latticeplan.games import build_game\n"
            "from latticeplan.lattice import chain_lattice\n"
            "bool_lattice = chain_lattice(['0', '1'])\n"
            "edges = [('a', 'b', 1), ('b', 'c', -1)]\n"
            "for args, kw in [\n"
            "    ((['a', 'b', 'c'], 'a',\n"
            "      [('a', 'b', 1), ('b', 'c', 5), ('a', 'y', -1)]), {}),\n"
            "    ((['a', 'b', 'c'], 'a', edges), {'payoff': {'a': '1'}}),\n"
            "    ((['a', 'b', 'c'], 'a', edges),\n"
            "     {'payoff': {'a': '1', 'b': '2', 'c': '3'}}),\n"
            "]:\n"
            "    try:\n"
            "        build_game(*args, **kw, payoff_lattice=bool_lattice)\n"
            "    except Exception as exc:\n"
            "        print(type(exc).__name__, exc)\n")
        src = str(Path(__file__).resolve().parent.parent / "src")
        pythonpath = os.pathsep.join(
            [src] + ([os.environ["PYTHONPATH"]]
                     if os.environ.get("PYTHONPATH") else []))
        for seed in ("1", "3"):
            run = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, timeout=120,
                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": pythonpath,
                     "PYTHONHASHSEED": seed})
            assert run.stderr == ""
            assert run.stdout.splitlines() == [
                "InvalidGame edge ('b', 'c', 5) has polarity outside {+1, -1}",
                "InvalidGame payoff missing for vertex 'b'",
                "InvalidGame payoff of 'b' outside the payoff lattice",
            ]


class TestPlays:
    def test_play_must_follow_edges(self):
        g = chain_game()
        with pytest.raises(NotAPlay):
            Play(g, (("a", "b", 1),))
        with pytest.raises(NotAPlay):
            Play(g, (("*", "a", 1),))

    def test_prefix(self):
        g = chain_game()
        p = Play(g, (("*", "a", -1), ("a", "b", 1)))
        assert p.prefix(1).moves == (("*", "a", -1),)
        assert p.prefix(0).moves == ()
        assert p.prefix(2) == p

    def test_edgeless_game_has_only_empty_play(self):
        plays = enumerate_plays(single_vertex(), 5)
        assert {p.moves for p in plays} == {()}

    def test_single_opponent_edge(self):
        g = build_game(["r", "x"], "r", [("r", "x", -1)])
        plays = enumerate_plays(g, 1)
        assert {p.moves for p in plays} == {(), (("r", "x", -1),)}

    def test_counts_match_independent_dfs(self):
        # second traversal written directly over the edge list
        def count_paths(edges, at, budget):
            total = 1
            if budget > 0:
                for (u, v, _) in edges:
                    if u == at:
                        total += count_paths(edges, v, budget - 1)
            return total

        for g in (chain_game(), fork_game()):
            raw = sorted(g.edges)
            for max_len in range(0, 4):
                expected = count_paths(raw, g.root, max_len)
                assert len(enumerate_plays(g, max_len)) == expected

    def test_enumeration_is_prefix_closed(self):
        g = fork_game()
        plays = enumerate_plays(g, 3)
        for p in plays:
            for k in range(len(p)):
                assert p.prefix(k) in plays

    def test_alternating_filter(self):
        g = build_game(["*", "a", "b"], "*",
                       [("*", "a", -1), ("a", "b", -1)])
        all_plays = enumerate_plays(g, 2)
        alt = enumerate_plays(g, 2, alternating_only=True)
        assert alt == {p for p in all_plays if p.is_alternating()}
        assert len(alt) == 2 and len(all_plays) == 3


class TestDualGame:
    def test_single_edge_polarity_flips(self):
        g = build_game(["r", "x"], "r", [("r", "x", -1)])
        assert dual_game(g).edges == frozenset({("r", "x", 1)})

    def test_involution(self):
        for g in (chain_game(), fork_game(), single_vertex()):
            assert graph_equal(dual_game(dual_game(g)), g)

    def test_payoff_preserved(self):
        g = build_game(["a", "b"], "a", [("a", "b", 1)],
                       payoff={"a": "0", "b": "1"}, payoff_lattice=BOOL)
        d = dual_game(g)
        assert d.payoff == g.payoff and d.payoff_lattice is BOOL

    def test_alternating_plays_in_bijection(self):
        g = fork_game()
        d = dual_game(g)
        flipped = {tuple((u, v, -pol) for (u, v, pol) in p.moves)
                   for p in enumerate_plays(g, 3, alternating_only=True)}
        assert flipped == {p.moves for p in
                           enumerate_plays(d, 3, alternating_only=True)}


class TestTensor:
    def test_unit_game_yields_copy(self):
        g = chain_game()
        t = tensor_games(g, single_vertex())
        relabeled_edges = {(u[0], v[0], pol) for (u, v, pol) in t.edges}
        assert {v[0] for v in t.vertices} == set(g.vertices)
        assert relabeled_edges == set(g.edges)
        assert t.root == ("*", "r")

    def test_vertex_and_edge_counts(self):
        a = chain_game()
        b = fork_game()
        t = tensor_games(a, b)
        assert len(t.vertices) == len(a.vertices) * len(b.vertices)
        assert len(t.edges) == (len(b.vertices) * len(a.edges)
                                + len(a.vertices) * len(b.edges))

    def test_payoff_is_meet(self):
        a = build_game(["r", "x"], "r", [("r", "x", -1)],
                       payoff={"r": "1", "x": "0"}, payoff_lattice=BOOL)
        b = build_game(["s", "y"], "s", [("s", "y", 1)],
                       payoff={"s": "1", "y": "1"}, payoff_lattice=BOOL)
        t = tensor_games(a, b)
        assert t.payoff[("r", "s")] == "1"
        assert t.payoff[("x", "s")] == "0"
        assert t.payoff[("x", "y")] == "0"

    def test_boolean_conjunction_exhaustively(self):
        for pr in ("0", "1"):
            for ps in ("0", "1"):
                a = build_game(["r"], "r", [], payoff={"r": pr},
                               payoff_lattice=BOOL)
                b = build_game(["s"], "s", [], payoff={"s": ps},
                               payoff_lattice=BOOL)
                t = tensor_games(a, b)
                assert t.payoff[("r", "s")] == str(int(pr) and int(ps))

    def test_lattice_mismatch(self):
        other = chain_lattice(["0", "1"])
        a = build_game(["r"], "r", [], payoff={"r": "1"}, payoff_lattice=BOOL)
        b = build_game(["s"], "s", [], payoff={"s": "1"}, payoff_lattice=other)
        with pytest.raises(PayoffLatticeMismatch):
            tensor_games(a, b)

    def test_mixed_payoff_drops_payoff(self):
        a = build_game(["r"], "r", [], payoff={"r": "1"}, payoff_lattice=BOOL)
        b = single_vertex()
        assert tensor_games(a, b).payoff is None

    def test_polarity_counts(self):
        a, b = chain_game(), fork_game()
        t = tensor_games(a, b)

        def counts(g):
            pos = sum(1 for e in g.edges if e[2] == 1)
            return pos, len(g.edges) - pos

        ap, an = counts(a)
        bp, bn = counts(b)
        tp, tn = counts(t)
        assert tp == len(b.vertices) * ap + len(a.vertices) * bp
        assert tn == len(b.vertices) * an + len(a.vertices) * bn

    def test_commutative_up_to_swap(self):
        a, b = chain_game(), fork_game()
        t1 = tensor_games(a, b)
        t2 = tensor_games(b, a)
        swapped = {((y, x), (y2, x2), pol)
                   for ((x, y), (x2, y2), pol) in t1.edges}
        assert swapped == set(t2.edges)
        assert {(y, x) for (x, y) in t1.vertices} == set(t2.vertices)

    def test_associative_up_to_regrouping(self):
        a, b, c = chain_game(), fork_game(), single_vertex()
        left = tensor_games(tensor_games(a, b), c)
        right = tensor_games(a, tensor_games(b, c))
        regrouped = {((x, (y, z)), (x2, (y2, z2)), pol)
                     for (((x, y), z), ((x2, y2), z2), pol) in left.edges}
        assert regrouped == set(right.edges)

    def test_plays_project_to_factors(self):
        rng = random.Random(7)
        for _ in range(10):
            g = random_game(rng, 4)
            h = random_game(rng, 4)
            t = tensor_games(g, h)
            for p in enumerate_plays(t, 3):
                g_moves = tuple((u[0], v[0], pol) for (u, v, pol) in p.moves
                                if u[0] != v[0])
                h_moves = tuple((u[1], v[1], pol) for (u, v, pol) in p.moves
                                if u[1] != v[1])
                Play(g, g_moves)
                Play(h, h_moves)

    def test_counts_on_random_games(self):
        rng = random.Random(11)
        for _ in range(12):
            g = random_game(rng)
            h = random_game(rng)
            t = tensor_games(g, h)
            assert len(t.vertices) == len(g.vertices) * len(h.vertices)
            assert len(t.edges) == (len(h.vertices) * len(g.edges)
                                    + len(g.vertices) * len(h.edges))
            assert graph_equal(dual_game(dual_game(t)), t)


class TestValidateStrategy:
    def g(self):
        return fork_game()

    def test_empty_play_alone_is_valid(self):
        s = validate_strategy(self.g(), [()])
        assert len(s.paths) == 1

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyStrategy):
            validate_strategy(self.g(), [])

    def test_odd_length(self):
        with pytest.raises(OddLength):
            validate_strategy(self.g(), [(), (("*", "a", -1),)])

    def test_wrong_opening(self):
        g = build_game(["*", "a", "b"], "*", [("*", "a", 1), ("a", "b", -1)])
        with pytest.raises(WrongOpening):
            validate_strategy(g, [(), (("*", "a", 1), ("a", "b", -1))])

    def test_not_alternating(self):
        g = build_game(["*", "a", "b"], "*", [("*", "a", -1), ("a", "b", -1)])
        with pytest.raises(NotAlternating):
            validate_strategy(g, [(), (("*", "a", -1), ("a", "b", -1))])

    def test_missing_even_prefix(self):
        g = build_game(
            ["*", "a", "b", "c", "d"], "*",
            [("*", "a", -1), ("a", "b", 1), ("b", "c", -1), ("c", "d", 1)])
        full = (("*", "a", -1), ("a", "b", 1), ("b", "c", -1), ("c", "d", 1))
        with pytest.raises(NotPrefixClosed):
            validate_strategy(g, [(), full])
        validate_strategy(g, [(), full[:2], full])

    def test_nondeterministic_reply(self):
        p1 = (("*", "a", -1), ("a", "b", 1))
        p2 = (("*", "a", -1), ("a", "c", 1))
        with pytest.raises(NotDeterministic):
            validate_strategy(self.g(), [(), p1, p2])

    def test_distinct_openings_are_fine(self):
        p1 = (("*", "a", -1), ("a", "b", 1))
        p2 = (("*", "d", -1), ("d", "e", 1))
        s = validate_strategy(self.g(), [(), p1, p2])
        assert len(s.paths) == 3

    def test_foreign_play_rejected(self):
        other = fork_game()
        p = Play(other, (("*", "a", -1), ("a", "b", 1)))
        with pytest.raises(NotAPlay):
            validate_strategy(self.g(), [p])


class TestPayoffHelpers:
    def test_set_payoffs(self):
        a = frozenset({"x", "y"})
        b = frozenset({"y", "z"})
        assert SET_PAYOFFS.meet(a, b) == frozenset({"y"})
        assert a in SET_PAYOFFS
        assert "x" not in SET_PAYOFFS


class TestDot:
    def test_dot_shows_polarity_and_payoff(self):
        g = build_game(["r", "x"], "r", [("r", "x", -1)],
                       payoff={"r": "1", "x": "0"}, payoff_lattice=BOOL)
        dot = game_to_dot(g, "sample")
        assert "digraph sample" in dot
        assert "style=dashed" in dot
        assert "doublecircle" in dot
        assert dot == game_to_dot(g, "sample")
