"""Conway games as rooted polarized graphs.

Positions are vertices, moves are directed edges carrying a polarity (+1 for
the Proponent, -1 for the Opponent), and a play is a path from the root.
Games may attach a payoff: a total map from vertices into one lattice, whose
meet combines payoffs under the tensor product.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, NamedTuple

from .errors import LatticePlanError

Vertex = Hashable
Edge = tuple  # (from, to, polarity)

PROPONENT = 1
OPPONENT = -1


class GameError(LatticePlanError):
    """Base class for game construction and strategy errors."""


class InvalidGame(GameError):
    pass


class PayoffLatticeMismatch(GameError):
    pass


class NoPayoff(GameError):
    pass


class NotAPlay(GameError):
    pass


class EmptyStrategy(GameError):
    pass


class OddLength(GameError):
    pass


class WrongOpening(GameError):
    pass


class NotAlternating(GameError):
    pass


class NotPrefixClosed(GameError):
    pass


class NotDeterministic(GameError):
    pass


class SetPayoffs:
    """Virtual powerset lattice over feature-name sets.

    Payoff values are frozensets of strings; meet is intersection, which
    the tensor product uses to combine payoffs.
    """

    @staticmethod
    def meet(a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def __contains__(self, value) -> bool:
        return isinstance(value, frozenset)


SET_PAYOFFS = SetPayoffs()


class ConwayGame:
    """A rooted polarized graph, optionally with lattice-valued payoffs;
    equal only to itself (`graph_equal` compares structure)."""

    def __init__(self, vertices: frozenset, root: Vertex, edges: frozenset,
                 payoff: dict | None, payoff_lattice: object | None,
                 out: dict):
        self.vertices, self.root, self.edges = vertices, root, edges
        self.payoff, self.payoff_lattice = payoff, payoff_lattice
        self._out = out

    def moves_from(self, vertex: Vertex) -> tuple:
        return self._out.get(vertex, ())

    def sorted_vertices(self) -> list:
        return sorted(self.vertices, key=repr)

    def sorted_edges(self) -> list:
        return sorted(self.edges, key=repr)


def build_game(vertices: Iterable[Vertex], root: Vertex,
               edges: Iterable[Edge], payoff: Mapping | None = None,
               payoff_lattice: object | None = None) -> ConwayGame:
    """Validate the graph and precompute per-vertex move tables.

    A bad edge, missing payoff or payoff outside the lattice is reported
    for the first offender in the order given.
    """
    vertices, edges = list(vertices), [tuple(e) for e in edges]
    vset, eset = frozenset(vertices), frozenset(edges)
    if root not in vset:
        raise InvalidGame(f"root {root!r} is not a vertex")
    for e in edges:
        if len(e) != 3:
            raise InvalidGame(f"edge {e!r} is not (from, to, polarity)")
        u, v, pol = e
        if u not in vset or v not in vset:
            raise InvalidGame(f"edge {e!r} leaves the vertex set")
        if pol not in (PROPONENT, OPPONENT):
            raise InvalidGame(f"edge {e!r} has polarity outside {{+1, -1}}")
        if u == v:
            raise InvalidGame(f"edge {e!r} is a self-loop")
    out: dict = {}
    for e in sorted(eset, key=repr):
        out.setdefault(e[0], []).append(e)
    out = {u: tuple(es) for u, es in out.items()}

    seen = {root}
    frontier = [root]
    while frontier:
        u = frontier.pop()
        for (_, v, _) in out.get(u, ()):
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    if seen != vset:
        missing = sorted(vset - seen, key=repr)
        raise InvalidGame(f"vertices unreachable from root: {missing}")

    pay = None
    if payoff is not None:
        if payoff_lattice is None:
            raise NoPayoff("payoff values given without a payoff lattice")
        pay = dict(payoff)
        for v in vertices:
            if v not in pay:
                raise InvalidGame(f"payoff missing for vertex {v!r}")
            if pay[v] not in payoff_lattice:
                raise InvalidGame(f"payoff of {v!r} outside the payoff lattice")
        for v in pay:
            if v not in vset:
                raise InvalidGame(f"payoff assigned to unknown vertex {v!r}")
    return ConwayGame(vset, root, eset, pay,
                      payoff_lattice if pay is not None else None, out)


def graph_equal(g: ConwayGame, h: ConwayGame) -> bool:
    """Structural equality: same vertices, root, edges, and payoffs."""
    return (g.vertices == h.vertices and g.root == h.root
            and g.edges == h.edges and g.payoff == h.payoff
            and g.payoff_lattice is h.payoff_lattice)


class Play:
    """A path of moves from the root of one game, equal to the plays of
    the same game and moves."""

    __slots__ = ("game", "moves")

    def __init__(self, game: ConwayGame, moves: tuple):
        at = game.root
        for e in moves:
            if e not in game.edges:
                raise NotAPlay(f"move {e!r} is not an edge of the game")
            if e[0] != at:
                raise NotAPlay(f"move {e!r} does not continue from {at!r}")
            at = e[1]
        self.game, self.moves = game, moves

    def __eq__(self, other):
        if other.__class__ is not Play:
            return NotImplemented
        return self.game is other.game and self.moves == other.moves

    def __hash__(self) -> int:
        return hash((self.game, self.moves))

    def __len__(self) -> int:
        return len(self.moves)

    def is_alternating(self) -> bool:
        return all(self.moves[i][2] != self.moves[i + 1][2]
                   for i in range(len(self.moves) - 1))

    def prefix(self, length: int) -> "Play":
        return Play(self.game, self.moves[:length])


class Strategy(NamedTuple):
    """A validated set of plays for one game."""

    game: ConwayGame
    paths: frozenset


def dual_game(game: ConwayGame) -> ConwayGame:
    """The same graph with every move polarity reversed."""
    return build_game(game.vertices, game.root,
                      ((u, v, -pol) for (u, v, pol) in game.edges),
                      payoff=game.payoff, payoff_lattice=game.payoff_lattice)


def tensor_games(g: ConwayGame, h: ConwayGame) -> ConwayGame:
    """Product game: positions pair up, a move plays in one component.

    The moved component's polarity is inherited. When both games carry
    payoffs over one lattice, the pair's payoff is the meet of the parts.
    """
    vertices = [(x, y) for x in g.sorted_vertices() for y in h.sorted_vertices()]
    edges = []
    for (x, z, pol) in g.sorted_edges():
        for y in h.sorted_vertices():
            edges.append(((x, y), (z, y), pol))
    for (y, z, pol) in h.sorted_edges():
        for x in g.sorted_vertices():
            edges.append(((x, y), (x, z), pol))
    payoff = None
    lattice = None
    if g.payoff is not None and h.payoff is not None:
        if g.payoff_lattice is not h.payoff_lattice:
            raise PayoffLatticeMismatch("factors use different payoff lattices")
        lattice = g.payoff_lattice
        payoff = {(x, y): lattice.meet(g.payoff[x], h.payoff[y])
                  for x in g.vertices for y in h.vertices}
    return build_game(vertices, (g.root, h.root), edges,
                      payoff=payoff, payoff_lattice=lattice)


def enumerate_plays(game: ConwayGame, max_len: int,
                    alternating_only: bool = False) -> set:
    """All root paths of length at most max_len, including the empty play."""
    plays = {Play(game, ())}
    frontier = [((), game.root)]
    while frontier:
        moves, at = frontier.pop()
        if len(moves) == max_len:
            continue
        for e in game.moves_from(at):
            if alternating_only and moves and moves[-1][2] == e[2]:
                continue
            extended = moves + (e,)
            plays.add(Play(game, extended))
            frontier.append((extended, e[1]))
    return plays


def validate_strategy(game: ConwayGame, paths: Iterable) -> Strategy:
    """Check every strategy clause, or fail with a witness.

    Plays must alternate, have even length, open with an Opponent move, be
    closed under even prefixes, and respond deterministically: plays that
    agree through an Opponent move agree on the Proponent reply.
    """
    plays = set()
    for p in paths:
        if not isinstance(p, Play):
            p = Play(game, tuple(tuple(e) for e in p))
        elif p.game is not game:
            raise NotAPlay("play belongs to a different game")
        plays.add(p)
    if not plays:
        raise EmptyStrategy("a strategy holds at least the empty play")
    ordered = sorted(plays, key=lambda p: (len(p.moves), repr(p.moves)))
    for p in ordered:
        if not p.is_alternating():
            raise NotAlternating(f"play {p.moves!r} repeats a polarity")
        if len(p) % 2 != 0:
            raise OddLength(f"play {p.moves!r} has odd length {len(p)}")
        if p.moves and p.moves[0][2] != OPPONENT:
            raise WrongOpening(f"play {p.moves!r} opens with a Proponent move")
        for k in range(0, len(p), 2):
            if p.prefix(k) not in plays:
                raise NotPrefixClosed(
                    f"even prefix of length {k} of {p.moves!r} is missing")
    for i, p in enumerate(ordered):
        for q in ordered[i + 1:]:
            diff = _first_difference(p.moves, q.moves)
            if diff is not None and diff % 2 == 1:
                raise NotDeterministic(
                    f"plays {p.moves!r} and {q.moves!r} split on a "
                    f"Proponent reply at move {diff}")
    return Strategy(game=game, paths=frozenset(plays))


def _first_difference(a: tuple, b: tuple) -> int | None:
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return i
    return None


def _payoff_label(value) -> str:
    # set-valued payoffs must render in a stable order
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(map(str, value))) + "}"
    return str(value)


def game_to_dot(game: ConwayGame, name: str = "game") -> str:
    """DOT rendering with polarity-styled edges and payoff labels."""
    lines = [f"digraph {name} {{"]
    for v in game.sorted_vertices():
        label = str(v)
        if game.payoff is not None:
            label += f"\\n{_payoff_label(game.payoff[v])}"
        shape = "doublecircle" if v == game.root else "circle"
        lines.append(f'  "{v!s}" [label="{label}", shape={shape}];')
    for (u, v, pol) in game.sorted_edges():
        style = 'color=blue, label="+"' if pol == PROPONENT \
            else 'color=red, style=dashed, label="-"'
        lines.append(f'  "{u!s}" -> "{v!s}" [{style}];')
    lines.append("}")
    return "\n".join(lines)
