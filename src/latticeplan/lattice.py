"""Finite partially ordered sets and lattices with exact join/meet structure.

Elements are opaque string identifiers. Comparison is by identifier and
membership, never by name semantics; mixing elements of different lattices
raises ForeignElement.

The order is held once, as each element's up-set and down-set in bitmasks
over the element order: verify_poset checks the axioms on them, and
FiniteLattice answers every query from them. The join of a and b is the
element whose up-set is up(a) & up(b), and the meet the element whose
down-set is down(a) & down(b) (Ganter and Wille, Formal Concept Analysis,
1999). Lattices are bounded at LATTICE_ELEMENT_BOUND elements, checked
before any work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

from .errors import LatticePlanError, LimitExceeded

# Lattice elements are plain identifier strings; validity is checked by the
# owning lattice on every operation.
LatticeElement = str

# Largest lattice verify_poset builds, checked before any work. A lattice
# holds n masks of n bits each way, and verify_poset tests all n^2 / 2
# pairs for a join and a meet, so time grows as n^2. Measured on Python
# 3.11, one process, CPU time and peak RSS with the interpreter: a
# 512-element chain given as its full order takes 0.22 s and 26 MB, the
# 512-element powerset 0.15 s and 18 MB; at 1,024 elements 0.93 s and
# 53 MB, and 0.53 s and 22 MB. A scenario loads one lattice per agent plus
# the fact lattice, so a load at this bound stays within seconds.
LATTICE_ELEMENT_BOUND = 512


class LatticeError(LatticePlanError):
    """Base class for order/lattice validation errors."""


class ReflexivityViolation(LatticeError):
    pass


class AntisymmetryViolation(LatticeError):
    pass


class TransitivityViolation(LatticeError):
    pass


class NotALattice(LatticeError):
    """Some pair of elements has no unique least upper or greatest lower bound."""


class ForeignElement(LatticeError):
    """An identifier does not belong to the lattice it was used with."""


class NotGenerating(LatticeError):
    """A declared generator set does not reach every element by joins/meets."""


class LatticeTooLarge(LatticeError, LimitExceeded):
    """A lattice has more elements than LATTICE_ELEMENT_BOUND."""


def check_lattice_size(count: int, what: str = "lattice") -> None:
    """Refuse a lattice of more than LATTICE_ELEMENT_BOUND elements."""
    if count > LATTICE_ELEMENT_BOUND:
        raise LatticeTooLarge(f"{what} has {count} elements; lattices are"
                              f" bounded at {LATTICE_ELEMENT_BOUND}")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, lowest first."""
    return [i for i, digit in enumerate(bin(mask)[:1:-1]) if digit == "1"]


def _reach(rows: list[int]) -> list[int]:
    """Transitive closure of bitmask adjacency rows (Warshall): row i gains
    every index reachable from i by one or more steps."""
    for k in range(len(rows)):
        bit, row_k = 1 << k, rows[k]
        rows = [row | row_k if row & bit else row for row in rows]
    return rows


@dataclass(frozen=True, eq=False)
class FiniteLattice:
    """A validated finite lattice: the element index, each element's up-set
    and down-set as bitmasks, and the element each up-set and down-set
    belongs to.

    Instances are immutable once built; construct them through verify_poset.
    """

    elements: tuple[str, ...]
    top: str
    bottom: str
    generators: tuple[str, ...]
    _index: dict[str, int] = field(repr=False)
    _up: tuple[int, ...] = field(repr=False)
    _down: tuple[int, ...] = field(repr=False)
    _by_up: dict[int, str] = field(repr=False)
    _by_down: dict[int, str] = field(repr=False)

    def __contains__(self, element: str) -> bool:
        return element in self._index

    def _at(self, element: str) -> int:
        """Index of element in the element order."""
        if element not in self._index:
            raise ForeignElement(f"element {element!r} is not in this lattice")
        return self._index[element]

    def leq(self, a: str, b: str) -> bool:
        i, j = self._at(a), self._at(b)
        return bool(self._up[i] >> j & 1)

    def join(self, a: str, b: str) -> str:
        i, j = self._at(a), self._at(b)
        return self._by_up[self._up[i] & self._up[j]]

    def meet(self, a: str, b: str) -> str:
        i, j = self._at(a), self._at(b)
        return self._by_down[self._down[i] & self._down[j]]

    def covers(self) -> list[tuple[str, str]]:
        """Transitive reduction of the order: pairs (a, b) with b covering a,
        that is, with the interval up(a) & down(b) exactly {a, b}."""
        elems, up = self.elements, self._up
        out = []
        for j, down_b in enumerate(self._down):
            out.extend((elems[i], elems[j]) for i in _bits(down_b)
                       if i != j and up[i] & down_b == 1 << i | 1 << j)
        return sorted(out)

    def to_dot(self, name: str = "lattice") -> str:
        """Hasse diagram of the lattice as DOT text, bottom-up."""
        lines = [f"digraph \"{name}\" {{", "  rankdir=BT;"]
        for e in sorted(self.elements):
            marks = []
            if e == self.top:
                marks.append("top")
            if e == self.bottom:
                marks.append("bottom")
            label = e if not marks else f"{e}\\n({','.join(marks)})"
            lines.append(f"  \"{e}\" [label=\"{label}\"];")
        for (a, b) in self.covers():
            lines.append(f"  \"{a}\" -> \"{b}\";")
        lines.append("}")
        return "\n".join(lines) + "\n"


def verify_poset(elements: Sequence[str],
                 pairs: Iterable[tuple[str, str]],
                 *,
                 covers: bool = False,
                 generators: Sequence[str] | None = None) -> FiniteLattice:
    """Validate an order relation and build the lattice on its up-sets.

    The relation may be given in full or as Hasse cover pairs; cover input is
    transitively closed before the axioms are checked. Fails with a witness
    when reflexivity, antisymmetry, transitivity, or unique bounds break;
    each witness is the first in element order.
    """
    elems = tuple(elements)
    check_lattice_size(len(elems))
    if len(set(elems)) != len(elems):
        dup = next(e for e in elems if elems.count(e) > 1)
        raise LatticeError(f"duplicate element id {dup!r}")
    if not elems:
        raise LatticeError("a lattice needs at least one element")
    index = {e: i for i, e in enumerate(elems)}
    # up[i]: bitmask of the elements above elems[i], by element index
    up = [0] * len(elems)
    for (a, b) in pairs:
        if a not in index or b not in index:
            raise ForeignElement(f"relation pair ({a!r}, {b!r}) uses unknown elements")
        up[index[a]] |= 1 << index[b]

    if covers:
        up = [row | 1 << i for i, row in enumerate(_reach(up))]
    else:
        for i, a in enumerate(elems):
            if not up[i] >> i & 1:
                raise ReflexivityViolation(f"missing ({a!r}, {a!r})")
        for i, a in enumerate(elems):
            for j in _bits(up[i]):
                missing = up[j] & ~up[i]
                if missing:
                    b, d = elems[j], elems[_bits(missing)[0]]
                    raise TransitivityViolation(f"({a!r},{b!r}) and ({b!r},{d!r}) "
                                                f"without ({a!r},{d!r})")
    down = [0] * len(elems)
    for i, row in enumerate(up):
        for j in _bits(row):
            down[j] |= 1 << i
    for i, a in enumerate(elems):
        both = up[i] & down[i] & ~(1 << i)
        if both:
            b = elems[_bits(both)[0]]
            raise AntisymmetryViolation(f"{a!r} <= {b!r} and {b!r} <= {a!r}")

    # Up-sets (down-sets) are distinct by antisymmetry. The join of a and b
    # exists iff up(a) & up(b) is some element's up-set; the first pair
    # without one is the same in the upper triangle as in the full square.
    by_up = dict(zip(up, elems))
    by_down = dict(zip(down, elems))
    for i, a in enumerate(elems):
        for j in range(i, len(elems)):
            if up[i] & up[j] not in by_up:
                raise NotALattice(f"pair ({a!r}, {elems[j]!r}) has no unique join")
            if down[i] & down[j] not in by_down:
                raise NotALattice(f"pair ({a!r}, {elems[j]!r}) has no unique meet")

    gens = tuple(generators) if generators is not None else elems
    for g in gens:
        if g not in index:
            raise ForeignElement(f"generator {g!r} is not an element")

    everything = (1 << len(elems)) - 1
    lattice = FiniteLattice(
        elements=elems,
        top=by_down[everything],
        bottom=by_up[everything],
        generators=gens,
        _index=index,
        _up=tuple(up),
        _down=tuple(down),
        _by_up=by_up,
        _by_down=by_down,
    )
    if generators is not None and not generators_closure(lattice, gens):
        raise NotGenerating(f"generators {sorted(gens)} do not reach every element")
    return lattice


def generators_closure(lattice: FiniteLattice, gens: Iterable[str]) -> bool:
    """True iff the closure of gens under binary join and meet is everything.

    A worklist: each newly reached element is combined only with the
    elements reached before it, so every pair is combined once.
    """
    reached = list(dict.fromkeys(gens))
    for g in reached:
        lattice._at(g)
    seen = set(reached)
    for i, a in enumerate(reached):  # reached grows while it is walked
        if len(seen) == len(lattice.elements):
            break
        for b in reached[:i]:
            for c in (lattice.join(a, b), lattice.meet(a, b)):
                if c not in seen:
                    seen.add(c)
                    reached.append(c)
    return len(seen) == len(lattice.elements)


def powerset_lattice(atoms: Sequence[str]) -> FiniteLattice:
    """The powerset of the given atoms ordered by inclusion.

    Element ids are canonical sorted member lists in braces, e.g. "{a,b}".
    """
    atoms = sorted(set(atoms))
    subsets = [frozenset(c) for r in range(len(atoms) + 1)
               for c in combinations(atoms, r)]
    ids = {s: subset_id(s) for s in subsets}
    pairs = [(ids[s], ids[t]) for s in subsets for t in subsets if s <= t]
    return verify_poset([ids[s] for s in subsets], pairs,
                        generators=[ids[frozenset([a])] for a in atoms]
                        if atoms else None)


def chain_lattice(ids: Sequence[str]) -> FiniteLattice:
    """A chain ordered bottom-to-top in the given id order."""
    pairs = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
    return verify_poset(ids, pairs, covers=True)


def subset_id(members: Iterable[str]) -> str:
    """Canonical display id for a set of names: "{a,b}"."""
    return "{" + ",".join(sorted(members)) + "}"
