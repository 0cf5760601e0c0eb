"""Phase semantics of linear logic over a finite commutative monoid.

A phase space is a validated monoid plus a designated "false" subset. Subsets
of the carrier form the raw algebra; facts (fixed points of the double dual)
carry the multiplicative and additive connectives. Spaces and subsets are
immutable after construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import LatticePlanError, LimitExceeded
from .lattice import LATTICE_ELEMENT_BOUND, subset_id

DEFAULT_CARRIER_BOUND = 12


class PhaseError(LatticePlanError):
    """Base class for phase-space validation and algebra errors."""


class NotClosed(PhaseError):
    pass


class NotAssociative(PhaseError):
    pass


class NotCommutative(PhaseError):
    pass


class UnitLawViolation(PhaseError):
    pass


class SpaceMismatch(PhaseError):
    """Subsets of different phase spaces were combined."""


class NotAFact(PhaseError):
    pass


class CarrierTooLarge(LimitExceeded):
    pass


class NotDualClasses(PhaseError):
    pass


class ClassTooLarge(PhaseError, LimitExceeded):
    pass


class NotClosedUnderOps(PhaseError):
    pass


class WrongExtremes(PhaseError):
    pass


class PhaseSpace:
    """A finite commutative monoid with a designated false subset; equal
    only to itself."""

    def __init__(self, carrier: tuple[str, ...],
                 product_table: dict[tuple[str, str], str], unit: str,
                 false_members: frozenset[str]):
        self.carrier, self.product_table = carrier, product_table
        self.unit, self.false_members = unit, false_members
        self._dual_cache: dict[frozenset[str], frozenset[str]] = {}

    def mul(self, x: str, y: str) -> str:
        return self.product_table[(x, y)]

    def subset(self, members: Iterable[str]) -> MonoidSubset:
        members = frozenset(members)
        unknown = members - set(self.carrier)
        if unknown:
            raise SpaceMismatch(f"members {sorted(unknown)} not in carrier")
        return MonoidSubset(self, members)

    # Distinguished facts. "one" is the whole carrier, "zero" the closure of
    # the empty subset, "i_fact" the closure of the unit, and "false_fact"
    # the closure of the false subset.
    @property
    def one(self) -> MonoidSubset:
        return MonoidSubset(self, frozenset(self.carrier))

    @property
    def zero(self) -> MonoidSubset:
        return closure(MonoidSubset(self, frozenset()))

    @property
    def i_fact(self) -> MonoidSubset:
        return closure(self.subset([self.unit]))

    @property
    def false_fact(self) -> MonoidSubset:
        return closure(MonoidSubset(self, self.false_members))


class MonoidSubset(NamedTuple):
    """A subset of one phase space's carrier."""

    space: PhaseSpace
    members: frozenset[str]

    def __le__(self, other: "MonoidSubset") -> bool:
        _same_space(self, other)
        return self.members <= other.members

    def display(self) -> str:
        return subset_id(self.members)


def _same_space(*subsets: MonoidSubset) -> PhaseSpace:
    space = subsets[0].space
    for s in subsets[1:]:
        if s.space is not space:
            raise SpaceMismatch("subsets belong to different phase spaces")
    return space


def validate_monoid(carrier: Sequence[str],
                    table: Mapping[tuple[str, str], str],
                    unit: str,
                    false_set: Iterable[str] = ()) -> PhaseSpace:
    """Check monoid axioms exhaustively and build the phase space.

    The product must be total, closed, associative, and commutative, with the
    stated unit. Commutativity is demanded because every duality law used
    downstream depends on it.
    """
    elems = tuple(carrier)
    if len(set(elems)) != len(elems):
        raise PhaseError("duplicate carrier element")
    elem_set = set(elems)
    if unit not in elem_set:
        raise PhaseError(f"unit {unit!r} is not a carrier element")
    for x in elems:
        for y in elems:
            if (x, y) not in table:
                raise NotClosed(f"product {x!r}*{y!r} is missing")
            if table[(x, y)] not in elem_set:
                raise NotClosed(f"product {x!r}*{y!r} = {table[(x, y)]!r} "
                                "leaves the carrier")
    for x in elems:
        if table[(unit, x)] != x or table[(x, unit)] != x:
            raise UnitLawViolation(f"unit law fails at {x!r}")
    for x in elems:
        for y in elems:
            if table[(x, y)] != table[(y, x)]:
                raise NotCommutative(f"{x!r}*{y!r} != {y!r}*{x!r}")
            for z in elems:
                if table[(table[(x, y)], z)] != table[(x, table[(y, z)])]:
                    raise NotAssociative(f"witness triple ({x!r}, {y!r}, {z!r})")
    false_members = frozenset(false_set)
    if not false_members <= elem_set:
        raise PhaseError("false set leaves the carrier")
    return PhaseSpace(carrier=elems, product_table=dict(table), unit=unit,
                      false_members=false_members)


def pointwise_product(x: MonoidSubset, y: MonoidSubset) -> MonoidSubset:
    """Elementwise monoid product of two subsets."""
    space = _same_space(x, y)
    return MonoidSubset(space, frozenset(
        space.mul(a, b) for a in x.members for b in y.members))


def linear_implication(x: MonoidSubset, y: MonoidSubset) -> MonoidSubset:
    """All z whose product with every member of x lands in y."""
    space = _same_space(x, y)
    return MonoidSubset(space, frozenset(
        z for z in space.carrier
        if all(space.mul(a, z) in y.members for a in x.members)))


def dual(x: MonoidSubset) -> MonoidSubset:
    """Linear negation: the implication from x into the false set."""
    space = x.space
    cached = space._dual_cache.get(x.members)
    if cached is None:
        cached = linear_implication(
            x, MonoidSubset(space, space.false_members)).members
        space._dual_cache[x.members] = cached
    return MonoidSubset(space, cached)


def closure(x: MonoidSubset) -> MonoidSubset:
    return dual(dual(x))


def is_fact(x: MonoidSubset) -> bool:
    return closure(x).members == x.members


def _require_facts(*subsets: MonoidSubset) -> None:
    for s in subsets:
        if not is_fact(s):
            raise NotAFact(f"{s.display()} is not a fact")


def tensor(x: MonoidSubset, y: MonoidSubset) -> MonoidSubset:
    """Multiplicative conjunction: closure of the pointwise product."""
    _same_space(x, y)
    _require_facts(x, y)
    return closure(pointwise_product(x, y))


def par(x: MonoidSubset, y: MonoidSubset) -> MonoidSubset:
    """Multiplicative disjunction: dual of the product of the duals."""
    _same_space(x, y)
    _require_facts(x, y)
    return dual(pointwise_product(dual(x), dual(y)))


def with_additive(x: MonoidSubset, y: MonoidSubset) -> MonoidSubset:
    """Additive conjunction: plain intersection of facts, itself a fact."""
    space = _same_space(x, y)
    _require_facts(x, y)
    return MonoidSubset(space, x.members & y.members)


def plus_additive(x: MonoidSubset, y: MonoidSubset) -> MonoidSubset:
    """Additive disjunction: closure of the union of facts."""
    space = _same_space(x, y)
    _require_facts(x, y)
    return closure(MonoidSubset(space, x.members | y.members))


def enumerate_facts(space: PhaseSpace) -> list[MonoidSubset]:
    """All fixed points of the double dual, by size, then by members.

    Every fact is the dual of some subset Y, and the dual of Y is the
    intersection of the principal facts dual({m}) for m in Y. So the facts
    are the whole carrier closed under intersection with each principal
    fact: n rounds over the facts found so far, not a scan of all 2^n
    subsets.
    """
    n = len(space.carrier)
    if n > DEFAULT_CARRIER_BOUND:
        raise CarrierTooLarge(f"carrier has {n} elements; fact enumeration"
                              f" is bounded at {DEFAULT_CARRIER_BOUND}")
    found = {frozenset(space.carrier)}
    for m in space.carrier:
        principal = dual(MonoidSubset(space, frozenset([m]))).members
        found |= {f & principal for f in found}
    facts = [MonoidSubset(space, f) for f in found]
    facts.sort(key=lambda f: (len(f.members), sorted(f.members)))
    return facts


class OpClPartition(NamedTuple):
    """Dual classes of open and closed facts with their closure properties."""

    space: PhaseSpace
    open_facts: frozenset[MonoidSubset]
    closed_facts: frozenset[MonoidSubset]


def validate_op_cl(space: PhaseSpace,
                   open_facts: Iterable[MonoidSubset],
                   closed_facts: Iterable[MonoidSubset]) -> OpClPartition:
    """Check the open/closed class axioms, or fail with a witness.

    The members must be facts, and the closed class the dual image of the
    open class. The open class must be closed under tensor and plus and
    lie between 0 and I, both included. The closed class then follows:
    negation reverses the order of facts and dual(a (x) b) = dual(a) par
    dual(b), dual(a + b) = dual(a) & dual(b), dual(0) = 1, dual(I) = bot,
    so it is closed under par and with and lies between bot and 1, both
    included. Each class is walked in the given order, repeats dropped,
    and every witness is the first in that order; as both operations
    commute, the pairs a, b with a not after b give the same first witness
    as all ordered pairs. A class of more than LATTICE_ELEMENT_BOUND
    members is refused first: it holds more facts than a fact lattice may.
    """
    opens = list(dict.fromkeys(open_facts))
    closeds = list(dict.fromkeys(closed_facts))
    for name, members in (("open", opens), ("closed", closeds)):
        if len(members) > LATTICE_ELEMENT_BOUND:
            raise ClassTooLarge(f"{name} class has {len(members)} members;"
                                f" classes are bounded at"
                                f" {LATTICE_ELEMENT_BOUND}")
    for f in opens + closeds:
        if f.space is not space:
            raise SpaceMismatch("class member belongs to another space")
        if not is_fact(f):
            raise NotAFact(f"{f.display()} is not a fact")
    open_set, closed_set = frozenset(opens), frozenset(closeds)
    if frozenset(dual(f) for f in opens) != closed_set:
        raise NotDualClasses("closed class is not the dual image of the open class")

    for i, a in enumerate(opens):
        for b in opens[i:]:
            for op, sign in ((tensor, "(x)"), (plus_additive, "+")):
                c = op(a, b)
                if c not in open_set:
                    raise NotClosedUnderOps(f"open class: {a.display()} {sign} "
                                            f"{b.display()} = {c.display()} escapes")
    zero, i_fact = space.zero, space.i_fact
    if i_fact not in open_set or zero not in open_set:
        raise WrongExtremes(f"open class must contain {i_fact.display()} "
                            f"and {zero.display()}")
    for f in opens:
        if not zero <= f <= i_fact:
            raise WrongExtremes(f"open class member {f.display()} outside its extremes")
    return OpClPartition(space=space, open_facts=open_set,
                         closed_facts=closed_set)
