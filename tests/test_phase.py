"""Phase-space validation, duality laws, and connective algebra."""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticeplan.errors import LimitExceeded
from latticeplan.phase import (
    CarrierTooLarge,
    ClassTooLarge,
    MonoidSubset,
    NotAFact,
    NotAssociative,
    NotClosed,
    NotClosedUnderOps,
    NotCommutative,
    NotDualClasses,
    PhaseError,
    SpaceMismatch,
    UnitLawViolation,
    WrongExtremes,
    closure,
    dual,
    enumerate_facts,
    is_fact,
    linear_implication,
    par,
    plus_additive,
    pointwise_product,
    tensor,
    validate_monoid,
    validate_op_cl,
    with_additive,
)
from latticeplan import phase
from latticeplan.planner import build_goal_lattice_spec


def space_from_fn(elems, fn, unit, false_set=()):
    table = {(x, y): fn(x, y) for x in elems for y in elems}
    return validate_monoid(elems, table, unit, false_set)


def trivial(false_set=()):
    return space_from_fn(("e",), lambda x, y: "e", "e", false_set)


def mod2mul(false_set=()):
    return space_from_fn(("0", "1"), lambda x, y: str(int(x) * int(y)), "1",
                         false_set)


def z2(false_set=()):
    return space_from_fn(("e", "a"), lambda x, y: "e" if x == y else "a", "e",
                         false_set)


def minchain(false_set=()):
    order = {"0": 0, "m": 1, "1": 2}
    return space_from_fn(("0", "m", "1"),
                         lambda x, y: min(x, y, key=order.get), "1", false_set)


def z4(false_set=()):
    elems = ("0", "1", "2", "3")
    return space_from_fn(elems, lambda x, y: str((int(x) + int(y)) % 4), "0",
                         false_set)


def klein(false_set=()):
    def mul(x, y):
        if x == "e":
            return y
        if y == "e":
            return x
        if x == y:
            return "e"
        return ({"a", "b", "c"} - {x, y}).pop()
    return space_from_fn(("e", "a", "b", "c"), mul, "e", false_set)


def union2(false_set=("u", "v")):
    # powerset of a two-element set under union: e={}, u, v, w={both}
    join = {("e", "e"): "e", ("e", "u"): "u", ("e", "v"): "v", ("e", "w"): "w",
            ("u", "u"): "u", ("u", "v"): "w", ("u", "w"): "w",
            ("v", "v"): "v", ("v", "w"): "w", ("w", "w"): "w"}
    def mul(x, y):
        return join.get((x, y)) or join[(y, x)]
    return space_from_fn(("e", "u", "v", "w"), mul, "e", false_set)


CORPUS = [
    trivial(()),
    trivial(("e",)),
    mod2mul(("0",)),
    mod2mul(("1",)),
    z2(("e",)),
    z2(("a",)),
    z2(()),
    minchain(("0",)),
    minchain(("0", "m")),
    minchain(("m",)),
    z4(("0",)),
    z4(("2",)),
    z4(("1", "3")),
    klein(("e",)),
    klein(("a", "b")),
    union2(),
    union2(("w",)),
]


def all_subsets(space):
    elems = sorted(space.carrier)
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            yield space.subset(combo)


def oracle_dual(space, members):
    """Literal readback of the negation definition from the raw table."""
    return frozenset(z for z in space.carrier
                     if all(space.product_table[(x, z)] in space.false_members
                            for x in members))


class TestValidateMonoid:
    def test_missing_product_is_rejected(self):
        table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a"}
        with pytest.raises(NotClosed):
            validate_monoid(("e", "a"), table, "e")

    def test_escaping_product_is_rejected(self):
        table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a",
                 ("a", "a"): "q"}
        with pytest.raises(NotClosed):
            validate_monoid(("e", "a"), table, "e")

    def test_non_associative_table_is_rejected(self):
        elems = ("e", "a", "b")
        table = {(x, "e"): x for x in elems}
        table.update({("e", x): x for x in elems})
        table.update({("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "b",
                      ("b", "b"): "a"})
        with pytest.raises(NotAssociative):
            validate_monoid(elems, table, "e")

    def test_non_commutative_table_is_rejected(self):
        elems = ("e", "a", "b")
        table = {(x, "e"): x for x in elems}
        table.update({("e", x): x for x in elems})
        table.update({("a", "a"): "a", ("a", "b"): "a", ("b", "a"): "b",
                      ("b", "b"): "b"})
        with pytest.raises(NotCommutative):
            validate_monoid(elems, table, "e")

    def test_broken_unit_is_rejected(self):
        table = {("e", "e"): "e", ("e", "a"): "e", ("a", "e"): "e",
                 ("a", "a"): "a"}
        with pytest.raises(UnitLawViolation):
            validate_monoid(("e", "a"), table, "e")

    def test_unknown_unit_and_false_members(self):
        with pytest.raises(PhaseError):
            space_from_fn(("e",), lambda x, y: "e", "q")
        with pytest.raises(PhaseError):
            space_from_fn(("e",), lambda x, y: "e", "e", ("q",))

    def test_duplicate_carrier(self):
        with pytest.raises(PhaseError):
            validate_monoid(("e", "e"), {("e", "e"): "e"}, "e")


class TestDualityLaws:
    @pytest.mark.parametrize("space", CORPUS)
    def test_dual_matches_oracle(self, space):
        for x in all_subsets(space):
            assert dual(x).members == oracle_dual(space, x.members)

    @pytest.mark.parametrize("space", CORPUS)
    def test_subset_of_double_dual(self, space):
        for x in all_subsets(space):
            assert x.members <= closure(x).members

    @pytest.mark.parametrize("space", CORPUS)
    def test_triple_dual_collapses(self, space):
        for x in all_subsets(space):
            assert dual(closure(x)).members == dual(x).members

    @pytest.mark.parametrize("space", CORPUS)
    def test_dual_is_antitone(self, space):
        subsets = list(all_subsets(space))
        for x in subsets:
            for y in subsets:
                if x.members <= y.members:
                    assert dual(y).members <= dual(x).members

    @pytest.mark.parametrize("space", CORPUS)
    def test_dual_of_union_is_meet_of_duals(self, space):
        subsets = list(all_subsets(space))
        for x in subsets:
            for y in subsets:
                union = space.subset(x.members | y.members)
                assert dual(union).members == dual(x).members & dual(y).members

    @pytest.mark.parametrize("space", CORPUS)
    def test_product_dual_adjunction(self, space):
        # the dual of a product is the implication into the partner's dual
        subsets = list(all_subsets(space))
        for x in subsets:
            for y in subsets:
                lhs = dual(pointwise_product(x, y))
                rhs = linear_implication(x, dual(y))
                assert lhs.members == rhs.members


class TestFacts:
    def test_mod2_facts_by_hand(self):
        # with multiplication and false={0}: only {0} and the carrier close up
        space = mod2mul(("0",))
        facts = {f.members for f in enumerate_facts(space)}
        assert facts == {frozenset({"0"}), frozenset({"0", "1"})}
        assert space.one.members == {"0", "1"}
        assert space.zero.members == {"0"}
        assert space.i_fact.members == {"0", "1"}
        assert space.false_fact.members == {"0"}

    def test_z2_all_subsets_are_facts(self):
        space = z2(("e",))
        facts = {f.members for f in enumerate_facts(space)}
        assert facts == {frozenset(), frozenset({"e"}), frozenset({"a"}),
                         frozenset({"e", "a"})}

    @pytest.mark.parametrize("space", CORPUS)
    def test_enumeration_matches_dual_image(self, space):
        # facts are exactly the duals of something
        by_scan = {f.members for f in enumerate_facts(space)}
        by_image = {oracle_dual(space, x.members) for x in all_subsets(space)}
        assert by_scan == by_image

    @pytest.mark.parametrize("space", CORPUS)
    def test_facts_closed_under_intersection(self, space):
        facts = enumerate_facts(space)
        for a in facts:
            for b in facts:
                assert is_fact(MonoidSubset(space, a.members & b.members))

    def test_carrier_bound(self):
        elems = tuple(f"g{i}" for i in range(13))
        space = space_from_fn(elems, lambda x, y: max(x, y), "g0")
        with pytest.raises(CarrierTooLarge):
            enumerate_facts(space)

    def test_enumeration_is_deterministic(self):
        space = union2()
        once = [f.members for f in enumerate_facts(space)]
        again = [f.members for f in enumerate_facts(space)]
        assert once == again
        sizes = [len(m) for m in once]
        assert sizes == sorted(sizes)


def random_factor(rng, k):
    """A commutative monoid on range(k): elements, product and unit."""
    kinds = ["cyclic", "min", "max"] + (["union"] if k in (1, 2, 4) else [])
    kind = rng.choice(kinds)
    if kind == "cyclic":
        return range(k), lambda x, y: (x + y) % k, 0
    if kind == "min":
        return range(k), min, k - 1
    if kind == "max":
        return range(k), max, 0
    return range(k), lambda x, y: x | y, 0


def random_product_monoid(rng, n):
    """A product of cyclic groups and semilattices with n elements, under
    shuffled names, and a random false set."""
    sizes = []
    while n > 1:
        k = rng.choice([d for d in range(2, n + 1) if n % d == 0])
        sizes.append(k)
        n //= k
    factors = [random_factor(rng, k) for k in sizes or [1]]
    tuples = list(product(*(f[0] for f in factors)))
    labels = [f"m{i}" for i in range(len(tuples))]
    rng.shuffle(labels)
    name = dict(zip(tuples, labels))
    def mul(x, y):
        return tuple(f[1](a, b) for f, a, b in zip(factors, x, y))
    table = {(name[x], name[y]): name[mul(x, y)]
             for x in tuples for y in tuples}
    unit = name[tuple(f[2] for f in factors)]
    share = rng.choice([0.2, 0.4, 0.6])
    false_set = [name[t] for t in tuples if rng.random() < share]
    return validate_monoid([name[t] for t in tuples], table, unit, false_set)


class TestFactEnumerationOracle:
    @pytest.mark.parametrize("seed", range(40))
    def test_equals_fixed_points_of_every_subset(self, seed):
        # the definition: every subset X with dual(dual(X)) == X, ordered
        # by size, then by members; carriers of 1 to 10 elements
        space = random_product_monoid(random.Random(seed), 1 + seed % 10)
        expected = [x.members for x in all_subsets(space)
                    if oracle_dual(space, oracle_dual(space, x.members))
                    == x.members]
        expected.sort(key=lambda m: (len(m), sorted(m)))
        facts = enumerate_facts(space)
        assert [f.members for f in facts] == expected
        assert all(f.space is space for f in facts)


class TestConnectives:
    @pytest.mark.parametrize("space", CORPUS)
    def test_de_morgan_between_tensor_and_par(self, space):
        facts = enumerate_facts(space)
        for x in facts:
            for y in facts:
                assert dual(tensor(x, y)).members == par(dual(x), dual(y)).members
                assert dual(with_additive(x, y)).members == \
                    plus_additive(dual(x), dual(y)).members

    @pytest.mark.parametrize("space", CORPUS)
    def test_neutral_elements(self, space):
        for x in enumerate_facts(space):
            assert tensor(x, space.i_fact).members == x.members
            assert par(x, space.false_fact).members == x.members
            assert with_additive(x, space.one).members == x.members
            assert plus_additive(x, space.zero).members == x.members

    @pytest.mark.parametrize("space", CORPUS)
    def test_commutativity_of_connectives(self, space):
        facts = enumerate_facts(space)
        for x in facts:
            for y in facts:
                assert tensor(x, y).members == tensor(y, x).members
                assert par(x, y).members == par(y, x).members

    def test_with_is_intersection_and_plus_is_union_closure(self):
        space = union2()
        facts = enumerate_facts(space)
        for x in facts:
            for y in facts:
                assert with_additive(x, y).members == x.members & y.members
                assert plus_additive(x, y).members == \
                    closure(space.subset(x.members | y.members)).members

    @pytest.mark.parametrize("space", CORPUS)
    def test_with_of_facts_is_a_fact(self, space):
        facts = enumerate_facts(space)
        for x in facts:
            for y in facts:
                assert is_fact(with_additive(x, y))

    def test_connectives_reject_non_facts(self):
        space = mod2mul(("0",))
        non_fact = space.subset(["1"])
        assert not is_fact(non_fact)
        for op in (tensor, par, with_additive, plus_additive):
            with pytest.raises(NotAFact):
                op(non_fact, space.one)

    def test_space_mismatch_is_rejected(self):
        a, b = z2(("e",)), z2(("e",))
        with pytest.raises(SpaceMismatch):
            pointwise_product(a.subset(["e"]), b.subset(["e"]))
        with pytest.raises(SpaceMismatch):
            a.subset(["q"])


@settings(max_examples=200, deadline=None)
@given(st.integers(0, len(CORPUS) - 1), st.data())
def test_random_subsets_obey_closure_laws(idx, data):
    space = CORPUS[idx]
    members = data.draw(st.frozensets(st.sampled_from(sorted(space.carrier))))
    x = space.subset(members)
    assert x.members <= closure(x).members
    assert is_fact(dual(x))
    assert closure(closure(x)).members == closure(x).members


class TestFactLattice:
    def test_union2_fact_lattice_shape(self):
        space = union2()
        lat = build_goal_lattice_spec(space, {}).lattice
        assert len(lat.elements) == 8
        assert lat.top == "{e,u,v,w}"
        assert lat.bottom == "{}"
        assert lat.leq("{e}", "{e,u}")
        assert not lat.leq("{e,u}", "{e,v}")
        assert lat.join("{e,u}", "{e,v}") == "{e,u,v,w}"
        assert lat.meet("{e,u}", "{e,v}") == "{e}"

    def test_naming_map(self):
        space = union2()
        names = {frozenset(): "zero", frozenset(space.carrier): "one"}
        lat = build_goal_lattice_spec(space, {}, names=names).lattice
        assert lat.bottom == "zero"
        assert lat.top == "one"

    @pytest.mark.parametrize("space", CORPUS)
    def test_inclusion_order_is_always_a_lattice(self, space):
        lat = build_goal_lattice_spec(space, {}).lattice
        assert len(lat.elements) == len(enumerate_facts(space))


class TestOpClClasses:
    def test_valid_partition_on_union_space(self):
        space = union2()
        opens = [space.zero, space.i_fact]
        closeds = [space.one, space.false_fact]
        part = validate_op_cl(space, opens, closeds)
        assert part.open_facts == frozenset(opens)
        assert part.closed_facts == frozenset(closeds)

    def test_minimal_partition_on_trivial_space(self):
        space = trivial(("e",))
        validate_op_cl(space, [space.i_fact], [space.one])

    def test_mismatched_classes_fail_duality(self):
        space = union2()
        with pytest.raises(NotDualClasses):
            validate_op_cl(space, [space.zero, space.i_fact], [space.one])

    @pytest.mark.parametrize("side", ["open", "closed"])
    def test_member_from_another_space(self, side):
        space, other = union2(), union2()
        opens = [space.zero, space.i_fact]
        closeds = [space.one, space.false_fact]
        (opens if side == "open" else closeds).append(other.i_fact)
        with pytest.raises(SpaceMismatch) as info:
            validate_op_cl(space, opens, closeds)
        assert str(info.value) == "class member belongs to another space"

    def test_swapped_classes_fail_extremes(self):
        # duality is symmetric under the swap, so the extremes catch it
        space = union2()
        with pytest.raises(WrongExtremes):
            validate_op_cl(space, [space.one, space.false_fact],
                           [space.zero, space.i_fact])

    def test_escaping_plus_is_reported(self):
        space = z2(("e",))
        e, a = space.subset(["e"]), space.subset(["a"])
        empty, full = space.zero, space.one
        with pytest.raises(NotClosedUnderOps):
            validate_op_cl(space, [empty, e, a], [full, e, a])

    def test_missing_extreme_is_reported(self):
        space = union2()
        # duality holds but the open class lacks its smallest member
        with pytest.raises(WrongExtremes):
            validate_op_cl(space, [space.i_fact], [space.false_fact])

    def test_non_fact_member_is_reported(self):
        space = mod2mul(("0",))
        with pytest.raises(NotAFact):
            validate_op_cl(space, [space.subset(["1"])], [space.one])

    @pytest.mark.parametrize("side", ["open", "closed"])
    def test_class_past_the_bound_is_refused_before_any_pair(
            self, side, monkeypatch):
        """513 distinct members of Z_10, given with repeats, are refused
        before any fact test or tensor: testing every pair of them would
        take seconds."""
        calls = []
        monkeypatch.setattr(phase, "tensor",
                            lambda *args: calls.append(args))
        monkeypatch.setattr(phase, "is_fact",
                            lambda *args: calls.append(args))
        elems = tuple(f"e{i}" for i in range(10))
        space = space_from_fn(
            elems, lambda x, y: f"e{(int(x[1:]) + int(y[1:])) % 10}", "e0",
            elems[1:])
        members = [space.subset(m) for size in range(11)
                   for m in combinations(elems, size)][:513]
        classes = {"open": [space.zero, space.i_fact], "closed": [space.one]}
        classes[side] = members + members[:5]
        with pytest.raises(ClassTooLarge) as info:
            validate_op_cl(space, classes["open"], classes["closed"])
        assert str(info.value).startswith(f"{side} class has 513 members")
        assert isinstance(info.value, LimitExceeded) and calls == []


def two_class_op_cl(space, open_facts, closed_facts):
    """Both classes checked pair by pair: the open class under tensor and
    plus, the closed class under with and par, each between its extremes.
    Returns the classes, or raises the first failing check's error."""
    opens, closeds = frozenset(open_facts), frozenset(closed_facts)
    for f in opens | closeds:
        if not is_fact(f):
            raise NotAFact(f.display())
    if frozenset(dual(f) for f in opens) != closeds:
        raise NotDualClasses()
    for cls, ops in ((opens, (tensor, plus_additive)),
                     (closeds, (with_additive, par))):
        for a in cls:
            for b in cls:
                if any(op(a, b) not in cls for op in ops):
                    raise NotClosedUnderOps()
    for cls, big, small in ((opens, space.i_fact, space.zero),
                            (closeds, space.one, space.false_fact)):
        if big not in cls or small not in cls:
            raise WrongExtremes()
        if not all(small <= f <= big for f in cls):
            raise WrongExtremes()
    return opens, closeds


def random_op_cl_case(rng):
    """A space, an open class drawn from its facts and a closed class that
    is its dual image, sometimes perturbed."""
    space = random_product_monoid(rng, rng.randint(1, 6))
    facts = enumerate_facts(space)
    if rng.random() < 0.4:
        opens = [f for f in facts if space.zero <= f <= space.i_fact]
    else:
        opens = rng.sample(facts, rng.randint(0, len(facts)))
    if rng.random() < 0.5:
        opens += [space.zero, space.i_fact]
    opens += rng.sample(opens, min(len(opens), rng.randint(0, 1)))
    rng.shuffle(opens)
    closeds = [dual(f) for f in opens]
    if closeds and rng.random() < 0.15:
        closeds.remove(rng.choice(closeds))
    if rng.random() < 0.15:
        closeds.append(rng.choice(facts))
    rng.shuffle(closeds)
    return space, opens, closeds


class TestOpClOracle:
    def test_matches_two_class_definition(self):
        rng = random.Random(11)
        outcomes = {}
        for _ in range(2000):
            space, opens, closeds = random_op_cl_case(rng)
            try:
                expected = two_class_op_cl(space, opens, closeds)
            except PhaseError as exc:
                expected = type(exc)
            try:
                part = validate_op_cl(space, opens, closeds)
                got = part.open_facts, part.closed_facts
            except PhaseError as exc:
                got = type(exc)
            assert got == expected, (space, opens, closeds)
            key = expected if isinstance(expected, type) else "valid"
            outcomes[key] = outcomes.get(key, 0) + 1
        assert set(outcomes) == {"valid", NotDualClasses, NotClosedUnderOps,
                                 WrongExtremes}, outcomes

    def test_first_escape_in_the_order_given(self):
        space = union2()
        zero, e, u, v = (space.subset(m) for m in ([], ["e"], ["u"], ["v"]))
        for opens, witness in (
                ([zero, e, u, v], "{e} + {u} = {e,u}"),
                ([zero, e, v, u], "{e} + {v} = {e,v}"),
                ([v, zero, u, e], "{v} (x) {u} = {e,u,v,w}"),
                ([u, u, v, e, zero], "{u} (x) {v} = {e,u,v,w}")):
            with pytest.raises(NotClosedUnderOps) as info:
                validate_op_cl(space, opens, [dual(f) for f in opens])
            assert str(info.value) == f"open class: {witness} escapes"

    def test_first_extreme_witness_in_the_order_given(self):
        space = union2()
        facts = enumerate_facts(space)
        for opens, message in (
                (facts, "open class member {u} outside its extremes"),
                (facts[::-1],
                 "open class member {e,u,v,w} outside its extremes"),
                ([space.i_fact], "open class must contain {e} and {}")):
            with pytest.raises(WrongExtremes) as info:
                validate_op_cl(space, opens, [dual(f) for f in opens])
            assert str(info.value) == message

    def test_first_non_fact_in_the_order_given(self):
        space = union2()
        w, ew = space.subset(["w"]), space.subset(["e", "w"])
        for opens, closeds, name in (([w, ew], [], "{w}"),
                                     ([ew, w], [], "{e,w}"),
                                     ([space.zero], [ew, w], "{e,w}")):
            with pytest.raises(NotAFact) as info:
                validate_op_cl(space, opens, closeds)
            assert str(info.value) == f"{name} is not a fact"
