import random

import pytest

from latticeplan import lattice as lattice_module
from latticeplan.errors import LimitExceeded
from latticeplan.lattice import (
    LATTICE_ELEMENT_BOUND,
    AntisymmetryViolation,
    ForeignElement,
    LatticeError,
    LatticeTooLarge,
    NotALattice,
    NotGenerating,
    ReflexivityViolation,
    TransitivityViolation,
    chain_lattice,
    generators_closure,
    powerset_lattice,
    subset_id,
    verify_poset,
)


def diamond():
    return verify_poset(
        ["0", "x", "y", "1"],
        [("0", "x"), ("0", "y"), ("x", "1"), ("y", "1")],
        covers=True,
    )


def m3():
    # three incomparable atoms between bottom and top
    return verify_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")],
        covers=True,
    )


def n5():
    return verify_poset(
        ["0", "a", "b", "c", "1"],
        [("0", "a"), ("a", "c"), ("c", "1"), ("0", "b"), ("b", "1")],
        covers=True,
    )


def sample_lattices():
    return [
        verify_poset(["a"], [("a", "a")]),
        diamond(),
        chain_lattice(["0", "m", "1"]),
        m3(),
        n5(),
        powerset_lattice(["f1", "f2", "f3"]),
    ]


def test_single_element():
    lat = verify_poset(["a"], [("a", "a")])
    assert lat.top == "a" and lat.bottom == "a"
    assert lat.join("a", "a") == "a"


def test_diamond_join_meet():
    lat = diamond()
    assert lat.join("x", "y") == "1"
    assert lat.meet("x", "y") == "0"
    assert lat.top == "1" and lat.bottom == "0"


def test_antisymmetry_violation():
    with pytest.raises(AntisymmetryViolation):
        verify_poset(["a", "b"], [("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")])


def test_reflexivity_violation():
    with pytest.raises(ReflexivityViolation):
        verify_poset(["a", "b"], [("a", "a"), ("a", "b")])


def test_transitivity_violation():
    with pytest.raises(TransitivityViolation):
        verify_poset(
            ["a", "b", "c"],
            [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")],
        )


def test_not_a_lattice():
    # two maximal elements: a and b have no join
    with pytest.raises(NotALattice):
        verify_poset(["0", "a", "b"], [("0", "a"), ("0", "b")], covers=True)


def test_foreign_element():
    lat = diamond()

    def raises_foreign(op, *args):
        with pytest.raises(ForeignElement) as info:
            op(*args)
        assert str(info.value) == "element 'nope' is not in this lattice"

    for op in (lat.leq, lat.join, lat.meet):
        for args in (("x", "nope"), ("nope", "x"), ("nope", "nope")):
            raises_foreign(op, *args)
    for gens in (["nope"], ["x", "nope"], ["x", "y", "nope"]):
        raises_foreign(generators_closure, lat, gens)
    assert "nope" not in lat and "x" in lat


def test_join_with_bottom_is_identity():
    for lat in sample_lattices():
        for e in lat.elements:
            assert lat.join(lat.bottom, e) == e
            assert lat.meet(lat.top, e) == e


def test_powerset_join_is_union():
    lat = powerset_lattice(["f1", "f2", "f3"])
    assert lat.join("{f1}", "{f2}") == "{f1,f2}"
    assert lat.meet("{f1,f2}", "{f2,f3}") == "{f2}"
    assert lat.top == "{f1,f2,f3}" and lat.bottom == "{}"


def test_generators_closure():
    lat = diamond()
    assert generators_closure(lat, lat.elements)
    assert generators_closure(lat, ["x", "y"])
    chain = chain_lattice(["0", "m", "1"])
    assert not generators_closure(chain, ["0", "1"])


def test_declared_generators_are_checked():
    with pytest.raises(NotGenerating):
        verify_poset(
            ["0", "m", "1"],
            [("0", "m"), ("m", "1")],
            covers=True,
            generators=["0", "1"],
        )


def test_lattices_at_the_element_bound():
    """Masks as wide as LATTICE_ELEMENT_BOUND, against index order on a
    chain and set inclusion on a powerset, on seeded pairs."""
    assert LATTICE_ELEMENT_BOUND == 512 == 2 ** 9
    ids = [f"c{i}" for i in range(LATTICE_ELEMENT_BOUND)]
    chain = chain_lattice(ids)
    assert (chain.top, chain.bottom) == (ids[-1], ids[0])
    rng = random.Random(0)
    for _ in range(200):
        i, j = rng.randrange(len(ids)), rng.randrange(len(ids))
        assert chain.join(ids[i], ids[j]) == ids[max(i, j)]
        assert chain.meet(ids[i], ids[j]) == ids[min(i, j)]
        assert chain.leq(ids[i], ids[j]) is (i <= j)

    atoms = [f"a{i}" for i in range(9)]
    power = powerset_lattice(atoms)
    assert len(power.elements) == LATTICE_ELEMENT_BOUND
    assert power.generators == tuple(subset_id([a]) for a in atoms)
    assert (power.top, power.bottom) == (subset_id(atoms), "{}")
    for _ in range(200):
        s = {a for a in atoms if rng.random() < 0.5}
        t = {a for a in atoms if rng.random() < 0.5}
        assert power.join(subset_id(s), subset_id(t)) == subset_id(s | t)
        assert power.meet(subset_id(s), subset_id(t)) == subset_id(s & t)
        assert power.leq(subset_id(s), subset_id(t)) is (s <= t)


def test_algebraic_laws_exhaustively():
    for lat in sample_lattices():
        for a in lat.elements:
            for b in lat.elements:
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, a) == a
                assert lat.meet(a, a) == a
                assert lat.meet(a, lat.join(a, b)) == a
                assert lat.join(a, lat.meet(a, b)) == a
                for c in lat.elements:
                    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
                    assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


def test_join_is_least_upper_bound():
    # independent upper-bound scan for every pair
    for lat in sample_lattices():
        for a in lat.elements:
            for b in lat.elements:
                ubs = [x for x in lat.elements if lat.leq(a, x) and lat.leq(b, x)]
                j = lat.join(a, b)
                assert j in ubs
                assert all(lat.leq(j, x) for x in ubs)


def order_pairs(lat):
    """The order of a lattice as its set of (a, b) pairs with a <= b."""
    return frozenset((a, b) for a in lat.elements for b in lat.elements
                     if lat.leq(a, b))


def test_hasse_round_trip():
    for lat in sample_lattices():
        again = verify_poset(lat.elements, lat.covers(), covers=True)
        assert order_pairs(again) == order_pairs(lat)


def test_dot_export_uses_cover_edges_only():
    lat = diamond()
    dot = lat.to_dot("diamond")
    assert '"x" -> "1";' in dot
    assert '"0" -> "1";' not in dot
    assert dot == lat.to_dot("diamond")


# --- brute-force oracle: lattices by scanning bounds and comparing pairs ---

def brute_closure(pairs, elements):
    """Reflexive-transitive closure by composing every pair with every pair."""
    closed = {(a, a) for a in elements}
    closed.update(pairs)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closed):
            for (c, d) in list(closed):
                if b == c and (a, d) not in closed:
                    closed.add((a, d))
                    changed = True
    return closed


def brute_lattice(elements, pairs, covers):
    """What verify_poset must give: the tables, top, bottom, order and cover
    pairs as a dict, or (exception class, message) for the first failure.

    Reflexivity and transitivity are checked on full-order input only, then
    antisymmetry, then each pair in element order for a least upper bound
    and a greatest lower bound. Witnesses are the first in element order.
    """
    rel = set(pairs)
    if covers:
        rel = brute_closure(rel, elements)
    else:
        for a in elements:
            if (a, a) not in rel:
                return ReflexivityViolation, f"missing ({a!r}, {a!r})"
        for a in elements:
            for b in elements:
                for d in elements:
                    if (a, b) in rel and (b, d) in rel and (a, d) not in rel:
                        return TransitivityViolation, (
                            f"({a!r},{b!r}) and ({b!r},{d!r}) without ({a!r},{d!r})")
    for a in elements:
        for b in elements:
            if a != b and (a, b) in rel and (b, a) in rel:
                return AntisymmetryViolation, f"{a!r} <= {b!r} and {b!r} <= {a!r}"

    def leq(x, y):
        return (x, y) in rel

    join, meet = {}, {}
    for a in elements:
        for b in elements:
            ubs = [x for x in elements if leq(a, x) and leq(b, x)]
            least = [x for x in ubs if all(leq(x, y) for y in ubs)]
            if len(least) != 1:
                return NotALattice, f"pair ({a!r}, {b!r}) has no unique join"
            lbs = [x for x in elements if leq(x, a) and leq(x, b)]
            greatest = [x for x in lbs if all(leq(y, x) for y in lbs)]
            if len(greatest) != 1:
                return NotALattice, f"pair ({a!r}, {b!r}) has no unique meet"
            join[(a, b)], meet[(a, b)] = least[0], greatest[0]
    cover_pairs = sorted(
        (a, b) for (a, b) in rel if a != b and not any(
            c not in (a, b) and leq(a, c) and leq(c, b) for c in elements))
    return {
        "join_table": join,
        "meet_table": meet,
        "top": next(x for x in elements if all(leq(y, x) for y in elements)),
        "bottom": next(x for x in elements if all(leq(x, y) for y in elements)),
        "order": frozenset(rel),
        "covers": cover_pairs,
    }


def built_lattice(elements, pairs, covers):
    """verify_poset's result in the shape brute_lattice returns."""
    try:
        lat = verify_poset(elements, pairs, covers=covers)
    except LatticeError as exc:
        return type(exc), str(exc)
    pairs = [(a, b) for a in lat.elements for b in lat.elements]
    return {
        "join_table": {(a, b): lat.join(a, b) for (a, b) in pairs},
        "meet_table": {(a, b): lat.meet(a, b) for (a, b) in pairs},
        "top": lat.top,
        "bottom": lat.bottom,
        "order": order_pairs(lat),
        "covers": lat.covers(),
    }


def brute_generated(lat, gens):
    """Closure of gens under join and meet, by full pair scans to a fixed point."""
    reached = set(gens)
    while True:
        more = {op(a, b) for a in reached for b in reached
                for op in (lat.join, lat.meet)}
        if more <= reached:
            return reached == set(lat.elements)
        reached |= more


def random_orders(count=40):
    """Seeded random relations on up to 7 elements, listed in shuffled order:
    (elements, cover pairs, full-order pairs). Some get a bottom and a top,
    some a cycle; some full orders lose a reflexive pair or an implied one."""
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        names = [f"v{i}" for i in range(n)]
        edges = {(names[i], names[j]) for i in range(n)
                 for j in range(i + 1, n) if rng.random() < 0.35}
        if n > 2 and rng.random() < 0.5:
            edges |= {(names[0], x) for x in names[1:]}
            edges |= {(x, names[-1]) for x in names[:-1]}
        if n > 1 and rng.random() < 0.2:
            i, j = sorted(rng.sample(range(n), 2))
            edges.add((names[j], names[i]))
        full = brute_closure(edges, names)
        implied = sorted({(a, d) for (a, b) in full for (c, d) in full
                          if b == c and len({a, b, d}) == 3})
        drop = rng.random()
        if drop < 0.1:
            full.discard((rng.choice(names),) * 2)
        elif drop < 0.4 and implied:
            full.discard(rng.choice(implied))
        yield rng.sample(names, n), rng.sample(sorted(edges), len(edges)), \
            rng.sample(sorted(full), len(full))


def test_verify_poset_matches_brute_force_oracle():
    outcomes = []
    for elements, cover_pairs, full_pairs in random_orders():
        for pairs, covers in ((cover_pairs, True), (full_pairs, False)):
            expected = brute_lattice(elements, pairs, covers)
            assert built_lattice(elements, pairs, covers) == expected, \
                (elements, pairs, covers)
            outcomes.append(expected if isinstance(expected, tuple) else None)
    kinds = [o[0] if o else None for o in outcomes]
    assert kinds.count(None) >= 20
    for cls in (ReflexivityViolation, TransitivityViolation,
                AntisymmetryViolation, NotALattice):
        assert cls in kinds


def test_generators_closure_matches_brute_force():
    checked = 0
    for elements, cover_pairs, _ in random_orders():
        try:
            lat = verify_poset(elements, cover_pairs, covers=True)
        except LatticeError:
            continue
        rng = random.Random(checked)
        for size in range(len(elements) + 1):
            gens = rng.sample(elements, size)
            assert generators_closure(lat, gens) == brute_generated(lat, gens)
            checked += 1
    assert checked >= 40


def test_ordered_witnesses():
    """Each failure names the first witness in element order."""
    def message(elements, pairs, **kw):
        with pytest.raises(LatticeError) as info:
            verify_poset(elements, pairs, **kw)
        return type(info.value), str(info.value)

    assert message(["a", "b", "b", "a"], []) \
        == (LatticeError, "duplicate element id 'a'")
    assert message(["a", "b", "c"], [("a", "a"), ("c", "c"), ("a", "b")]) \
        == (ReflexivityViolation, "missing ('b', 'b')")
    # two minimal elements under a top: the pair has a join but no meet
    assert message(["x", "y", "t"], [("x", "t"), ("y", "t")], covers=True) \
        == (NotALattice, "pair ('x', 'y') has no unique meet")
    # a bowtie: c, d have neither; the join is checked first
    bowtie = [("c", "a"), ("c", "b"), ("d", "a"), ("d", "b")]
    assert message(["c", "d", "a", "b"], bowtie, covers=True) \
        == (NotALattice, "pair ('c', 'd') has no unique join")
    # (x, y) lacks a meet and comes before (p, q), which lacks a join
    split = [("x", "m"), ("y", "m"), ("m", "p"), ("m", "q")]
    assert message(["x", "y", "m", "p", "q"], split, covers=True) \
        == (NotALattice, "pair ('x', 'y') has no unique meet")
    assert message(["p", "q", "x", "y", "m"], split, covers=True) \
        == (NotALattice, "pair ('p', 'q') has no unique join")
    # 0 <= a, b <= c without 0 <= c: a comes before b
    order = [(e, e) for e in "0abc"] + [("0", "a"), ("0", "b"),
                                        ("a", "c"), ("b", "c")]
    assert message(["0", "b", "a", "c"], order) == (
        TransitivityViolation, "('0','b') and ('b','c') without ('0','c')")
    assert message(["0", "a", "b", "c"], order) == (
        TransitivityViolation, "('0','a') and ('a','c') without ('0','c')")
    # a <= c and a <= d, both missing above 0: c comes before d
    fan = [(e, e) for e in "0acd"] + [("0", "a"), ("a", "c"), ("a", "d")]
    assert message(["0", "a", "c", "d"], fan) == (
        TransitivityViolation, "('0','a') and ('a','c') without ('0','c')")
    assert message(["0", "a", "d", "c"], fan) == (
        TransitivityViolation, "('0','a') and ('a','d') without ('0','d')")
    # a transitivity gap is reported before a cycle
    cyclic = [(e, e) for e in "abc"] + [("a", "b"), ("b", "a"), ("b", "c")]
    assert message(["a", "b", "c"], cyclic)[0] is TransitivityViolation
    assert message(["c", "b", "a"], [("a", "b"), ("b", "a")], covers=True) \
        == (AntisymmetryViolation, "'b' <= 'a' and 'a' <= 'b'")
    triangle = [("a", "b"), ("b", "c"), ("c", "a")]
    assert message(["c", "b", "a"], triangle, covers=True) \
        == (AntisymmetryViolation, "'c' <= 'b' and 'b' <= 'c'")
    assert message(["0", "m", "1"], [("0", "m"), ("m", "1")], covers=True,
                   generators=["1", "0"]) \
        == (NotGenerating, "generators ['0', '1'] do not reach every element")


def test_size_bound_is_checked_before_any_work(monkeypatch):
    def untouched():
        raise AssertionError("pairs read before the size check")
        yield

    elements = [f"e{i}" for i in range(LATTICE_ELEMENT_BOUND + 1)]
    with pytest.raises(LatticeTooLarge) as info:
        verify_poset(elements + elements, untouched())
    assert isinstance(info.value, LimitExceeded)
    assert str(info.value) == (f"lattice has {2 * len(elements)} elements;"
                               f" lattices are bounded at {LATTICE_ELEMENT_BOUND}")
    # the bound itself is admitted
    monkeypatch.setattr(lattice_module, "LATTICE_ELEMENT_BOUND", 4)
    assert chain_lattice(["0", "a", "b", "1"]).top == "1"
    with pytest.raises(LatticeTooLarge):
        chain_lattice(["0", "a", "b", "c", "1"])
