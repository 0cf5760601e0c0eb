"""Scenario file parsing, semantic validation, and the report API."""

from fractions import Fraction
from pathlib import Path

import pytest
import yaml

from latticeplan.errors import LatticePlanError, LimitExceeded
from latticeplan.planner import PlannerError, vertex_weight
from latticeplan.scenario import (
    C_LOADER_MAX_CHARS,
    ParseError,
    PlannerConfig,
    build_scenario,
    load_scenario,
    parse_scenario,
    validation_report,
)

BUNDLED = str(Path(__file__).resolve().parent.parent
              / "scenarios" / "walkthrough.yaml")

REPORT_NAMES = [
    "phase-monoid",
    "op-cl-classes",
    "system-lattice",
    "desire-lattice agent-1",
    "desire-lattice agent-2",
    "desire-lattice agent-3",
    "environment",
    "cross-references",
    "planner-config",
]


def bundled_doc():
    with open(BUNDLED, encoding="utf-8") as fh:
        return yaml.safe_load(fh)


def write_doc(tmp_path, doc):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def parse_mutated(tmp_path, mutate):
    doc = bundled_doc()
    mutate(doc)
    return parse_scenario(write_doc(tmp_path, doc))


def _set(*keys_and_value):
    *keys, last, value = keys_and_value
    def mutate(doc):
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return mutate


def cyclic_phase(doc, n):
    """Give the document the phase space Z_n with false set {0}: its facts
    are the empty set, the singletons and the carrier."""
    elems = [str(i) for i in range(n)]
    doc["phase"] = {
        "carrier": elems, "unit": "0",
        "product": {x: {y: str((int(x) + int(y)) % n) for y in elems}
                    for x in elems},
        "false_set": ["0"], "op": [[], ["0"]], "cl": [elems, ["0"]],
        "goal_map": {"a1": ["0"], "a2": ["0"], "a3": ["0"],
                     "b1": ["1"], "b2": ["2"], "b3": [str(n - 1)]}}
    doc["lattices"].pop("system")


def spy_loaders(monkeypatch):
    """Record the loader class of every yaml.load call."""
    used, load = [], yaml.load

    def spy(stream, Loader):
        used.append(Loader)
        return load(stream, Loader)
    monkeypatch.setattr(yaml, "load", spy)
    return used


C_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
PAD = "\n# " + "x" * C_LOADER_MAX_CHARS + "\n"


class TestBundledScenario:
    def test_loads(self):
        scenario = load_scenario(BUNDLED)
        assert scenario.spec.lattice.top == "1"
        assert scenario.spec.lattice.bottom == "0"
        assert len(scenario.spec.lattice.elements) == 8
        assert sorted(scenario.desire_lattices) == [
            "agent-1", "agent-2", "agent-3"]
        assert scenario.env.width == 7 and scenario.env.height == 7
        assert [a.id for a in scenario.env.agents] == [
            "agent-1", "agent-2", "agent-3"]
        assert [g.id for g in scenario.env.goals] == ["b1", "b2", "b3"]

    def test_planner_section(self):
        scenario = load_scenario(BUNDLED)
        assert scenario.planner == PlannerConfig(
            depth=2, subset_cap=2, eq1_mode="per-goal",
            patience=6, max_steps=40)

    def test_weights_match_published_table(self):
        scenario = load_scenario(BUNDLED)
        dl2 = scenario.desire_lattices["agent-2"]
        dl3 = scenario.desire_lattices["agent-3"]
        assert vertex_weight(dl2, "b2") == Fraction(1, 2)
        assert vertex_weight(dl3, "b2") == Fraction(1, 3)
        assert vertex_weight(dl3, "U12") == Fraction(2, 3)

    def test_report_all_green(self):
        rows = validation_report(parse_scenario(BUNDLED))
        assert [name for name, _, _ in rows] == REPORT_NAMES
        assert all(ok for _, ok, _ in rows)
        assert all(message == "" for _, _, message in rows)


class TestParseErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_scenario(str(tmp_path / "absent.yaml"))
        assert "cannot read scenario" in str(exc.value)

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("phase: [unclosed\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            parse_scenario(str(path))
        assert "not valid YAML" in str(exc.value)

    def test_document_not_a_mapping(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- 1\n- 2\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            parse_scenario(str(path))
        assert "document: expected a mapping" in str(exc.value)

    def test_missing_section(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, lambda d: d.pop("phase"))
        assert "document: missing required field 'phase'" in str(exc.value)

    def test_carrier_not_a_list(self, tmp_path):
        def mutate(doc):
            doc["phase"]["carrier"] = "euvw"
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "phase.carrier: expected a list" in str(exc.value)

    def test_carrier_member_not_a_string(self, tmp_path):
        def mutate(doc):
            doc["phase"]["carrier"] = ["e", 7]
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "phase.carrier[1]: expected a string" in str(exc.value)

    def test_bool_is_not_an_integer(self, tmp_path):
        def mutate(doc):
            doc["environment"]["width"] = True
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "environment.width: expected an integer, got bool" \
            in str(exc.value)

    def test_depth_not_an_integer(self, tmp_path):
        def mutate(doc):
            doc["planner"]["depth"] = "two"
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "planner.depth: expected an integer, got str" in str(exc.value)

    def test_bad_cell_pair(self, tmp_path):
        def mutate(doc):
            doc["environment"]["agents"][0]["position"] = [1, 2, 3]
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "environment.agents[0].position: expected [col, row]," \
            " got 3 items" in str(exc.value)

    def test_covers_and_order_both_given(self, tmp_path):
        def mutate(doc):
            body = doc["lattices"]["agents"]["agent-1"]
            body["order"] = [["0", "U123"]]
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "lattices.agents.agent-1: exactly one of 'covers' or" \
            " 'order' is required" in str(exc.value)

    def test_covers_and_order_both_missing(self, tmp_path):
        def mutate(doc):
            doc["lattices"]["agents"]["agent-1"].pop("covers")
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "exactly one of 'covers' or 'order'" in str(exc.value)

    def test_duplicate_name_entries(self, tmp_path):
        def mutate(doc):
            names = doc["lattices"]["system"]["names"]
            names.append({"members": ["e"], "name": "again"})
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "lattices.system.names[8]: duplicate members entry" \
            in str(exc.value)

    def test_goal_feature_missing_range(self, tmp_path):
        def mutate(doc):
            del doc["environment"]["goals"][0]["features"][0]["range"]
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert "environment.goals[0].features[0]:" \
            " missing required field 'range'" in str(exc.value)

    @pytest.mark.parametrize("mutate, message", [
        # a goal's features are read before its id and position
        (_set("environment", "goals", 0, {"position": [0, 0]}),
         "environment.goals[0]: missing required field 'features'"),
        # agents and goals are read before width, height and obstacles
        (lambda doc: (
            doc["environment"].pop("width"),
            _set("environment", "agents", 0, "position", [1, 2, 3])(doc)),
         "environment.agents[0].position: expected [col, row], got 3 items"),
        # subset_cap is the first planner field read
        (lambda doc: doc["planner"].update(subset_cap="x", depth="y"),
         "planner.subset_cap: expected an integer, got str"),
        (_set("lattices", "agents", "agent-1", "covers", 0,
              ["0", "b1", "b2"]),
         "lattices.agents.agent-1.covers[0]: expected [low, high]"),
        # covers and order exclude each other before any pair is read
        (lambda doc: doc["lattices"]["agents"]["agent-1"].update(
            order=[["0", "b1"]], covers="bad"),
         "lattices.agents.agent-1: exactly one of 'covers' or 'order'"
         " is required"),
        # a duplicate entry fails before any later entry is read
        (_set("lattices", "system", "names", slice(1, 3),
              [{"members": [], "name": "again"}, "not a mapping"]),
         "lattices.system.names[1]: duplicate members entry"),
        (_set("lattices", "agents", "agent-1", "generators", None),
         "lattices.agents.agent-1.generators: expected a list, got NoneType"),
        (_set("phase", "product", {7: {"e": "e"}}),
         "phase.product key: expected a string, got int"),
    ])
    def test_reading_order(self, tmp_path, mutate, message):
        with pytest.raises(ParseError) as exc:
            parse_mutated(tmp_path, mutate)
        assert str(exc.value) == message

    def test_null_subset_cap_is_absent(self, tmp_path):
        raw = parse_mutated(tmp_path, _set("planner", "subset_cap", None))
        assert raw.planner.subset_cap is None
        assert raw.planner.depth == 2

    def test_optional_sections_default(self, tmp_path):
        def mutate(doc):
            doc.pop("planner")
            doc["lattices"].pop("system")
            doc["environment"].pop("obstacles")
        raw = parse_mutated(tmp_path, mutate)
        assert raw.planner == PlannerConfig()
        assert raw.system_names == {}
        scenario = build_scenario(raw)
        assert scenario.env.obstacles == frozenset()


class TestLoaderPaths:
    @pytest.mark.parametrize("carrier", [None, 12])
    def test_padding_past_the_gate_gives_the_same_raw_scenario(
            self, tmp_path, monkeypatch, carrier):
        if carrier is None:
            with open(BUNDLED, encoding="utf-8") as fh:
                text = fh.read()
        else:
            doc = bundled_doc()
            cyclic_phase(doc, carrier)
            text = yaml.safe_dump(doc)
        short, padded = tmp_path / "short.yaml", tmp_path / "padded.yaml"
        short.write_text(text, encoding="utf-8")
        padded.write_text(text + PAD, encoding="utf-8")
        used = spy_loaders(monkeypatch)
        raw = parse_scenario(str(short))
        raw_padded = parse_scenario(str(padded))
        assert used == [C_LOADER, yaml.SafeLoader]
        assert vars(raw) == vars(raw_padded)
        assert all(ok for _, ok, _ in validation_report(raw))

    @pytest.mark.parametrize("pad", ["", PAD])
    def test_invalid_yaml_on_both_paths(self, tmp_path, pad):
        path = tmp_path / "broken.yaml"
        path.write_text("phase: [unclosed\n" + pad, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            parse_scenario(str(path))
        assert "not valid YAML" in str(exc.value)

    def test_without_libyaml_short_texts_use_the_python_loader(
            self, monkeypatch):
        expected = vars(parse_scenario(BUNDLED))
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        used = spy_loaders(monkeypatch)
        assert vars(parse_scenario(BUNDLED)) == expected
        assert used == [yaml.SafeLoader]


# name -> (the first check that fails, mutation of the walkthrough)
BROKEN_DOCUMENTS = {
    "non-associative": (
        "phase-monoid", _set("phase", "product", "u", "v", "e")),
    "op-not-dual-to-cl": (
        "op-cl-classes", _set("phase", "op", [[], ["e"], ["u"]])),
    "goal-not-a-fact": (
        "system-lattice", _set("phase", "goal_map", "b1", ["e", "w"])),
    "carrier-too-large": (
        "system-lattice", lambda doc: cyclic_phase(doc, 13)),
    "bad-desires": (
        "desire-lattice agent-2",
        _set("lattices", "agents", "agent-2", "desires", [])),
    "agent-on-obstacle": (
        "environment", _set("environment", "agents", 0, "position", [0, 2])),
    "unmapped-movement-goal": (
        "cross-references",
        _set("environment", "agents", 0, "movement_goal", "zz")),
    "patience-zero": ("planner-config", _set("planner", "patience", 0)),
    "depth-too-large": ("planner-config", _set("planner", "depth", 5)),
    "phase-and-environment": ("phase-monoid", lambda doc: (
        _set("phase", "product", "u", "v", "e")(doc),
        _set("environment", "agents", 0, "position", [0, 2])(doc))),
    "desires-environment-planner": ("desire-lattice agent-3", lambda doc: (
        _set("lattices", "agents", "agent-3", "desires", [])(doc),
        _set("environment", "agents", 0, "position", [0, 2])(doc),
        _set("planner", "patience", 0)(doc))),
}


class TestOnePipeline:
    @pytest.mark.parametrize("name", sorted(BROKEN_DOCUMENTS))
    def test_build_raises_the_first_failed_check(self, tmp_path, name):
        first_check, mutate = BROKEN_DOCUMENTS[name]
        raw = parse_mutated(tmp_path, mutate)
        rows = validation_report(raw)
        assert [row[0] for row in rows] == REPORT_NAMES
        failed = [(check, message) for check, ok, message in rows if not ok]
        assert failed[0][0] == first_check
        with pytest.raises(LatticePlanError) as exc:
            build_scenario(raw)
        assert str(exc.value) == failed[0][1]

    def test_carrier_bound_is_a_limit(self, tmp_path):
        raw = parse_mutated(tmp_path, BROKEN_DOCUMENTS["carrier-too-large"][1])
        with pytest.raises(LimitExceeded):
            build_scenario(raw)


class TestValidationReport:
    def test_non_associative_product_skips_dependents(self, tmp_path):
        def mutate(doc):
            doc["phase"]["product"]["u"]["v"] = "e"
        raw = parse_mutated(tmp_path, mutate)
        rows = {name: (ok, message)
                for name, ok, message in validation_report(raw)}
        assert rows["phase-monoid"][0] is False
        for dependent in ("op-cl-classes", "system-lattice",
                          "cross-references"):
            assert rows[dependent] == (
                False, "skipped: depends on a failed check")
        assert rows["desire-lattice agent-1"][0] is True
        assert rows["environment"][0] is True
        assert rows["planner-config"][0] is True

    def test_agent_on_obstacle_fails_environment(self, tmp_path):
        def mutate(doc):
            doc["environment"]["agents"][0]["position"] = [0, 2]
        raw = parse_mutated(tmp_path, mutate)
        rows = {name: (ok, message)
                for name, ok, message in validation_report(raw)}
        assert rows["phase-monoid"][0] is True
        assert rows["environment"][0] is False
        assert rows["cross-references"] == (
            False, "skipped: depends on a failed check")
        assert rows["planner-config"] == (
            False, "skipped: depends on a failed check")

    def test_bad_desire_lattice_skips_cross_references(self, tmp_path):
        def mutate(doc):
            doc["lattices"]["agents"]["agent-2"]["desires"] = []
        raw = parse_mutated(tmp_path, mutate)
        rows = {name: (ok, message)
                for name, ok, message in validation_report(raw)}
        assert rows["desire-lattice agent-2"][0] is False
        assert rows["desire-lattice agent-1"][0] is True
        assert rows["cross-references"] == (
            False, "skipped: depends on a failed check")


class TestCrossReferences:
    def test_movement_goal_not_in_goal_map(self, tmp_path):
        def mutate(doc):
            doc["environment"]["agents"][0]["movement_goal"] = "zz"
        raw = parse_mutated(tmp_path, mutate)
        with pytest.raises(PlannerError) as exc:
            build_scenario(raw)
        assert "movement goal 'zz' is not in the goal map" in str(exc.value)

    def test_environment_goal_not_in_goal_map(self, tmp_path):
        def mutate(doc):
            doc["environment"]["goals"][0]["id"] = "bx"
        raw = parse_mutated(tmp_path, mutate)
        with pytest.raises(PlannerError) as exc:
            build_scenario(raw)
        assert "goal 'bx' is not in the goal map" in str(exc.value)

    def test_agent_without_desire_lattice(self, tmp_path):
        def mutate(doc):
            doc["lattices"]["agents"].pop("agent-3")
        raw = parse_mutated(tmp_path, mutate)
        with pytest.raises(PlannerError) as exc:
            build_scenario(raw)
        assert "agent 'agent-3' has no desire lattice" in str(exc.value)

    def test_goal_missing_from_a_desire_lattice(self, tmp_path):
        def mutate(doc):
            body = doc["lattices"]["agents"]["agent-1"]
            body["elements"] = ["0", "b1", "b2", "U12"]
            body["covers"] = [["0", "b1"], ["0", "b2"],
                              ["b1", "U12"], ["b2", "U12"]]
            body["generators"] = ["b1", "b2"]
        raw = parse_mutated(tmp_path, mutate)
        with pytest.raises(PlannerError) as exc:
            build_scenario(raw)
        assert "desire lattice of 'agent-1' lacks a vertex for goal 'b3'" \
            in str(exc.value)


class TestPlannerBounds:
    def set_and_expect(self, tmp_path, mutate, message):
        raw = parse_mutated(tmp_path, mutate)
        with pytest.raises(PlannerError) as exc:
            build_scenario(raw)
        assert message in str(exc.value)

    def test_depth_above_exact_bound(self, tmp_path):
        self.set_and_expect(
            tmp_path, lambda d: d["planner"].__setitem__("depth", 5),
            "planner depth 5 outside exact range 0..4")

    def test_unknown_eq1_mode(self, tmp_path):
        self.set_and_expect(
            tmp_path, lambda d: d["planner"].__setitem__("eq1_mode", "bogus"),
            "unknown eq1 mode 'bogus'")

    def test_patience_below_one(self, tmp_path):
        self.set_and_expect(
            tmp_path, lambda d: d["planner"].__setitem__("patience", 0),
            "patience 0 must be >= 1")

    def test_subset_cap_below_one(self, tmp_path):
        self.set_and_expect(
            tmp_path, lambda d: d["planner"].__setitem__("subset_cap", 0),
            "subset cap 0 must be >= 1")

    def test_negative_max_steps(self, tmp_path):
        self.set_and_expect(
            tmp_path, lambda d: d["planner"].__setitem__("max_steps", -1),
            "max steps -1 must be >= 0")

    def test_four_agents_exceed_exact_bound(self, tmp_path):
        def mutate(doc):
            doc["environment"]["agents"].append({
                "id": "agent-4", "position": [6, 6], "horizon": 3,
                "movement_goal": "a1"})
            fourth = dict(doc["lattices"]["agents"]["agent-1"])
            doc["lattices"]["agents"]["agent-4"] = fourth
        self.set_and_expect(tmp_path, mutate,
                            "4 agents exceed the exact bound 3")
