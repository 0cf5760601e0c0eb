"""Command-line behavior: output formats, exit codes, overrides."""

import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest
import yaml

from latticeplan import planner
from latticeplan.cli import main
from latticeplan.grid import GRID_CELL_BOUND, HORIZON_BOUND
from latticeplan.lattice import LATTICE_ELEMENT_BOUND
from latticeplan.planner import INTENTION_SUBSET_BOUND, SIMULATE_STEP_BOUND
from latticeplan.scenario import C_LOADER_MAX_CHARS

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = str(ROOT / "scenarios" / "walkthrough.yaml")
PYPROJECT = ROOT / "pyproject.toml"

# What a generated console-script wrapper does, with the entry point's
# "module:attr" value passed as the first argument.
CONSOLE_WRAPPER = (
    "import sys\n"
    "from importlib.metadata import EntryPoint\n"
    "entry = EntryPoint(name='latticeplan', value=sys.argv.pop(1),"
    " group='console_scripts')\n"
    "sys.exit(entry.load()())\n"
)

FACTS_LINES = [
    "fact {} name=0 marks=0,Op",
    "fact {e} name=I marks=I,Op",
    "fact {u} name=u marks=-",
    "fact {v} name=v marks=-",
    "fact {e,u} name=B1 marks=-",
    "fact {e,v} name=B2 marks=-",
    "fact {u,v} name=B3 marks=bot,Cl",
    "fact {e,u,v,w} name=1 marks=1,Cl",
]

PLAN_LINES = [
    "discovered=b1,b2",
    "chosen=b1,b2",
    "priority=1",
    "tie=0",
    "assign=b1->agent-1,b2->agent-2",
    "free=agent-3",
    "play agent-1=(2,4)->(2,3)->(2,2)",
    "play agent-2=(4,3)->(4,2)->(4,1)",
    "play agent-3=(6,3)->(6,2)->(6,1)",
    "alternates=1020",
    "reward=detail,outline,profile,scout:0,0,scout:0,1",
]


# The walkthrough's agent-1 order in full: the reflexive-transitive
# closure of its cover pairs.
AGENT_ORDER = [
    (a, b) for a, above in [
        ("0", ["0", "b1", "b2", "b3", "U12", "U123"]),
        ("b1", ["b1", "U12", "U123"]),
        ("b2", ["b2", "U12", "U123"]),
        ("b3", ["b3", "U123"]),
        ("U12", ["U12", "U123"]),
        ("U123", ["U123"]),
    ] for b in above]


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env(**extra):
    """A minimal environment for a child interpreter that imports this
    checkout's ``src`` ahead of any installed ``latticeplan``."""
    pythonpath = [str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return {"PATH": "/usr/bin:/bin",
            "PYTHONPATH": os.pathsep.join(pythonpath), **extra}


def write_mutated(tmp_path, mutate):
    with open(BUNDLED, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    mutate(doc)
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def drop_agents(doc):
    doc["environment"]["agents"] = []
    doc["lattices"]["agents"] = {}


def add_visible_goals(count):
    """A mutation adding goals x000, x001, ... in sight of agent-2, mapped
    in turn onto the facts of b1-b3, as atoms of every desire lattice, with
    no subset cap."""
    def mutate(doc):
        facts = [doc["phase"]["goal_map"][b] for b in ("b1", "b2", "b3")]
        for i in range(count):
            gid = f"x{i:03d}"
            doc["phase"]["goal_map"][gid] = facts[i % 3]
            doc["environment"]["goals"].append(
                {"id": gid, "position": [3 + i % 3, 2 + i // 3 % 3],
                 "features": [{"name": "profile", "range": 4}]})
            for body in doc["lattices"]["agents"].values():
                body["elements"].append(gid)
                body["generators"].append(gid)
                body["covers"] += [["0", gid], [gid, "U123"]]
        doc["planner"]["subset_cap"] = None
    return mutate


class TestValidateCommand:
    def test_bundled_scenario_all_pass(self, capsys):
        code, out, err = run_main(capsys, "validate", "--scenario", BUNDLED)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines == [
            "phase-monoid: PASS",
            "op-cl-classes: PASS",
            "system-lattice: PASS",
            "desire-lattice agent-1: PASS",
            "desire-lattice agent-2: PASS",
            "desire-lattice agent-3: PASS",
            "environment: PASS",
            "cross-references: PASS",
            "planner-config: PASS",
        ]

    def test_no_agents_all_pass(self, capsys, tmp_path):
        path = write_mutated(tmp_path, drop_agents)
        code, out, err = run_main(capsys, "validate", "--scenario", path)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "phase-monoid: PASS",
            "op-cl-classes: PASS",
            "system-lattice: PASS",
            "environment: PASS",
            "cross-references: PASS",
            "planner-config: PASS",
        ]

    def test_broken_scenario_exits_1(self, capsys, tmp_path):
        def mutate(doc):
            doc["environment"]["agents"][0]["position"] = [0, 2]
        path = write_mutated(tmp_path, mutate)
        code, out, _ = run_main(capsys, "validate", "--scenario", path)
        assert code == 1
        lines = out.splitlines()
        assert any(line.startswith("environment: FAIL (") for line in lines)
        assert "cross-references: FAIL" \
            " (skipped: depends on a failed check)" in lines

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, err = run_main(
            capsys, "validate", "--scenario", str(tmp_path / "absent.yaml"))
        assert code == 2
        assert err.startswith("parse error: cannot read scenario")

    def test_invalid_yaml_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("phase: [unclosed\n", encoding="utf-8")
        code, _, err = run_main(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert err.startswith("parse error:")

    def test_order_witnesses_do_not_depend_on_hash_seed(self, tmp_path):
        def drop_implied_pair(doc):
            body = doc["lattices"]["agents"]["agent-1"]
            del body["covers"]
            body["order"] = [[a, b] for a, b in AGENT_ORDER
                             if (a, b) != ("0", "U12")]

        def add_cycle(doc):
            doc["lattices"]["agents"]["agent-1"]["covers"].append(
                ["U123", "b3"])

        cases = [
            (drop_implied_pair,
             "('0','b1') and ('b1','U12') without ('0','U12')"),
            (add_cycle, "'b3' <= 'U123' and 'U123' <= 'b3'"),
        ]
        for mutate, witness in cases:
            path = write_mutated(tmp_path, mutate)
            runs = [subprocess.run(
                [sys.executable, "-m", "latticeplan.cli", "validate",
                 "--scenario", path],
                capture_output=True, env=child_env(PYTHONHASHSEED=seed),
                timeout=120) for seed in ("1", "2")]
            assert [r.returncode for r in runs] == [1, 1]
            assert runs[0].stdout == runs[1].stdout
            assert runs[0].stdout.decode().splitlines() == [
                "phase-monoid: PASS",
                "op-cl-classes: PASS",
                "system-lattice: PASS",
                f"desire-lattice agent-1: FAIL ({witness})",
                "desire-lattice agent-2: PASS",
                "desire-lattice agent-3: PASS",
                "environment: PASS",
                "cross-references: FAIL"
                " (skipped: depends on a failed check)",
                "planner-config: PASS",
            ]

    def test_op_cl_witness_does_not_depend_on_hash_seed(self, tmp_path):
        def four_open_facts(doc):
            doc["phase"]["op"] = [[], ["e"], ["u"], ["v"]]
            doc["phase"]["cl"] = [["e", "u", "v", "w"], ["u", "v"],
                                  ["e", "u"], ["e", "v"]]

        path = write_mutated(tmp_path, four_open_facts)
        for seed in ("1", "2", "3"):
            run = subprocess.run(
                [sys.executable, "-m", "latticeplan.cli", "validate",
                 "--scenario", path],
                capture_output=True, text=True,
                env=child_env(PYTHONHASHSEED=seed), timeout=120)
            assert run.returncode == 1 and run.stderr == ""
            assert run.stdout.splitlines() == [
                "phase-monoid: PASS",
                "op-cl-classes: FAIL (open class: {e} + {u} = {e,u} escapes)",
                "system-lattice: PASS",
                "desire-lattice agent-1: PASS",
                "desire-lattice agent-2: PASS",
                "desire-lattice agent-3: PASS",
                "environment: PASS",
                "cross-references: PASS",
                "planner-config: PASS",
            ]

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes("phase: {unit: \u00e9}\n".encode("latin-1"))
        code, _, err = run_main(capsys, "validate", "--scenario", str(path))
        assert code == 2
        assert err.startswith("parse error: scenario is not UTF-8 text")


# Texts up to C_LOADER_MAX_CHARS go to libyaml, whose composer recurses in
# C; longer ones to the pure-Python loader, which raises RecursionError.
PAD_PAST_C_LOADER = "\n# " + "x" * C_LOADER_MAX_CHARS + "\n"
DEEP_DOCUMENTS = {
    "flow-2000": "[" * 2000 + "]" * 2000,
    "flow-2000-padded": "[" * 2000 + "]" * 2000 + PAD_PAST_C_LOADER,
    "flow-100000": "[" * 100000 + "]" * 100000,
    "block-8000": "- " * 8000 + "x\n",
    # one character per level: the deepest a text within the gate can go
    "unclosed-flow-16384": "[" * 16384,
    # merge keys are flattened recursively in Python on both paths
    "merge-2500": "a: " + "{<<: " * 2500 + "{}" + "}" * 2500 + "\n",
}


class TestDeepNesting:
    """Each document runs in a child process, so a crash in C fails the
    test instead of ending the test run."""

    @pytest.mark.parametrize("name", sorted(DEEP_DOCUMENTS))
    def test_exits_2_without_traceback(self, tmp_path, name):
        path = tmp_path / f"{name}.yaml"
        path.write_text(DEEP_DOCUMENTS[name], encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-m", "latticeplan.cli", "validate",
             "--scenario", str(path)],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert result.returncode == 2, result.stderr[-500:]
        assert result.stderr.startswith("parse error:")
        assert "Traceback" not in result.stderr


class TestFactsCommand:
    def test_bundled_facts_table(self, capsys):
        code, out, _ = run_main(capsys, "facts", "--scenario", BUNDLED)
        assert code == 0
        assert out.splitlines() == FACTS_LINES

    def test_enumerate_facts_is_one_object(self):
        # the benchmark's traced run patches it under both names
        from latticeplan import cli, phase, planner
        assert cli.enumerate_facts is planner.enumerate_facts \
            is phase.enumerate_facts


class TestWeightsCommand:
    def test_bundled_weight_tables(self, capsys):
        code, out, _ = run_main(capsys, "weights", "--scenario", BUNDLED)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "agent agent-1 desires=b1,b2 intention=U12"
        block2 = lines.index("agent agent-2 desires=b1,b2 intention=U12")
        block3 = lines.index(
            "agent agent-3 desires=b1,b2,b3 intention=U123")
        agent2 = lines[block2 + 1:block3]
        agent3 = lines[block3 + 1:]
        assert agent2 == ["  U123 1/1", "  U12 1/1", "  b1 1/2",
                          "  b2 1/2", "  0 0/1", "  b3 0/1"]
        assert agent3 == ["  U123 1/1", "  U12 2/3", "  b1 1/3",
                          "  b2 1/3", "  b3 1/3", "  0 0/1"]


class TestPlanCommand:
    def test_bundled_first_decision(self, capsys):
        code, out, _ = run_main(capsys, "plan", "--scenario", BUNDLED)
        assert code == 0
        assert out.splitlines() == PLAN_LINES

    def test_depth_override(self, capsys):
        code, out, _ = run_main(
            capsys, "plan", "--scenario", BUNDLED, "--depth", "1")
        assert code == 0
        lines = out.splitlines()
        assert "play agent-1=(2,4)->(2,3)" in lines
        assert "play agent-2=(4,3)->(4,2)" in lines
        assert "alternates=40" in lines
        assert "reward=detail,outline,profile" in lines

    def test_depth_four_counts_alternates(self, capsys):
        code, out, _ = run_main(
            capsys, "plan", "--scenario", BUNDLED, "--depth", "4")
        assert code == 0
        assert "alternates=475024" in out.splitlines()

    def test_depth_override_beyond_exact_bound_exits_3(self, capsys):
        code, _, err = run_main(
            capsys, "plan", "--scenario", BUNDLED, "--depth", "9")
        assert code == 3
        assert err.startswith("limit exceeded:")

    def test_no_agents_plan_the_empty_play(self, capsys, tmp_path):
        path = write_mutated(tmp_path, drop_agents)
        code, out, err = run_main(capsys, "plan", "--scenario", path)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            "discovered=", "chosen=", "priority=I", "tie=0", "assign=",
            "free=", "alternates=1", "reward="]

    def test_goal_subsets_over_the_bound_exit_3(self, capsys, monkeypatch):
        """The walkthrough's two visible goals under a cap of two give
        three subsets."""
        monkeypatch.setattr(planner, "INTENTION_SUBSET_BOUND", 3)
        code, out, _ = run_main(capsys, "plan", "--scenario", BUNDLED)
        assert (code, out.splitlines()) == (0, PLAN_LINES)
        monkeypatch.setattr(planner, "INTENTION_SUBSET_BOUND", 2)
        code, out, err = run_main(capsys, "plan", "--scenario", BUNDLED)
        assert (code, out) == (3, "")
        assert err == "limit exceeded: 3 goal subsets exceed the bound 2\n"

    def test_many_visible_goals_exit_3(self, capsys, tmp_path):
        """85 visible goals give 102,425 subsets of at most three."""
        path = write_mutated(tmp_path, add_visible_goals(83))
        code, out, err = run_main(capsys, "plan", "--scenario", path)
        assert (code, out) == (3, "")
        assert err == ("limit exceeded: 102425 goal subsets exceed the bound"
                       f" {INTENTION_SUBSET_BOUND}\n")

    def test_oversized_desire_lattice_exits_3(self, tmp_path):
        ids = [f"x{i}" for i in range(LATTICE_ELEMENT_BOUND + 1)]

        def grow(doc):
            body = doc["lattices"]["agents"]["agent-1"]
            body["elements"] = ids
            body["covers"] = [list(pair) for pair in zip(ids, ids[1:])]
        path = write_mutated(tmp_path, grow)
        result = subprocess.run(
            [sys.executable, "-m", "latticeplan.cli", "plan",
             "--scenario", path],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert result.returncode == 3, result.stderr[-500:]
        assert result.stdout == ""
        assert result.stderr == (
            f"limit exceeded: lattice has {len(ids)} elements;"
            f" lattices are bounded at {LATTICE_ELEMENT_BOUND}\n")

    @pytest.mark.parametrize("key, value, message", [
        ("horizon", HORIZON_BOUND + 1,
         f"agent agent-1 has horizon {HORIZON_BOUND + 1};"
         f" horizons are bounded at {HORIZON_BOUND}"),
        ("width", 100_000,
         f"grid of 100000x7 has 700000 cells;"
         f" grids are bounded at {GRID_CELL_BOUND}"),
    ], ids=["horizon", "width"])
    def test_oversized_grid_exits_3(self, tmp_path, key, value, message):
        def grow(doc):
            env = doc["environment"]
            (env["agents"][0] if key == "horizon" else env)[key] = value
        path = write_mutated(tmp_path, grow)
        result = subprocess.run(
            [sys.executable, "-m", "latticeplan.cli", "plan",
             "--scenario", path],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert result.returncode == 3, result.stderr[-500:]
        assert result.stdout == ""
        assert result.stderr == f"limit exceeded: {message}\n"
        assert "Traceback" not in result.stderr
        report = subprocess.run(
            [sys.executable, "-m", "latticeplan.cli", "validate",
             "--scenario", path],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert report.returncode == 1
        assert f"environment: FAIL ({message})" in report.stdout.splitlines()

    def test_grid_at_the_bounds_loads(self, tmp_path, capsys):
        side = int(GRID_CELL_BOUND ** 0.5)
        assert side * side == GRID_CELL_BOUND

        def grow(doc):
            env = doc["environment"]
            env["width"] = env["height"] = side
            for agent in env["agents"]:
                agent["horizon"] = HORIZON_BOUND
        path = write_mutated(tmp_path, grow)
        code, out, err = run_main(capsys, "validate", "--scenario", path)
        assert code == 0 and err == ""
        assert "environment: PASS" in out.splitlines()

    @pytest.mark.parametrize("argv, message", [
        (("plan", "--depth", "-1"),
         "planner depth -1 outside exact range 0..4"),
        (("simulate", "--max-steps", "-1"), "max steps -1 must be >= 0"),
    ])
    def test_override_is_validated_exits_1(self, capsys, argv, message):
        code, out, err = run_main(capsys, argv[0], "--scenario", BUNDLED,
                                  *argv[1:])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_eq1_mode_override(self, capsys):
        code, out, _ = run_main(capsys, "plan", "--scenario", BUNDLED,
                                "--eq1-mode", "positionwise")
        assert code == 0
        assert out.splitlines()[0] == "discovered=b1,b2"


class TestSimulateCommand:
    def test_bundled_run_reaches_all_goals(self, capsys):
        code, out, _ = run_main(capsys, "simulate", "--scenario", BUNDLED)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("step=0 pos=agent-1:(2,4),")
        assert lines[-1].startswith("end reason=all goals achieved steps=12")
        assert "assign=b1->agent-1,b2->agent-2" in lines[0]

    def test_max_steps_override(self, capsys):
        code, out, _ = run_main(capsys, "simulate", "--scenario", BUNDLED,
                                "--max-steps", "1")
        assert code == 0
        assert out.splitlines()[-1] == (
            "end reason=step limit 1 steps=1"
            " pos=agent-1:(2,3),agent-2:(4,2),agent-3:(6,2)")

    def test_endless_run_exits_3_before_the_first_step(self, tmp_path,
                                                       capsys):
        """The walkthrough's goals walled in, with patience and max_steps
        at 10**9: no goal is ever reached, so the run would not end."""
        def wall_in(doc):
            doc["environment"]["obstacles"] += [
                [0, 5], [1, 4], [2, 5], [1, 6], [3, 1], [5, 1], [4, 0], [4, 2]]
            doc["planner"].update(patience=10**9, max_steps=10**9)
        path = write_mutated(tmp_path, wall_in)
        message = "max steps 1000000000 exceed the bound 10000"
        for command in ("plan", "simulate"):
            code, out, err = run_main(capsys, command, "--scenario", path)
            assert (code, out, err) == (3, "", f"limit exceeded: {message}\n")
        code, out, err = run_main(capsys, "validate", "--scenario", path)
        assert code == 1 and err == ""
        failed = [line for line in out.splitlines() if "FAIL" in line]
        assert failed == [f"planner-config: FAIL ({message})"]

    def test_no_agents_end_by_patience(self, capsys, tmp_path):
        path = write_mutated(tmp_path, drop_agents)
        code, out, err = run_main(capsys, "simulate", "--scenario", path)
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == (
            "end reason=no progress for 6 steps steps=5 pos=")

    def test_step_bound(self, tmp_path, capsys):
        code, out, err = run_main(capsys, "simulate", "--scenario", BUNDLED,
                                  "--max-steps", str(SIMULATE_STEP_BOUND + 1))
        assert (code, out) == (3, "")
        assert err == ("limit exceeded: max steps 10001 exceed the bound"
                       " 10000\n")
        path = write_mutated(tmp_path, lambda doc: doc["planner"].update(
            max_steps=SIMULATE_STEP_BOUND))
        code, out, err = run_main(capsys, "validate", "--scenario", path)
        assert code == 0 and err == ""
        assert "planner-config: PASS" in out.splitlines()

    def test_byte_determinism_across_processes(self):
        def run(seed):
            return subprocess.run(
                [sys.executable, "-m", "latticeplan.cli", "simulate",
                 "--scenario", BUNDLED],
                capture_output=True, env=child_env(PYTHONHASHSEED=seed))
        first, second = run("101"), run("202")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout


class TestDotCommand:
    def test_system_lattice(self, capsys):
        code, out, _ = run_main(
            capsys, "dot", "system-lattice", "--scenario", BUNDLED)
        assert code == 0
        assert out.startswith('digraph "system-lattice" {')
        for name in ("0", "I", "u", "v", "B1", "B2", "B3", "1"):
            assert f'"{name}"' in out

    def test_desire_lattice(self, capsys):
        code, out, _ = run_main(
            capsys, "dot", "desire-lattice:agent-3", "--scenario", BUNDLED)
        assert code == 0
        assert out.startswith('digraph "desire-lattice-agent-3" {')
        assert '"U123" [label="U123\\n(top)"]' in out

    def test_agent_game_payoffs_sorted(self, capsys):
        code, out, _ = run_main(
            capsys, "dot", "agent-game:agent-1:1", "--scenario", BUNDLED)
        assert code == 0
        assert out.startswith("digraph agent-game-agent-1-1 {")
        assert "{detail,outline,profile}" in out
        assert "frozenset" not in out

    def test_deep_agent_game_exits_3_before_building(self):
        result = subprocess.run(
            [sys.executable, "-m", "latticeplan.cli", "dot",
             "--scenario", BUNDLED, "agent-game:agent-1:14"],
            capture_output=True, text=True, env=child_env(), timeout=120)
        assert result.returncode == 3, result.stderr[-500:]
        assert result.stdout == ""
        assert result.stderr.startswith("limit exceeded:")
        assert "Traceback" not in result.stderr

    def test_unknown_target_exits_1(self, capsys):
        code, _, err = run_main(
            capsys, "dot", "nonsense", "--scenario", BUNDLED)
        assert code == 1
        assert err.startswith("error: unknown target 'nonsense'")

    def test_unknown_agent_exits_1(self, capsys):
        code, _, err = run_main(
            capsys, "dot", "desire-lattice:nobody", "--scenario", BUNDLED)
        assert code == 1
        assert "no desire lattice for agent 'nobody'" in err

    def test_unknown_game_agent_exits_1(self, capsys):
        code, out, err = run_main(
            capsys, "dot", "agent-game:nobody:2", "--scenario", BUNDLED)
        assert (code, out) == (1, "")
        assert err == "error: no agent 'nobody' in the environment\n"

    def test_bad_game_depth_exits_1(self, capsys):
        code, _, err = run_main(
            capsys, "dot", "agent-game:agent-1:deep", "--scenario", BUNDLED)
        assert code == 1
        assert "bad game depth 'deep'" in err


class TestConsoleScript:
    def test_entry_point_matches_module(self):
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        with open(PYPROJECT, "rb") as fh:
            value = tomllib.load(fh)["project"]["scripts"]["latticeplan"]
        entry = EntryPoint(name="latticeplan", value=value,
                           group="console_scripts")
        assert entry.load() is main
        result = subprocess.run(
            [sys.executable, "-c", CONSOLE_WRAPPER, value,
             "facts", "--scenario", BUNDLED],
            capture_output=True, text=True, env=child_env())
        assert result.returncode == 0
        assert result.stdout.splitlines() == FACTS_LINES

    @pytest.mark.skipif(shutil.which("latticeplan") is None,
                        reason="no latticeplan console script on PATH")
    def test_installed_script_matches_module(self):
        result = subprocess.run(
            ["latticeplan", "facts", "--scenario", BUNDLED],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.splitlines() == FACTS_LINES
