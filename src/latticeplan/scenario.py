"""Scenario files: one YAML document describing a full planning setup.

The document has four sections. `phase` defines the commutative monoid,
the false set, the Op/Cl fact classes, and the goal-to-subset map.
`lattices` holds optional display names for system facts plus one desire
lattice per agent. `environment` is the grid, and `planner` the loop
parameters. Field names are frozen in docs/scenario-format.md.

Parsing is split from validation: parse_scenario only checks structure
and raises ParseError with a field path. The semantic checks form one
ordered list: build_scenario runs it and raises the first failure's own
error, while validation_report runs every check it can and reports each
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import yaml

from .errors import LatticePlanError
from .grid import (
    AgentState,
    GoalObject,
    GridEnvironment,
    build_environment,
)
from .lattice import verify_poset
from .phase import OpClPartition, PhaseSpace, validate_monoid, validate_op_cl
from .planner import (
    EQ1_MODES,
    DesireLattice,
    GoalLatticeSpec,
    PlannerError,
    build_desire_lattice,
    build_goal_lattice_spec,
    check_search_bounds,
)


class ParseError(LatticePlanError):
    """Structural problem in a scenario document."""


@dataclass(frozen=True)
class PlannerConfig:
    depth: int = 2
    subset_cap: int | None = None
    eq1_mode: str = "per-goal"
    patience: int = 5
    max_steps: int = 40


@dataclass(eq=False)
class Scenario:
    """A fully validated planning setup."""

    phase: PhaseSpace
    op_cl: OpClPartition
    spec: GoalLatticeSpec
    desire_lattices: dict
    env: GridEnvironment
    planner: PlannerConfig


def _type_name(value: Any) -> str:
    return type(value).__name__


def _get(section: Mapping, key: str, where: str) -> Any:
    if key not in section:
        raise ParseError(f"{where}: missing required field {key!r}")
    return section[key]


def _as_map(value: Any, where: str) -> Mapping:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected a mapping, got {_type_name(value)}")
    return value


def _as_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {_type_name(value)}")
    return value


def _as_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {_type_name(value)}")
    return value


def _as_int(value: Any, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(
            f"{where}: expected an integer, got {_type_name(value)}")
    return value


def _str_list(value: Any, where: str) -> list:
    return [_as_str(v, f"{where}[{i}]")
            for i, v in enumerate(_as_list(value, where))]


def _cell(value: Any, where: str) -> tuple:
    pair = _as_list(value, where)
    if len(pair) != 2:
        raise ParseError(f"{where}: expected [col, row], got {len(pair)} items")
    return (_as_int(pair[0], f"{where}[0]"), _as_int(pair[1], f"{where}[1]"))


@dataclass(eq=False)
class RawScenario:
    """Structurally checked scenario content, prior to semantic validation."""

    carrier: tuple
    unit: str
    product: dict
    false_members: tuple
    op_members: tuple
    cl_members: tuple
    goal_map_members: dict
    system_names: dict
    agent_lattices: dict
    env_args: dict
    planner: PlannerConfig


# libyaml's composer recurses in C without a depth check: with an 8 MB stack
# (CPython 3.11, Linux x86-64) it overflows at about 24,000 levels of nesting
# and the process dies. A level costs at least one character, so texts up to
# this length nest at most 16,384 deep. Longer texts go to the pure-Python
# loader, which builds the same documents and raises RecursionError instead.
C_LOADER_MAX_CHARS = 16 * 1024


def parse_scenario(path: str) -> RawScenario:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"scenario is not UTF-8 text: {exc}") from exc
    loader = getattr(yaml, "CSafeLoader", None)  # None without libyaml
    if loader is None or len(text) > C_LOADER_MAX_CHARS:
        loader = yaml.SafeLoader
    try:
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise ParseError(f"scenario is not valid YAML: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("scenario nests too deeply to parse") from exc
    doc = _as_map(doc, "document")

    phase = _as_map(_get(doc, "phase", "document"), "phase")
    carrier = tuple(_str_list(_get(phase, "carrier", "phase"), "phase.carrier"))
    unit = _as_str(_get(phase, "unit", "phase"), "phase.unit")
    product_raw = _as_map(_get(phase, "product", "phase"), "phase.product")
    product = {}
    for x, row in product_raw.items():
        x = _as_str(x, "phase.product key")
        row = _as_map(row, f"phase.product.{x}")
        for y, xy in row.items():
            y = _as_str(y, f"phase.product.{x} key")
            product[(x, y)] = _as_str(xy, f"phase.product.{x}.{y}")
    false_members = tuple(_str_list(_get(phase, "false_set", "phase"),
                                    "phase.false_set"))
    op_members = tuple(tuple(_str_list(m, f"phase.op[{i}]"))
                       for i, m in enumerate(
                           _as_list(_get(phase, "op", "phase"), "phase.op")))
    cl_members = tuple(tuple(_str_list(m, f"phase.cl[{i}]"))
                       for i, m in enumerate(
                           _as_list(_get(phase, "cl", "phase"), "phase.cl")))
    goal_map_raw = _as_map(_get(phase, "goal_map", "phase"), "phase.goal_map")
    goal_map_members = {
        _as_str(k, "phase.goal_map key"): tuple(
            _str_list(v, f"phase.goal_map.{k}"))
        for k, v in goal_map_raw.items()}

    lattices = _as_map(_get(doc, "lattices", "document"), "lattices")
    system = _as_map(lattices.get("system", {}), "lattices.system")
    system_names = {}
    for i, entry in enumerate(_as_list(system.get("names", []),
                                       "lattices.system.names")):
        entry = _as_map(entry, f"lattices.system.names[{i}]")
        members = frozenset(_str_list(
            _get(entry, "members", f"lattices.system.names[{i}]"),
            f"lattices.system.names[{i}].members"))
        name = _as_str(_get(entry, "name", f"lattices.system.names[{i}]"),
                       f"lattices.system.names[{i}].name")
        if members in system_names:
            raise ParseError(
                f"lattices.system.names[{i}]: duplicate members entry")
        system_names[members] = name

    agents_raw = _as_map(_get(lattices, "agents", "lattices"),
                         "lattices.agents")
    agent_lattices = {}
    for agent_id, body in agents_raw.items():
        agent_id = _as_str(agent_id, "lattices.agents key")
        where = f"lattices.agents.{agent_id}"
        body = _as_map(body, where)
        elements = _str_list(_get(body, "elements", where),
                             f"{where}.elements")
        has_covers = "covers" in body
        has_order = "order" in body
        if has_covers == has_order:
            raise ParseError(
                f"{where}: exactly one of 'covers' or 'order' is required")
        key = "covers" if has_covers else "order"
        pairs = []
        for i, pair in enumerate(_as_list(body[key], f"{where}.{key}")):
            pair = _str_list(pair, f"{where}.{key}[{i}]")
            if len(pair) != 2:
                raise ParseError(
                    f"{where}.{key}[{i}]: expected [low, high]")
            pairs.append((pair[0], pair[1]))
        generators = None
        if "generators" in body:
            generators = _str_list(body["generators"], f"{where}.generators")
        desires = _str_list(_get(body, "desires", where), f"{where}.desires")
        intention = _as_str(_get(body, "intention", where),
                            f"{where}.intention")
        agent_lattices[agent_id] = {
            "elements": elements, "pairs": pairs, "covers": has_covers,
            "generators": generators, "desires": desires,
            "intention": intention}

    env = _as_map(_get(doc, "environment", "document"), "environment")
    env_agents = []
    for i, body in enumerate(_as_list(_get(env, "agents", "environment"),
                                      "environment.agents")):
        where = f"environment.agents[{i}]"
        body = _as_map(body, where)
        env_agents.append(AgentState(
            id=_as_str(_get(body, "id", where), f"{where}.id"),
            position=_cell(_get(body, "position", where), f"{where}.position"),
            horizon=_as_int(_get(body, "horizon", where), f"{where}.horizon"),
            movement_goal_id=_as_str(_get(body, "movement_goal", where),
                                     f"{where}.movement_goal")))
    env_goals = []
    for i, body in enumerate(_as_list(_get(env, "goals", "environment"),
                                      "environment.goals")):
        where = f"environment.goals[{i}]"
        body = _as_map(body, where)
        features = []
        for j, feat in enumerate(_as_list(_get(body, "features", where),
                                          f"{where}.features")):
            fwhere = f"{where}.features[{j}]"
            feat = _as_map(feat, fwhere)
            features.append((
                _as_str(_get(feat, "name", fwhere), f"{fwhere}.name"),
                _as_int(_get(feat, "range", fwhere), f"{fwhere}.range")))
        env_goals.append(GoalObject(
            id=_as_str(_get(body, "id", where), f"{where}.id"),
            position=_cell(_get(body, "position", where), f"{where}.position"),
            features=tuple(features)))
    env_args = {
        "width": _as_int(_get(env, "width", "environment"),
                         "environment.width"),
        "height": _as_int(_get(env, "height", "environment"),
                          "environment.height"),
        "obstacles": [_cell(c, f"environment.obstacles[{i}]")
                      for i, c in enumerate(
                          _as_list(env.get("obstacles", []),
                                   "environment.obstacles"))],
        "agents": env_agents,
        "goals": env_goals,
    }

    planner_raw = _as_map(doc.get("planner", {}), "planner")
    defaults = PlannerConfig()
    subset_cap = planner_raw.get("subset_cap")
    if subset_cap is not None:
        subset_cap = _as_int(subset_cap, "planner.subset_cap")
    planner = PlannerConfig(
        depth=_as_int(planner_raw.get("depth", defaults.depth),
                      "planner.depth"),
        subset_cap=subset_cap,
        eq1_mode=_as_str(planner_raw.get("eq1_mode", defaults.eq1_mode),
                         "planner.eq1_mode"),
        patience=_as_int(planner_raw.get("patience", defaults.patience),
                         "planner.patience"),
        max_steps=_as_int(planner_raw.get("max_steps", defaults.max_steps),
                          "planner.max_steps"))

    return RawScenario(
        carrier=carrier, unit=unit, product=product,
        false_members=false_members, op_members=op_members,
        cl_members=cl_members, goal_map_members=goal_map_members,
        system_names=system_names, agent_lattices=agent_lattices,
        env_args=env_args, planner=planner)


def _build_phase(raw: RawScenario) -> PhaseSpace:
    return validate_monoid(raw.carrier, raw.product, raw.unit,
                           raw.false_members)


def _build_op_cl(raw: RawScenario, phase: PhaseSpace) -> OpClPartition:
    opens = [phase.subset(m) for m in raw.op_members]
    closeds = [phase.subset(m) for m in raw.cl_members]
    return validate_op_cl(phase, opens, closeds)


def _build_spec(raw: RawScenario, phase: PhaseSpace) -> GoalLatticeSpec:
    goal_map = {gid: phase.subset(m)
                for gid, m in raw.goal_map_members.items()}
    return build_goal_lattice_spec(phase, goal_map, raw.system_names)


def _build_desire_lattice(body: Mapping) -> DesireLattice:
    lattice = verify_poset(body["elements"], body["pairs"],
                           covers=body["covers"],
                           generators=body["generators"])
    return build_desire_lattice(lattice, body["desires"], body["intention"])


def _build_env(raw: RawScenario) -> GridEnvironment:
    return build_environment(**raw.env_args)


def _check_cross_references(raw: RawScenario, env: GridEnvironment,
                            desire_lattices: Mapping) -> None:
    mapped = set(raw.goal_map_members)
    for a in env.agents:
        if a.movement_goal_id not in mapped:
            raise PlannerError(
                f"agent {a.id!r} movement goal {a.movement_goal_id!r}"
                f" is not in the goal map")
    for g in env.goals:
        if g.id not in mapped:
            raise PlannerError(f"goal {g.id!r} is not in the goal map")
    for a in env.agents:
        if a.id not in desire_lattices:
            raise PlannerError(f"agent {a.id!r} has no desire lattice")
        lattice = desire_lattices[a.id].lattice
        for g in env.goals:
            if g.id not in lattice:
                raise PlannerError(
                    f"desire lattice of {a.id!r} lacks a vertex for"
                    f" goal {g.id!r}")


def _check_planner(raw: RawScenario, env: GridEnvironment) -> None:
    cfg = raw.planner
    check_search_bounds(cfg.depth, len(env.agents))
    if cfg.eq1_mode not in EQ1_MODES:
        raise PlannerError(f"unknown eq1 mode {cfg.eq1_mode!r}")
    if cfg.subset_cap is not None and cfg.subset_cap < 1:
        raise PlannerError(f"subset cap {cfg.subset_cap} must be >= 1")
    if cfg.patience < 1:
        raise PlannerError(f"patience {cfg.patience} must be >= 1")
    if cfg.max_steps < 0:
        raise PlannerError(f"max steps {cfg.max_steps} must be >= 0")


def _run_checks(raw: RawScenario, rows: list | None) -> Scenario:
    """Run the semantic checks in their fixed order; return what they build.

    Without rows, the first failure's exception propagates. With rows,
    every check adds a (name, ok, message) row, a check that depends on
    the artifact of a failed one is reported skipped instead of run, and
    each failed artifact is None in the returned Scenario.
    """
    def run(name, fn, *deps):
        if any(d is None for d in deps):
            rows.append((name, False, "skipped: depends on a failed check"))
            return None
        try:
            result = fn()
        except LatticePlanError as exc:
            if rows is None:
                raise
            rows.append((name, False, str(exc)))
            return None
        if rows is not None:
            rows.append((name, True, ""))
        return result

    phase = run("phase-monoid", lambda: _build_phase(raw))
    op_cl = run("op-cl-classes", lambda: _build_op_cl(raw, phase), phase)
    spec = run("system-lattice", lambda: _build_spec(raw, phase), phase)
    desire_lattices = {}
    for agent_id, body in sorted(raw.agent_lattices.items()):
        dl = run(f"desire-lattice {agent_id}",
                 lambda body=body: _build_desire_lattice(body))
        if dl is not None:
            desire_lattices[agent_id] = dl
    env = run("environment", lambda: _build_env(raw))
    ok_lattices = (len(desire_lattices) == len(raw.agent_lattices)) or None
    run("cross-references",
        lambda: _check_cross_references(raw, env, desire_lattices),
        spec, env, ok_lattices)
    run("planner-config", lambda: _check_planner(raw, env), env)
    return Scenario(phase=phase, op_cl=op_cl, spec=spec,
                    desire_lattices=desire_lattices, env=env,
                    planner=raw.planner)


def validation_report(raw: RawScenario) -> list:
    """Run every semantic check; (name, ok, message) rows in check order.

    Later checks depending on an earlier failed artifact are reported as
    skipped failures so the report stays complete and deterministic.
    """
    rows: list = []
    _run_checks(raw, rows)
    return rows


def build_scenario(raw: RawScenario) -> Scenario:
    """Validate every section, raising the first semantic error: the one
    behind the first FAIL row of validation_report."""
    return _run_checks(raw, None)


def load_scenario(path: str) -> Scenario:
    return build_scenario(parse_scenario(path))
