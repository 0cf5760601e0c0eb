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

from typing import Any, Callable, Mapping, NamedTuple

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
    GoalLatticeSpec,
    PlannerError,
    build_desire_lattice,
    build_goal_lattice_spec,
    check_run_limits,
)


class ParseError(LatticePlanError):
    """Structural problem in a scenario document."""


class PlannerConfig(NamedTuple):
    depth: int = 2
    subset_cap: int | None = None
    eq1_mode: str = "per-goal"
    patience: int = 5
    max_steps: int = 40


class Scenario:
    """A fully validated planning setup."""

    def __init__(self, phase: PhaseSpace, op_cl: OpClPartition,
                 spec: GoalLatticeSpec, desire_lattices: dict,
                 env: GridEnvironment, planner: PlannerConfig):
        self.phase, self.op_cl, self.spec = phase, op_cl, spec
        self.desire_lattices, self.env, self.planner = \
            desire_lattices, env, planner


def _type_name(value: Any) -> str:
    return type(value).__name__


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


def _cell(value: Any, where: str) -> tuple:
    pair = _as_list(value, where)
    if len(pair) != 2:
        raise ParseError(f"{where}: expected [col, row], got {len(pair)} items")
    return (_as_int(pair[0], f"{where}[0]"), _as_int(pair[1], f"{where}[1]"))


# Each reader takes (value, where) and names `where` in its ParseError: a
# field is at `where.key` (`key` in the document), a list item at `where[i]`
# and a mapping key at `where key`. Fields are read in the order written.
def _field(section: Mapping, where: str, key: str, read: Callable,
           default: Any = ...) -> Any:
    """Read section[key] at its path. An absent field gives the default;
    without one (`...`) it is a missing required field."""
    if key not in section:
        if default is ...:
            raise ParseError(f"{where}: missing required field {key!r}")
        return default
    return read(section[key], key if where == "document" else f"{where}.{key}")


def _list_of(read: Callable, to: type = list) -> Callable:
    def read_list(value: Any, where: str) -> Any:
        return to(read(item, f"{where}[{i}]")
                  for i, item in enumerate(_as_list(value, where)))
    return read_list


def _map_of(read: Callable) -> Callable:
    def read_map(value: Any, where: str) -> dict:
        return {_as_str(k, f"{where} key"): read(v, f"{where}.{k}")
                for k, v in _as_map(value, where).items()}
    return read_map


_str_list = _list_of(_as_str)
_str_tuple = _list_of(_as_str, tuple)


def _system_names(body: Any, where: str) -> dict:
    """members -> name; a repeated members set fails before later entries."""
    names: dict = {}

    def entry(body: Any, where: str) -> None:
        body = _as_map(body, where)
        members = frozenset(_field(body, where, "members", _str_list))
        name = _field(body, where, "name", _as_str)
        if members in names:
            raise ParseError(f"{where}: duplicate members entry")
        names[members] = name

    _field(_as_map(body, where), where, "names", _list_of(entry), None)
    return names


def _pair(value: Any, where: str) -> tuple:
    pair = _str_list(value, where)
    if len(pair) != 2:
        raise ParseError(f"{where}: expected [low, high]")
    return (pair[0], pair[1])


def _agent_lattice(body: Any, where: str) -> dict:
    body = _as_map(body, where)
    elements = _field(body, where, "elements", _str_list)
    has_covers = "covers" in body
    if has_covers == ("order" in body):
        raise ParseError(
            f"{where}: exactly one of 'covers' or 'order' is required")
    return {
        "elements": elements,
        "pairs": _field(body, where, "covers" if has_covers else "order",
                        _list_of(_pair)),
        "covers": has_covers,
        "generators": _field(body, where, "generators", _str_list, None),
        "desires": _field(body, where, "desires", _str_list),
        "intention": _field(body, where, "intention", _as_str)}


def _agent(body: Any, where: str) -> AgentState:
    body = _as_map(body, where)
    return AgentState(
        id=_field(body, where, "id", _as_str),
        position=_field(body, where, "position", _cell),
        horizon=_field(body, where, "horizon", _as_int),
        movement_goal_id=_field(body, where, "movement_goal", _as_str))


def _feature(body: Any, where: str) -> tuple:
    body = _as_map(body, where)
    return (_field(body, where, "name", _as_str),
            _field(body, where, "range", _as_int))


def _goal(body: Any, where: str) -> GoalObject:
    body = _as_map(body, where)
    return GoalObject(
        features=_field(body, where, "features", _list_of(_feature, tuple)),
        id=_field(body, where, "id", _as_str),
        position=_field(body, where, "position", _cell))


def _optional_int(value: Any, where: str) -> int | None:
    return None if value is None else _as_int(value, where)


def _planner(body: Any, where: str) -> PlannerConfig:
    body = _as_map(body, where)
    default = PlannerConfig()
    return PlannerConfig(
        subset_cap=_field(body, where, "subset_cap", _optional_int, None),
        depth=_field(body, where, "depth", _as_int, default.depth),
        eq1_mode=_field(body, where, "eq1_mode", _as_str, default.eq1_mode),
        patience=_field(body, where, "patience", _as_int, default.patience),
        max_steps=_field(body, where, "max_steps", _as_int, default.max_steps))


class RawScenario:
    """Structurally checked scenario content, prior to semantic validation."""

    def __init__(self, carrier: tuple, unit: str, product: dict,
                 false_members: tuple, op_members: tuple, cl_members: tuple,
                 goal_map_members: dict, system_names: dict,
                 agent_lattices: dict, env_args: dict,
                 planner: PlannerConfig):
        self.carrier, self.unit, self.product = carrier, unit, product
        self.false_members, self.op_members, self.cl_members = \
            false_members, op_members, cl_members
        self.goal_map_members, self.system_names = \
            goal_map_members, system_names
        self.agent_lattices, self.env_args, self.planner = \
            agent_lattices, env_args, planner


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

    phase = _field(doc, "document", "phase", _as_map)
    carrier = _field(phase, "phase", "carrier", _str_tuple)
    unit = _field(phase, "phase", "unit", _as_str)
    rows = _field(phase, "phase", "product", _map_of(_map_of(_as_str)))
    false_members = _field(phase, "phase", "false_set", _str_tuple)
    op_members = _field(phase, "phase", "op", _list_of(_str_tuple, tuple))
    cl_members = _field(phase, "phase", "cl", _list_of(_str_tuple, tuple))
    goal_map_members = _field(phase, "phase", "goal_map", _map_of(_str_tuple))

    lattices = _field(doc, "document", "lattices", _as_map)
    system_names = _field(lattices, "lattices", "system", _system_names, {})
    agent_lattices = _field(lattices, "lattices", "agents",
                            _map_of(_agent_lattice))

    env = _field(doc, "document", "environment", _as_map)
    return RawScenario(
        carrier=carrier, unit=unit,
        product={(x, y): xy for x, row in rows.items()
                 for y, xy in row.items()},
        false_members=false_members, op_members=op_members,
        cl_members=cl_members, goal_map_members=goal_map_members,
        system_names=system_names, agent_lattices=agent_lattices,
        env_args={
            "agents": _field(env, "environment", "agents", _list_of(_agent)),
            "goals": _field(env, "environment", "goals", _list_of(_goal)),
            "width": _field(env, "environment", "width", _as_int),
            "height": _field(env, "environment", "height", _as_int),
            "obstacles": _field(env, "environment", "obstacles",
                                _list_of(_cell), [])},
        planner=_field(doc, "document", "planner", _planner, PlannerConfig()))


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
    check_run_limits(cfg.depth, len(env.agents), cfg.eq1_mode,
                     subset_cap=cfg.subset_cap, patience=cfg.patience,
                     max_steps=cfg.max_steps)


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

    phase = run("phase-monoid", lambda: validate_monoid(
        raw.carrier, raw.product, raw.unit, raw.false_members))
    op_cl = run("op-cl-classes", lambda: validate_op_cl(
        phase, [phase.subset(m) for m in raw.op_members],
        [phase.subset(m) for m in raw.cl_members]), phase)
    spec = run("system-lattice", lambda: build_goal_lattice_spec(phase, {
        gid: phase.subset(m) for gid, m in raw.goal_map_members.items()},
        raw.system_names), phase)
    desire_lattices = {}
    for agent_id, body in sorted(raw.agent_lattices.items()):
        dl = run(f"desire-lattice {agent_id}",
                 lambda b=body: build_desire_lattice(
                     verify_poset(b["elements"], b["pairs"], covers=b["covers"],
                                  generators=b["generators"]),
                     b["desires"], b["intention"]))
        if dl is not None:
            desire_lattices[agent_id] = dl
    env = run("environment", lambda: build_environment(**raw.env_args))
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
