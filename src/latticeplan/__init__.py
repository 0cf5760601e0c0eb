"""Itinerary planning for agent groups in a grid world.

Goal priorities live in a lattice of phase-semantics facts, trajectories
are plays of polarized graph games scored in a reward lattice, and
assignment ties break on desire-lattice vertex weights.
"""

from types import ModuleType as _ModuleType

from .errors import LatticePlanError, LimitExceeded
from .lattice import (
    FiniteLattice,
    LatticeError,
    chain_lattice,
    powerset_lattice,
    subset_id,
    verify_poset,
)
from .phase import (
    MonoidSubset,
    OpClPartition,
    PhaseError,
    PhaseSpace,
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
from .games import (
    ConwayGame,
    GameError,
    Play,
    Strategy,
    build_game,
    dual_game,
    enumerate_plays,
    game_to_dot,
    tensor_games,
    validate_strategy,
)
from .grid import (
    AgentState,
    GoalObject,
    GridEnvironment,
    GridError,
    agent_moves,
    build_agent_game,
    build_environment,
    observed_cells,
    reachable,
    reward,
    visible_goals,
)
from .planner import (
    DesireLattice,
    GoalLatticeSpec,
    ItineraryPlan,
    PlannerError,
    Trace,
    TraceStep,
    assign_agents,
    build_desire_lattice,
    build_goal_lattice_spec,
    choose_play,
    plan_once,
    play_reward,
    process_priority,
    select_intentions,
    simulate,
    vertex_weight,
)
from .scenario import ParseError, Scenario, load_scenario

# The names imported above; the submodules they come from are not exports.
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

__version__ = "0.1.0"
