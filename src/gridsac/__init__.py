"""Real-time voltage and transmission-loss control on AC grids: a
Newton-Raphson power-flow environment, a soft actor-critic agent, and a
multi-run training harness."""

from .environment import (Action, DoneReason, GridControlEnv, Normalizer,
                          StateVector, StepResult, compute_reward,
                          extract_state, fit_normalizer)
from .grid_model import (Branch, Bus, BusKind, CaseError, CaseSemanticError,
                         CaseSyntaxError, Generator, GridCase, Plant,
                         bundled_case, load_case, parse_case, save_case,
                         serialize_case)
from .harness import (CampaignConfig, EvaluationReport, ModelRegistry,
                      RunConfig, SelectionMetric, SnapshotGenSpec, evaluate,
                      generate_snapshots, periodic_retrain, run_campaign)
from .power_flow import (CompiledGrid, PowerFlowSolution, SolverOptions,
                         ViolationReport, audit_violations, build_admittance,
                         compile_grid, compute_branch_flows,
                         solve_newton_raphson)
from .sac import (ReplayBuffer, SacAgent, SacConfig, SelectMode, Transition,
                  load_checkpoint, save_checkpoint, train)

__version__ = "0.1.0"
