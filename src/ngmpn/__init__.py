"""Epidemic models as Petri nets: algebraic R0 and simulation cross-checks.

A model is a bipartite net of places (compartments) and transitions whose
arcs carry either state-dependent weight expressions (deterministic variable
arc-weight nets) or integer multiplicities with a rate expression
(stochastic nets). From the net alone the package derives the disease-free
equilibrium, the transmission and transition matrices, and R0 as the
spectral radius of F V^-1; simulators and an attack-rate estimator provide
the numerical cross-check. Every error the package raises is an NgmpnError.
"""
from .errors import NgmpnError
from .expr import (diff, eval_expr, free_symbols, parse_expr, simplify,
                   substitute, to_text)
from .petri import (Arc, ModelError, PetriModel, Place, Transition,
                    classify_transitions, load_model, net_flow, parse_model,
                    validate_assumptions)
from .ngm import (DfeError, DfeResult, NgmError, NgmResult, build_script_F,
                  build_script_V, compute_dfe, ngm_r0, spectral_radius)
from .sim import (SimError, Trajectory, run_spn, run_spn_replicates,
                  run_vapn, step_vapn)
from .estimate import (EstimateError, EstimateResult, SweepConfig,
                       SweepReport, SweepRow, attack_rate_r0, converged_run,
                       estimate_replicates, rrmse, sweep)
from .modelzoo import builtin, oracle_r0, zoo_entries, zoo_entry, zoo_ids

__version__ = "0.1.0"

__all__ = [
    "NgmpnError",
    "parse_expr", "eval_expr", "diff", "simplify", "substitute", "to_text",
    "free_symbols",
    "PetriModel", "Place", "Transition", "Arc", "ModelError",
    "parse_model", "load_model", "net_flow", "classify_transitions",
    "validate_assumptions",
    "ngm_r0", "compute_dfe", "build_script_F", "build_script_V",
    "spectral_radius",
    "NgmResult", "DfeResult", "NgmError", "DfeError",
    "run_vapn", "step_vapn", "run_spn", "run_spn_replicates",
    "Trajectory", "SimError",
    "attack_rate_r0", "estimate_replicates", "rrmse", "sweep",
    "converged_run", "SweepConfig", "SweepReport", "SweepRow",
    "EstimateResult", "EstimateError",
    "builtin", "zoo_ids", "zoo_entry", "zoo_entries", "oracle_r0",
    "__version__",
]
