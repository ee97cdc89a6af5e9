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
from .expr import diff, eval_expr, parse_expr, simplify, substitute, to_text
from .petri import (Arc, ModelError, PetriModel, Place, Transition,
                    classify_transitions, load_model, parse_model,
                    validate_assumptions)
from .ngm import DfeError, DfeResult, NgmError, NgmResult, compute_dfe, ngm_r0
from .sim import SimError, Trajectory, run_spn, run_spn_replicates, run_vapn
from .estimate import (EstimateError, EstimateResult, SweepConfig,
                       SweepReport, SweepRow, attack_rate_r0, rrmse, sweep)
from .modelzoo import builtin, zoo_entries, zoo_entry, zoo_ids

__version__ = "0.1.0"

__all__ = [
    "NgmpnError",
    "parse_expr", "eval_expr", "diff", "simplify", "substitute", "to_text",
    "PetriModel", "Place", "Transition", "Arc", "ModelError",
    "parse_model", "load_model", "classify_transitions", "validate_assumptions",
    "ngm_r0", "compute_dfe", "NgmResult", "DfeResult", "NgmError", "DfeError",
    "run_vapn", "run_spn", "run_spn_replicates", "Trajectory", "SimError",
    "attack_rate_r0", "rrmse", "sweep", "SweepConfig", "SweepReport",
    "SweepRow", "EstimateResult", "EstimateError",
    "builtin", "zoo_ids", "zoo_entry", "zoo_entries",
    "__version__",
]
