"""Solver and verification laboratory for the Crocco form of the unsteady
boundary-layer system, plus the constant-coefficient kinetic-transport
model used for the regularity diagnostics.

The package splits into three layers:

* problem assembly: closed-form outer flows, transformed coefficients,
  sampled data and the pressure gradient on its nodes (`flows`, `crocco`,
  `grids`);
* the regularized marching solver and its estimate battery (`solver`,
  `estimates`, `mms`);
* kernel identities, cutoff geometry, mean-value / Poincare / density /
  oscillation functionals for the model operator (`kolmogorov`).

Scenario runners and the run report each returns, the rendering of every
report and artifact, the config format, and the numbered acceptance
checklist sit on top (`scenarios`, `reporting`, `config`, `acceptance`,
`cli`).
"""

from ._version import __version__
from .acceptance import AcceptanceEngine, parse_suite, run_acceptance
from .config import RunConfig, load_config, parse_config
from .crocco import (CroccoData, CroccoProblem, make_problem, pressure_gradient,
                     validate)
from .errors import ConfigError, CroccoError, NumericalError
from .estimates import (bv_seminorm, comparison_constant, l1_stability,
                        physical_stability, trace_residual, uniformity_spread,
                        weak_residual, weighted_dyy_measure, weighted_grad_norms)
from .flows import accelerating_flow, decelerating_flow, uniform_flow
from .grids import FieldHistory, GridSpec
from .kolmogorov import (Box, CutoffSpec, density_ratio,
                         dilation_defect, gamma0, kernel_reproduction,
                         l0_residual, log_field, log_subsolution, mean_value,
                         model_scenarios, normalization, oscillation_table,
                         solve_model, verify_lemma, weak_poincare_ratio)
from .reporting import write_artifacts
from .scenarios import run_scenario, validate_scenario
from .solver import SolveStore, grid_refinement_proxy, solve, viscosity_sweep

__all__ = [
    "__version__",
    "AcceptanceEngine", "parse_suite", "run_acceptance",
    "RunConfig", "load_config", "parse_config",
    "CroccoData", "CroccoProblem", "make_problem", "pressure_gradient", "validate",
    "ConfigError", "CroccoError", "NumericalError",
    "bv_seminorm", "comparison_constant", "l1_stability",
    "physical_stability", "trace_residual", "uniformity_spread",
    "weak_residual", "weighted_dyy_measure", "weighted_grad_norms",
    "accelerating_flow", "decelerating_flow", "uniform_flow",
    "FieldHistory", "GridSpec",
    "Box", "CutoffSpec", "density_ratio",
    "dilation_defect", "gamma0", "kernel_reproduction", "l0_residual",
    "log_field", "log_subsolution", "mean_value", "model_scenarios",
    "normalization", "oscillation_table", "solve_model", "verify_lemma",
    "weak_poincare_ratio",
    "write_artifacts",
    "run_scenario", "validate_scenario",
    "SolveStore", "grid_refinement_proxy", "solve", "viscosity_sweep",
]
