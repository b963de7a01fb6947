"""Spectral null-control synthesis for the kernel-coupled heat equation.

The equation is the 1-d heat equation on (0, ell) with Dirichlet boundary
values, driven by an interior control supported on a subinterval omega and
coupled through a symmetric square-integrable kernel:

    u_t - u_xx = f(x, t) 1_omega + int_0^ell k(x, xi) u(xi, t) dxi.

The library builds the analytic sine eigenbasis, projects the kernel, and
works with the coupled generator L = -diag(lambda) + K through its exact
symmetric eigendecomposition.  On top of that it certifies the growth bound
of e^{Lt}, the left-inverse bound on omega, the spectral packet inequality
with its exp(C sqrt(r)) constant, the observability Gramian and cost kappa_T
with its small-horizon blow-up, and synthesizes minimum-energy and staged
null controls whose terminal state and cost are verified against
independent oracles.
"""

from .basis import (Domain, SpectralBasis, build_basis, eval_mode,
                    gauss_quadrature, restricted_mass_matrix)
from .config import ExperimentConfig, format_config, parse_config
from .control import (ControlResult, SimulationResult, StageLog, control_cost,
                      controlled_state_norms, hum_control, lr_staged_control,
                      simulate_controlled)
from .errors import (ArgumentError, ConfigError, IllConditionedError,
                     KernelFormatError, NumericError, OverflowRefusalError)
from .evolution import (SpectralDecomposition, assemble_generator, decompose,
                        left_inverse_constant, left_inverse_constants, propagate,
                        propagate_backward, semigroup_norm)
from .kernels import (GaussianKernel, GridKernel, KernelMatrix, KernelSpec,
                      SeparableKernel, ZeroKernel, project_kernel,
                      read_grid_kernel, write_grid_kernel)
from .observability import (COUPLING_FIXED, COUPLING_RESOLVENT, CostReport,
                            CostSweep, ObsReport, SpecObsSweep, build_model,
                            cost_sweep, observability_cost, observability_gramian,
                            proof_chain_report, spectral_obs_constant,
                            spectral_obs_constants, specobs_sweep_and_fit,
                            truncation_for_horizon, witness_identity_residual)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "ConfigError", "ControlResult", "CostReport", "CostSweep",
    "Domain", "ExperimentConfig", "GaussianKernel", "GridKernel",
    "IllConditionedError", "KernelFormatError", "KernelMatrix", "KernelSpec",
    "NumericError", "ObsReport", "OverflowRefusalError", "SeparableKernel",
    "SimulationResult", "SpecObsSweep", "SpectralBasis", "SpectralDecomposition",
    "StageLog", "ZeroKernel", "COUPLING_FIXED", "COUPLING_RESOLVENT",
    "assemble_generator", "build_basis", "build_model", "control_cost",
    "controlled_state_norms", "cost_sweep", "decompose", "eval_mode",
    "format_config", "gauss_quadrature", "hum_control",
    "left_inverse_constant", "left_inverse_constants", "lr_staged_control",
    "observability_cost", "observability_gramian",
    "parse_config", "proof_chain_report", "project_kernel", "propagate",
    "propagate_backward", "read_grid_kernel", "restricted_mass_matrix",
    "semigroup_norm", "simulate_controlled", "spectral_obs_constant",
    "spectral_obs_constants", "specobs_sweep_and_fit", "truncation_for_horizon",
    "witness_identity_residual", "write_grid_kernel",
]
