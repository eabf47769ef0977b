"""Quantum amplitude estimation of line-loading risk in DC power grids.

Encodes uncertain bus injections as quantum amplitudes, applies the
distribution-factor line-flow mapping as unitaries on a dense statevector
simulator, and extracts mean line loading or overload probability through
iterative amplitude estimation, with classical Monte Carlo and exact
enumeration baselines for comparison.
"""

__version__ = "0.1.0"

from .classical import classical_mc, exact_line_distribution, required_samples
from .config import builtin_config_path, load_config
from .errors import ConfigurationError, DisconnectedNetworkError
from .dense import (
    PipelineUnitary,
    UnitaryMatrix,
    apply,
    assemble_pipeline,
    build_grover,
    build_line_map,
    build_line_pipeline,
    householder_unitary,
    orthonormalize_rows,
    state_prep_unitary,
    unitary_factorize,
    zero_state,
)
from .estimation import EstimationResult, iqae, rescale
from .flowmap import build_estimator_vector
from .grid import Line, Network, build_ptdf, rate_scale_ptdf
from .injection import InjectionDistribution, encode, joint_state
from .runner import RunReport, export_histogram, run_analysis, stage_state
from .simulator import StateVector, probability_of, sample_counts
