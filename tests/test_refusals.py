"""Typed refusals of library calls that no study file reaches: each raises its error class with its message."""
import dataclasses
import re

import numpy as np
import pytest

from gridqmc import (
    EstimationResult,
    assemble_pipeline,
    build_estimator_vector,
    build_line_map,
    builtin_config_path,
    encode,
    exact_line_distribution,
    householder_unitary,
    joint_state,
    load_config,
    orthonormalize_rows,
    required_samples,
    rescale,
    state_prep_unitary,
    unitary_factorize,
)
from gridqmc.errors import ConfigurationError
from gridqmc.flowmap import _metric_reflection, line_levels
from gridqmc.runner import _analysis_inputs


def three_bus():
    """``(h_row, distributions, encodings, n_qubits)`` of the bundled three_bus study."""
    h_row, dists = _analysis_inputs(load_config(builtin_config_path("three_bus")))
    encodings = [encode(d) for d in dists]
    return h_row, dists, encodings, sum(e.n_qubits for e in encodings)


def result(ci_low, ci_high, value=0.5):
    return EstimationResult(
        method="iqae", raw_a=value, metric_value=value, ci_low=ci_low, ci_high=ci_high,
        shots_total=100, oracle_applications=100, epsilon=0.01, alpha=0.05, seed=0,
    )


def estimator(metric, threshold=None, extra_qubits=0):
    h_row, dists, encodings, n_qubits = three_bus()
    return build_estimator_vector(line_levels(h_row, dists), metric, n_qubits + extra_qubits, encodings, threshold)


def zero_row_map():
    h_row, dists, _, _ = three_bus()
    lf_map = build_line_map(h_row, dists)
    return orthonormalize_rows(dataclasses.replace(lf_map, row_norms=np.zeros(lf_map.n_rows)))


def mismatched_stages():
    h_row, dists, encodings, _ = three_bus()
    preps = [state_prep_unitary(e) for e in encodings]
    return assemble_pipeline(preps, unitary_factorize(build_line_map(h_row, dists)), householder_unitary(np.ones(2)), 1.0)


REFUSALS = {
    "exact-overload-without-threshold": (
        lambda: exact_line_distribution(*three_bus()[:2]).metric("overload"), "overload metric needs a threshold"),
    "exact-unknown-metric": (
        lambda: exact_line_distribution(*three_bus()[:2]).metric("median"), "unknown metric 'median'"),
    "exact-h-row-length": (
        lambda: exact_line_distribution(np.ones(3), three_bus()[1]),
        "h_row length must match the number of distributions"),
    "cmc-epsilon-zero": (lambda: required_samples(1.0, 0.0, 0.05), "epsilon must be > 0"),
    "levels-without-distributions": (lambda: line_levels(np.ones(0), []), "need at least one distribution"),
    "levels-h-row-length": (
        lambda: line_levels(np.ones(3), three_bus()[1]), "h_row length must match the number of distributions"),
    "estimator-qubit-count": (
        lambda: estimator("mean", extra_qubits=1), "flow map does not match the qubit count"),
    "estimator-overload-without-threshold": (lambda: estimator("overload"), "overload metric needs a threshold"),
    "estimator-unknown-metric": (lambda: estimator("median"), "unknown metric 'median'"),
    "metric-reflection-of-zero": (lambda: _metric_reflection(np.zeros(4)), "householder vector must be non-zero"),
    "joint-state-without-encodings": (lambda: joint_state([]), "need at least one encoding"),
    "estimate-outside-interval": (
        lambda: result(0.6, 0.7), "estimate must lie inside its confidence interval"),
    "rescale-interval-over-one": (lambda: rescale(result(0.4, 1.5), 2.0), "raw interval must lie within [0, 1]"),
    "dense-zero-row": (zero_row_map, "flow map has a zero row"),
    "dense-stage-dimensions": (mismatched_stages, "stage dimensions do not match"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refusal_has_its_type_and_message(case):
    call, message = REFUSALS[case]
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is ConfigurationError
