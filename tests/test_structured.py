"""The structured pipeline operator against the dense oracle."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridqmc import (
    ConfigurationError,
    InjectionDistribution,
    apply,
    build_grover,
    build_line_pipeline,
    builtin_config_path,
    encode,
    exact_line_distribution,
    iqae,
    joint_state,
    load_config,
    probability_of,
    state_prep_unitary,
    zero_state,
)
from gridqmc.config import parse_config
from gridqmc.estimation import build_grover_iterate
from gridqmc.flowmap import LevelCompletion, build_pipeline_operator, line_levels
from gridqmc.injection import apply_state_prep
from gridqmc.runner import _analysis_inputs, stage_state
from gridqmc.simulator import probe_unitary
from tests.conftest import ring_study, synthetic_grid


def materialize(op, dim):
    """Dense matrix of a matrix-free operator, one column per basis vector."""
    return np.column_stack([op(np.eye(dim)[:, j]) for j in range(dim)])


def check_against_dense(h_row, dists, metric, threshold=None):
    dense, lf_map, _ = build_line_pipeline(h_row, dists, metric, threshold)
    op, levels, _ = build_pipeline_operator(h_row, dists, metric, threshold)
    assert (dense is None) == (op is None)
    if op is None:
        return
    dim = op.dim
    a = materialize(op.apply, dim)
    assert np.max(np.abs(a.T @ a - np.eye(dim))) < 1e-10
    assert np.max(np.abs(materialize(op.apply_adjoint, dim) - a.T)) < 1e-12

    completion = materialize(op.completion.apply, dim)
    assert np.max(np.abs(completion[: levels.n_rows] - lf_map.m_sc)) < 1e-12

    g = op.good_state_index
    dense_prepared = apply(dense.a, zero_state(op.n_qubits)).amplitudes
    assert abs(op.prepared()[g] - dense_prepared[g]) < 1e-12
    assert op.scaling == dense.scaling

    dense_grover = build_grover(dense)
    grover = build_grover_iterate(op)
    dense_state, state = dense_grover.amplified_state(0), grover.amplified_state(0)
    for k in range(6):
        if k > 0:
            dense_state = dense_grover.amplified_state(1, start=dense_state)
            state = grover.amplified_state(1, start=state)
        assert abs(probability_of(state, g) - probability_of(dense_state, g)) < 1e-10


@pytest.mark.parametrize("name", ["three_bus", "five_bus"])
@pytest.mark.parametrize("metric", ["mean", "overload"])
def test_bundled_studies_match_dense(name, metric):
    cfg = load_config(builtin_config_path(name))
    h_row, dists = _analysis_inputs(cfg)
    check_against_dense(h_row, dists, metric, cfg.analysis.threshold_fraction)


def nine_qubit_ring():
    """Ring study with four 4-bin buses and one 2-bin bus."""
    raw = ring_study(5, seed=4)
    raw["injections"][-1].update(values_mw=[-1, 2], probabilities=[0.3, 0.7])
    return parse_config(raw)


@pytest.mark.parametrize("study", ["three_bus", "five_bus", "nine_qubit_ring"])
@pytest.mark.parametrize("metric", ["mean", "overload"])
def test_dense_stages_equal_structured_path(study, metric):
    cfg = nine_qubit_ring() if study == "nine_qubit_ring" else load_config(builtin_config_path(study))
    cfg = dataclasses.replace(
        cfg, analysis=dataclasses.replace(cfg.analysis, metric=metric, threshold_pct=40.0)
    )
    h_row, dists = _analysis_inputs(cfg)
    psi = joint_state([encode(d) for d in dists]).amplitudes.real
    completion = LevelCompletion.from_levels(line_levels(h_row, dists))
    assert np.max(np.abs(stage_state(cfg, "L").amplitudes - completion.apply(psi))) < 1e-12

    threshold = cfg.analysis.threshold_fraction if metric == "overload" else None
    op, _, _ = build_pipeline_operator(h_row, dists, metric, threshold)
    assert op is not None
    assert np.max(np.abs(stage_state(cfg, "V").amplitudes - op.prepared())) < 1e-12


@st.composite
def grids(draw):
    """At most 8 qubits; coarse rows and levels so loadings tie, zero-mass bins allowed."""
    bins = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=1, max_size=4))
    assume(1 <= sum(b.bit_length() - 1 for b in bins) <= 8)
    dists = []
    for bus, n in enumerate(bins, start=1):
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=float)
        assume(weights.sum() > 0)
        dists.append(InjectionDistribution(
            bus=bus, values_mw=np.arange(n) - draw(st.integers(0, 2)),
            probabilities=weights / weights.sum(),
        ))
    h_row = np.array(draw(st.lists(st.sampled_from([-0.5, -0.3, 0.0, 0.25, 0.3, 0.7]),
                                   min_size=len(bins), max_size=len(bins))))
    return h_row, dists


@given(grids(), st.sampled_from(["mean", "overload"]), st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_generated_grids_match_dense(grid, metric, level_pick):
    h_row, dists = grid
    # overload thresholds sit exactly on a loading level
    levels = np.unique(np.abs(exact_line_distribution(h_row, dists).values))
    threshold = float(levels[level_pick % len(levels)]) if metric == "overload" else None
    assume(threshold is None or threshold > 0)
    check_against_dense(h_row, dists, metric, threshold)


def test_state_prep_matches_kronecker_product():
    rng = np.random.default_rng(3)
    dists = [
        InjectionDistribution(bus=b, values_mw=np.arange(n), probabilities=rng.dirichlet(np.ones(n)))
        for b, n in enumerate([2, 4, 1, 2], start=1)
    ]
    encs = [encode(d) for d in dists]
    dense = np.eye(1)
    for enc in encs:
        dense = np.kron(dense, state_prep_unitary(enc).entries.real)
    got = materialize(lambda x: apply_state_prep(encs, x), 16)
    assert np.max(np.abs(got - dense)) < 1e-12


def test_probe_rejects_a_non_unitary_operator():
    with pytest.raises(ConfigurationError, match="not unitary"):
        probe_unitary(lambda x: 1.001 * x, 8)
    with pytest.raises(ConfigurationError, match="not unitary"):
        # norm-preserving, but the claimed adjoint is not its inverse
        probe_unitary(lambda x: x[::-1], 8, adjoint=lambda x: x)
    probe_unitary(lambda x: x[::-1], 8, adjoint=lambda x: x[::-1])


def test_sixteen_qubit_iqae_smoke():
    h_row, dists = synthetic_grid(8)
    op, _, est = build_pipeline_operator(h_row, dists, "mean")
    assert op.n_qubits == 16
    res = iqae(build_grover_iterate(op), epsilon=0.01, alpha=0.05, rng_seed=7)
    assert res.ci_high - res.ci_low <= 0.02
    assert res.ci_low <= res.raw_a <= res.ci_high
    assert 0 < math.sqrt(res.raw_a) * est.scaling < 2.0


def test_oversized_study_refused():
    h_row, dists = synthetic_grid(11)
    with pytest.raises(ConfigurationError, match="at most 20"):
        build_pipeline_operator(h_row, dists, "mean")
