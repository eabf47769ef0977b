"""The structured pipeline operator against the dense oracle."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridqmc import (
    ConfigurationError,
    InjectionDistribution,
    apply,
    build_grover,
    build_line_map,
    build_line_pipeline,
    builtin_config_path,
    encode,
    exact_line_distribution,
    iqae,
    joint_state,
    load_config,
    orthonormalize_rows,
    state_prep_unitary,
    unitary_factorize,
    zero_state,
)
from gridqmc import estimation, flowmap, simulator
from gridqmc.estimation import GroverIterate, build_grover_iterate
from gridqmc.flowmap import LevelCompletion, PipelineOperator, build_pipeline_operator, line_levels
from gridqmc.injection import _UPDATE_ELEMENTS, prep_reflections, reflect_axes
from gridqmc.runner import _analysis_inputs, stage_state
from gridqmc.simulator import probe_unitary
from tests.conftest import nine_qubit_ring, synthetic_grid


def materialize(op, dim):
    """Dense matrix of a matrix-free operator, one column per basis vector."""
    return np.column_stack([op(np.eye(dim)[:, j]) for j in range(dim)])


def check_against_dense(h_row, dists, metric, threshold=None):
    dense, _, _ = build_line_pipeline(h_row, dists, metric, threshold)
    lf_map = orthonormalize_rows(build_line_map(h_row, dists))
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
    for k in range(6):  # the dense operator reads its probability from Q^k A|0>
        assert abs(grover.good_probability(k) - dense_grover.good_probability(k)) < 1e-10


@pytest.mark.parametrize("name", ["three_bus", "five_bus"])
@pytest.mark.parametrize("metric", ["mean", "overload"])
def test_bundled_studies_match_dense(name, metric):
    cfg = load_config(builtin_config_path(name))
    h_row, dists = _analysis_inputs(cfg)
    check_against_dense(h_row, dists, metric, cfg.analysis.threshold_fraction)


@pytest.mark.parametrize("study", ["three_bus", "five_bus", "nine_qubit_ring"])
@pytest.mark.parametrize("metric", ["mean", "overload"])
def test_dense_stages_equal_structured_path(study, metric):
    cfg = nine_qubit_ring() if study == "nine_qubit_ring" else load_config(builtin_config_path(study))
    cfg = dataclasses.replace(
        cfg, analysis=dataclasses.replace(cfg.analysis, metric=metric, threshold_pct=40.0)
    )
    h_row, dists = _analysis_inputs(cfg)
    fact = unitary_factorize(build_line_map(h_row, dists))
    dense_l = apply(fact.u_padded, apply(fact.v_h, joint_state([encode(d) for d in dists])))
    assert np.max(np.abs(stage_state(cfg, "L").amplitudes - dense_l.amplitudes)) < 1e-12

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
        dense = np.kron(dense, state_prep_unitary(enc).entries)
    got = materialize(lambda x: reflect_axes(prep_reflections(encs), x.copy()), 16)
    assert np.max(np.abs(got - dense)) < 1e-12


def forecasts(sizes, point_mass=None):
    """Random forecasts with ``sizes`` levels; bus ``point_mass`` is certain to be at its first level."""
    rng = np.random.default_rng(5)
    probs = [rng.dirichlet(np.ones(n)) for n in sizes]
    if point_mass is not None:
        probs[point_mass] = np.eye(sizes[point_mass])[0]
    return [InjectionDistribution(bus=b, values_mw=np.arange(len(p)), probabilities=p)
            for b, p in enumerate(probs, start=1)]


@pytest.mark.parametrize("sizes, point_mass, widths", [
    ([2, 4, 1, 2, 8, 2], 3, [16, 16]),  # the point mass reflects nothing
    ([4, 4, 4, 4, 2], None, [16, 16, 2]),
    ([2, 32, 4, 2], 1, [2, 32, 8]),  # a bus over the fused width is a factor of its own
])
def test_fused_prep_factors_match_the_kronecker_product(sizes, point_mass, widths):
    encs = [encode(d) for d in forecasts(sizes, point_mass)]
    factors = prep_reflections(encs)
    assert [len(f) for f in factors] == widths
    dim = math.prod(sizes)
    dense = np.eye(1)
    for enc in encs:
        dense = np.kron(dense, state_prep_unitary(enc).entries)
    if point_mass is not None:
        assert np.array_equal(state_prep_unitary(encs[point_mass]).entries, np.eye(sizes[point_mass]))
    got = materialize(lambda x: reflect_axes(factors, x.copy()), dim)
    assert np.max(np.abs(got - dense)) < 1e-12
    # a block goes through column by column, and the product is its own adjoint
    block = np.random.default_rng(1).standard_normal((dim, 3))
    by_column = np.column_stack([reflect_axes(factors, block[:, j].copy()) for j in range(3)])
    assert np.max(np.abs(reflect_axes(factors, block.copy()) - by_column)) <= 1e-13
    assert np.max(np.abs(got - got.T)) <= 1e-15
    # each dense factor is bit for bit the np.kron fold of its group of adjacent buses
    groups, fused = [], np.eye(1)
    for enc in encs:
        if len(fused) * len(enc.amplitudes) > 16 or len(enc.amplitudes) > 16:
            groups.append(fused)
            fused = np.eye(1)
        if len(enc.amplitudes) <= 16:
            fused = np.kron(fused, state_prep_unitary(enc).entries)
    groups = [f for f in [*groups, fused] if len(f) > 1]
    dense_factors = [f for f in factors if isinstance(f, np.ndarray)]
    assert len(dense_factors) == len(groups)
    assert all(np.array_equal(f, g) for f, g in zip(dense_factors, groups))


def test_fused_prep_block_through_the_operator_in_either_order():
    # six buses of 2, 4, 1, 2, 8 and 2 levels: the fused factors end on a bus boundary
    dists = forecasts([2, 4, 1, 2, 8, 2], point_mass=3)
    h_row = np.array([0.3, -0.25, 0.1, 0.7, -0.5, 0.2])
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    a = build_line_pipeline(h_row, dists, "mean")[0].a.entries
    block = np.random.default_rng(2).standard_normal((op.dim, 3))
    for f, dense in ((op.apply, a), (op.apply_adjoint, a.T)):
        for j in range(3):  # a strided column of the block, one vector at a time
            x = block[:, j]
            kept = x.copy()
            assert np.max(np.abs(f(x) - dense @ kept)) <= 1e-13
            assert np.array_equal(x, kept)


def test_reflect_axes_temporaries_stay_within_the_update_size():
    _, dists = synthetic_grid(8)  # 16 qubits, four fused 16-level factors
    factors = prep_reflections([encode(d) for d in dists])
    # a vector takes the last factor by slices of rows, a block by the middle-axis view
    for shape in ((2**16,), (2**16, 3)):  # 0.5 and 1.5 MiB
        y = np.random.default_rng(0).standard_normal(shape)
        expected, left = y.copy(), 1
        for f in factors:  # each factor on its whole axis at once
            expected = np.einsum("ij,ljr->lir", f, expected.reshape(left, len(f), -1)).reshape(shape)
            left *= len(f)
        tracemalloc.start()
        try:
            reflect_axes(factors, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * _UPDATE_ELEMENTS + 2**14
        assert np.max(np.abs(y - expected)) <= 1e-13


def test_probe_rejects_a_non_unitary_operator():
    with pytest.raises(ConfigurationError, match="not unitary"):
        probe_unitary(lambda x: 1.001 * x, 8, adjoint=lambda x: x / 1.001)
    with pytest.raises(ConfigurationError, match="not unitary"):
        # norm-preserving, but the claimed adjoint is not its inverse
        probe_unitary(lambda x: x[::-1], 8, adjoint=lambda x: x)
    probe_unitary(lambda x: x[::-1], 8, adjoint=lambda x: x[::-1])


def test_probe_rejects_a_nan_operator():
    with pytest.raises(ConfigurationError, match=r"not unitary \(probe residual nan\)"):
        probe_unitary(lambda x: x * np.nan, 8, adjoint=lambda x: x)


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


def full_length_completion(levels, x, adjoint=False):
    """Reference C = P R: every level, single states included, summed by one bincount over all states."""
    labels = levels.labels
    first = np.unique(labels, return_index=True)[1]
    inv_sqrt = 1.0 / levels.row_norms
    wnorm2 = 2.0 - 2.0 * inv_sqrt
    gain = np.divide(2.0, wnorm2, out=np.zeros_like(wnorm2), where=levels.row_norms > 1)
    rest = np.ones(len(labels), dtype=bool)
    rest[first] = False
    order = np.concatenate((first, np.flatnonzero(rest)))

    def reflect(v):
        sums = np.bincount(labels, weights=v, minlength=len(first))
        beta = gain * (v[first] - sums * inv_sqrt)
        y = v + (beta * inv_sqrt)[labels]
        y[first] -= beta
        return y

    if adjoint:
        y = np.empty_like(x)
        y[order] = x
        return reflect(y)
    return reflect(x)[order]


@given(grids(), st.sampled_from(["mean", "overload"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_completion_and_blocks_match_the_full_length_path(grid, metric, seed):
    h_row, dists = grid
    levels = line_levels(h_row, dists)
    completion = LevelCompletion.from_levels(levels)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(levels.n_columns)
    psi = joint_state([encode(d) for d in dists]).amplitudes  # zeros where a bin has no mass
    for v in (x, psi):
        assert np.array_equal(completion.apply(v), full_length_completion(levels, v))
        assert np.array_equal(completion.apply_adjoint(v), full_length_completion(levels, v, adjoint=True))

    maps = [completion.apply, completion.apply_adjoint]
    threshold = float(np.median(levels.distinct_values)) if metric == "overload" else None
    op, _, _ = build_pipeline_operator(h_row, dists, metric, threshold)
    if op is not None:
        maps += [op.apply, op.apply_adjoint, build_grover_iterate(op).step]
    kept = x.copy()
    for f in maps:  # each leaves its input vector unchanged
        f(x)
        assert np.array_equal(x, kept)


def test_grover_set_up_applies_the_operator_once_and_no_step_applies_it(monkeypatch):
    h_row, dists = synthetic_grid(4)
    # every factor of A = H P R prep goes through these
    shapes = {"prep": [], "permute": [], "unpermute": [], "H": []}
    reflect_axes_, reflect_ = flowmap.reflect_axes, flowmap._reflect
    monkeypatch.setattr(flowmap, "reflect_axes",
                        lambda f, y: shapes["prep"].append(y.shape) or reflect_axes_(f, y))
    monkeypatch.setattr(flowmap, "_reflect",
                        lambda x, w, c: shapes["H"].append(x.shape) or reflect_(x, w, c))
    for name in ("permute", "unpermute"):
        method = getattr(LevelCompletion, name)
        monkeypatch.setattr(LevelCompletion, name,
                            lambda self, x, _m=method, _c=shapes[name]: _c.append(x.shape) or _m(self, x))
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    g = build_grover_iterate(op)
    vector = (op.dim,)
    # the build's three probe vectors through A and A^T, then A once on |0> for psi; the
    # Grover set-up's norm check of psi and its rotation check's two steps apply no factor of A
    expected = {"prep": [vector] * 7, "permute": [vector] * 4, "unpermute": [vector] * 3, "H": [vector] * 7}
    assert shapes == expected
    g.step(np.ones(vector))
    g.good_probability(7)
    assert shapes == expected


def test_operator_and_step_refuse_anything_but_one_vector():
    h_row, dists = synthetic_grid(3)
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    step = build_grover_iterate(op).step
    for f in (op.apply, op.apply_adjoint, step):
        for shape in ((op.dim, 3), (op.dim, 1), (op.dim - 1,)):
            with pytest.raises(ConfigurationError, match="one vector of length 64"):
                f(np.ones(shape))


def test_probes_drawn_once_in_the_build_and_grover_set_up_reads_psi_alone(monkeypatch):
    h_row, dists = synthetic_grid(4)
    seeds, calls = [], []
    default_rng, prepared = np.random.default_rng, PipelineOperator.prepared
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seeds.append(a) or default_rng(*a))
    monkeypatch.setattr(PipelineOperator, "prepared", lambda self: calls.append(1) or prepared(self))
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    assert seeds == [(simulator._PROBE_SEED,)] and not calls
    g = build_grover_iterate(op)
    # the Grover set-up draws nothing and calls the operator once, for psi
    assert seeds == [(simulator._PROBE_SEED,)] and len(calls) == 1
    assert vars(op).keys() == {f.name for f in dataclasses.fields(op)}
    assert not any(isinstance(v, PipelineOperator) for v in vars(g).values())
    assert not g.start.flags.writeable


@pytest.mark.parametrize("spoil", [lambda psi: psi * (1 + 1e-10), lambda psi: np.concatenate(([np.nan], psi[1:]))],
                         ids=["scaled", "nan"])
def test_grover_set_up_refuses_a_psi_off_the_unit_sphere(spoil, monkeypatch):
    h_row, dists = synthetic_grid(3)
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    prepared = PipelineOperator.prepared
    monkeypatch.setattr(PipelineOperator, "prepared", lambda self: spoil(prepared(self)))
    # |psi.psi - 1| = 2e-10 passes a probe of Q and the rotation check; Q is not orthogonal
    with pytest.raises(ConfigurationError, match="not unitary"):
        build_grover_iterate(op)


@pytest.mark.parametrize("n_buses", [3, 4, 5])
def test_iqae_repeats_no_grover_step(n_buses, monkeypatch):
    h_row, dists = synthetic_grid(n_buses)
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    g = build_grover_iterate(op)  # its rotation check leaves Q^2 A|0>
    steps, powers = [], []
    step, find_next_k = GroverIterate.step, estimation._find_next_k
    monkeypatch.setattr(GroverIterate, "step", lambda self, x: steps.append(1) or step(self, x))
    monkeypatch.setattr(estimation, "_find_next_k",
                        lambda *args: powers.append(find_next_k(*args)[0]) or find_next_k(*args))
    iqae(g, epsilon=0.01, alpha=0.05)
    # each new power goes on from the highest one computed, or from A|0> below it
    expected, highest = 0, 2
    for k in sorted(set(powers)):
        expected += k if k < highest else k - highest
        highest = max(highest, k)
    assert len(steps) == expected


def high_power_studies():
    """``(h_row, dists, threshold)``: synthetic grids of 6 to 12 qubits and the bundled studies."""
    for n in range(3, 7):
        h_row, dists = synthetic_grid(n)
        yield h_row, dists, float(np.median(line_levels(h_row, dists).distinct_values))
    for name in ("three_bus", "five_bus"):
        cfg = load_config(builtin_config_path(name))
        yield *_analysis_inputs(cfg), cfg.analysis.threshold_fraction


@pytest.mark.parametrize("metric", ["mean", "overload"])
def test_good_probability_keeps_the_rotation_at_high_powers(metric):
    for h_row, dists, threshold in high_power_studies():
        op, _, _ = build_pipeline_operator(h_row, dists, metric, threshold if metric == "overload" else None)
        theta = math.asin(abs(op.prepared()[op.good_state_index]))
        g = build_grover_iterate(op)
        for k in range(61):  # IQAE reaches powers of about 20 to 60
            assert abs(g.good_probability(k) - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9


def test_twenty_qubit_grover_step_holds_two_state_vectors():
    h_row, dists = synthetic_grid(10)
    op, _, _ = build_pipeline_operator(h_row, dists, "mean")
    g = build_grover_iterate(op)
    tracemalloc.start()
    try:
        y = g.step(g.start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the step's own copy and one temporary, 8 MiB each
    assert peak / 2**20 <= 17.0
    assert abs(y[op.good_state_index] ** 2 - g.good_probability(1)) <= 1e-12


#: tracemalloc peak of this test's body, in MiB: 112.7 measured with one probe vector
#: through the operator at a time and no probe of the Grover iterate, plus 16 (two
#: 2^20-state vectors) of margin.  Holding the three probes' images at once, as a
#: (2^20, 3) block, peaks at 136.7 and fails
FULL_LENGTH_PEAK_MIB = 128.7


def test_twenty_qubit_study_within_the_full_length_peak():
    h_row, dists = synthetic_grid(10)
    tracemalloc.start()
    try:
        op, _, est = build_pipeline_operator(h_row, dists, "mean")
        res = iqae(build_grover_iterate(op), epsilon=0.01, alpha=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert op.n_qubits == 20
    assert res.ci_high - res.ci_low <= 0.02
    assert peak / 2**20 <= FULL_LENGTH_PEAK_MIB
