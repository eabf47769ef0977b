"""The structured path, psi = A|0> and the Grover iterate on it, against the dense oracle."""
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
    householder_unitary,
    iqae,
    joint_state,
    load_config,
    orthonormalize_rows,
    state_prep_unitary,
    unitary_factorize,
    zero_state,
)
from gridqmc import Line, Network, estimation, flowmap, runner
from gridqmc.estimation import GroverIterate, build_grover_iterate
from gridqmc.flowmap import LineLevels, group_values, line_levels, prepared_state
from gridqmc.config import AnalysisSettings, PipelineConfig, parse_config
from gridqmc.runner import _analysis_inputs, run_analysis, stage_state
from tests.references import stable_sort_reference
from tests.studies import nine_qubit_ring, ring_study, synthetic_grid


def materialize(op, dim):
    """Dense matrix of a matrix-free operator, one column per basis vector."""
    return np.column_stack([op(np.eye(dim)[:, j]) for j in range(dim)])


def check_against_dense(h_row, dists, metric, threshold=None):
    dense, _, _ = build_line_pipeline(h_row, dists, metric, threshold)
    lf_map = orthonormalize_rows(build_line_map(h_row, dists))
    psi, levels, estimator = prepared_state(h_row, dists, metric, threshold)
    assert (dense is None) == (psi is None)
    if psi is None:
        return
    completion = materialize(levels.apply, levels.n_columns)
    assert np.max(np.abs(completion[: levels.n_rows] - lf_map.m_sc)) < 1e-12

    # the whole of psi, not only the good amplitude; the dense A passed its gram check
    dense_prepared = apply(dense.a, zero_state(dense.a.n_qubits)).amplitudes
    assert psi.dtype == float and not psi.flags.writeable
    assert np.max(np.abs(psi - dense_prepared)) < 1e-12
    assert estimator.scaling == dense.scaling

    dense_grover = build_grover(dense)
    grover = build_grover_iterate(psi)
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
    psi, _, _ = prepared_state(h_row, dists, metric, threshold)
    assert psi is not None
    assert np.max(np.abs(stage_state(cfg, "V").amplitudes - psi)) < 1e-12


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
    levels = np.unique(np.abs(stable_sort_reference(h_row, dists)[0]))
    threshold = float(levels[level_pick % len(levels)]) if metric == "overload" else None
    assume(threshold is None or threshold > 0)
    check_against_dense(h_row, dists, metric, threshold)


def test_state_prep_matches_kronecker_product():
    # prepared_state relies on prep|0> being the joint state: the first column of the dense prep
    rng = np.random.default_rng(3)
    dists = [
        InjectionDistribution(bus=b, values_mw=np.arange(n), probabilities=rng.dirichlet(np.ones(n)))
        for b, n in enumerate([2, 4, 1, 2, 32], start=1)
    ]
    encs = [encode(d) for d in dists]
    dense = np.eye(1)
    for enc in encs:
        dense = np.kron(dense, state_prep_unitary(enc).entries)
    assert np.max(np.abs(dense[:, 0] - joint_state(encs).amplitudes)) < 1e-12


def forecasts(sizes, point_mass=None):
    """Random forecasts with ``sizes`` levels; bus ``point_mass`` is certain to be at its first level."""
    rng = np.random.default_rng(5)
    probs = [rng.dirichlet(np.ones(n)) for n in sizes]
    if point_mass is not None:
        probs[point_mass] = np.eye(sizes[point_mass])[0]
    return [InjectionDistribution(bus=b, values_mw=np.arange(len(p)), probabilities=p)
            for b, p in enumerate(probs, start=1)]


@pytest.mark.parametrize("metric", ["mean", "overload"])
def test_bus_of_32_levels_matches_dense(metric):
    dists = forecasts([2, 32, 4, 2], point_mass=0)
    h_row = np.array([0.3, 0.02, -0.25, 0.5])
    threshold = float(np.median(line_levels(h_row, dists).distinct_values))
    check_against_dense(h_row, dists, metric, threshold if metric == "overload" else None)


def test_sixteen_qubit_iqae_smoke():
    h_row, dists = synthetic_grid(8)
    psi, _, est = prepared_state(h_row, dists, "mean")
    assert len(psi) == 2**16
    res = iqae(build_grover_iterate(psi), epsilon=0.01, alpha=0.05, rng_seed=7)
    assert res.ci_high - res.ci_low <= 0.02
    assert res.ci_low <= res.raw_a <= res.ci_high
    assert 0 < math.sqrt(res.raw_a) * est.scaling < 2.0


def test_oversized_study_refused():
    h_row, dists = synthetic_grid(11)
    with pytest.raises(ConfigurationError, match="at most 20"):
        prepared_state(h_row, dists, "mean")


def full_length_completion(h_row, dists, x):
    """Reference C = P R: every level, single states included, summed by one bincount over all states.

    The levels come from :func:`group_values` over the loadings enumerated here, not from the
    object under test."""
    loading = np.zeros(1)
    for h, d in zip(h_row, dists):
        loading = np.add.outer(loading, h * d.values_mw).ravel()
    _, labels, first = group_values(np.abs(loading))
    row_norms = np.sqrt(np.bincount(labels))
    inv_sqrt = 1.0 / row_norms
    wnorm2 = 2.0 - 2.0 * inv_sqrt
    gain = np.divide(2.0, wnorm2, out=np.zeros_like(wnorm2), where=row_norms > 1)
    rest = np.ones(len(labels), dtype=bool)
    rest[first] = False
    order = np.concatenate((first, np.flatnonzero(rest)))
    sums = np.bincount(labels, weights=x, minlength=len(first))
    beta = gain * (x[first] - sums * inv_sqrt)
    y = x + (beta * inv_sqrt)[labels]
    y[first] -= beta
    return y[order]


@given(grids(), st.sampled_from(["mean", "overload"]), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_completion_and_blocks_match_the_full_length_path(grid, metric, seed):
    h_row, dists = grid
    levels = line_levels(h_row, dists)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(levels.n_columns)
    psi = joint_state([encode(d) for d in dists]).amplitudes  # zeros where a bin has no mass
    for v in (x, psi):
        assert np.array_equal(levels.apply(v), full_length_completion(h_row, dists, v))

    maps = [levels.apply]
    threshold = float(np.median(levels.distinct_values)) if metric == "overload" else None
    prepared, _, _ = prepared_state(h_row, dists, metric, threshold)
    if prepared is not None:
        maps.append(build_grover_iterate(prepared).step)
    kept = x.copy()
    for f in maps:  # each leaves its input vector unchanged
        f(x)
        assert np.array_equal(x, kept)


def test_grover_set_up_applies_the_operator_once_and_no_step_applies_it(monkeypatch):
    h_row, dists = synthetic_grid(4)
    # every factor of psi = H P R prep|0> goes through these
    shapes = {"prep": [], "reflect": [], "permute": [], "H": []}
    joint_state_, reflect_ = flowmap.joint_state, flowmap._reflect
    monkeypatch.setattr(flowmap, "joint_state",
                        lambda encs: shapes["prep"].append(len(encs)) or joint_state_(encs))
    monkeypatch.setattr(flowmap, "_reflect",
                        lambda x, w, c: shapes["H"].append(x.shape) or reflect_(x, w, c))
    for name in ("reflect", "permute"):
        method = getattr(LineLevels, name)
        monkeypatch.setattr(LineLevels, name,
                            lambda self, x, _m=method, _c=shapes[name]: _c.append(x.shape) or _m(self, x))
    psi, _, _ = prepared_state(h_row, dists, "mean")
    g = build_grover_iterate(psi)
    vector = (len(psi),)
    # psi once; the Grover set-up's norm check and its rotation check's two steps apply no factor
    expected = {"prep": [4], "reflect": [vector], "permute": [vector], "H": [vector]}
    assert shapes == expected
    g.step(np.ones(vector))
    g.good_probability(7)
    assert shapes == expected


def test_probes_drawn_once_in_the_build_and_grover_set_up_reads_psi_alone(monkeypatch):
    h_row, dists = synthetic_grid(4)
    seeds, default_rng = [], np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: seeds.append(a) or default_rng(*a))
    psi, _, _ = prepared_state(h_row, dists, "mean")
    g = build_grover_iterate(psi)
    # no probe is drawn, in forming psi or in the Grover set-up
    assert not seeds
    # the iterate keeps psi itself, read-only, and nothing else of the study
    assert g.start is psi and not psi.flags.writeable
    assert vars(g).keys() == {"start", "good_state_index", "_highest"}


def test_operator_and_step_refuse_anything_but_one_vector():
    h_row, dists = synthetic_grid(3)
    psi, _, _ = prepared_state(h_row, dists, "mean")
    step = build_grover_iterate(psi).step
    for shape in ((64, 3), (64, 1), (63,)):
        with pytest.raises(ConfigurationError, match="one vector of length 64"):
            step(np.ones(shape))
    for bad in (np.column_stack([psi] * 3), psi[:, None]):
        with pytest.raises(ConfigurationError, match=r"psi must be one vector, not shape \(64, [13]\)"):
            build_grover_iterate(bad)


def test_grover_set_up_copies_a_writable_psi():
    h_row, dists = synthetic_grid(3)
    psi, _, _ = prepared_state(h_row, dists, "mean")
    mine = psi.copy()
    g = build_grover_iterate(mine)
    mine[:] = 0.0  # the caller's array stays writable, and writing it leaves the iterate alone
    assert np.array_equal(g.start, psi) and not g.start.flags.writeable


@pytest.mark.parametrize("spoil", [lambda psi: psi * (1 + 1e-10), lambda psi: np.concatenate(([np.nan], psi[1:]))],
                         ids=["scaled", "nan"])
def test_grover_set_up_refuses_a_psi_off_the_unit_sphere(spoil):
    h_row, dists = synthetic_grid(3)
    psi, _, _ = prepared_state(h_row, dists, "mean")
    # |psi.psi - 1| = 2e-10 passes the rotation check; Q is not orthogonal
    with pytest.raises(ConfigurationError, match="not unitary"):
        build_grover_iterate(spoil(psi))


@pytest.mark.parametrize("n_buses", [3, 4, 5])
def test_iqae_repeats_no_grover_step(n_buses, monkeypatch):
    h_row, dists = synthetic_grid(n_buses)
    psi, _, _ = prepared_state(h_row, dists, "mean")
    g = build_grover_iterate(psi)  # its rotation check leaves Q^2 A|0>
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
        psi, _, _ = prepared_state(h_row, dists, metric, threshold if metric == "overload" else None)
        theta = math.asin(abs(psi[-1]))
        g = build_grover_iterate(psi)
        for k in range(61):  # IQAE reaches powers of about 20 to 60
            assert abs(g.good_probability(k) - math.sin((2 * k + 1) * theta) ** 2) <= 1e-9


def test_twenty_qubit_grover_step_holds_two_state_vectors():
    h_row, dists = synthetic_grid(10)
    psi, _, _ = prepared_state(h_row, dists, "mean")
    g = build_grover_iterate(psi)
    tracemalloc.start()
    try:
        y = g.step(g.start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the step's own copy and one temporary, 8 MiB each
    assert peak / 2**20 <= 17.0
    assert abs(y[g.good_state_index] ** 2 - g.good_probability(1)) <= 1e-12


#: tracemalloc peak of this test's body, in MiB: 86.9 measured when the bound was set, plus 16
#: (two 2^20-state vectors) of margin; 72.7 since the levels keep no per-state labels
FULL_LENGTH_PEAK_MIB = 102.9


def test_twenty_qubit_study_within_the_full_length_peak():
    h_row, dists = synthetic_grid(10)
    tracemalloc.start()
    try:
        psi, _, _ = prepared_state(h_row, dists, "mean")
        res = iqae(build_grover_iterate(psi), epsilon=0.01, alpha=0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(psi) == 2**20
    assert res.ci_high - res.ci_low <= 0.02
    assert peak / 2**20 <= FULL_LENGTH_PEAK_MIB


def traced_peak(call):
    """tracemalloc peak of ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sixteen_qubit_psi_and_stage_l_peaks():
    # in arrays of 8 * 2^16 bytes; 9.17 and 7.13 measured, 10.16 and 8.02 while the levels kept a
    # per-state label array and both loading arrays until psi was formed
    state_bytes = 8 * 2**16
    h_row, dists = synthetic_grid(8)
    assert traced_peak(lambda: prepared_state(h_row, dists, "mean")) / state_bytes < 9.5
    cfg = parse_config(ring_study(8))
    assert traced_peak(lambda: stage_state(cfg, "L")) / state_bytes < 7.5


def chain_study(rng):
    """``(h_row, dists, threshold)`` with a chain of loadings under 1e-9 apart across the cut
    threshold - 1e-9, and zero-probability bins: the chain bus has unit sensitivity, and
    the other buses take the value 0 among others."""
    threshold = float(rng.uniform(0.3, 0.9))
    cut = threshold - 1e-9
    first = int(rng.integers(2))  # three consecutive offsets, gaps under 1e-9, on both sides of 0
    chain = [cut + offset for offset in (-0.9e-9, -0.3e-9, 0.2e-9, 0.8e-9)[first : first + 3]]
    dists, h_row = [], [1.0]
    weights = rng.integers(0, 3, 4).astype(float)
    weights[rng.integers(3)] += 1
    dists.append(InjectionDistribution(1, np.array([*chain, 2.0]), weights / weights.sum()))
    for bus in range(2, int(rng.integers(2, 4)) + 1):
        others = rng.choice([-0.4, -0.2, 0.1, 0.3], 1 if bus % 2 else 3, replace=False)
        values = np.sort(np.append(others, 0.0))
        weights = rng.integers(0, 3, len(values)).astype(float)
        weights[values == 0.0] += 1
        dists.append(InjectionDistribution(bus, values, weights / weights.sum()))
        h_row.append(float(rng.choice([0.5, -1.0, 1.0])))
    return np.array(h_row), dists, threshold


def assert_stage_v_reflects_stage_l(config, estimator):
    """Histogram stage V is the metric reflection H of stage L: both group the loadings alike."""
    reflected = householder_unitary(estimator.v).entries @ stage_state(config, "L").amplitudes
    assert np.max(np.abs(reflected - stage_state(config, "V").amplitudes)) <= 1e-12


def assert_amplitude_equals_the_oracle(seed, metric, monkeypatch):
    """On a chain study, the noiseless ``scaling * |psi_last|`` is the oracle's metric within 1e-12."""
    h_row, dists, threshold = chain_study(np.random.default_rng(seed))
    # the cut splits a chain
    assert line_levels(h_row, dists, cut=threshold - 1e-9).n_rows > line_levels(h_row, dists).n_rows
    metric_threshold = threshold if metric == "overload" else None
    psi, _, estimator = prepared_state(h_row, dists, metric, metric_threshold)
    exact = exact_line_distribution(h_row, dists).metric(metric, metric_threshold)
    got = 0.0 if psi is None else estimator.scaling * abs(psi[-1])
    assert got == pytest.approx(exact, rel=0, abs=1e-12)
    if psi is not None:
        # the histogram stages of the study: a star around slack bus 0 whose row is the chain's
        buses = [d.bus for d in dists]
        network = Network((0, *buses), 0, tuple(Line(0, bus, 1.0, 1.0) for bus in buses))
        analysis = AnalysisSettings("0-1", metric, threshold_pct=100 * threshold)
        monkeypatch.setattr(runner, "_analysis_inputs", lambda config: (h_row, dists))
        assert_stage_v_reflects_stage_l(PipelineConfig(network, tuple(dists), analysis), estimator)


@pytest.mark.parametrize("seed", range(30))
def test_overload_amplitude_equals_the_oracle_per_joint_state(seed, monkeypatch):
    # the quantum path counts each joint state on its side of the cut, as the oracle does
    assert_amplitude_equals_the_oracle(seed, "overload", monkeypatch)


@pytest.mark.parametrize("seed", range(30))
def test_mean_amplitude_equals_the_oracle_sum(seed, monkeypatch):
    # each level weighs in with its probability-weighted loading, so the amplitude sums
    # what the oracle sums, however close the chain's loadings lie
    assert_amplitude_equals_the_oracle(seed, "mean", monkeypatch)


def test_two_bus_chain_across_the_threshold():
    # loadings 0.5 - 1.5e-9, 0.5 - 0.7e-9 and 0.5 + 1e-10 chain into one level across the
    # cut 0.5 - 1e-9; the oracle counts the last two, and the first is 40 % of the mass
    raw = {
        "network": {"buses": [1, 2], "slack_bus": 1, "lines": [
            {"id": "1-2", "from_bus": 1, "to_bus": 2, "susceptance_pu": 1.0, "rating_mw": 1.0},
        ]},
        "injections": [{"bus": 2, "values_mw": [0.5 - 1.5e-9, 0.5 - 0.7e-9, 0.5 + 1e-10, 1.0],
                        "probabilities": [0.4, 0.2, 0.2, 0.2]}],
        "analysis": {"line": "1-2", "metric": "overload", "threshold_pct": 50,
                     "methods": ["iqae", "cmc", "exact"], "seed": 3},
    }
    config = parse_config(raw)
    report = run_analysis(config)
    assert report.exact_value == pytest.approx(0.6, abs=1e-12)
    assert report.coverage == {"iqae": True, "cmc": True}
    iqae_result = report.results["iqae"]
    assert iqae_result.ci_low <= 0.6 <= iqae_result.ci_high
    # histogram stage L splits the chain at the cut too, into three levels: the amplitudes are
    # the probabilities over their norm sqrt(0.28), and the level of 0.2 and 0.2 takes 0.4 / sqrt(2)
    expected = np.array([0.4**2, 0.4**2 / 2, 0.2**2, 0.0]) / 0.28
    assert stage_state(config, "L").probabilities() == pytest.approx(expected, abs=1e-12)
    _, _, estimator = prepared_state(*_analysis_inputs(config), "overload", 0.5)
    assert_stage_v_reflects_stage_l(config, estimator)
