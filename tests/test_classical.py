import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridqmc import (
    InjectionDistribution,
    builtin_config_path,
    classical_mc,
    exact_line_distribution,
    load_config,
    required_samples,
)
from gridqmc.classical import _critical_value
from gridqmc.errors import EnumerationBoundError
from gridqmc.runner import _analysis_inputs
from tests.conftest import FORECAST_PROBS, random_distribution, synthetic_grid


def forecast(bus):
    return InjectionDistribution(bus=bus, values_mw=[0, 1, 2, 3], probabilities=FORECAST_PROBS)


def uniform(bus):
    return InjectionDistribution(bus=bus, values_mw=[0, 1, 2, 3], probabilities=[0.25] * 4)


def enumerate_states(h_row, dists, tol=1e-9):
    """Brute-force oracle: one joint state at a time, in Python floats.

    Zero-mass states are dropped; a level is a chain of sorted values whose
    consecutive gaps are at most ``tol``, valued at its mass-weighted mean.
    """
    pairs = []
    for combo in itertools.product(*(range(len(d.values_mw)) for d in dists)):
        loading = sum(h * d.values_mw[j] for h, d, j in zip(h_row, dists, combo))
        prob = math.prod(d.probabilities[j] for d, j in zip(dists, combo))
        if prob > 0:
            pairs.append((abs(loading), prob))
    pairs.sort()
    levels = []
    for i, pair in enumerate(pairs):
        if i == 0 or pair[0] - pairs[i - 1][0] > tol:
            levels.append([])
        levels[-1].append(pair)
    probs = np.array([sum(p for _, p in level) for level in levels])
    values = np.array([sum(v * p for v, p in level) for level in levels]) / probs
    mean = values @ probs
    return values, probs, mean, math.sqrt(((values - mean) ** 2) @ probs)


def joint_states(h_row, dists):
    """|loading| and mass of every joint state, first bus most significant."""
    loading, mass = np.zeros(1), np.ones(1)
    for h, d in zip(h_row, dists):
        loading = np.add.outer(loading, h * d.values_mw).ravel()
        mass = np.multiply.outer(mass, d.probabilities).ravel()
    return np.abs(loading), mass


def stable_sort_reference(h_row, dists, tol=1e-9):
    """The oracle's enumeration with a stable argsort: equal loadings keep
    their enumeration order, so every level sums its mass in that order.
    Mean and std are the direct sums over the joint states."""
    loading, mass = joint_states(h_row, dists)
    mean = float(loading @ mass)
    std = math.sqrt(float(((loading - mean) ** 2) @ mass))
    keep = mass > 0.0
    loading, mass = loading[keep], mass[keep]
    order = np.argsort(loading, kind="stable")
    loading, mass = loading[order], mass[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(loading) > tol) + 1))
    probs = np.add.reduceat(mass, starts)
    values = np.add.reduceat(loading * mass, starts) / probs
    return values, probs, mean, std


@st.composite
def tied_grids(draw):
    """At most 10 qubits; h in multiples of 0.1 on integer MW levels ties
    loadings exactly, and zero weights give zero-probability bins."""
    h_row, dists = [], []
    for bus in range(draw(st.integers(1, 5))):
        n_bins = 2 ** draw(st.integers(1, 2))
        values = draw(st.lists(st.integers(-4, 4), min_size=n_bins, max_size=n_bins, unique=True))
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=n_bins, max_size=n_bins).filter(any)))
        h_row.append(draw(st.integers(-10, 10)) * 0.1)
        dists.append(InjectionDistribution(bus, sorted(values), weights / weights.sum()))
    return h_row, dists


class TestExactDistribution:
    @given(tied_grids())
    @settings(max_examples=150, deadline=None)
    def test_matches_state_by_state_enumeration(self, grid):
        h_row, dists = grid
        ex = exact_line_distribution(h_row, dists)
        values, probs, mean, std = enumerate_states(h_row, dists)
        assert len(ex.values) == len(values)
        assert np.allclose(ex.values, values, rtol=0, atol=1e-12)
        assert np.allclose(ex.probabilities, probs, rtol=0, atol=1e-12)
        assert ex.mean == pytest.approx(mean, rel=0, abs=1e-12)
        assert ex.std == pytest.approx(std, rel=0, abs=1e-12)

    @given(tied_grids())
    @settings(max_examples=150, deadline=None)
    def test_equals_stable_sort_reference(self, grid):
        h_row, dists = grid
        ex = exact_line_distribution(h_row, dists)
        values, probs, mean, std = stable_sort_reference(h_row, dists)
        assert np.array_equal(ex.values, values)
        assert np.array_equal(ex.probabilities, probs)
        assert (ex.mean, ex.std) == (mean, std)

    @given(tied_grids())
    @settings(max_examples=150, deadline=None)
    def test_overload_sums_states_over_threshold(self, grid):
        # thresholds on every loading and on the 0.1 grid the tied loadings sit on
        h_row, dists = grid
        ex = exact_line_distribution(h_row, dists)
        loading, mass = joint_states(h_row, dists)
        for t in (*np.unique(loading), *(k * 0.1 for k in range(-1, 202))):
            assert ex.overload_probability(t) == mass[loading >= t - 1e-9].sum()

    def test_metric_path_sorts_nothing(self):
        # 2^20 joint states: |loading| and mass take 8 MiB each; the sort onto levels peaks near 64 MiB
        h_row, dists = synthetic_grid(10)
        tracemalloc.start()
        try:
            ex = exact_line_distribution(h_row, dists)
            ex.metric("overload", 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20
        assert "_levels" not in vars(ex)

    def test_bound_checked_before_enumerating(self):
        # 2^21 joint states: one enumerated array alone would take 16 MiB
        dists = [InjectionDistribution(bus=b, values_mw=[0, 1], probabilities=[0.5, 0.5]) for b in range(21)]
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationBoundError, match="2097152 joint states"):
                exact_line_distribution(np.full(21, 0.1), dists)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_point_mass_pair(self):
        dists = [
            InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=[0, 1, 0, 0]),
            InjectionDistribution(bus=2, values_mw=[0, 1, 2, 3], probabilities=[0, 1, 0, 0]),
        ]
        ex = exact_line_distribution([1.0, 1.0], dists)
        assert np.array_equal(ex.values, [2.0])
        assert np.array_equal(ex.probabilities, [1.0])
        assert ex.std == 0.0

    def test_uniform_triangular(self):
        ex = exact_line_distribution([1.0, 1.0], [uniform(1), uniform(2)])
        assert np.array_equal(ex.values, np.arange(7))
        assert ex.probabilities == pytest.approx(np.array([1, 2, 3, 4, 3, 2, 1]) / 16)
        assert ex.mean == pytest.approx(3.0)

    def test_forecast_mean_by_linearity(self):
        ex = exact_line_distribution([1.0, 1.0], [forecast(1), forecast(2)])
        single_mean = sum(v * p for v, p in zip([0, 1, 2, 3], FORECAST_PROBS))
        assert ex.mean == pytest.approx(2 * single_mean, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
            ex = exact_line_distribution(rng.uniform(-1, 1, 2), dists)
            assert ex.probabilities.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(np.diff(ex.values) > 0)


class TestRequiredSamples:
    def test_published_three_bus_count(self):
        assert required_samples(0.754, 0.01, 0.05) == 21_840

    def test_published_five_bus_count(self):
        assert required_samples(0.722, 0.01, 0.05) == 20_026

    def test_zero_sigma(self):
        assert required_samples(0.0, 0.01, 0.05) == 0

    def test_critical_value_is_normal_quantile(self):
        from scipy import stats

        assert _critical_value(0.05) == 1.96
        for alpha in (0.1, 0.01, 0.05 / 7, 1e-4):
            assert _critical_value(alpha) == pytest.approx(stats.norm.ppf(1 - alpha / 2), rel=1e-15)

    @given(
        st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(0.001, 0.1), st.floats(0.001, 0.1)
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, s1, s2, e1, e2):
        lo_s, hi_s = sorted([s1, s2])
        lo_e, hi_e = sorted([e1, e2])
        assert required_samples(lo_s, 0.01, 0.05) <= required_samples(hi_s, 0.01, 0.05)
        assert required_samples(0.5, hi_e, 0.05) <= required_samples(0.5, lo_e, 0.05)


class TestClassicalMc:
    def test_point_mass_deterministic(self):
        dists = [
            InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=[0, 0, 1, 0]),
        ]
        res = classical_mc([1.0], dists, "mean", epsilon=0.01, alpha=0.05, rng_seed=0)
        assert res.metric_value == pytest.approx(2.0)
        assert res.ci_low == res.ci_high == res.metric_value
        assert res.shots_total == 0

    def test_overload_above_max(self):
        res = classical_mc(
            [1.0, 1.0], [forecast(1), forecast(2)], "overload",
            epsilon=0.01, alpha=0.05, rng_seed=0, threshold=100.0,
        )
        assert res.metric_value == 0.0

    def test_mean_coverage_vs_exact(self):
        dists = [forecast(1), forecast(2)]
        ex = exact_line_distribution([1.0, -1.0], dists)
        hits = 0
        for seed in range(100):
            res = classical_mc([1.0, -1.0], dists, "mean", 0.01, 0.05, rng_seed=seed)
            hits += res.ci_low <= ex.mean <= res.ci_high
        assert hits / 100 >= 0.93

    def test_one_sample_budget_answered(self):
        # round(1.96^2 p (1 - p) / 0.01^2) = 1: no sample deviation exists
        dist = InjectionDistribution(bus=1, values_mw=[0, 1], probabilities=[1 - 2.6e-5, 2.6e-5])
        res = classical_mc([1.0], [dist], "overload", 0.01, 0.05, rng_seed=1, threshold=1.0)
        assert res.shots_total == 1
        assert np.isfinite(res.ci_low) and np.isfinite(res.ci_high)
        assert res.ci_low <= res.metric_value <= res.ci_high

    def test_threshold_on_level_counts_as_overload(self):
        # 0.3 * 3 evaluates to 0.8999999999999999
        dist = InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=[0.1, 0.2, 0.3, 0.4])
        assert exact_line_distribution([0.3], [dist]).overload_probability(0.9) == pytest.approx(0.4)
        res = classical_mc([0.3], [dist], "overload", 0.01, 0.05, rng_seed=0, threshold=0.9)
        assert res.ci_low <= 0.4 <= res.ci_high

    @pytest.mark.parametrize("name", ["three_bus", "five_bus"])
    @pytest.mark.parametrize("metric", ["mean", "overload"])
    def test_given_distribution_equals_own_enumeration(self, name, metric):
        h_row, dists = _analysis_inputs(load_config(builtin_config_path(name)))
        exact = exact_line_distribution(h_row, dists)
        args = (h_row, dists, metric, 0.01, 0.05)
        kwargs = dict(rng_seed=4, threshold=0.9 if metric == "overload" else None)
        assert classical_mc(*args, **kwargs, exact=exact) == classical_mc(*args, **kwargs)

    def test_given_distribution_threshold_on_level(self):
        dist = InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=[0.1, 0.2, 0.3, 0.4])
        exact = exact_line_distribution([0.3], [dist])
        args = ([0.3], [dist], "overload", 0.01, 0.05)
        alone = classical_mc(*args, rng_seed=0, threshold=0.9)
        assert classical_mc(*args, rng_seed=0, threshold=0.9, exact=exact) == alone
        assert alone.ci_low <= 0.4 <= alone.ci_high

    def test_seed_reproducibility(self):
        dists = [forecast(1), forecast(2)]
        r1 = classical_mc([0.4, 0.6], dists, "mean", 0.01, 0.05, rng_seed=12)
        r2 = classical_mc([0.4, 0.6], dists, "mean", 0.01, 0.05, rng_seed=12)
        assert r1 == r2

    def test_rmse_scaling_with_sample_count(self):
        # quadrupling the sample count should halve the RMSE, within slack
        dists = [forecast(1), forecast(2)]
        h = [1.0, -1.0]
        ex = exact_line_distribution(h, dists)
        errors = {1.0: [], 2.0: []}  # epsilon halving quadruples N
        for factor in errors:
            for seed in range(50):
                res = classical_mc(h, dists, "mean", 0.01 * factor, 0.05, rng_seed=seed)
                errors[factor].append((res.metric_value - ex.mean) ** 2)
        rmse_small_n = np.sqrt(np.mean(errors[2.0]))
        rmse_large_n = np.sqrt(np.mean(errors[1.0]))
        assert rmse_small_n / rmse_large_n == pytest.approx(2.0, rel=0.25)


class TestQuantumClassicalAgreement:
    def test_exact_matches_quantum_path(self):
        from gridqmc import apply, build_line_pipeline, zero_state

        rng = np.random.default_rng(8)
        for _ in range(20):
            dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
            h = rng.uniform(-1, 1, 2)
            ex = exact_line_distribution(h, dists)
            pipe, _, est = build_line_pipeline(h, dists, "mean")
            amp = apply(pipe.a, zero_state(4)).amplitudes[pipe.good_state_index].real
            assert amp * est.scaling == pytest.approx(ex.mean, abs=1e-9)
