import bisect
import itertools
import math
import tracemalloc
from fractions import Fraction

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
from gridqmc import classical
from gridqmc.classical import MAX_CMC_SAMPLES, _critical_value, _draw_loading
from gridqmc.errors import ConfigurationError, EnumerationBoundError
from gridqmc.runner import _analysis_inputs
from tests.references import joint_states, stable_sort_reference
from tests.studies import FORECAST_PROBS, random_distribution, synthetic_grid


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


def choice_loading(rng, h_row, dists, n):
    """|loading| at ``n`` draws, each bus drawn by ``Generator.choice``."""
    loading = np.zeros(n)
    for h, d in zip(h_row, dists):
        loading += h * rng.choice(d.values_mw, size=n, p=d.probabilities)
    return np.abs(loading)


def rational_states(h_row, dists):
    """Exact |loading| and mass of every joint state as Fractions of the same float
    inputs: each bus's ``h * values_mw`` and probabilities, as the oracle forms them."""
    loading, mass = [Fraction(0)], [Fraction(1)]
    for h, d in zip(np.asarray(h_row, float), dists):
        terms = [Fraction(x) for x in (h * d.values_mw).tolist()]
        probs = [Fraction(p) for p in d.probabilities.tolist()]
        loading = [x + y for x in loading for y in terms]
        mass = [m * p for m in mass for p in probs]
    return [abs(x) for x in loading], mass


def rounding_bound(dists, scale=1.0):
    """Bound on the gap between the oracle's mean, or an overload probability,
    and the same sum in exact arithmetic.

    First order in the unit roundoff u = 2^-53: every loading is a sum of one
    rounded term per bus and at most two more additions, every mass a product
    of one factor per bus, and the sum runs over at most ``n_states`` terms
    with at most four more roundings, so the gap is at most
    (n_states + 2 n_buses + 4) u ``scale``; ``scale`` is 1 for a probability
    and :func:`loading_scale` for the mean.  The bound returned doubles that
    for the second-order terms.  It holds for any summation order, so for the
    one-array enumeration and for the two halves alike.
    """
    n_states = math.prod(len(d.values_mw) for d in dists)
    return 2 * (n_states + 2 * len(dists) + 4) * 2.0**-53 * scale


def loading_scale(h_row, dists):
    """The largest |loading| any joint state can reach: the sum over buses of max |h v|, at least 1."""
    return max(1.0, sum(float(np.max(np.abs(h * d.values_mw))) for h, d in zip(h_row, dists)))


def assert_moments_rational(ex, h_row, dists):
    """Mean within :func:`rounding_bound` of the exact mean, and std^2 within
    4 S times that of the exact variance, S = :func:`loading_scale`: each
    deviation |loading - mean| is off by at most twice the mean's bound, and
    is at most S."""
    loading, mass = rational_states(h_row, dists)
    mean = sum(m * x for m, x in zip(mass, loading))
    var = sum(m * (x - mean) ** 2 for m, x in zip(mass, loading))
    scale = loading_scale(h_row, dists)
    bound = rounding_bound(dists, scale)
    assert abs(Fraction(ex.mean) - mean) <= bound
    assert abs(Fraction(ex.std) ** 2 - var) <= 4 * scale * bound


def rational_overload(h_row, dists):
    """``P(cut)``: the exact mass of the states whose exact |loading| >= cut, a Fraction."""
    pairs = sorted(zip(*rational_states(h_row, dists)))
    above = list(itertools.accumulate((m for _, m in reversed(pairs)), initial=Fraction(0)))[::-1]
    keys = [x for x, _ in pairs]
    return lambda cut: above[bisect.bisect_left(keys, Fraction(cut))]


def threshold_cutting_at(cut):
    """A threshold t whose float t - 1e-9 is ``cut`` exactly, or None: near a power
    of two, t - 1e-9 can step over ``cut``."""
    t = cut + 1e-9
    for _ in range(4):
        if t - 1e-9 == cut:
            return t
        t = np.nextafter(t, np.inf if t - 1e-9 < cut else -np.inf)
    return None


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
        # the levels the tests compare the quantum path with, and the oracle's moments
        ex = exact_line_distribution(h_row, dists)
        values, probs, mean, std = enumerate_states(h_row, dists)
        ref_values, ref_probs = stable_sort_reference(h_row, dists)
        assert len(ref_values) == len(values)
        assert np.allclose(ref_values, values, rtol=0, atol=1e-12)
        assert np.allclose(ref_probs, probs, rtol=0, atol=1e-12)
        assert ex.mean == pytest.approx(mean, rel=0, abs=1e-12)
        assert ex.std == pytest.approx(std, rel=0, abs=1e-12)

    @given(tied_grids())
    @settings(max_examples=150, deadline=None)
    def test_moments_within_rounding_of_the_exact_sums(self, grid):
        h_row, dists = grid
        assert_moments_rational(exact_line_distribution(h_row, dists), h_row, dists)

    @given(tied_grids())
    @settings(max_examples=150, deadline=None)
    def test_overload_sums_states_over_threshold(self, grid):
        # thresholds on every loading and on the 0.1 grid the tied loadings sit on
        h_row, dists = grid
        ex = exact_line_distribution(h_row, dists)
        loading, _ = joint_states(h_row, dists)
        # every exact loading lies within rounding of a multiple of 0.1, so no cut here
        # falls within rounding of a loading, and the states counted are fixed
        exact = rational_overload(h_row, dists)
        bound = rounding_bound(dists)
        for t in (*np.unique(loading), *(k * 0.1 for k in range(-1, 202))):
            assert abs(Fraction(ex.overload_probability(t)) - exact(t - 1e-9)) <= bound

    def test_metric_path_sorts_nothing(self):
        # 2^20 joint states: one per-state array would take 8 MiB; each half holds 2^10 states
        h_row, dists = synthetic_grid(10)
        tracemalloc.start()
        try:
            ex = exact_line_distribution(h_row, dists)
            ex.metric("overload", 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20
        assert "_moments" not in vars(ex)

    def test_moments_form_one_matrix(self):
        # mean and std: one 2^10 x 2^10 |head + tail| matrix of 8 MiB, reused in place
        h_row, dists = synthetic_grid(10)
        ex = exact_line_distribution(h_row, dists)
        tracemalloc.start()
        try:
            ex.metric("mean")
            assert ex.std > 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 9 * 2**20

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
        assert ex.mean == 2.0
        assert ex.overload_probability(2.0) == 1.0
        assert ex.overload_probability(2.5) == 0.0
        assert ex.std == 0.0

    def test_uniform_triangular(self):
        ex = exact_line_distribution([1.0, 1.0], [uniform(1), uniform(2)])
        # P(loading >= k) on the loadings 0..6 and between them
        tails = np.cumsum(np.array([1, 2, 3, 4, 3, 2, 1])[::-1])[::-1] / 16
        assert [ex.overload_probability(k) for k in range(7)] == pytest.approx(tails)
        assert [ex.overload_probability(k + 0.5) for k in range(7)] == pytest.approx([*tails[1:], 0.0])
        assert ex.mean == pytest.approx(3.0)

    def test_forecast_mean_by_linearity(self):
        ex = exact_line_distribution([1.0, 1.0], [forecast(1), forecast(2)])
        single_mean = sum(v * p for v, p in zip([0, 1, 2, 3], FORECAST_PROBS))
        assert ex.mean == pytest.approx(2 * single_mean, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
            h_row = rng.uniform(-1, 1, 2)
            ex = exact_line_distribution(h_row, dists)
            assert ex.overload_probability(0.0) == pytest.approx(1.0, abs=1e-12)
            tails = [ex.overload_probability(t) for t in np.unique(joint_states(h_row, dists)[0])]
            assert np.all(np.diff(tails) < 0)


def dist(bus, values, probs):
    return InjectionDistribution(bus, np.asarray(values, float), np.asarray(probs, float))


SPLIT_GRIDS = {
    # one bus: the head is empty
    "one_bus": ([0.3], [dist(0, [-2, -1, 1, 3], [0.1, 0.2, 0.3, 0.4])]),
    # a 16-level bus beside three 2-level buses: the head is the wide bus alone, 4 of 7 qubits
    "uneven": ([0.07, -0.2, 0.15, 0.1], [
        dist(0, np.arange(16) - 7, np.arange(16) / 120), dist(1, [0, 2], [0.3, 0.7]),
        dist(2, [-1, 1], [0.5, 0.5]), dist(3, [-3, 4], [0.9, 0.1]),
    ]),
    # zero-probability bins in both halves, chains of equal loadings across them
    "zero_bins": ([0.1, 0.2, -0.1, 0.3], [
        dist(0, [-2, -1, 1, 2], [0.0, 0.5, 0.5, 0.0]), dist(1, [0, 1], [1.0, 0.0]),
        dist(2, [-1, 1, 2, 3], [0.25, 0.0, 0.5, 0.25]), dist(3, [-1, 0], [0.6, 0.4]),
    ]),
    # multiples of 1/8: every sum is exact, so a state can sit exactly on the cut
    "dyadic": ([0.5, -0.25, 0.125], [
        dist(0, [-3, -1, 1, 3], [0.1, 0.2, 0.3, 0.4]), dist(1, [0, 2], [0.5, 0.5]),
        dist(2, [-4, -2, 0, 6], [0.25, 0.0, 0.5, 0.25]),
    ]),
}

#: sign-symmetric loadings: every state of positive probability loads the line by the same |c|
SIGMA_ZERO_GRIDS = {
    "one_bus": (0.7, [0.7], [dist(0, [-1, 1], [0.5, 0.5])]),
    "head_symmetric": (0.6, [0.3, 0.0, 0.0], [dist(0, [-2, 2], [0.5, 0.5]), dist(1, [-1, 4], [0.25, 0.75]),
                                              dist(2, [0, 1], [0.6, 0.4])]),
    "tail_symmetric": (0.45, [0.0, 0.45, 0.0], [dist(0, [-1, 1], [0.3, 0.7]), dist(1, [-1, 1], [0.5, 0.5]),
                                                dist(2, [0, 1], [0.2, 0.8])]),
    # the zero-probability bins load the line by 0.9
    "zero_bins": (0.3, [0.3, 0.0], [dist(0, [-3, -1, 1, 3], [0.0, 0.4, 0.6, 0.0]), dist(1, [0, 1], [0.5, 0.5])]),
}


class TestTwoHalves:
    @pytest.mark.parametrize("name", SPLIT_GRIDS)
    def test_equals_references(self, name):
        h_row, dists = SPLIT_GRIDS[name]
        ex = exact_line_distribution(h_row, dists)
        loading, _ = joint_states(h_row, dists)
        assert_moments_rational(ex, h_row, dists)
        exact, bound = rational_overload(h_row, dists), rounding_bound(dists)
        for t in (*np.unique(loading), 0.0, 1e-9, 10.0):  # on every loading, and every state or none
            assert abs(Fraction(ex.overload_probability(t)) - exact(t - 1e-9)) <= bound

    @pytest.mark.parametrize("name, head_states",
                             [("one_bus", 1), ("uneven", 16), ("zero_bins", 8), ("dyadic", 4)])
    def test_cut_nearest_half_the_qubits(self, name, head_states):
        ex = exact_line_distribution(*SPLIT_GRIDS[name])
        assert len(ex.head_loading) == len(ex.head_mass) == head_states
        assert len(ex.head_loading) * len(ex.tail_loading) == len(joint_states(*SPLIT_GRIDS[name])[0])

    def test_threshold_at_the_tolerance_edge(self):
        # a state whose loading equals threshold - 1e-9 counts; with the cut one ulp higher, it does not
        h_row, dists = SPLIT_GRIDS["dyadic"]
        ex = exact_line_distribution(h_row, dists)
        exact = rational_overload(h_row, dists)
        loading, mass = joint_states(h_row, dists)
        levels = np.unique(loading[mass > 0])
        checked = 0
        for level in levels[levels > 0]:
            cuts = (level, np.nextafter(level, np.inf))
            thresholds = [threshold_cutting_at(cut) for cut in cuts]
            if None in thresholds:
                continue
            for cut, t in zip(cuts, thresholds):
                assert abs(Fraction(ex.overload_probability(t)) - exact(cut)) <= rounding_bound(dists)
                state_by_state = mass[loading >= t - 1e-9].sum()
                assert ex.overload_probability(t) == pytest.approx(state_by_state, rel=0, abs=1e-15)
            assert exact(cuts[0]) - exact(cuts[1]) > 0.01  # the level's own mass
            checked += 1
        assert checked >= 5

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
    def test_threshold_not_finite_refused(self, threshold):
        ex = exact_line_distribution(*SPLIT_GRIDS["uneven"])
        with pytest.raises(ConfigurationError, match="must be finite"):
            ex.overload_probability(threshold)

    @pytest.mark.parametrize("name", SIGMA_ZERO_GRIDS)
    def test_sign_symmetric_std_is_zero(self, name):
        c, h_row, dists = SIGMA_ZERO_GRIDS[name]
        ex = exact_line_distribution(h_row, dists)
        assert ex.mean == pytest.approx(c, rel=0, abs=1e-15)
        assert ex.std <= 1e-12
        assert_moments_rational(ex, h_row, dists)


class TestRequiredSamples:
    def test_published_three_bus_count(self):
        assert required_samples(0.754, 0.01, 0.05) == 21_840

    def test_published_five_bus_count(self):
        assert required_samples(0.722, 0.01, 0.05) == 20_026

    def test_zero_sigma(self):
        assert required_samples(0.0, 0.01, 0.05) == 0

    def test_budget_over_the_limit_refused(self):
        assert MAX_CMC_SAMPLES == 2**24
        # the largest sigma the limit grants at epsilon 0.01 passes, a little more does not
        sigma = 0.01 * math.sqrt(MAX_CMC_SAMPLES) / 1.96
        assert required_samples(sigma * (1 - 1e-9), 0.01, 0.05) == MAX_CMC_SAMPLES
        for sigma_n, epsilon in ((sigma * 1.0001, 0.01), (0.5, 1e-200), (math.inf, 0.01), (math.nan, 0.01)):
            with pytest.raises(ConfigurationError, match=r"Monte Carlo budget of .* over the limit of 16777216"):
                required_samples(sigma_n, epsilon, 0.05)

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

    @pytest.mark.parametrize("seed", [0, 1, 7, 123])
    def test_draws_equal_generator_choice(self, seed):
        # buses of 1 to 32 levels, zero-probability levels among them; a one-level bus still
        # spends its n uniforms, so every later bus sees choice's stream.  The widest counted
        # bus and the next power of two bracket the counting bound, and the first bus's cut
        # point is the first uniform it draws
        rng = np.random.default_rng(seed)
        first_u = np.random.default_rng(seed).random()
        dists = [InjectionDistribution(0, np.array([-3.0, 5.0]), np.array([first_u, 1 - first_u]))]
        wide = classical._COUNT_LEVELS
        for bus, k in enumerate((1, 2, 4, wide, 2 * wide, 4, 1, 2), start=1):
            weights = rng.random(k) * (rng.random(k) < 0.7)
            weights[rng.integers(k)] += 0.1
            dists.append(InjectionDistribution(bus, np.sort(rng.choice(200, k, replace=False)) * 0.5,
                                               weights / weights.sum()))
        h_row = rng.uniform(-1, 1, len(dists))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for n in (1, 5, 1000, 1000, 20_000):  # consecutive calls on one generator
            assert np.array_equal(_draw_loading(ours, h_row, dists, n), choice_loading(ref, h_row, dists, n))

    @pytest.mark.parametrize("name", ["three_bus", "five_bus"])
    @pytest.mark.parametrize("metric", ["mean", "overload"])
    def test_result_equals_choice_reference(self, name, metric, monkeypatch):
        h_row, dists = _analysis_inputs(load_config(builtin_config_path(name)))
        args = (h_row, dists, metric, 0.01, 0.05)
        kwargs = dict(rng_seed=3, threshold=0.9 if metric == "overload" else None)
        result = classical_mc(*args, **kwargs)
        monkeypatch.setattr(classical, "_draw_loading", choice_loading)
        assert result == classical_mc(*args, **kwargs)

    @pytest.mark.parametrize("kind", ["uniform", "zero_one", "constant"])
    @pytest.mark.parametrize("n", [2, 3, 8, 9, 127, 128, 129, 1000, 4097, 65_537, 2**20])
    def test_statistics_equal_ndarray_mean_and_std(self, kind, n, monkeypatch):
        # fixed samples in place of the draws: the estimate and the interval are those of
        # ndarray.mean() and ndarray.std(ddof=1), bit for bit, across numpy's pairwise blocks
        dists = [forecast(1), forecast(2)]
        metric, threshold = ("overload", 1.0) if kind == "zero_one" else ("mean", None)
        loading = {"uniform": np.random.default_rng(n).random(n),
                   "zero_one": np.where(np.random.default_rng(n).random(n) < 0.3, 2.0, 0.0),
                   "constant": np.full(n, 0.3)}[kind]
        monkeypatch.setattr(classical, "_draw_loading", lambda rng, h_row, dists, m: loading.copy())
        samples = loading if metric == "mean" else (loading >= 1.0 - 1e-9).astype(float)
        exact = exact_line_distribution([0.4, 0.6], dists)
        value = exact.metric(metric, threshold)
        sigma = exact.std if metric == "mean" else math.sqrt(value * (1 - value))
        res = classical_mc([0.4, 0.6], dists, metric, 1.96 * sigma / math.sqrt(n), 0.05,
                           rng_seed=0, threshold=threshold)
        assert res.shots_total == n
        estimate, margin = float(samples.mean()), 1.96 * float(samples.std(ddof=1)) / math.sqrt(n)
        assert (res.metric_value, res.ci_low, res.ci_high) == (estimate, estimate - margin, estimate + margin)

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
