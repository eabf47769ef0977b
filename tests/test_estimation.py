import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from gridqmc import (
    ConfigurationError,
    PipelineUnitary,
    UnitaryMatrix,
    apply,
    build_grover,
    build_line_pipeline,
    builtin_config_path,
    iqae,
    load_config,
    rescale,
    run_analysis,
    zero_state,
)
from gridqmc import estimation
from gridqmc.errors import EstimationFailureError
from gridqmc.estimation import (
    CLOPPER_PEARSON_CACHE_SIZE,
    MAX_SHOTS_PER_ROUND,
    EstimationResult,
    _check_rotation,
    _clopper_pearson,
    _find_next_k,
    _next_angles,
    build_grover_iterate,
)
from gridqmc.flowmap import prepared_state
from gridqmc.runner import _analysis_inputs


def rotation_oracle(a: float) -> PipelineUnitary:
    """Single-qubit preparation with good-state probability a."""
    s, c = math.sqrt(a), math.sqrt(1 - a)
    u = UnitaryMatrix(np.array([[c, -s], [s, c]]))
    return PipelineUnitary(a=u, scaling=1.0)


@pytest.fixture(scope="module")
def three_bus_grover():
    from gridqmc import builtin_config_path, load_config

    cfg = load_config(builtin_config_path("three_bus"))
    h_row, dists = _analysis_inputs(cfg)
    pipe, _, est = build_line_pipeline(h_row, dists, "mean", line=cfg.analysis.line)
    a_true = apply(pipe.a, zero_state(4)).probabilities()[pipe.good_state_index]
    return build_grover(pipe), a_true


class TestGrover:
    def test_zero_amplitude(self):
        g = build_grover(rotation_oracle(0.0))
        assert g.good_probability(3) == pytest.approx(0.0, abs=1e-12)

    def test_unit_amplitude(self):
        g = build_grover(rotation_oracle(1.0))
        assert g.good_probability(0) == pytest.approx(1.0)

    def test_quarter_amplitude_k1(self):
        # theta = pi/6: one amplification step reaches certainty
        g = build_grover(rotation_oracle(0.25))
        assert g.good_probability(1) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_check_refuses_nan(self):
        nan_after_one_step = type("Op", (), {"good_probability": lambda self, k: 0.25 if k == 0 else math.nan})
        with pytest.raises(ConfigurationError, match="rotation identity violated at k=1"):
            _check_rotation(nan_after_one_step())

    def test_phase_identity_k_up_to_5(self, three_bus_grover):
        g, a_true = three_bus_grover
        theta = math.asin(math.sqrt(a_true))
        state = apply(g.a_op.a, zero_state(g.q.n_qubits))
        for k in range(6):
            if k > 0:
                state = apply(g.q, state)
            expected = math.sin((2 * k + 1) * theta) ** 2
            assert state.probabilities()[g.good_state_index] == pytest.approx(expected, abs=1e-8)

    def test_q_is_unitary(self, three_bus_grover):
        g, _ = three_bus_grover
        q = g.q.entries
        assert np.max(np.abs(q.conj().T @ q - np.eye(g.q.dim))) < 1e-10


class TestClopperPearson:
    def test_edge_cases(self):
        lo, hi = _clopper_pearson(0, 100, 0.05)
        assert lo == 0.0 and 0 < hi < 0.05
        lo, hi = _clopper_pearson(100, 100, 0.05)
        assert hi == 1.0 and lo > 0.95

    def test_contains_point_estimate(self):
        lo, hi = _clopper_pearson(37, 100, 0.01)
        assert lo < 0.37 < hi

    def test_equals_beta_quantiles(self):
        # scipy is the test-only reference; the runtime solves the quantile itself
        from scipy import stats

        for shots in (1, 2, 7, 60, 100, 101, 200, 300, 1000, 3000, 5000):
            picks = {0, 1, 2, shots // 3, shots // 2, shots - 2, shots - 1, shots}
            for ones in sorted(k for k in picks if 0 <= k <= shots):
                for alpha in (0.5, 0.1, 0.05, 0.01, 0.05 / 7, 1e-4):
                    lo = 0.0 if ones == 0 else stats.beta.ppf(alpha / 2, ones, shots - ones + 1)
                    hi = 1.0 if ones == shots else stats.beta.ppf(1 - alpha / 2, ones + 1, shots - ones)
                    got = _clopper_pearson.__wrapped__(ones, shots, alpha)
                    assert got == pytest.approx((lo, hi), rel=1e-10, abs=0.0), (ones, shots, alpha)

    def test_endpoints_solve_binomial_tails(self):
        # independent of any library: P[X >= k | lo] = P[X <= k | hi] = alpha / 2
        def pmf(j, n, x):
            return math.comb(n, j) * x**j * (1 - x) ** (n - j)

        for shots in range(1, 61):
            for ones in range(shots + 1):
                for alpha in (0.1, 0.05, 0.01, 1e-4):
                    lo, hi = _clopper_pearson.__wrapped__(ones, shots, alpha)
                    if ones > 0:
                        upper = math.fsum(pmf(j, shots, lo) for j in range(ones, shots + 1))
                        assert abs(upper - alpha / 2) <= 1e-12, (ones, shots, alpha)
                    if ones < shots:
                        lower = math.fsum(pmf(j, shots, hi) for j in range(ones + 1))
                        assert abs(lower - alpha / 2) <= 1e-12, (ones, shots, alpha)


class TestClopperPearsonCache:
    def test_cached_endpoints_equal_the_uncached_solve(self):
        for shots in (1, 2, 100, 300, 500):
            for ones in range(shots + 1):
                for alpha in (0.05 / 6, 0.01):
                    want = [x.hex() for x in _clopper_pearson.__wrapped__(ones, shots, alpha)]
                    assert [x.hex() for x in _clopper_pearson(ones, shots, alpha)] == want
                    assert [x.hex() for x in _clopper_pearson(ones, shots, alpha)] == want

    def test_cache_size_is_the_module_constant(self):
        assert _clopper_pearson.cache_info().maxsize == CLOPPER_PEARSON_CACHE_SIZE

    def test_failed_solve_raises_and_is_not_cached(self, monkeypatch):
        key = (3, 777, 0.0123)
        _clopper_pearson.cache_clear()
        monkeypatch.setattr(estimation, "_MAX_QUANTILE_STEPS", 0)
        with pytest.raises(EstimationFailureError, match="did not converge"):
            _clopper_pearson(*key)
        monkeypatch.undo()
        assert _clopper_pearson(*key) == _clopper_pearson.__wrapped__(*key)

    @pytest.mark.parametrize("name", ["three_bus", "five_bus"])
    def test_iqae_same_from_a_cleared_and_a_warm_cache(self, name):
        from gridqmc import builtin_config_path, load_config

        cfg = load_config(builtin_config_path(name))
        an = cfg.analysis
        h_row, dists = _analysis_inputs(cfg)
        threshold = an.threshold_fraction if an.metric == "overload" else None
        psi, _, _ = prepared_state(h_row, dists, an.metric, threshold, line=an.line)
        g = build_grover_iterate(psi)
        _clopper_pearson.cache_clear()
        cold = iqae(g, an.epsilon, an.alpha, an.shots_per_round, rng_seed=an.seed)
        solved = _clopper_pearson.cache_info()
        warm = iqae(g, an.epsilon, an.alpha, an.shots_per_round, rng_seed=an.seed)
        assert _clopper_pearson.cache_info().misses == solved.misses > 0  # the warm run solved nothing
        assert repr(asdict(warm)) == repr(asdict(cold))  # every field, floats to the last bit


class TestFindNextK:
    def test_initial_interval_keeps_k0(self):
        assert _find_next_k(0, True, (0.0, 0.25)) == (0, True)

    def test_tight_interval_raises_power(self):
        k, _ = _find_next_k(0, True, (0.02, 0.021))
        assert k > 0

    def test_scaled_interval_fits_half_circle(self):
        interval = (0.0312, 0.0339)
        k, upper = _find_next_k(0, True, interval)
        scaling = 4 * k + 2
        lo = scaling * interval[0] % 1
        hi = scaling * interval[1] % 1
        if upper:
            assert lo <= hi <= 0.5
        else:
            assert 0.5 <= lo <= hi


class TestNextAngles:
    def test_rounds_without_hits_in_the_lower_half_plane_keep_the_period(self):
        # k = 4 (scaling 18), the scaled interval [5.6, 5.95] in the lower half of period 5;
        # no hit in 30 pooled shots gives p_lo = 0, so 18 * theta_u lands on the integer 6
        k, scaling = 4, 18
        p_interval = _clopper_pearson(0, 30, 0.05 / 6)
        assert p_interval[0] == 0.0
        theta = (5.6 / scaling, 5.95 / scaling)
        for _ in range(3):  # one round, then two more at the same power
            theta = _next_angles(theta, k, False, p_interval)
            assert 5.5 <= scaling * theta[0] < scaling * theta[1] <= 6.0
        assert theta[1] == pytest.approx(6 / scaling, rel=1e-15)

    def test_upper_half_plane_maps_into_the_midpoint_period(self):
        theta = _next_angles((2.1 / 10, 2.3 / 10), 2, True, (0.2, 0.3))
        assert 2.0 <= 10 * theta[0] < 10 * theta[1] <= 2.5


class TestIqae:
    def test_zero_amplitude(self):
        g = build_grover(rotation_oracle(0.0))
        res = iqae(g, epsilon=0.01, alpha=0.05, rng_seed=4)
        assert res.ci_low <= 0.0 <= res.ci_high
        assert res.ci_high - res.ci_low <= 0.02

    def test_known_amplitude_coverage(self):
        g = build_grover(rotation_oracle(0.25))
        hits = 0
        for seed in range(200):
            res = iqae(g, epsilon=0.01, alpha=0.05, rng_seed=seed)
            assert res.ci_high - res.ci_low <= 0.02
            hits += res.ci_low <= 0.25 <= res.ci_high
        assert hits / 200 >= 0.95

    @pytest.mark.parametrize("name", ["three_bus", "five_bus"])
    @pytest.mark.parametrize("metric", ["mean", "overload"])
    def test_five_shots_per_round_coverage(self, name, metric):
        # criterion 4 at 5 shots a round: no run stops at max_rounds (its EstimationFailureError
        # fails the test), and the interval misses the exact value in 0-4 of the 200 runs.  At
        # 3 shots, 20 three_bus and 2 five_bus mean runs of 200 stop at max_rounds
        base = load_config(builtin_config_path(name))
        hits = 0
        for seed in range(200):
            an = replace(base.analysis, metric=metric, threshold_pct=90.0, methods=("iqae", "exact"),
                         shots_per_round=5, seed=seed)
            hits += run_analysis(replace(base, analysis=an)).coverage["iqae"]
        assert hits / 200 >= 0.93

    def test_inverted_interval_is_an_estimation_failure(self, three_bus_grover, monkeypatch):
        # an angle update that puts theta_l above theta_u is the loop's fault, not the study's
        g, _ = three_bus_grover
        monkeypatch.setattr(estimation, "_next_angles", lambda *args: (0.2, 0.1))
        with pytest.raises(EstimationFailureError, match="inverted interval") as info:
            iqae(g, epsilon=0.01, alpha=0.05, rng_seed=3)
        a_l, a_u = info.value.partial_interval
        assert (a_l, a_u) == (math.sin(0.4 * math.pi) ** 2, math.sin(0.2 * math.pi) ** 2)

    def test_default_pipeline_interval_and_accounting(self, three_bus_grover):
        g, a_true = three_bus_grover
        res = iqae(g, epsilon=0.01, alpha=0.05, rng_seed=3)
        assert res.ci_low <= a_true <= res.ci_high
        assert 0 < res.shots_total < 5000
        assert res.oracle_applications >= res.shots_total

    def test_deterministic_for_seed(self, three_bus_grover):
        g, _ = three_bus_grover
        r1 = iqae(g, 0.01, 0.05, rng_seed=42)
        r2 = iqae(g, 0.01, 0.05, rng_seed=42)
        assert r1 == r2

    def test_parameter_validation(self, three_bus_grover):
        g, _ = three_bus_grover
        with pytest.raises(ConfigurationError):
            iqae(g, epsilon=0.3, alpha=0.05)
        with pytest.raises(ConfigurationError):
            iqae(g, epsilon=0.01, alpha=1.5)
        with pytest.raises(ConfigurationError):
            iqae(g, epsilon=0.01, alpha=0.05, shots_per_round=0)
        with pytest.raises(ConfigurationError, match=r"shots_per_round must lie in \[1, 1000\]"):
            iqae(g, epsilon=0.01, alpha=0.05, shots_per_round=MAX_SHOTS_PER_ROUND + 1)


class TestRescale:
    def result(self, raw_a, lo, hi):
        return EstimationResult(
            method="iqae", raw_a=raw_a, metric_value=raw_a, ci_low=lo, ci_high=hi,
            shots_total=100, oracle_applications=100, epsilon=0.01, alpha=0.05, seed=0,
        )

    def test_reported_probability_pair(self):
        # the two published estimates share one scaling constant
        scaling = 46.27478 / math.sqrt(0.1885)
        r = rescale(self.result(0.0571, 0.0571, 0.0571), scaling)
        assert r.metric_value == pytest.approx(25.47673, rel=2e-3)

    def test_zero(self):
        r = rescale(self.result(0.0, 0.0, 0.0), 12.3)
        assert r.metric_value == 0.0

    def test_monotone_interval(self):
        r = rescale(self.result(0.2, 0.15, 0.25), 2.0)
        assert r.ci_low == pytest.approx(math.sqrt(0.15) * 2)
        assert r.ci_high == pytest.approx(math.sqrt(0.25) * 2)
        assert r.ci_low <= r.metric_value <= r.ci_high
