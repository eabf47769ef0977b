import numpy as np
import pytest

from gridqmc import (
    ConfigurationError,
    StateVector,
    UnitaryMatrix,
    apply,
    build_line_pipeline,
    encode,
    joint_state,
    sample_counts,
    zero_state,
)
from gridqmc.injection import InjectionDistribution
from gridqmc.simulator import MAX_SHOTS
from tests.studies import FORECAST_PROBS, random_distribution


def forecast(bus=1):
    return InjectionDistribution(bus=bus, values_mw=[0, 1, 2, 3], probabilities=FORECAST_PROBS)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ConfigurationError):
            StateVector(1, np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amplitudes", [[np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0]])
    def test_non_finite_amplitudes_refused(self, amplitudes):
        with pytest.raises(ConfigurationError, match="not normalized"):
            StateVector(1, amplitudes)

    def test_dimension_enforced(self):
        with pytest.raises(ConfigurationError):
            StateVector(2, np.array([1.0, 0.0]))

    def test_qubit_cap(self):
        with pytest.raises(ConfigurationError):
            StateVector(21, np.zeros(2**21))

    def test_real_amplitudes(self):
        assert StateVector(1, [0, 1]).amplitudes.dtype == np.float64
        with pytest.raises(ConfigurationError, match="real"):
            StateVector(1, np.array([1.0, 0.0], dtype=complex))

    def test_caller_array_left_writable(self):
        amps = np.array([1.0, 0.0])
        state = StateVector(1, amps)
        assert amps.flags.writeable and not state.amplitudes.flags.writeable
        amps[:] = [0.0, 1.0]
        assert np.array_equal(state.amplitudes, [1.0, 0.0])


class TestUnitary:
    def test_non_unitary_rejected(self):
        with pytest.raises(ConfigurationError):
            UnitaryMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]))

    def test_non_square_power_of_two(self):
        with pytest.raises(ConfigurationError):
            UnitaryMatrix(np.eye(3))

    def test_real_entries(self):
        assert UnitaryMatrix(np.eye(2, dtype=int)).entries.dtype == np.float64
        with pytest.raises(ConfigurationError, match="real"):
            UnitaryMatrix(np.eye(2, dtype=complex))

    def test_caller_array_left_writable(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = UnitaryMatrix(swap)
        assert swap.flags.writeable and not u.entries.flags.writeable


class TestApply:
    def test_identity(self):
        s = zero_state(2)
        out = apply(UnitaryMatrix(np.eye(4)), s)
        assert np.array_equal(out.amplitudes, s.amplitudes)

    def test_swap_reflection(self):
        out = apply(UnitaryMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])), zero_state(1))
        assert out.amplitudes == pytest.approx([0, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigurationError):
            apply(UnitaryMatrix(np.eye(4)), zero_state(1))

    def test_pipeline_point_mass_enumeration(self):
        # both buses pinned to bin 1: the image state is fully deterministic
        dists = [
            InjectionDistribution(bus=1, values_mw=[0, 1], probabilities=[0, 1]),
            InjectionDistribution(bus=2, values_mw=[0, 1], probabilities=[0, 1]),
        ]
        pipe, _, est = build_line_pipeline([1.0, 1.0], dists, "mean")
        out = apply(pipe.a, zero_state(2))
        expected_amp = 2.0 / est.scaling  # deterministic loading over the metric scale
        assert out.probabilities()[pipe.good_state_index] == pytest.approx(expected_amp**2, abs=1e-12)

    def test_norm_preserved_on_random_pipelines(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
            pipe, _, _ = build_line_pipeline(rng.uniform(-1, 1, 2), dists, "mean")
            out = apply(pipe.a, zero_state(4))
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-9)


class TestProbabilityOf:
    def test_zero_state(self):
        assert zero_state(3).probabilities()[0] == 1.0

    def test_uniform_two_qubits(self):
        s = StateVector(2, np.full(4, 0.5))
        for i in range(4):
            assert s.probabilities()[i] == pytest.approx(0.25)

    def test_joint_forecast_state(self):
        state = joint_state([encode(forecast(1)), encode(forecast(2))])
        assert state.probabilities()[0b0101] == pytest.approx(0.2462, abs=2e-4)


class TestSampleCounts:
    def test_point_mass_all_shots_on_one_state(self):
        counts = sample_counts(zero_state(3), shots=1024, rng_seed=0)
        assert counts[0] == 1024
        assert counts.sum() == 1024

    def test_uniform_one_qubit_concentration(self):
        s = StateVector(1, np.full(2, 1 / np.sqrt(2)))
        counts = sample_counts(s, shots=10**6, rng_seed=123)
        assert abs(counts[0] - 500_000) < 3 * 500  # 3 sigma

    def test_forecast_dominant_states(self):
        state = joint_state([encode(forecast(1)), encode(forecast(2))])
        counts = sample_counts(state, shots=1024, rng_seed=5)
        for idx in (0b0101, 0b0110, 0b1001, 0b1010):
            assert 0.19 <= counts[idx] / 1024 <= 0.28

    def test_seed_reproducibility(self):
        state = joint_state([encode(forecast(1)), encode(forecast(2))])
        a = sample_counts(state, shots=512, rng_seed=77)
        b = sample_counts(state, shots=512, rng_seed=77)
        assert np.array_equal(a, b)

    def test_largest_int64_shot_count_drawn_and_one_more_refused(self):
        state = joint_state([encode(forecast(1)), encode(forecast(2))])
        assert sample_counts(state, shots=MAX_SHOTS, rng_seed=3).sum() == 2**63 - 1
        with pytest.raises(ConfigurationError, match=r"shots must be at most 9223372036854775807"):
            sample_counts(state, shots=MAX_SHOTS + 1, rng_seed=3)

    def test_frequencies_converge(self):
        state = joint_state([encode(forecast(1)), encode(forecast(2))])
        counts = sample_counts(state, shots=10**6, rng_seed=9)
        deviation = np.abs(counts / 10**6 - state.probabilities())
        assert deviation.max() < 5e-3
