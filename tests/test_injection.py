import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridqmc import (
    ConfigurationError,
    InjectionDistribution,
    encode,
    joint_state,
    state_prep_unitary,
    zero_state,
)
from tests.studies import FORECAST_PROBS


def dist(probs, bus=1):
    return InjectionDistribution(bus=bus, values_mw=np.arange(len(probs)), probabilities=probs)


class TestEncode:
    def test_forecast_example(self):
        enc = encode(dist(FORECAST_PROBS))
        assert enc.norm_factor == pytest.approx(np.sqrt(0.3726), abs=1e-12)
        assert enc.amplitudes == pytest.approx([0.13106, 0.70444, 0.68806, 0.11468], abs=1e-5)

    def test_point_mass(self):
        enc = encode(dist([1, 0, 0, 0]))
        assert enc.norm_factor == 1.0
        assert np.array_equal(enc.amplitudes, [1, 0, 0, 0])

    def test_uniform(self):
        enc = encode(dist([0.25] * 4))
        assert enc.norm_factor == pytest.approx(0.5)
        assert enc.amplitudes == pytest.approx([0.5] * 4)

    def test_roundtrip_and_unit_norm(self):
        enc = encode(dist(FORECAST_PROBS))
        assert np.sum(enc.amplitudes**2) == pytest.approx(1.0, abs=1e-12)
        assert enc.amplitudes * enc.norm_factor == pytest.approx(FORECAST_PROBS, abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_normalization_property(self, weights):
        total = sum(weights)
        if total < 1e-9:
            return
        probs = np.array(weights) / total
        enc = encode(dist(probs))
        assert np.sum(enc.amplitudes**2) == pytest.approx(1.0, abs=1e-12)
        assert enc.amplitudes * enc.norm_factor == pytest.approx(probs, abs=1e-12)


class TestDistributionValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigurationError, match="sum"):
            dist([0.5, 0.2, 0.1, 0.1])

    def test_length_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            dist([0.5, 0.3, 0.2])

    def test_values_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            InjectionDistribution(bus=1, values_mw=[0, 0, 1, 2], probabilities=[0.25] * 4)


class TestJointState:
    def test_single_encoding_identity(self):
        enc = encode(dist(FORECAST_PROBS))
        state = joint_state([enc])
        assert state.amplitudes == pytest.approx(enc.amplitudes)

    def test_two_forecasts_basis_0101(self):
        enc = encode(dist(FORECAST_PROBS))
        state = joint_state([enc, enc])
        assert state.n_qubits == 4
        assert abs(state.amplitudes[0b0101]) ** 2 == pytest.approx(0.2462, abs=2e-4)

    def test_point_mass_kron_index(self):
        a = encode(dist([0, 1, 0, 0]))
        b = encode(dist([0, 0, 1, 0]))
        state = joint_state([a, b])
        expected = np.zeros(16)
        expected[0b0110] = 1.0
        assert state.amplitudes == pytest.approx(expected)

    def test_joint_probabilities_match_enumeration(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p1 = rng.dirichlet(np.ones(4))
            p2 = rng.dirichlet(np.ones(4))
            e1, e2 = encode(dist(p1)), encode(dist(p2, bus=2))
            state = joint_state([e1, e2])
            rescaled = np.abs(state.amplitudes) ** 2 * (e1.norm_factor * e2.norm_factor) ** 2
            expected = np.outer(p1**2, p2**2).ravel()
            assert rescaled == pytest.approx(expected, abs=1e-12)

    def test_equals_the_kron_fold_bitwise(self):
        rng = np.random.default_rng(5)
        encs = [encode(dist(rng.dirichlet(np.ones(n)), bus=b)) for b, n in enumerate([4, 2, 8, 1, 4], 1)]
        expected = encs[0].amplitudes
        for enc in encs[1:]:
            expected = np.kron(expected, enc.amplitudes)
        assert np.array_equal(joint_state(encs).amplitudes, expected)


class TestStatePrep:
    def test_point_mass_gives_identity(self):
        u = state_prep_unitary(encode(dist([1, 0, 0, 0])))
        assert np.array_equal(u.entries, np.eye(4))

    def test_basis_swap(self):
        u = state_prep_unitary(encode(dist([0, 1, 0, 0])))
        assert u.entries[:, 0].real == pytest.approx([0, 1, 0, 0], abs=1e-12)

    def test_first_column_is_amplitude_vector(self):
        enc = encode(dist(FORECAST_PROBS))
        u = state_prep_unitary(enc)
        assert u.entries[:, 0].real == pytest.approx(enc.amplitudes, abs=1e-12)

    def test_prepares_joint_state(self):
        e1 = encode(dist(FORECAST_PROBS))
        e2 = encode(dist([0.25] * 4, bus=2))
        prep = np.kron(state_prep_unitary(e1).entries, state_prep_unitary(e2).entries)
        prepared = prep @ zero_state(4).amplitudes
        assert prepared.real == pytest.approx(joint_state([e1, e2]).amplitudes.real, abs=1e-12)
