import numpy as np
import pytest

from gridqmc import (
    ConfigurationError,
    InjectionDistribution,
    apply,
    assemble_pipeline,
    build_estimator_vector,
    build_line_map,
    build_line_pipeline,
    encode,
    householder_unitary,
    orthonormalize_rows,
    state_prep_unitary,
    unitary_factorize,
    zero_state,
)
from gridqmc.config import parse_config
from gridqmc.flowmap import group_values
from gridqmc.runner import run_analysis
from tests.studies import random_distribution, synthetic_grid


def unit_dist(bus, values):
    n = len(values)
    return InjectionDistribution(bus=bus, values_mw=values, probabilities=np.full(n, 1 / n))


def point_mass(bus, index, values=(0, 1, 2, 3)):
    probs = np.zeros(len(values))
    probs[index] = 1.0
    return InjectionDistribution(bus=bus, values_mw=values, probabilities=probs)


class TestBuildLineMap:
    def test_identity_map(self):
        lf = build_line_map([1.0], [unit_dist(1, [0, 1, 2, 3])])
        assert np.array_equal(lf.distinct_values, [0, 1, 2, 3])
        assert np.array_equal(lf.m, np.eye(4))
        assert np.array_equal(lf.row_norms, [1, 1, 1, 1])

    def test_two_bus_merge(self):
        lf = build_line_map([1.0, 1.0], [unit_dist(1, [0, 1]), unit_dist(2, [0, 1])])
        assert np.array_equal(lf.distinct_values, [0, 1, 2])
        assert np.array_equal(lf.m, [[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
        assert lf.row_norms == pytest.approx([1, np.sqrt(2), 1])

    def test_cancellation(self):
        lf = build_line_map([0.5, -0.5], [unit_dist(1, [0, 1]), unit_dist(2, [0, 1])])
        assert lf.distinct_values == pytest.approx([0, 0.5])
        assert lf.row_norms == pytest.approx([np.sqrt(2), np.sqrt(2)])

    def test_every_column_has_one_entry(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
            lf = build_line_map(rng.uniform(-1, 1, 2), dists)
            assert np.array_equal(lf.m.sum(axis=0), np.ones(16))
            assert lf.row_norms == pytest.approx(np.sqrt(lf.m.sum(axis=1)))

    def test_oversized_map_refused_before_allocation(self):
        # 16 qubits: the dense path would need tens of GiB
        h, dists = synthetic_grid(8)
        with pytest.raises(ConfigurationError, match="budget"):
            build_line_map(h, dists)
        with pytest.raises(ConfigurationError, match="budget"):
            build_line_pipeline(h, dists, "mean")


def group_values_loop(values, tol=1e-9):
    """Per-level reference for group_values: each level keyed by its first sorted value."""
    order = np.argsort(values)
    ordered = values[order]
    bounds = np.flatnonzero(np.diff(ordered) > tol) + 1
    starts = np.concatenate(([0], bounds))
    ends = np.concatenate((bounds, [len(values)]))
    labels = np.empty(len(values), dtype=int)
    distinct = np.empty(len(starts))
    for k, (s, e) in enumerate(zip(starts, ends)):
        labels[order[s:e]] = k
        distinct[k] = ordered[s]
    return distinct, labels


class TestGroupValues:
    def test_matches_per_level_loop_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for size in [1, 2, 3, 9, 40, 300, 5000]:
            # few levels so runs of every length occur, jittered inside the tolerance
            n_levels = int(rng.integers(1, size + 1))
            values = rng.uniform(0, 3, n_levels)[rng.integers(0, n_levels, size)]
            values += rng.uniform(0, 5e-10, size) * rng.integers(0, 2, size)
            distinct, labels, first = group_values(values)
            ref_distinct, ref_labels = group_values_loop(values)
            assert np.array_equal(labels, ref_labels)
            assert np.array_equal(distinct, ref_distinct)
            assert np.array_equal(first, np.unique(labels, return_index=True)[1])

    def test_cut_starts_a_level(self):
        # one chain of gaps under 1e-9 without a cut; the cut splits it where the values cross it
        values = np.array([1.0, 0.5 + 1e-10, 0.5 - 1.5e-9, 0.5 - 0.7e-9])
        distinct, labels, first = group_values(values)
        assert len(distinct) == 2
        distinct, labels, first = group_values(values, cut=0.5 - 1e-9)
        assert np.array_equal(labels, [2, 1, 0, 1])
        assert np.array_equal(first, [2, 1, 0])
        assert distinct[1] == min(values[1], values[3])
        # a cut outside the values, or on a gap between levels, changes nothing
        for cut in (0.0, 0.75, 2.0):
            assert all(np.array_equal(x, y) for x, y in zip(group_values(values, cut=cut), group_values(values)))

    @pytest.mark.parametrize("cut, members", [
        (0.6732655185893088, [0.6732655185893088] * 3),  # their mean rounds one ulp below them
        (np.nextafter(0.429774133877448, np.inf), [0.429774133877448] * 3),  # and one ulp above
    ])
    def test_level_valued_on_its_side_of_the_cut(self, cut, members):
        values = np.array([0.1, *members])
        assert (np.mean(members) >= cut) != (members[0] >= cut)
        distinct, labels, _ = group_values(values, cut=cut)
        assert np.array_equal(labels, [0, 1, 1, 1])
        assert (distinct[1] >= cut) == (members[0] >= cut)
        assert abs(distinct[1] - members[0]) <= 2 * np.spacing(members[0])


class TestOrthonormalize:
    def test_identity_unchanged(self):
        lf = orthonormalize_rows(build_line_map([1.0], [unit_dist(1, [0, 1, 2, 3])]))
        assert np.array_equal(lf.m_sc, np.eye(4))

    def test_row_normalized(self):
        lf = orthonormalize_rows(
            build_line_map([1.0, 1.0], [unit_dist(1, [0, 1]), unit_dist(2, [0, 1])])
        )
        assert lf.m_sc[1] == pytest.approx([0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_semi_orthogonal(self):
        lf = orthonormalize_rows(
            build_line_map([1.0, 1.0], [unit_dist(1, [0, 1]), unit_dist(2, [0, 1])])
        )
        gram = lf.m_sc @ lf.m_sc.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12


class TestUnitaryFactorize:
    def reconstruct(self, lf):
        fact = unitary_factorize(lf)
        return fact, fact.u_padded.entries @ fact.v_h.entries

    def test_identity(self):
        lf = orthonormalize_rows(build_line_map([1.0], [unit_dist(1, [0, 1, 2, 3])]))
        _, product = self.reconstruct(lf)
        assert np.max(np.abs(product - np.eye(4))) < 1e-12

    def test_three_row_reconstruction(self):
        lf = orthonormalize_rows(
            build_line_map([1.0, 1.0], [unit_dist(1, [0, 1]), unit_dist(2, [0, 1])])
        )
        fact, product = self.reconstruct(lf)
        assert np.max(np.abs(product[:3] - lf.m_sc)) < 1e-10
        for u in (fact.u_padded, fact.v_h):
            assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(4))) < 1e-10

    def test_permutation_and_reflection(self):
        rng = np.random.default_rng(13)
        dists = [unit_dist(1, [0, 1, 2, 3]), random_distribution(rng, 2), unit_dist(3, [0, 1])]
        lf = build_line_map([0.5, 0.0, 0.5], dists)
        fact = unitary_factorize(lf)
        p, r = fact.u_padded.entries, fact.v_h.entries
        assert set(np.unique(p)) <= {0, 1}
        assert np.array_equal(p.sum(axis=0), np.ones(32))
        assert np.array_equal(p.sum(axis=1), np.ones(32))
        assert np.array_equal(r, r.T)
        assert np.max(np.abs(r @ r - np.eye(32))) < 1e-12
        # needs no orthonormalized copy, and its top rows restore it
        assert np.max(np.abs((p @ r)[: lf.n_rows] - orthonormalize_rows(lf).m_sc)) < 1e-12
        again = unitary_factorize(lf)
        assert np.array_equal(again.u_padded.entries, p)
        assert np.array_equal(again.v_h.entries, r)


class TestEstimatorVector:
    def three_row_map(self):
        return orthonormalize_rows(
            build_line_map([1.0, 1.0], [unit_dist(1, [0, 1]), unit_dist(2, [0, 1])])
        )

    def encodings(self):
        return [encode(unit_dist(1, [0, 1])), encode(unit_dist(2, [0, 1]))]

    def test_mean_weights(self):
        est = build_estimator_vector(self.three_row_map(), "mean", 2, self.encodings())
        assert est.v == pytest.approx([0, np.sqrt(2), 2, 0])

    def test_overload_weights(self):
        est = build_estimator_vector(
            self.three_row_map(), "overload", 2, self.encodings(), threshold=2.0
        )
        assert est.v == pytest.approx([0, 0, 1, 0])

    def test_threshold_on_level_counts(self):
        # 0.3 * 3 evaluates to 0.8999999999999999, one ulp below the threshold
        dist = InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=[0.1, 0.2, 0.3, 0.4])
        lf = orthonormalize_rows(build_line_map([0.3], [dist]))
        est = build_estimator_vector(lf, "overload", 2, [encode(dist)], threshold=0.9)
        assert est.v == pytest.approx([0, 0, 0, 1])

    def test_degenerate_above_all_values(self):
        est = build_estimator_vector(
            self.three_row_map(), "overload", 2, self.encodings(), threshold=10.0
        )
        assert est.is_degenerate
        assert est.scaling == 0.0


class TestHouseholder:
    def test_axis_aligned_gives_identity(self):
        h = householder_unitary([0, 0, 0, 3.0])
        assert np.array_equal(h.entries, np.eye(4))

    def test_swap_reflection(self):
        h = householder_unitary([1.0, 0.0])
        assert np.allclose(h.entries.real, [[0, 1], [1, 0]], atol=1e-12)

    def test_last_row_and_involution(self):
        v = np.array([0, np.sqrt(2), 2, 0])
        h = householder_unitary(v)
        assert h.entries[-1].real == pytest.approx(v / np.linalg.norm(v), abs=1e-12)
        assert np.max(np.abs(h.entries @ h.entries - np.eye(4))) < 1e-12
        assert np.max(np.abs(h.entries - h.entries.T)) < 1e-12


class TestPipeline:
    def test_point_mass_at_zero_gives_zero_metric(self):
        # all probability sits on the zero-loading bin, so the mean vanishes:
        # the levels 1..3 have no mass and no weight, and nothing is estimated
        pipe, lf, est = build_line_pipeline([1.0], [point_mass(1, 0)], "mean")
        assert pipe is None
        assert est.is_degenerate
        assert not np.any(est.v)
        assert np.array_equal(lf.mass, [1.0, 0.0, 0.0, 0.0])

    def test_zero_mass_levels_leave_the_estimate_unchanged(self):
        # levels 0.6 and 0.9 are reached only by zero-probability bins; weighted,
        # they would shrink the amplitude from 1/2 to 1/6 and cost IQAE shots
        def study(values, probs):
            return parse_config({
                "network": {"buses": [1, 2], "slack_bus": 1, "lines": [
                    {"id": "1-2", "from_bus": 1, "to_bus": 2,
                     "susceptance_pu": 1.0, "rating_mw": 10 / 3}]},
                "injections": [{"bus": 2, "values_mw": values, "probabilities": probs}],
                "analysis": {"line": "1-2", "metric": "overload", "threshold_pct": 30,
                             "methods": ["iqae", "exact"]},
            })

        padded = run_analysis(study([0, 1, 2, 3], [0.5, 0.5, 0, 0])).results["iqae"]
        compact = run_analysis(study([0, 1], [0.5, 0.5])).results["iqae"]
        assert padded == compact
        dist = InjectionDistribution(bus=2, values_mw=[0, 1, 2, 3], probabilities=[0.5, 0.5, 0, 0])
        _, _, est = build_line_pipeline([0.3], [dist], "overload", threshold=0.3)
        assert np.array_equal(est.v, [0, 1, 0, 0])

    def test_overload_above_all_values_is_degenerate(self):
        pipe, _, est = build_line_pipeline(
            [1.0], [point_mass(1, 1)], "overload", threshold=99.0
        )
        assert pipe is None
        assert est.is_degenerate

    def test_deterministic_point_mass_sum(self):
        dists = [point_mass(1, 1, (0, 1)), point_mass(2, 1, (0, 1))]
        pipe, _, est = build_line_pipeline([1.0, 1.0], dists, "mean")
        amp = apply(pipe.a, zero_state(2)).amplitudes[pipe.good_state_index].real
        assert amp * est.scaling == pytest.approx(2.0, abs=1e-9)

    def test_target_amplitude_real_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
            pipe, _, _ = build_line_pipeline(rng.uniform(-1, 1, 2), dists, "mean")
            amp = apply(pipe.a, zero_state(4)).amplitudes[pipe.good_state_index]
            assert abs(amp.imag) < 1e-12
            assert amp.real >= -1e-12

    def test_unitarity_of_all_factors(self):
        rng = np.random.default_rng(9)
        dists = [random_distribution(rng, 1), random_distribution(rng, 2)]
        lf = orthonormalize_rows(build_line_map([0.3, -0.8], dists))
        fact = unitary_factorize(lf)
        encs = [encode(d) for d in dists]
        est = build_estimator_vector(lf, "mean", 4, encs)
        h = householder_unitary(est.v)
        preps = [state_prep_unitary(e) for e in encs]
        pipe = assemble_pipeline(preps, fact, h, est.scaling)
        for u in (fact.u_padded, fact.v_h, h, pipe.a, *preps):
            dim = u.dim
            assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(dim))) < 1e-10
