"""Acceptance suite: one test per published criterion, printed pass/fail.

Each test prints a single summary line so a transcript of this module reads
as a checklist.  Tolerances are part of the contract and are not loosened
here; fixture-dependent quantities are computed from the shipped configs.
"""
import math

import numpy as np
import pytest

from gridqmc import (
    apply,
    build_grover,
    build_line_map,
    build_line_pipeline,
    builtin_config_path,
    encode,
    exact_line_distribution,
    householder_unitary,
    joint_state,
    load_config,
    orthonormalize_rows,
    required_samples,
    rescale,
    run_analysis,
    sample_counts,
    unitary_factorize,
    zero_state,
)
from gridqmc.estimation import EstimationResult, build_grover_iterate, iqae
from gridqmc.flowmap import prepared_state
from gridqmc.runner import _analysis_inputs
from tests.references import stable_sort_reference
from tests.studies import random_distribution


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def configs():
    return {name: load_config(builtin_config_path(name)) for name in ("three_bus", "five_bus")}


def random_instances(n: int, seed: int = 2024):
    """Small randomized cases: 1 or 2 two-qubit buses, h in [-1, 1]."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        n_buses = int(rng.integers(1, 3))
        dists = [random_distribution(rng, bus + 1) for bus in range(n_buses)]
        h_row = rng.uniform(-1, 1, n_buses)
        yield h_row, dists


def test_criterion_1_sample_count_formula():
    three = required_samples(0.754, 0.01, 0.05)
    five = required_samples(0.722, 0.01, 0.05)
    ok = three == 21_840 and five == 20_026
    report(1, ok, f"required_samples gives {three} and {five} (want 21840 and 20026)")


def test_criterion_2_quantum_classical_equivalence():
    # the dense pipeline is the reference; the structured psi is what run_analysis runs
    worst = {"dense": 0.0, "structured": 0.0}
    for h_row, dists in random_instances(200):
        ex = exact_line_distribution(h_row, dists)
        threshold = float(np.median(stable_sort_reference(h_row, dists)[0]))
        for metric, want in (("mean", ex.mean), ("overload", ex.overload_probability(threshold))):
            args = (h_row, dists, metric, threshold if metric == "overload" else None)
            pipe, _, est = build_line_pipeline(*args)
            psi, _, psi_est = prepared_state(*args)
            assert (pipe is None) == (psi is None)
            got = {"dense": 0.0, "structured": 0.0}
            if pipe is not None:
                amp = apply(pipe.a, zero_state(pipe.a.n_qubits))
                got["dense"] = amp.amplitudes[pipe.good_state_index].real * est.scaling
                got["structured"] = psi[-1] * psi_est.scaling
            for path in worst:
                worst[path] = max(worst[path], abs(got[path] - want))
    detail = ", ".join(f"{path} {dev:.3e}" for path, dev in worst.items())
    report(2, max(worst.values()) <= 1e-9, f"200 instances, worst metric deviation {detail} (tol 1e-9)")


def test_criterion_3_loading_state_fidelity():
    worst = 0.0
    for h_row, dists in random_instances(200):
        _, probs = stable_sort_reference(h_row, dists)
        encodings = [encode(d) for d in dists]
        prod_norms = float(np.prod([e.norm_factor for e in encodings]))
        lf = orthonormalize_rows(build_line_map(h_row, dists))
        fact = unitary_factorize(lf)
        state = apply(fact.u_padded, apply(fact.v_h, joint_state(encodings)))
        rescaled = state.amplitudes[: lf.n_rows].real * lf.row_norms * prod_norms
        assert len(rescaled) == len(probs)
        worst = max(worst, float(np.max(np.abs(rescaled - probs))))
    report(3, worst <= 1e-10, f"200 instances, worst |L> probability deviation {worst:.3e}")


def test_criterion_4_iqae_statistical_contract(configs):
    h_row, dists = _analysis_inputs(configs["three_bus"])
    pipe, _, _ = build_line_pipeline(h_row, dists, "mean")
    psi, _, _ = prepared_state(h_row, dists, "mean")
    a_true = apply(pipe.a, zero_state(pipe.a.n_qubits)).probabilities()[pipe.good_state_index]
    ok, details = True, []
    # the dense Grover operator is the reference; the structured iterate is what run_analysis runs
    for path, grover in (("dense", build_grover(pipe)), ("structured", build_grover_iterate(psi))):
        hits = 0
        max_width = 0.0
        for seed in range(200):
            res = iqae(grover, epsilon=0.01, alpha=0.05, rng_seed=seed)
            hits += res.ci_low <= a_true <= res.ci_high
            max_width = max(max_width, res.ci_high - res.ci_low)
        coverage = hits / 200
        ok = ok and coverage >= 0.93 and max_width <= 0.02
        details.append(f"{path} coverage {coverage:.3f}, max interval width {max_width:.4f}")
    report(4, ok, "; ".join(details) + " (>=0.93, <=0.02)")


def test_criterion_5_sample_complexity_advantage(configs):
    ratios = {}
    for name, cfg in configs.items():
        rep = run_analysis(cfg)
        ratios[name] = rep.sample_ratio
    ok = all(r is not None and r <= 0.25 for r in ratios.values())
    detail = ", ".join(f"{k} IQAE/CMC shots = {v:.3f}" for k, v in ratios.items())
    report(5, ok, detail + " (<=0.25)")


def test_criterion_6_dominant_state_histogram(configs):
    _, dists = _analysis_inputs(configs["three_bus"])
    state = joint_state([encode(d) for d in dists])
    targets = {0b0101: 0.246, 0b0110: 0.235, 0b1001: 0.235, 0b1010: 0.224}
    exact_ok = all(
        abs(state.probabilities()[idx] - p) < 5e-3 for idx, p in targets.items()
    )
    counts = sample_counts(state, shots=1024, rng_seed=42)
    fracs = {idx: counts[idx] / 1024 for idx in targets}
    sampled_ok = all(0.19 <= f <= 0.28 for f in fracs.values())
    detail = "exact {0101,0110,1001,1010} = " + ", ".join(
        f"{state.probabilities()[idx]:.4f}" for idx in targets
    ) + "; 1024-shot fractions " + ", ".join(f"{f:.3f}" for f in fracs.values())
    report(6, exact_ok and sampled_ok, detail)


def test_criterion_7_mll_rescaling():
    scaling = 46.27478 / math.sqrt(0.1885)

    def res(a):
        return EstimationResult(
            method="iqae", raw_a=a, metric_value=a, ci_low=a, ci_high=a,
            shots_total=1, oracle_applications=1, epsilon=0.01, alpha=0.05, seed=0,
        )

    first = rescale(res(0.1885), scaling).metric_value
    second = rescale(res(0.0571), scaling).metric_value
    ok = abs(first / 46.27 - 1) < 2e-3 and abs(second / 25.48 - 1) < 2e-3
    report(7, ok, f"rescaled estimates {first:.3f} and {second:.3f} (want 46.27 and 25.48)")


def test_criterion_8_structural_invariants(configs):
    unitary_err = 0.0
    gram_err = 0.0
    involution_err = 0.0
    phase_err = 0.0
    for name, cfg in configs.items():
        h_row, dists = _analysis_inputs(cfg)
        encodings = [encode(d) for d in dists]
        lf = orthonormalize_rows(build_line_map(h_row, dists))
        fact = unitary_factorize(lf)
        pipe, _, est = build_line_pipeline(h_row, dists, "mean")
        h_unitary = householder_unitary(est.v)
        for u in (fact.u_padded, fact.v_h, h_unitary, pipe.a):
            unitary_err = max(
                unitary_err, float(np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(u.dim))))
            )
        gram = lf.m_sc @ lf.m_sc.T
        gram_err = max(gram_err, float(np.max(np.abs(gram - np.eye(lf.n_rows)))))
        involution_err = max(
            involution_err,
            float(np.max(np.abs(h_unitary.entries @ h_unitary.entries - np.eye(h_unitary.dim)))),
        )
        grover = build_grover(pipe)
        a_true = apply(pipe.a, zero_state(pipe.a.n_qubits)).probabilities()[pipe.good_state_index]
        theta = math.asin(math.sqrt(a_true))
        state = apply(pipe.a, zero_state(pipe.a.n_qubits))
        for k in range(6):
            if k > 0:
                state = apply(grover.q, state)
            expected = math.sin((2 * k + 1) * theta) ** 2
            phase_err = max(
                phase_err, abs(state.probabilities()[grover.good_state_index] - expected)
            )
    ok = (
        unitary_err < 1e-10 and gram_err < 1e-12
        and involution_err < 1e-12 and phase_err < 1e-8
    )
    report(
        8, ok,
        f"unitarity {unitary_err:.1e} (<1e-10), gram {gram_err:.1e} (<1e-12), "
        f"involution {involution_err:.1e} (<1e-12), Grover phase {phase_err:.1e} (<1e-8)",
    )
