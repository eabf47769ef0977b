"""Traced replay of ``run_analysis`` and ``export_histogram``.

Calls each layer's public functions in the order the runner does, with a
span around every call, and rebuilds the same output: the report JSON or the
histogram CSV.  The worker compares that output with the untraced study's,
so a runner that drifts from this replay fails the run.  Work counts are
tallied at the same boundaries.
"""
from __future__ import annotations

import math
from collections import Counter

from gridqmc import (
    EstimationResult,
    RunReport,
    apply,
    assemble_pipeline,
    build_estimator_vector,
    build_grover,
    build_line_map,
    build_ptdf,
    classical_mc,
    encode,
    exact_line_distribution,
    householder_unitary,
    iqae,
    joint_state,
    orthonormalize_rows,
    rate_scale_ptdf,
    rescale,
    sample_counts,
    state_prep_unitary,
    unitary_factorize,
    zero_state,
)
from gridqmc.errors import ConfigurationError

from checks import HISTOGRAM_HEADER


def _inputs(tr, config):
    with tr.span("grid.ptdf"):
        ptdf = rate_scale_ptdf(build_ptdf(config.network), config.network)
        h_row = ptdf.row(config.analysis.line)
    return h_row, config.ordered_injections()


def _threshold(an):
    return an.threshold_fraction if an.metric == "overload" else None


def _line_map(tr, h_row, distributions, line, tally):
    with tr.span("flowmap.line_map"):
        lf_map = build_line_map(h_row, distributions, line=line)
    with tr.span("flowmap.orthonormalize"):
        lf_map = orthonormalize_rows(lf_map)
    tally["flowmap.map_bytes"] += lf_map.m.nbytes + lf_map.m_sc.nbytes
    tally["flowmap.levels"] += lf_map.n_rows
    return lf_map


def _pipeline(tr, h_row, distributions, an, tally):
    """``build_line_pipeline``, one span per stage."""
    with tr.span("injection.encode"):
        encodings = [encode(d) for d in distributions]
    n_qubits = sum(enc.n_qubits for enc in encodings)
    lf_map = _line_map(tr, h_row, distributions, an.line, tally)
    with tr.span("flowmap.estimator"):
        estimator = build_estimator_vector(lf_map, an.metric, n_qubits, encodings, _threshold(an))
    if estimator.is_degenerate:
        return None, estimator
    with tr.span("flowmap.factorize"):
        fact = unitary_factorize(lf_map)
    with tr.span("flowmap.householder"):
        h_unitary = householder_unitary(estimator.v)
    with tr.span("injection.state_prep"):
        preps = [state_prep_unitary(enc) for enc in encodings]
    with tr.span("flowmap.assemble"):
        pipeline = assemble_pipeline(preps, fact, h_unitary, estimator.scaling)
    tally["flowmap.pipeline_bytes"] += sum(
        u.entries.nbytes for u in (fact.v_h, fact.u_padded, h_unitary, pipeline.a)
    )
    return pipeline, estimator


def _states(distributions) -> int:
    return math.prod(len(d.values_mw) for d in distributions)


def replay_analysis(tr, config, untraced: RunReport, tally: Counter):
    """Returns (report, amplitude-scale IQAE result or None)."""
    an = config.analysis
    raw = None
    with tr.span("study"):
        h_row, distributions = _inputs(tr, config)
        threshold = _threshold(an)
        results: dict[str, EstimationResult] = {}
        exact_value = None
        if "exact" in an.methods:
            with tr.span("classical.exact"):
                exact_value = exact_line_distribution(h_row, distributions).metric(an.metric, threshold)
            tally["classical.enum_states"] += _states(distributions)
            results["exact"] = EstimationResult(
                method="exact", raw_a=exact_value, metric_value=exact_value,
                ci_low=exact_value, ci_high=exact_value, shots_total=0,
                oracle_applications=0, epsilon=an.epsilon, alpha=an.alpha, seed=None,
            )
        if "iqae" in an.methods:
            pipeline, estimator = _pipeline(tr, h_row, distributions, an, tally)
            if pipeline is None:
                results["iqae"] = EstimationResult(
                    method="iqae", raw_a=0.0, metric_value=0.0, ci_low=0.0, ci_high=0.0,
                    shots_total=0, oracle_applications=0, epsilon=an.epsilon,
                    alpha=an.alpha, seed=an.seed,
                )
            else:
                with tr.span("estimation.grover"):
                    grover = build_grover(pipeline)
                tally["estimation.grover_bytes"] += grover.q.entries.nbytes
                with tr.span("estimation.iqae"):
                    raw = iqae(grover, an.epsilon, an.alpha, an.shots_per_round, rng_seed=an.seed)
                    results["iqae"] = rescale(raw, estimator.scaling)
        if "cmc" in an.methods:
            with tr.span("classical.cmc"):
                results["cmc"] = classical_mc(
                    h_row, distributions, an.metric, an.epsilon, an.alpha,
                    rng_seed=an.seed + 1, threshold=threshold,
                )
            tally["classical.enum_states"] += _states(distributions)

        sample_ratio = None
        if "iqae" in results and "cmc" in results and results["cmc"].shots_total > 0:
            sample_ratio = results["iqae"].shots_total / results["cmc"].shots_total
        coverage = {
            name: bool(res.ci_low - 1e-12 <= exact_value <= res.ci_high + 1e-12)
            for name, res in results.items()
            if name != "exact" and exact_value is not None
        }
        report = RunReport(
            config_echo=untraced.config_echo, results=results, exact_value=exact_value,
            sample_ratio=sample_ratio, coverage=coverage, seed=an.seed, version=untraced.version,
        )
    return report, raw


def replay_histogram(tr, config, stage: str, shots: int, seed: int, tally: Counter) -> str:
    """``export_histogram`` through ``stage_state``; returns the CSV text."""
    an = config.analysis
    with tr.span("study"):
        with tr.span("runner.stage_state"):
            h_row, distributions = _inputs(tr, config)
            with tr.span("injection.encode"):
                encodings = [encode(d) for d in distributions]
            if stage == "psi":
                with tr.span("injection.joint_state"):
                    state = joint_state(encodings)
            else:
                pipeline, _ = _pipeline(tr, h_row, distributions, an, tally)
                if stage == "V":
                    if pipeline is None:
                        raise ConfigurationError("estimator is degenerate; stage V is undefined")
                    with tr.span("simulator.apply"):
                        state = apply(pipeline.a, zero_state(pipeline.a.n_qubits))
                else:
                    lf_map = _line_map(tr, h_row, distributions, an.line, tally)
                    with tr.span("flowmap.factorize"):
                        fact = unitary_factorize(lf_map)
                    with tr.span("injection.joint_state"):
                        prep = joint_state(encodings)
                    with tr.span("simulator.apply"):
                        state = apply(fact.u_padded, apply(fact.v_h, prep))
        with tr.span("simulator.sample"):
            counts = sample_counts(state, shots, seed)
        tally["simulator.state_dim"] += state.dim
        probs = state.probabilities()
        n = state.n_qubits
        lines = [HISTOGRAM_HEADER]
        for i in range(state.dim):
            lines.append(f"{i:0{n}b},{counts[i]},{probs[i]:.12g}")
        return "\n".join(lines) + "\n"
