"""Pipeline orchestration and report/histogram export."""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .classical import classical_mc, exact_line_distribution
from .config import PipelineConfig
from .errors import ConfigurationError
from .estimation import EstimationResult, build_grover_iterate, iqae, rescale
from .flowmap import LevelCompletion, build_line_pipeline, build_pipeline_operator, line_levels
from .grid import build_ptdf, rate_scale_ptdf
from .injection import encode, joint_state
from .simulator import StateVector, apply, sample_counts, zero_state

STAGES = ("psi", "L", "V")


@dataclass(frozen=True)
class RunReport:
    """Per-method results plus sample accounting for one analysis run."""

    config_echo: dict
    results: dict[str, EstimationResult]
    exact_value: float | None
    sample_ratio: float | None
    coverage: dict[str, bool]
    seed: int
    version: str

    def to_dict(self) -> dict:
        out = {
            "version": self.version,
            "seed": self.seed,
            "config": self.config_echo,
            "exact_value": self.exact_value,
            "sample_ratio_quantum_classical": self.sample_ratio,
            "ci_contains_exact": self.coverage,
            "results": {},
        }
        for name, res in self.results.items():
            out["results"][name] = {
                "method": res.method,
                "raw_a": res.raw_a,
                "metric_value": res.metric_value,
                "ci_low": res.ci_low,
                "ci_high": res.ci_high,
                "shots_total": res.shots_total,
                "oracle_applications": res.oracle_applications,
                "epsilon": res.epsilon,
                "alpha": res.alpha,
                "seed": res.seed,
            }
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _config_echo(config: PipelineConfig) -> dict:
    return {
        "source": config.source,
        "line": config.analysis.line,
        "metric": config.analysis.metric,
        "threshold_pct": config.analysis.threshold_pct,
        "epsilon": config.analysis.epsilon,
        "alpha": config.analysis.alpha,
        "methods": list(config.analysis.methods),
        "shots_per_round": config.analysis.shots_per_round,
        "slack_bus": config.network.slack_bus,
        "n_buses": len(config.network.bus_ids),
        "n_lines": len(config.network.lines),
    }


def _analysis_inputs(config: PipelineConfig):
    ptdf = rate_scale_ptdf(build_ptdf(config.network), config.network)
    h_row = ptdf.row(config.analysis.line)
    distributions = config.ordered_injections()
    return h_row, distributions


def run_analysis(config: PipelineConfig) -> RunReport:
    """Execute the requested estimation methods and collect a report."""
    an = config.analysis
    h_row, distributions = _analysis_inputs(config)
    threshold = an.threshold_fraction if an.metric == "overload" else None

    results: dict[str, EstimationResult] = {}
    exact_value = None
    if "exact" in an.methods or "cmc" in an.methods:
        # one enumeration serves the exact result and the Monte Carlo budget
        exact = exact_line_distribution(h_row, distributions)
    if "exact" in an.methods:
        exact_value = exact.metric(an.metric, threshold)
        results["exact"] = EstimationResult(
            method="exact", raw_a=exact_value, metric_value=exact_value,
            ci_low=exact_value, ci_high=exact_value, shots_total=0,
            oracle_applications=0, epsilon=an.epsilon, alpha=an.alpha, seed=None,
        )

    if "iqae" in an.methods:
        pipeline, _, estimator = build_pipeline_operator(
            h_row, distributions, an.metric, threshold, line=an.line
        )
        if pipeline is None:
            # nothing to estimate; the metric is exactly zero
            results["iqae"] = EstimationResult(
                method="iqae", raw_a=0.0, metric_value=0.0, ci_low=0.0, ci_high=0.0,
                shots_total=0, oracle_applications=0, epsilon=an.epsilon,
                alpha=an.alpha, seed=an.seed,
            )
        else:
            grover = build_grover_iterate(pipeline)
            raw = iqae(grover, an.epsilon, an.alpha, an.shots_per_round, rng_seed=an.seed)
            results["iqae"] = rescale(raw, estimator.scaling)

    if "cmc" in an.methods:
        results["cmc"] = classical_mc(
            h_row, distributions, an.metric, an.epsilon, an.alpha,
            rng_seed=an.seed + 1, threshold=threshold, exact=exact,
        )

    sample_ratio = None
    if "iqae" in results and "cmc" in results and results["cmc"].shots_total > 0:
        sample_ratio = results["iqae"].shots_total / results["cmc"].shots_total

    coverage = {}
    if exact_value is not None:
        for name, res in results.items():
            if name == "exact":
                continue
            coverage[name] = bool(res.ci_low - 1e-12 <= exact_value <= res.ci_high + 1e-12)

    return RunReport(
        config_echo=_config_echo(config),
        results=results,
        exact_value=exact_value,
        sample_ratio=sample_ratio,
        coverage=coverage,
        seed=an.seed,
        version=__version__,
    )


def stage_state(config: PipelineConfig, stage: str) -> StateVector:
    """Statevector after the requested pipeline stage for the configured line.

    Stage L applies the structured :class:`~gridqmc.flowmap.LevelCompletion`
    to the joint state and forms no matrix, so it runs up to
    ``MAX_QUBITS``.  Stage V goes through the dense builders, bounded by
    ``DENSE_BUDGET_BYTES``; its amplitudes equal those of the structured
    operator to rounding.
    """
    if stage not in STAGES:
        raise ConfigurationError(f"unknown stage {stage!r}, expected one of {STAGES}")
    an = config.analysis
    h_row, distributions = _analysis_inputs(config)
    if stage == "psi":
        return joint_state([encode(d) for d in distributions])
    if stage == "L":
        # flow map applied to the joint state, estimator reflection omitted
        psi = joint_state([encode(d) for d in distributions])
        completion = LevelCompletion.from_levels(line_levels(h_row, distributions, line=an.line))
        return StateVector(psi.n_qubits, completion.apply(psi.amplitudes))
    threshold = an.threshold_fraction if an.metric == "overload" else None
    pipeline, _, _ = build_line_pipeline(h_row, distributions, an.metric, threshold, line=an.line)
    if pipeline is None:
        raise ConfigurationError("estimator is degenerate; stage V is undefined")
    return apply(pipeline.a, zero_state(pipeline.a.n_qubits))


def export_histogram(
    config: PipelineConfig, stage: str, shots: int, seed: int, path: str | Path
) -> Path:
    """Write per-basis-state counts and exact probabilities as CSV."""
    state = stage_state(config, stage)
    counts = sample_counts(state, shots, seed)
    probs = state.probabilities()
    n = state.n_qubits
    out = Path(path)
    lines = ["bitstring,count,exact_probability"]
    for i in range(state.dim):
        lines.append(f"{i:0{n}b},{counts[i]},{probs[i]:.12g}")
    out.write_text("\n".join(lines) + "\n")
    return out
