"""Pipeline orchestration and report/histogram export."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from . import __version__
from .classical import classical_mc, exact_line_distribution
from .config import PipelineConfig
from .errors import ConfigurationError
from .dense import apply, build_line_pipeline, zero_state
from .estimation import EstimationResult, build_grover_iterate, iqae, rescale
from .flowmap import LevelCompletion, build_pipeline_operator, line_levels
from .grid import build_ptdf, rate_scale_ptdf
from .injection import encode, joint_state
from .simulator import StateVector, check_qubit_count, sample_counts

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
        return {
            "version": self.version,
            "seed": self.seed,
            "config": self.config_echo,
            "exact_value": self.exact_value,
            "sample_ratio_quantum_classical": self.sample_ratio,
            "ci_contains_exact": self.coverage,
            "results": {name: asdict(res) for name, res in self.results.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _config_echo(config: PipelineConfig) -> dict:
    """The analysis settings, but the seed, which the report holds at its top level."""
    echo = asdict(config.analysis)
    del echo["seed"]
    net = config.network
    echo.update(methods=list(echo["methods"]), source=config.source, slack_bus=net.slack_bus,
                n_buses=len(net.bus_ids), n_lines=len(net.lines))
    return echo


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
        # one enumeration serves exact and cmc (cmc draws from its own generator), and
        # it is released before the quantum path builds its operator
        exact = exact_line_distribution(h_row, distributions)
        if "exact" in an.methods:
            exact_value = exact.metric(an.metric, threshold)
            results["exact"] = EstimationResult.point("exact", exact_value, an.epsilon, an.alpha, None)
        if "cmc" in an.methods:
            results["cmc"] = classical_mc(
                h_row, distributions, an.metric, an.epsilon, an.alpha,
                rng_seed=an.seed + 1, threshold=threshold, exact=exact,
            )
        del exact

    if "iqae" in an.methods:
        pipeline, _, estimator = build_pipeline_operator(
            h_row, distributions, an.metric, threshold, line=an.line
        )
        if pipeline is None:
            # nothing to estimate; the metric is exactly zero
            results["iqae"] = EstimationResult.point("iqae", 0.0, an.epsilon, an.alpha, an.seed)
        else:
            grover = build_grover_iterate(pipeline)
            raw = iqae(grover, an.epsilon, an.alpha, an.shots_per_round, rng_seed=an.seed)
            results["iqae"] = rescale(raw, estimator.scaling)

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

    Stages psi and L run up to ``MAX_QUBITS``: stage L applies the
    structured :class:`~gridqmc.flowmap.LevelCompletion` to the joint state
    and forms no matrix.  Stage V is ``A|0>`` from the oracle in
    :mod:`gridqmc.dense`, up to ``dense.MAX_DENSE_QUBITS``; its amplitudes
    equal those of the structured operator to rounding.  A study over
    ``MAX_QUBITS`` is refused by :func:`~gridqmc.simulator.check_qubit_count`
    before any joint state is enumerated.
    """
    if stage not in STAGES:
        raise ConfigurationError(f"unknown stage {stage!r}, expected one of {STAGES}")
    an = config.analysis
    h_row, distributions = _analysis_inputs(config)
    n_qubits = sum(d.n_qubits for d in distributions)
    check_qubit_count(n_qubits)
    if stage == "V":
        threshold = an.threshold_fraction if an.metric == "overload" else None
        pipeline, _, _ = build_line_pipeline(h_row, distributions, an.metric, threshold, line=an.line)
        if pipeline is None:
            raise ConfigurationError("estimator is degenerate; stage V is undefined")
        return apply(pipeline.a, zero_state(pipeline.a.n_qubits))
    psi = joint_state([encode(d) for d in distributions])
    if stage == "psi":
        return psi
    # stage L: the flow map applied to the joint state, estimator reflection omitted
    completion = LevelCompletion.from_levels(line_levels(h_row, distributions, line=an.line))
    return StateVector(psi.n_qubits, completion.apply(psi.amplitudes))


def export_histogram(
    config: PipelineConfig, stage: str, shots: int, seed: int, path: str | Path
) -> Path:
    """Write per-basis-state counts and exact probabilities as CSV; a refused stage leaves no file."""
    if shots < 1:  # refused before the open truncates a file already at ``path``
        raise ConfigurationError("shots must be >= 1")
    out = Path(path)
    with out.open("w") as f:  # opened first, so an unwritable path is refused before any work
        try:
            state = stage_state(config, stage)
            counts = sample_counts(state, shots, seed)
        except BaseException:
            f.close()
            out.unlink()
            raise
        probs = state.probabilities()
        row = f"{{:0{state.n_qubits}b}},{{}},{{:.12g}}\n".format
        f.write("bitstring,count,exact_probability\n")
        f.writelines(map(row, range(state.dim), counts.tolist(), probs.tolist()))
    return out
