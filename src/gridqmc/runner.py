"""Pipeline orchestration and report/histogram export."""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .classical import classical_mc, exact_line_distribution
from .config import PipelineConfig
from .errors import ConfigurationError
from .estimation import EstimationResult, build_grover_iterate, iqae, rescale
from .flowmap import LevelCompletion, line_levels, overload_cut, prepared_state
from .grid import _nodal_solve, build_ptdf, rate_scale_ptdf
from .injection import encode, joint_state
from .simulator import StateVector, check_qubit_count, check_shots, sample_counts

STAGES = ("psi", "L", "V")
#: CSV rows formatted by one bytes ``%``: the writer holds one block of row objects, not 2^n
CSV_BLOCK_ROWS = 1 << 14


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
    an = config.analysis
    echo = {f.name: getattr(an, f.name) for f in fields(an) if f.name != "seed"}
    net = config.network
    echo.update(methods=list(an.methods), source=config.source, slack_bus=net.slack_bus,
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
        # it is released before the quantum path forms psi
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
        psi, _, estimator = prepared_state(h_row, distributions, an.metric, threshold)
        if psi is None:
            # nothing to estimate; the metric is exactly zero
            results["iqae"] = EstimationResult.point("iqae", 0.0, an.epsilon, an.alpha, an.seed)
        else:
            grover = build_grover_iterate(psi)
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
    equal psi of :func:`~gridqmc.flowmap.prepared_state` to rounding.  L and
    V group the loadings alike, split at the overload cut, so stage V is the
    metric reflection of stage L.  A study over ``MAX_QUBITS`` is refused by
    :func:`~gridqmc.simulator.check_qubit_count` before any joint state is
    enumerated.
    """
    if stage not in STAGES:
        raise ConfigurationError(f"unknown stage {stage!r}, expected one of {STAGES}")
    an = config.analysis
    if stage == "psi":  # reads no PTDF, but refuses a network that build_ptdf refuses
        _nodal_solve(config.network)
        distributions = config.ordered_injections()
    else:
        h_row, distributions = _analysis_inputs(config)
        threshold = an.threshold_fraction if an.metric == "overload" else None
    check_qubit_count(sum(d.n_qubits for d in distributions))
    if stage == "V":
        from .dense import apply, build_line_pipeline, zero_state  # the oracle, loaded for stage V alone

        pipeline, _, _ = build_line_pipeline(h_row, distributions, an.metric, threshold)
        if pipeline is None:
            raise ConfigurationError("estimator is degenerate; stage V is undefined")
        return apply(pipeline.a, zero_state(pipeline.a.n_qubits))
    psi = joint_state([encode(d) for d in distributions])
    if stage == "psi":
        return psi
    # stage L: the flow map applied to the joint state, estimator reflection omitted
    levels = line_levels(h_row, distributions, cut=overload_cut(an.metric, threshold))
    return StateVector(psi.n_qubits, LevelCompletion.from_levels(levels).apply(psi.amplitudes))


def export_histogram(
    config: PipelineConfig, stage: str, shots: int, seed: int, path: str | Path
) -> Path:
    """Write per-basis-state counts and exact probabilities as CSV, ``CSV_BLOCK_ROWS`` rows per block.

    ``path`` is opened before any work and emptied only once the stage is sampled. A refused stage
    leaves it as it was; a failed write removes it if this call created it and empties it otherwise.
    """
    check_shots(shots)  # refused before ``path`` is opened
    out = Path(path)
    try:  # "xb" tells whether this call creates the file; "ab" needs no read access
        f, created = out.open("xb", buffering=0), True
    except FileExistsError:
        f, created = out.open("ab", buffering=0), False
    with f:  # unbuffered, so a failed write leaves nothing to flush at close
        emptied = False
        try:
            state = stage_state(config, stage)
            counts = sample_counts(state, shots, seed)
            if emptied := out.is_file():  # a device or a pipe has no length to cut
                f.truncate(0)  # "ab" writes at the end of the file, now offset 0
            _write_csv(f, state, counts)
        except BaseException:
            if created:
                out.unlink()
            elif emptied:
                f.truncate(0)
            raise
    return out


def _write_csv(f, state: StateVector, counts: np.ndarray) -> None:
    # one bit column even at 0 qubits, where ``{:00b}`` prints "0" and an S0 view raises
    width = max(state.n_qubits, 1)
    head = b"bitstring,count,exact_probability\n"
    for start in range(0, state.dim, CSV_BLOCK_ROWS):
        stop = min(start + CSV_BLOCK_ROWS, state.dim)
        # big-endian uint32 bytes unpacked to bits, most significant first, as ASCII digits
        index_bytes = np.arange(start, stop, dtype=">u4").view(np.uint8).reshape(-1, 4)
        bits = np.unpackbits(index_bytes, axis=1)[:, 32 - width:] + 48
        rows = [None] * (3 * (stop - start))
        rows[0::3] = bits.view(f"S{width}").ravel().tolist()
        rows[1::3] = counts[start:stop].tolist()
        rows[2::3] = (state.amplitudes[start:stop] ** 2).tolist()  # state.probabilities(), per block
        block = memoryview((head + b"%s,%d,%.12g\n" * (stop - start)) % tuple(rows))
        head = b""
        while block:  # an unbuffered file may take part of a block
            block = block[f.write(block):]
