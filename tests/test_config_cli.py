import ast
import importlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridqmc
from gridqmc import (
    ConfigurationError,
    builtin_config_path,
    exact_line_distribution,
    export_histogram,
    load_config,
    run_analysis,
)
from gridqmc import runner
from gridqmc.cli import main
from gridqmc.config import parse_config
from gridqmc.errors import EnumerationBoundError
from gridqmc.estimation import MAX_SHOTS_PER_ROUND
from gridqmc.flowmap import line_levels, prepared_state
from gridqmc.runner import STAGES, _analysis_inputs, stage_state
from gridqmc.simulator import StateVector, sample_counts
from tests.studies import nine_qubit_ring, ring_study


def edited(change):
    """The study's JSON text after ``change`` edits its parsed value in place."""
    return lambda raw: change(raw) or json.dumps(raw)


def write_config(tmp_path, mutate=None, name="cfg.json"):
    raw = json.loads(builtin_config_path("three_bus").read_text())
    if mutate:
        mutate(raw)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestLoadConfig:
    def test_builtin_three_bus(self, three_bus_config):
        cfg = three_bus_config
        assert len(cfg.injections) == 2
        assert cfg.network.slack_bus == 3
        assert cfg.analysis.threshold_pct == 90

    def test_builtin_five_bus(self, five_bus_config):
        assert len(five_bus_config.injections) == 4
        assert five_bus_config.network.slack_bus == 1

    def test_bad_probability_sum_names_bus(self, tmp_path):
        def mutate(raw):
            raw["injections"][1]["probabilities"] = [0.5, 0.2, 0.1, 0.1]

        with pytest.raises(ConfigurationError, match="bus 2"):
            load_config(write_config(tmp_path, mutate))

    def test_missing_slack(self, tmp_path):
        def mutate(raw):
            raw["network"]["slack_bus"] = 9

        with pytest.raises(ConfigurationError, match="slack"):
            load_config(write_config(tmp_path, mutate))

    def test_unknown_line_reference(self, tmp_path):
        def mutate(raw):
            raw["analysis"]["line"] = "7-9"

        with pytest.raises(ConfigurationError, match="7-9"):
            load_config(write_config(tmp_path, mutate))

    def test_missing_injection_bus(self, tmp_path):
        def mutate(raw):
            raw["injections"].pop()

        with pytest.raises(ConfigurationError, match="missing buses"):
            load_config(write_config(tmp_path, mutate))

    def test_missing_field_path_in_message(self, tmp_path):
        def mutate(raw):
            del raw["network"]["lines"][0]["rating_mw"]

        with pytest.raises(ConfigurationError, match=r"\$\.network\.lines\[0\]\.rating_mw"):
            load_config(write_config(tmp_path, mutate))

    def test_nonexistent_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize("shots", [2**40, 10**20])
    def test_shots_per_round_over_the_cap_refused(self, shots):
        raw = json.loads(builtin_config_path("three_bus").read_text())
        raw["analysis"]["shots_per_round"] = MAX_SHOTS_PER_ROUND
        assert parse_config(raw).analysis.shots_per_round == MAX_SHOTS_PER_ROUND
        raw["analysis"]["shots_per_round"] = shots
        with pytest.raises(ConfigurationError, match=r"analysis.shots_per_round: must lie in \[1, 1000\]"):
            parse_config(raw)

    def test_file_that_is_not_text_refused(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_bytes(b"\xff\xfe{}")
        with pytest.raises(ConfigurationError, match=f"cannot read {re.escape(str(path))}: "):
            load_config(path)


@st.composite
def tied_chain_studies(draw):
    """A radial chain with the slack at one end and zero-probability bins.

    The monitored line carries every injection beyond it, so the rated row is
    0 or -1/rating per bus, and integer MW levels tie loadings, exactly or
    within a few ulps.
    """
    n_buses = draw(st.integers(1, 5))
    injections = []
    for bus in range(2, n_buses + 2):
        n_bins = 2 ** draw(st.integers(1, 2))
        values = draw(st.lists(st.integers(-4, 4), min_size=n_bins, max_size=n_bins, unique=True))
        weights = np.array(draw(st.lists(st.integers(0, 3), min_size=n_bins, max_size=n_bins).filter(any)))
        injections.append({"bus": bus, "values_mw": sorted(values),
                           "probabilities": (weights / weights.sum()).tolist()})
    monitored = draw(st.integers(1, n_buses))
    lines = [
        {"id": f"{i}-{i + 1}", "from_bus": i, "to_bus": i + 1, "susceptance_pu": 1.0,
         "rating_mw": draw(st.sampled_from([1.0, 2.0, 10 / 3, 5.0])) if i == monitored else 1.0}
        for i in range(1, n_buses + 1)
    ]
    metric = draw(st.sampled_from(["mean", "overload"]))
    return {
        "network": {"buses": list(range(1, n_buses + 2)), "slack_bus": 1, "lines": lines},
        "injections": injections,
        "analysis": {"line": f"{monitored}-{monitored + 1}", "metric": metric,
                     "threshold_pct": draw(st.integers(1, 150)), "methods": ["iqae", "exact"]},
    }


class TestRunAnalysis:
    @given(tied_chain_studies())
    @settings(max_examples=150, deadline=None)
    def test_degenerate_exactly_when_exact_metric_is_zero(self, raw):
        config = parse_config(raw)
        report = run_analysis(config)
        res = report.results["iqae"]
        assert (res.shots_total == 0) == (report.exact_value == 0.0)
        if res.shots_total == 0:
            assert (res.metric_value, res.ci_low, res.ci_high) == (0.0, 0.0, 0.0)
        # the levels of positive mass are the oracle's levels
        h_row, dists = _analysis_inputs(config)
        levels = line_levels(h_row, dists)
        exact = exact_line_distribution(h_row, dists)
        live = levels.mass > 0
        assert live.sum() == len(exact.values)
        assert np.allclose(levels.distinct_values[live], exact.values, rtol=0, atol=1e-9)
        assert np.allclose(levels.mass[live], exact.probabilities, rtol=0, atol=1e-12)

    def test_certain_overload(self):
        # every loading exceeds 1% of the rating: the good-state probability is 1 up to rounding
        raw = {
            "network": {
                "buses": [1, 2, 3],
                "slack_bus": 1,
                "lines": [{"id": "1-2", "from_bus": 1, "to_bus": 2, "susceptance_pu": 1.0, "rating_mw": 1.0},
                          {"id": "2-3", "from_bus": 2, "to_bus": 3, "susceptance_pu": 1.0, "rating_mw": 1.0}],
            },
            "injections": [{"bus": 2, "values_mw": [0, 1], "probabilities": [0.5, 0.5]},
                           {"bus": 3, "values_mw": [1, 2], "probabilities": [0.5, 0.5]}],
            "analysis": {"line": "1-2", "metric": "overload", "threshold_pct": 1,
                         "methods": ["iqae", "exact"]},
        }
        report = run_analysis(parse_config(raw))
        assert report.exact_value == 1.0
        assert report.coverage["iqae"]

    def test_zero_mass_levels_are_degenerate(self):
        # the levels 0.6 and 0.9 reach the threshold but have no mass
        raw = {
            "network": {
                "buses": [1, 2],
                "slack_bus": 2,
                "lines": [{"id": "1-2", "from_bus": 1, "to_bus": 2, "susceptance_pu": 1.0,
                           "rating_mw": 10 / 3}],
            },
            "injections": [{"bus": 1, "values_mw": [0, 1, 2, 3], "probabilities": [0.5, 0.5, 0, 0]}],
            "analysis": {"line": "1-2", "metric": "overload", "threshold_pct": 60,
                         "methods": ["iqae", "exact"]},
        }
        report = run_analysis(parse_config(raw))
        assert report.exact_value == 0.0
        res = report.results["iqae"]
        assert (res.metric_value, res.shots_total, res.oracle_applications) == (0.0, 0, 0)

    def test_exact_only(self, three_bus_config):
        import dataclasses

        cfg = dataclasses.replace(
            three_bus_config,
            analysis=dataclasses.replace(three_bus_config.analysis, methods=("exact",)),
        )
        report = run_analysis(cfg)
        assert report.exact_value is not None
        assert set(report.results) == {"exact"}

    def test_all_methods_coverage_and_ratio(self, three_bus_config):
        report = run_analysis(three_bus_config)
        assert report.coverage["iqae"]
        assert report.coverage["cmc"]
        assert report.sample_ratio is not None and report.sample_ratio < 0.25
        recomputed = report.results["iqae"].shots_total / report.results["cmc"].shots_total
        assert report.sample_ratio == pytest.approx(recomputed)

    def test_degenerate_threshold_skips_estimation(self, tmp_path):
        def mutate(raw):
            # generous ratings keep every loading below the 149% threshold
            for line in raw["network"]["lines"]:
                line["rating_mw"] = 2.0
            raw["analysis"].update(metric="overload", threshold_pct=149.0, methods=["iqae", "exact"])

        report = run_analysis(load_config(write_config(tmp_path, mutate)))
        assert report.results["iqae"].metric_value == 0.0
        assert report.results["iqae"].shots_total == 0

    def test_threshold_on_loading_level(self, tmp_path):
        # rated row 0.3: the top level 0.3 * 3 lands one ulp below the 0.9 threshold
        raw = {
            "network": {
                "buses": [1, 2],
                "slack_bus": 2,
                "lines": [{"id": "l", "from_bus": 1, "to_bus": 2, "susceptance_pu": 1.0,
                           "rating_mw": 10 / 3}],
            },
            "injections": [{"bus": 1, "values_mw": [0, 1, 2, 3], "probabilities": [0.1, 0.2, 0.3, 0.4]}],
            "analysis": {"line": "l", "metric": "overload", "threshold_pct": 90,
                         "methods": ["iqae", "exact"], "seed": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        report = run_analysis(load_config(path))
        assert report.exact_value == pytest.approx(0.4)
        res = report.results["iqae"]
        assert res.ci_low <= 0.4 <= res.ci_high
        assert report.coverage["iqae"]

    @pytest.mark.parametrize("methods", [("exact", "cmc"), ("cmc",), ("iqae", "cmc", "exact")])
    def test_enumerates_once(self, methods, three_bus_config, monkeypatch):
        import dataclasses

        import gridqmc.classical
        import gridqmc.runner

        calls = []
        enumerate_states = gridqmc.classical.exact_line_distribution

        def counting(*args, **kwargs):
            calls.append(args)
            return enumerate_states(*args, **kwargs)

        # classical_mc enumerates through its own module's name when not given the result
        monkeypatch.setattr(gridqmc.runner, "exact_line_distribution", counting)
        monkeypatch.setattr(gridqmc.classical, "exact_line_distribution", counting)
        cfg = dataclasses.replace(
            three_bus_config,
            analysis=dataclasses.replace(three_bus_config.analysis, methods=methods),
        )
        report = run_analysis(cfg)
        assert len(calls) == 1
        assert report.results["cmc"].shots_total == 8454

    def test_counts_overload_once(self, three_bus_config, monkeypatch):
        # the exact result and classical_mc's budget read the same probability
        import dataclasses

        from gridqmc.classical import ExactDistribution

        calls, count = [], ExactDistribution._count_overload
        monkeypatch.setattr(ExactDistribution, "_count_overload", lambda ex, t: calls.append(t) or count(ex, t))
        an = dataclasses.replace(three_bus_config.analysis, metric="overload", threshold_pct=90.0,
                                 methods=("exact", "cmc"))
        report = run_analysis(dataclasses.replace(three_bus_config, analysis=an))
        assert calls == [0.9]
        assert report.results["exact"].metric_value == report.exact_value == count(
            exact_line_distribution(*_analysis_inputs(three_bus_config)), 0.9)

    def test_report_deterministic(self, three_bus_config):
        r1 = run_analysis(three_bus_config).to_json()
        r2 = run_analysis(three_bus_config).to_json()
        assert r1 == r2


class TestExportHistogram:
    def parse(self, path):
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "bitstring,count,exact_probability"
        return [row.split(",") for row in rows[1:]]

    def test_psi_stage(self, three_bus_config, tmp_path):
        out = export_histogram(three_bus_config, "psi", shots=1024, seed=3, path=tmp_path / "psi.csv")
        rows = self.parse(out)
        assert len(rows) == 16
        fractions = {r[0]: int(r[1]) / 1024 for r in rows}
        for label in ("0101", "0110", "1001", "1010"):
            assert 0.19 <= fractions[label] <= 0.28

    def test_l_stage_uniform_two_bus(self, tmp_path):
        raw = {
            "network": {
                "buses": [1, 2, 3],
                "slack_bus": 3,
                "lines": [
                    {"id": "a", "from_bus": 1, "to_bus": 3, "susceptance_pu": 1.0, "rating_mw": 1.0},
                    {"id": "b", "from_bus": 2, "to_bus": 3, "susceptance_pu": 1.0, "rating_mw": 1.0},
                ],
            },
            "injections": [
                {"bus": 1, "values_mw": [0, 1], "probabilities": [0.5, 0.5]},
                {"bus": 2, "values_mw": [0, 1], "probabilities": [0.5, 0.5]},
            ],
            "analysis": {"line": "a", "seed": 1},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = export_histogram(load_config(path), "L", shots=64, seed=1, path=tmp_path / "l.csv")
        rows = self.parse(out)
        probs = [float(r[2]) for r in rows]
        # radial line "a" carries only bus 1's injection: loadings {0,1} equally likely
        assert probs[0] == pytest.approx(0.5, abs=1e-9)
        assert probs[1] == pytest.approx(0.5, abs=1e-9)

    def test_v_stage_point_mass(self, tmp_path):
        raw = {
            "network": {
                "buses": [1, 2],
                "slack_bus": 2,
                "lines": [{"id": "l", "from_bus": 1, "to_bus": 2, "susceptance_pu": 1.0, "rating_mw": 1.0}],
            },
            "injections": [{"bus": 1, "values_mw": [0, 1], "probabilities": [0.0, 1.0]}],
            "analysis": {"line": "l"},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        out = export_histogram(load_config(path), "V", shots=128, seed=0, path=tmp_path / "v.csv")
        rows = self.parse(out)
        probs = np.array([float(r[2]) for r in rows])
        assert np.count_nonzero(probs > 1e-12) == 1


def histogram_loop(state, counts):
    """Reference CSV: the per-row f-string loop over numpy scalars."""
    probs = state.probabilities()
    n = state.n_qubits
    lines = ["bitstring,count,exact_probability"]
    for i in range(state.dim):
        lines.append(f"{i:0{n}b},{counts[i]},{probs[i]:.12g}")
    return "\n".join(lines) + "\n"


def zero_qubit_study():
    """Two buses of one level each: the joint state is the single basis state of 0 qubits."""
    raw = json.loads(builtin_config_path("three_bus").read_text())
    for inj, value in zip(raw["injections"], (1.0, -0.5)):
        inj.update(values_mw=[value], probabilities=[1.0])
    return parse_config(raw)


def histogram_study(study):
    if study == "nine_qubit_ring":
        return nine_qubit_ring()
    if study == "sixteen_qubit_ring":
        return parse_config(ring_study(8))
    if study == "zero_qubit":
        return zero_qubit_study()
    return load_config(builtin_config_path(study))


def assert_histogram_csv_equals_the_row_loop(study, stage, tmp_path):
    cfg = histogram_study(study)
    out = export_histogram(cfg, stage, shots=4096, seed=11, path=tmp_path / "h.csv")
    state = stage_state(cfg, stage)
    assert out.read_text() == histogram_loop(state, sample_counts(state, 4096, 11))
    if study == "zero_qubit":
        assert out.read_text().splitlines()[1] == "0,4096,1"


@pytest.mark.parametrize("study, stage", [
    *[(name, stage) for name in ("three_bus", "five_bus", "nine_qubit_ring", "zero_qubit")
      for stage in STAGES],
    ("sixteen_qubit_ring", "psi"),  # four blocks of 2^14 rows
    ("sixteen_qubit_ring", "L"),
])
def test_histogram_csv_equals_the_row_loop(study, stage, tmp_path):
    assert_histogram_csv_equals_the_row_loop(study, stage, tmp_path)


# blocks of 7 or 64 rows: many blocks and a short last one at small n
@pytest.mark.parametrize("study, stage, block", [
    (name, stage, block) for name in ("three_bus", "nine_qubit_ring") for stage in STAGES
    for block in (7, 64)
])
def test_histogram_csv_in_small_blocks_equals_the_row_loop(study, stage, block, tmp_path,
                                                           monkeypatch):
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", block)
    assert_histogram_csv_equals_the_row_loop(study, stage, tmp_path)


class ShortWrites:
    """A file whose every write takes at most 100 bytes, as an unbuffered file may."""

    def __init__(self):
        self.data = bytearray()

    def write(self, b):
        self.data += b[:100]
        return min(len(b), 100)


def test_histogram_writer_finishes_short_writes():
    state = stage_state(nine_qubit_ring(), "L")
    counts = sample_counts(state, 4096, 11)
    f = ShortWrites()
    runner._write_csv(f, state, counts)
    assert f.data.decode() == histogram_loop(state, counts)


#: tracemalloc peak of ``_write_csv`` on a 16-qubit state in blocks of 2^10 rows
#: was 0.20 MiB; the writer that formatted all rows from 2^16-long ``tolist()``
#: lists peaked at 3.0 MiB (48 MiB at 20 qubits)
BLOCK_WRITER_PEAK_MIB = 0.5


def test_histogram_writer_holds_one_block(monkeypatch):
    monkeypatch.setattr(runner, "CSV_BLOCK_ROWS", 2**10)
    state = stage_state(parse_config(ring_study(8)), "psi")
    counts = sample_counts(state, 4096, 11)
    with open(os.devnull, "wb") as f:
        tracemalloc.start()
        try:
            runner._write_csv(f, state, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert state.n_qubits == 16
    assert peak / 2**20 <= BLOCK_WRITER_PEAK_MIB


def degenerate_stage_v(raw):
    """Every loading stays below the 149% threshold, so stage V has no estimator."""
    for line in raw["network"]["lines"]:
        line["rating_mw"] = 2.0
    raw["analysis"].update(metric="overload", threshold_pct=149.0)
    return parse_config(raw)


REFUSED_STAGES = {
    "degenerate": lambda: degenerate_stage_v(json.loads(builtin_config_path("three_bus").read_text())),
    "over-dense": lambda: parse_config(ring_study(7)),  # 14 qubits, over the dense limit
}


class TestHistogramOut:
    @pytest.mark.parametrize("refusal", REFUSED_STAGES)
    def test_refused_stage_unlinks_no_device(self, refusal, monkeypatch):
        unlinked = []  # recorded, never done: no test may remove a device node
        monkeypatch.setattr(Path, "unlink", lambda self, *a, **k: unlinked.append(self))
        with pytest.raises(ConfigurationError):
            export_histogram(REFUSED_STAGES[refusal](), "V", 16, 0, os.devnull)
        assert unlinked == []

    @pytest.mark.parametrize("refusal", REFUSED_STAGES)
    def test_refused_stage_keeps_an_existing_file(self, refusal, tmp_path):
        out, before = tmp_path / "h.csv", b"kept,\x00\xff\r\n" * 1000
        out.write_bytes(before)
        with pytest.raises(ConfigurationError):
            export_histogram(REFUSED_STAGES[refusal](), "V", 16, 0, out)
        assert out.read_bytes() == before

    def test_export_replaces_a_longer_file(self, three_bus_config, tmp_path):
        fresh = export_histogram(three_bus_config, "psi", 64, 3, tmp_path / "fresh.csv").read_bytes()
        out = tmp_path / "h.csv"
        out.write_bytes(b"x" * (3 * len(fresh)))
        assert export_histogram(three_bus_config, "psi", 64, 3, out).read_bytes() == fresh

    @pytest.mark.parametrize("refusal", REFUSED_STAGES)
    def test_refused_stage_keeps_a_dangling_symlink(self, refusal, tmp_path):
        out = tmp_path / "h.csv"
        out.symlink_to(tmp_path / "missing.csv")
        with pytest.raises(ConfigurationError):
            export_histogram(REFUSED_STAGES[refusal](), "V", 16, 0, out)
        assert out.is_symlink()

    def test_existing_file_opened_for_writing_only(self, three_bus_config, tmp_path, monkeypatch):
        out, modes, path_open = tmp_path / "h.csv", [], Path.open
        out.write_text("old\n")
        monkeypatch.setattr(Path, "open", lambda self, mode="r", *a, **k: modes.append(mode)
                            or path_open(self, mode, *a, **k))
        export_histogram(three_bus_config, "psi", 64, 3, out)
        assert modes and not any(set(mode) & set("r+w") for mode in modes)  # no read, no truncate

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
                             ids=["disk-full", "interrupt"])
    @pytest.mark.parametrize("existed", [False, True])
    def test_failed_write_removes_only_a_created_file(self, existed, error, three_bus_config, tmp_path,
                                                      monkeypatch):
        def failing_write(f, state, counts):
            f.write(b"bitstring,")
            raise error

        monkeypatch.setattr(runner, "_write_csv", failing_write)
        out = tmp_path / "h.csv"
        if existed:
            out.write_text("old\n" * 100)
        with pytest.raises(type(error)):
            export_histogram(three_bus_config, "psi", 64, 3, out)
        if existed:  # left empty: neither a partial CSV nor old rows behind it
            assert out.read_bytes() == b""
        else:
            assert not out.exists()


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--config", str(builtin_config_path("three_bus"))]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path, lambda raw: raw["injections"][0].update(probabilities=[1, 1, 1, 1])
        )
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("text, message", [
        pytest.param(edited(lambda raw: raw["network"]["buses"].append(3)), "duplicate bus ids",
                     id="duplicate-bus-ids"),
        pytest.param(edited(lambda raw: raw["network"].update(lines=[])), "network needs at least one line",
                     id="no-lines"),
        pytest.param(edited(lambda raw: raw["network"]["lines"].append(
            {"id": "1-9", "from_bus": 1, "to_bus": 9, "susceptance_pu": 1.0, "rating_mw": 1.0})),
            "line 1-9 references an undeclared bus", id="undeclared-bus"),
        pytest.param(edited(lambda raw: raw["network"]["lines"][2].update(id="1-2")), "duplicate line labels",
                     id="duplicate-line-labels"),
        pytest.param(edited(lambda raw: raw["injections"][1].update(bus=1)), "injections: duplicate bus entry",
                     id="duplicate-injection-bus"),
        pytest.param(edited(lambda raw: raw["injections"].append(
            {"bus": 3, "values_mw": [0, 1], "probabilities": [0.5, 0.5]})),
            "injections: unexpected buses [3]", id="injection-at-slack"),
        pytest.param(edited(lambda raw: raw["analysis"].update(metric="median")),
                     "analysis.metric: unknown metric 'median'", id="unknown-metric"),
        pytest.param(edited(lambda raw: raw["analysis"].update(threshold_pct=0)),
                     "analysis.threshold_pct: must lie in (0, 150]", id="threshold-0"),
        pytest.param(edited(lambda raw: raw["analysis"].update(threshold_pct=151)),
                     "analysis.threshold_pct: must lie in (0, 150]", id="threshold-151"),
        pytest.param(edited(lambda raw: raw["analysis"].update(methods=["iqae", "qmc"])),
                     "analysis.methods: unknown method 'qmc'", id="unknown-method"),
        pytest.param(edited(lambda raw: raw["analysis"].update(methods=[])),
                     "analysis.methods: must not be empty", id="empty-methods"),
        pytest.param(lambda raw: json.dumps(raw)[:-1], "not valid JSON", id="invalid-json"),
        pytest.param(edited(lambda raw: raw["injections"][0].update(probabilities=[0.5, 0.5])),
                     "bus 1: values and probabilities differ in length", id="length-mismatch"),
        pytest.param(edited(lambda raw: raw["injections"][0].update(probabilities=[1.5, -0.5, 0, 0])),
                     "bus 1: probabilities must lie in [0, 1]", id="probability-outside-0-1"),
    ])
    def test_validate_refuses_invalid_study(self, text, message, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(text(json.loads(builtin_config_path("three_bus").read_text())))
        assert main(["validate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_run_prints_the_report_without_out(self, capsys):
        path = builtin_config_path("three_bus")
        assert main(["run", "--config", str(path)]) == 0
        assert capsys.readouterr().out == run_analysis(load_config(path)).to_json() + "\n"

    def test_histogram_seed_overrides_the_study(self, tmp_path):
        path, out = builtin_config_path("three_bus"), tmp_path / "h.csv"
        assert main(["histogram", "--config", str(path), "--stage", "L", "--shots", "256", "--seed", "5",
                     "--out", str(out)]) == 0
        config = load_config(path)
        assert config.analysis.seed != 5
        seeded = export_histogram(config, "L", 256, 5, tmp_path / "seeded.csv").read_bytes()
        assert out.read_bytes() == seeded
        assert seeded != export_histogram(config, "L", 256, config.analysis.seed, tmp_path / "own.csv").read_bytes()

    def test_unknown_builtin_and_stage_refused(self, three_bus_config):
        with pytest.raises(ConfigurationError, match="no builtin configuration named 'nine_bus'"):
            builtin_config_path("nine_bus")
        with pytest.raises(ConfigurationError, match=r"unknown stage 'X', expected one of \('psi', 'L', 'V'\)"):
            stage_state(three_bus_config, "X")

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "0"), ("--alpha", "-0.1"), ("--alpha", "1"), ("--epsilon", "0"), ("--epsilon", "nan"),
        ("--seed", "-1"),
    ])
    def test_run_refuses_out_of_range_setting(self, flag, value, capsys):
        code = main(["run", "--config", str(builtin_config_path("three_bus")),
                     flag, value, "--methods", "exact,cmc"])
        assert code == 2
        assert f"analysis.{flag[2:]}" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon, budget", [("1e-7", "8.454e+13"), ("1e-200", "inf")])
    def test_run_refuses_an_oversized_cmc_budget(self, epsilon, budget, capsys):
        # 1e-7 once asked numpy for 615 TiB of draws; 1e-200 squared underflows to zero
        code = main(["run", "--config", str(builtin_config_path("three_bus")),
                     "--methods", "cmc", "--epsilon", epsilon])
        assert code == 2
        err = capsys.readouterr().err
        assert f"Monte Carlo budget of {budget} samples" in err
        assert "over the limit of 16777216 (2^24) samples" in err

    @pytest.mark.parametrize("shots", [2**40, 10**20])
    def test_run_refuses_shots_per_round_over_the_cap(self, shots, tmp_path, capsys, monkeypatch):
        # 2^40 once ran for minutes in the interval solve; 10^20 overflowed numpy's binomial draw
        calls, out = [], tmp_path / "r.json"
        monkeypatch.setattr(runner, "iqae", lambda *a, **k: calls.append(a))
        path = write_config(tmp_path, lambda raw: raw["analysis"].update(shots_per_round=shots))
        assert main(["run", "--config", str(path), "--methods", "iqae", "--out", str(out)]) == 2
        assert calls == [] and not out.exists()
        assert capsys.readouterr().err == "error: analysis.shots_per_round: must lie in [1, 1000]\n"

    def test_run_iqae_after_rounds_without_hits(self, tmp_path):
        # seed 60 at 5 shots per round draws no hit in rounds at one power in the lower
        # half-plane; the angle interval once grew by a period a round and came out inverted
        path = write_config(tmp_path, lambda raw: raw["analysis"].update(shots_per_round=5, seed=60))
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(path), "--methods", "iqae,exact", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        iqae_result = report["results"]["iqae"]
        assert iqae_result["ci_low"] <= report["exact_value"] <= iqae_result["ci_high"]
        assert report["ci_contains_exact"] == {"iqae": True}

    def test_run_inverted_interval_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gridqmc.estimation, "_next_angles", lambda *args: (0.2, 0.1))
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(builtin_config_path("three_bus")), "--methods", "iqae",
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("estimation failure: inverted interval [0.904508, 0.345492]")
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("alpha", 0.0), ("alpha", -0.1), ("epsilon", 0.0), ("shots_per_round", 0),
        ("seed", -1), ("epsilon", 0.3), ("epsilon", 0.25),
    ])
    def test_validate_refuses_out_of_range_setting(self, key, value, tmp_path, capsys):
        path = write_config(tmp_path, lambda raw: raw["analysis"].update({key: value}))
        assert main(["validate", "--config", str(path)]) == 2
        assert f"analysis.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda raw: raw["injections"][1]["probabilities"].__setitem__(2, float("nan")),
                     "bus 2: probabilities must be finite", id="nan-probability"),
        pytest.param(lambda raw: raw["injections"][0]["values_mw"].__setitem__(2, float("nan")),
                     "bus 1: values_mw must be finite", id="nan-level"),
        pytest.param(lambda raw: raw["injections"][0]["values_mw"].__setitem__(3, float("inf")),
                     "bus 1: values_mw must be finite", id="infinite-level"),
        pytest.param(lambda raw: raw["network"]["lines"][2].update(susceptance_pu=float("inf")),
                     "line 2-3: susceptance must be finite", id="infinite-susceptance"),
        pytest.param(lambda raw: raw["network"]["lines"][0].update(rating_mw=float("inf")),
                     "line 1-2: rating_mw must be finite", id="infinite-rating"),
        pytest.param(lambda raw: raw["analysis"].update(seed=1.7),
                     "analysis.seed: must be an integer", id="fractional-seed"),
        pytest.param(lambda raw: raw["analysis"].update(shots_per_round=100.5),
                     "analysis.shots_per_round: must be an integer", id="fractional-shots"),
        pytest.param(lambda raw: raw["analysis"].update(methods="exact"),
                     "analysis.methods: must be a list", id="methods-string"),
        pytest.param(lambda raw: raw["analysis"].update(epsilon=float("inf"), methods=["exact", "cmc"]),
                     "analysis.epsilon: must be positive and finite", id="infinite-epsilon"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_refuses_non_finite_or_non_integer_field(self, command, mutate, message, tmp_path, capsys):
        # Python's json reads NaN and Infinity; the study must still be refused, naming the field
        path = write_config(tmp_path, mutate)
        args = [command, "--config", str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "report.json")]
        assert main(args) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda raw: raw["analysis"].update(epsilon=None),
                     "analysis.epsilon: must be a number", id="null-epsilon"),
        pytest.param(lambda raw: raw["analysis"].update(epsilon="abc"),
                     "analysis.epsilon: must be a number", id="text-epsilon"),
        pytest.param(lambda raw: raw["analysis"].update(epsilon="0.1"),
                     "analysis.epsilon: must be a number", id="numeric-string-epsilon"),
        pytest.param(lambda raw: raw["analysis"].update(alpha=True),
                     "analysis.alpha: must be a number", id="bool-alpha"),
        pytest.param(lambda raw: raw["analysis"].update(epsilonn=0.3),
                     "analysis: unknown fields ['epsilonn']", id="misspelt-analysis-key"),
        pytest.param(lambda raw: raw["network"]["lines"][0].update(rating_mw=None),
                     "$.network.lines[0].rating_mw: must be a number", id="null-rating"),
        pytest.param(lambda raw: raw["injections"][0].update(values_mw="x"),
                     "$.injections[0].values_mw: must be a list", id="text-levels"),
        pytest.param(lambda raw: raw["injections"][1]["probabilities"].__setitem__(2, "0.42"),
                     "$.injections[1].probabilities[2]: must be a number", id="text-probability"),
        pytest.param(lambda raw: raw["network"].update(lines=5),
                     "$.network.lines: must be a list", id="number-lines"),
        pytest.param(lambda raw: raw["injections"].__setitem__(0, 5),
                     "$.injections[0]: must be an object", id="number-injection"),
        pytest.param(lambda raw: raw.update(analysis=[]),
                     "$.analysis: must be an object", id="list-analysis"),
        pytest.param(lambda raw: raw["network"].update(buses=None),
                     "$.network.buses: must be a list", id="null-buses"),
    ])
    def test_refuses_malformed_field(self, mutate, message, tmp_path, capsys):
        # each field is read as its JSON type: no traceback, and no silent conversion or default
        assert main(["validate", "--config", str(write_config(tmp_path, mutate))]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda raw: raw["network"]["lines"][1].update(name=raw["network"]["lines"][1].pop("id")),
                     "$.network.lines[1]: unknown fields ['name']", id="line-name-for-id"),
        pytest.param(lambda raw: raw["network"]["lines"][0].update(ratingmw=9.0),
                     "$.network.lines[0]: unknown fields ['ratingmw']", id="line-ratingmw"),
        pytest.param(lambda raw: raw["injections"][0].update(probabilites=[0.25] * 4),
                     "$.injections[0]: unknown fields ['probabilites']", id="injection-probabilites"),
        pytest.param(lambda raw: raw["network"].update(slack=3),
                     "$.network: unknown fields ['slack']", id="network-slack"),
        pytest.param(lambda raw: raw.update(descripton="ring"),
                     "$: unknown fields ['descripton']", id="top-level-descripton"),
    ])
    def test_refuses_misspelt_key(self, mutate, message, tmp_path, capsys):
        assert main(["validate", "--config", str(write_config(tmp_path, mutate))]) == 2
        assert message in capsys.readouterr().err

    def test_renamed_line_ids_refused_not_dropped(self, tmp_path, capsys):
        # each line's "id" renamed "name", plus "ratingmw" on line 1-2 and "probabilites" on bus 1:
        # every one of them used to validate, the ids falling back to from-to without a word
        def mutate(raw):
            for line in raw["network"]["lines"]:
                line["name"] = line.pop("id")
            raw["network"]["lines"][0]["ratingmw"] = 9.0
            raw["injections"][0]["probabilites"] = raw["injections"][0]["probabilities"]
        assert main(["validate", "--config", str(write_config(tmp_path, mutate))]) == 2
        assert "$.network.lines[0]: unknown fields ['name', 'ratingmw']" in capsys.readouterr().err
        # the bundled studies carry a top-level description, which stays accepted
        assert "description" in json.loads(builtin_config_path("three_bus").read_text())
        assert main(["validate", "--config", str(builtin_config_path("three_bus"))]) == 0

    def test_integral_float_fields_accepted(self, tmp_path):
        path = write_config(tmp_path, lambda raw: raw["analysis"].update(seed=7.0, shots_per_round=100.0))
        assert load_config(path).analysis == load_config(builtin_config_path("three_bus")).analysis

    def test_histogram_refuses_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["histogram", "--config", str(builtin_config_path("three_bus")),
                     "--stage", "psi", "--seed", "-1", "--out", str(out)])
        assert code == 2
        assert "analysis.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_large_epsilon_allowed_without_iqae(self, tmp_path):
        path = write_config(
            tmp_path, lambda raw: raw["analysis"].update(epsilon=0.3, methods=["exact", "cmc"])
        )
        assert main(["validate", "--config", str(path)]) == 0
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 0

    def test_overrides_validated_with_the_study(self, tmp_path, capsys):
        # epsilon 0.3 is invalid only with iqae, which the command line removes
        path = write_config(tmp_path, lambda raw: raw["analysis"].update(epsilon=0.3))
        assert main(["validate", "--config", str(path)]) == 2
        assert "analysis.epsilon" in capsys.readouterr().err
        out = tmp_path / "r.json"
        assert main(["run", "--config", str(path), "--methods", "exact,cmc", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report["results"]) == {"exact", "cmc"}
        assert report["config"]["epsilon"] == 0.3

    def test_histogram_refuses_degenerate_stage_v(self, tmp_path, capsys):
        def mutate(raw):
            # every loading stays below the 149% threshold
            for line in raw["network"]["lines"]:
                line["rating_mw"] = 2.0
            raw["analysis"].update(metric="overload", threshold_pct=149.0)

        code = main(["histogram", "--config", str(write_config(tmp_path, mutate)),
                     "--stage", "V", "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert "stage V is undefined" in capsys.readouterr().err
        assert not (tmp_path / "v.csv").exists()

    def test_run_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "run", "--config", str(builtin_config_path("three_bus")),
            "--methods", "exact", "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["exact_value"] is not None

    @pytest.mark.parametrize("command", [["run", "--methods", "exact"], ["histogram", "--stage", "psi"]],
                             ids=["run", "histogram"])
    @pytest.mark.parametrize("missing_dir", [True, False], ids=["missing-dir", "directory"])
    def test_unwritable_out_refused(self, command, missing_dir, tmp_path, capsys, monkeypatch):
        calls = []  # the histogram's stage is never computed for a path it cannot write
        monkeypatch.setattr(runner, "stage_state", lambda *a: calls.append(a) or stage_state(*a))
        out = tmp_path / "missing" / "r.out" if missing_dir else tmp_path
        code = main([*command, "--config", str(builtin_config_path("three_bus")), "--out", str(out)])
        assert code == 2 and calls == []
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in err
        assert not (tmp_path / "missing").exists()

    def test_histogram_opens_out_once_before_the_stage(self, tmp_path, monkeypatch):
        out, opened, existed = tmp_path / "h.csv", [], []
        path_open = Path.open
        monkeypatch.setattr(Path, "open", lambda self, *a, **k: opened.append(self) or path_open(self, *a, **k))
        monkeypatch.setattr(runner, "stage_state", lambda *a: existed.append(out.exists()) or stage_state(*a))
        assert main(["histogram", "--config", str(builtin_config_path("three_bus")), "--stage", "psi",
                     "--out", str(out)]) == 0
        assert opened.count(out) == 1 and existed == [True]
        assert out.read_text().startswith("bitstring,count,exact_probability\n")

    # 10^20 once ended in an OverflowError traceback from numpy's multinomial draw
    @pytest.mark.parametrize("shots", [0, -5, 2**63, 10**20])
    def test_histogram_refuses_shots_before_the_stage(self, shots, tmp_path, capsys, monkeypatch):
        calls, out = [], tmp_path / "h.csv"
        monkeypatch.setattr(runner, "stage_state", lambda *a: calls.append(a) or stage_state(*a))
        out.write_bytes(b"kept\r\n\x00")
        code = main(["histogram", "--config", str(builtin_config_path("three_bus")), "--stage", "V",
                     "--shots", str(shots), "--out", str(out)])
        assert code == 2 and calls == []
        message = "shots must be >= 1" if shots < 1 else "shots must be at most 9223372036854775807 (2^63 - 1)"
        assert capsys.readouterr().err == f"error: {message}\n"
        assert out.read_bytes() == b"kept\r\n\x00"

    @pytest.mark.parametrize("shots", [0, 10**20])
    def test_histogram_refusing_shots_creates_no_out(self, shots, tmp_path):
        out = tmp_path / "h.csv"
        code = main(["histogram", "--config", str(builtin_config_path("three_bus")), "--stage", "psi",
                     "--shots", str(shots), "--out", str(out)])
        assert code == 2 and not out.exists()

    @pytest.mark.parametrize("command", [["validate"], ["run"], ["histogram", "--stage", "psi"]],
                             ids=["validate", "run", "histogram"])
    def test_config_directory_refused(self, command, tmp_path, capsys):
        out = tmp_path / "h.csv"
        extra = ["--out", str(out)] if command[0] == "histogram" else []
        code = main([*command, "--config", str(tmp_path), *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {tmp_path}: ")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("methods, duplicate", [("cmc,cmc", "cmc"), ("exact,cmc,exact", "exact")])
    def test_run_refuses_duplicate_methods(self, methods, duplicate, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["run", "--config", str(builtin_config_path("three_bus")),
                     "--methods", methods, "--out", str(out)])
        assert code == 2
        assert f"analysis.methods: duplicate method '{duplicate}'" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_refuses_duplicate_methods(self, tmp_path, capsys):
        path = write_config(tmp_path, lambda raw: raw["analysis"].update(methods=["iqae", "exact", "iqae"]))
        assert main(["validate", "--config", str(path)]) == 2
        assert "analysis.methods: duplicate method 'iqae'" in capsys.readouterr().err

    def test_run_seed_override_deterministic(self, tmp_path):
        args = [
            "run", "--config", str(builtin_config_path("three_bus")),
            "--methods", "iqae,exact", "--seed", "123",
        ]
        outs = []
        for name in ("a.json", "b.json"):
            main(args + ["--out", str(tmp_path / name)])
            outs.append((tmp_path / name).read_text())
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["seed"] == 123

    def test_sixteen_qubit_run_and_oversized_dense_stage(self, tmp_path, capsys):
        path = tmp_path / "ring.json"
        path.write_text(json.dumps(ring_study(8)))
        out = tmp_path / "report.json"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["results"]) == {"iqae", "exact"}
        # stage L is structured and writes every basis state
        hist = tmp_path / "h.csv"
        assert main(["histogram", "--config", str(path), "--stage", "L", "--out", str(hist)]) == 0
        assert len(hist.read_text().splitlines()) == 1 + 2**16
        # the dense stage-V operators alone would take GiBs: refused before allocation
        capsys.readouterr()
        code = main(["histogram", "--config", str(path), "--stage", "V",
                     "--out", str(tmp_path / "v.csv")])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("stage", [*STAGES, None])
    def test_oversized_study_refused_before_enumeration(self, stage):
        config = parse_config(ring_study(12))  # 24 qubits: one joint-state vector is 128 MiB
        tracemalloc.start()
        try:
            if stage is None:
                with pytest.raises(EnumerationBoundError):
                    run_analysis(config)
            else:
                with pytest.raises(ConfigurationError, match="at most 20 supported"):
                    stage_state(config, stage)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_qubit_limit_is_one_error_with_one_message(self, tmp_path, capsys):
        raw = ring_study(12)  # 24 qubits
        config = parse_config(raw)
        h_row, dists = _analysis_inputs(config)
        message = "24 qubits (16777216 joint states), at most 20 supported"
        refusals = [
            lambda: prepared_state(h_row, dists, "mean"),
            lambda: exact_line_distribution(h_row, dists),
            lambda: stage_state(config, "psi"),
        ]
        for refuse in refusals:
            with pytest.raises(EnumerationBoundError, match=re.escape(message)):
                refuse()
        with pytest.raises(EnumerationBoundError, match="21 qubits"):
            StateVector(21, [1.0])
        assert issubclass(EnumerationBoundError, ConfigurationError)
        # gridqmc run reports the same refusal whichever methods run
        for methods in ("iqae", "exact", "cmc"):
            raw["analysis"]["methods"] = [methods]
            path = tmp_path / f"{methods}.json"
            path.write_text(json.dumps(raw))
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "r.json")]) == 2
            assert message in capsys.readouterr().err

    def test_histogram_command(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main([
            "histogram", "--config", str(builtin_config_path("three_bus")),
            "--stage", "psi", "--shots", "256", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().startswith("bitstring,count,exact_probability")


class TestPackageSurface:
    def test_cli_import_leaves_out_scipy_stats(self):
        code = "import sys, gridqmc.cli; assert 'scipy.stats' not in sys.modules"
        env = {**os.environ, "PYTHONPATH": str(Path(gridqmc.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_out_scipy(self):
        code = (
            "import sys, gridqmc.cli; "
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]; "
            "assert not loaded, loaded"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gridqmc.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_leaves_out_the_dense_oracle(self):
        code = (
            "import sys, gridqmc.cli; "
            "assert 'gridqmc.dense' not in sys.modules; "
            "from gridqmc import apply, build_line_pipeline; "
            "import gridqmc, gridqmc.dense as dense; "
            "assert [getattr(gridqmc, n) is getattr(dense, n) for n in gridqmc._DENSE_NAMES] == [True] * 12"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(gridqmc.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_benchmark_imports_resolve(self):
        # the benchmark imports these names; a trimmed export must not drop one
        bench = Path(__file__).resolve().parents[1] / "perfbench"
        names = []
        for file in ("replay.py", "worker.py"):
            for node in ast.walk(ast.parse((bench / file).read_text())):
                if isinstance(node, ast.ImportFrom) and node.module in ("gridqmc", "gridqmc.errors"):
                    names += [(node.module, alias.name) for alias in node.names]
        assert len(names) > 20
        missing = [f"{mod}.{name}" for mod, name in names if not hasattr(importlib.import_module(mod), name)]
        assert missing == []

    def test_dense_oracle_stays_behind_its_module(self):
        # the dense builders live in gridqmc.dense alone, and only stage V reads them
        package = Path(gridqmc.__file__).parent
        trees = {path.name: ast.parse(path.read_text()) for path in package.glob("*.py")}

        def defined(tree):
            names = set()
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names.update(t.id for t in targets if isinstance(t, ast.Name))
            return names

        importers = sorted(
            name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and (node.module == "dense" or node.module is None and "dense" in [a.name for a in node.names])
        )
        assert importers == ["__init__.py", "runner.py"]
        dense_names = defined(trees["dense.py"])
        assert {"UnitaryMatrix", "build_line_map", "GroverOperator", "MAX_DENSE_QUBITS"} <= dense_names
        shared = {name: sorted(defined(tree) & dense_names) for name, tree in trees.items() if name != "dense.py"}
        assert {name: both for name, both in shared.items() if both} == {}
