import ast
import importlib
import json
import os
import subprocess
import sys
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
from gridqmc.cli import main
from gridqmc.config import parse_config
from gridqmc.flowmap import line_levels
from gridqmc.runner import _analysis_inputs
from tests.conftest import ring_study


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


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate", "--config", str(builtin_config_path("three_bus"))]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_config(self, tmp_path, capsys):
        path = write_config(
            tmp_path, lambda raw: raw["injections"][0].update(probabilities=[1, 1, 1, 1])
        )
        assert main(["validate", "--config", str(path)]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--alpha", "0"), ("--alpha", "-0.1"), ("--alpha", "1"), ("--epsilon", "0"), ("--epsilon", "nan"),
        ("--seed", "-1"),
    ])
    def test_run_refuses_out_of_range_setting(self, flag, value, capsys):
        code = main(["run", "--config", str(builtin_config_path("three_bus")),
                     flag, value, "--methods", "exact,cmc"])
        assert code == 2
        assert f"analysis.{flag[2:]}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("alpha", 0.0), ("alpha", -0.1), ("epsilon", 0.0), ("shots_per_round", 0),
        ("seed", -1), ("epsilon", 0.3), ("epsilon", 0.25),
    ])
    def test_validate_refuses_out_of_range_setting(self, key, value, tmp_path, capsys):
        path = write_config(tmp_path, lambda raw: raw["analysis"].update({key: value}))
        assert main(["validate", "--config", str(path)]) == 2
        assert f"analysis.{key}" in capsys.readouterr().err

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
