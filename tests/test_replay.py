"""The benchmark's traced replay against the program it times.

``perfbench/replay.py`` rebuilds the report and every histogram stage from
the dense builders, and a benchmark run counts as correct only when its
bytes equal the program's output.  These tests hold that invariant without
a benchmark run.
"""
import importlib
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from gridqmc import (
    build_line_map,
    builtin_config_path,
    export_histogram,
    load_config,
    orthonormalize_rows,
    run_analysis,
    unitary_factorize,
)
from gridqmc.config import parse_config
from gridqmc.runner import _analysis_inputs
from tests.studies import nine_qubit_ring, ring_study

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"
STUDIES = ["three_bus", "five_bus", "nine_qubit_ring"]


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH_DIR))
    try:
        yield importlib.import_module("replay"), importlib.import_module("spans")
    finally:
        sys.path.remove(str(BENCH_DIR))


def study(name):
    return nine_qubit_ring() if name == "nine_qubit_ring" else load_config(builtin_config_path(name))


#: the replay multiplies the dense completion where stage L applies it as
#: factors; on three_bus, rows that are zero in exact arithmetic keep
#: rounding noise of about 1e-34 in probability, and the two paths print
#: different noise
DENSE_L_NOISE = pytest.mark.xfail(
    strict=True, reason="replay recomputes stage L densely; zero rows print different rounding noise"
)
HISTOGRAMS = [
    pytest.param(name, stage, marks=DENSE_L_NOISE if (name, stage) == ("three_bus", "L") else ())
    for name in STUDIES
    for stage in ("psi", "L", "V")
]


@pytest.mark.parametrize("name, stage", HISTOGRAMS)
def test_replayed_histogram_equals_export(bench, name, stage, tmp_path):
    replay, spans = bench
    cfg = study(name)
    seed = cfg.analysis.seed
    path = export_histogram(cfg, stage, 4096, seed, tmp_path / "h.csv")
    csv = replay.replay_histogram(spans.Tracer(), cfg, stage, 4096, seed, Counter())
    assert csv == path.read_text()


@pytest.mark.parametrize("name", STUDIES)
def test_replayed_analysis_equals_report(bench, name):
    replay, spans = bench
    cfg = study(name)
    untraced = run_analysis(cfg)
    report, _ = replay.replay_analysis(spans.Tracer(), cfg, untraced, Counter())
    assert report.to_json() == untraced.to_json()


def v_study(case):
    """A generated histogram-stages V study (every level distinct, R = I) or a tied ring (R != I)."""
    if case == "tied_ring":
        return parse_config(ring_study(3))
    studies = [s for s in importlib.import_module("gen").generate("histogram-stages", 1) if s.stage == "V"]
    return parse_config(json.loads(studies[int(case[-1])].text))


@pytest.mark.parametrize("case", ["histogram_stages_v0", "histogram_stages_v1", "tied_ring"])
def test_replayed_stage_v_equals_export_for_both_reflection_shapes(bench, case, tmp_path):
    replay, spans = bench
    cfg = v_study(case)
    h_row, dists = _analysis_inputs(cfg)
    r = unitary_factorize(orthonormalize_rows(build_line_map(h_row, dists))).v_h.entries
    assert np.array_equal(r, np.eye(len(r))) == (case != "tied_ring")
    seed = cfg.analysis.seed
    path = export_histogram(cfg, "V", 4096, seed, tmp_path / "h.csv")
    assert replay.replay_histogram(spans.Tracer(), cfg, "V", 4096, seed, Counter()) == path.read_text()
