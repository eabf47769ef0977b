"""Tests of the benchmark's own parts: reference enumeration, generator,
tail rule, spans and the metric list in BENCHMARK.json.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""
import itertools
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import calibrate  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import Worker  # noqa: E402

REPO = BENCH_DIR.parent


def brute_force(h_row, values, probs, metric, threshold):
    total = 0.0
    for combo in itertools.product(*(range(len(v)) for v in values)):
        loading = abs(sum(h * v[j] for h, v, j in zip(h_row, values, combo)))
        prob = float(np.prod([p[j] for p, j in zip(probs, combo)]))
        if metric == "mean":
            total += loading * prob
        elif loading >= threshold - checks.VALUE_TOL:
            total += prob
    return total


# -- reference enumeration ---------------------------------------------------
def test_reference_by_hand():
    values, probs = [[0, 1, 2, 3]], [[0.1, 0.2, 0.3, 0.4]]
    assert checks.reference_metric([0.5], values, probs, "mean", None) == pytest.approx(1.0)
    assert checks.reference_metric([0.5], values, probs, "overload", 1.0) == pytest.approx(0.7)


def test_joint_order_first_bus_most_significant():
    loading, prob = checks.joint_loading([1.0, 10.0], [[0, 1], [0, 2]], [[0.25, 0.75], [0.5, 0.5]])
    assert loading.tolist() == [0.0, 20.0, 1.0, 21.0]
    assert prob.tolist() == [0.125, 0.125, 0.375, 0.375]


@pytest.mark.parametrize("seed", range(6))
def test_reference_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_buses = int(rng.integers(1, 4))
    h_row = rng.uniform(-1, 1, n_buses)
    values = [np.sort(rng.uniform(-3, 3, 4)).tolist() for _ in range(n_buses)]
    probs = [rng.dirichlet(np.ones(4)).tolist() for _ in range(n_buses)]
    loading, _ = checks.joint_loading(h_row, values, probs)
    threshold = float(np.median(loading))
    for metric in ("mean", "overload"):
        want = brute_force(h_row, values, probs, metric, threshold)
        got = checks.reference_metric(h_row, values, probs, metric, threshold)
        assert got == pytest.approx(want, abs=1e-12)


# -- output checks -----------------------------------------------------------
def test_histogram_check():
    rows = [checks.HISTOGRAM_HEADER, "00,3,0.25", "01,1,0.25", "10,0,0.5", "11,0,0"]
    assert checks.check_histogram("\n".join(rows) + "\n", 2, 4) is None
    assert checks.check_histogram("\n".join(rows[:-1]) + "\n", 2, 4) is not None
    assert checks.check_histogram("\n".join(rows) + "\n", 2, 5) is not None
    bad_prob = rows[:3] + ["10,0,0.4", "11,0,0"]
    assert checks.check_histogram("\n".join(bad_prob) + "\n", 2, 4) is not None


def test_iqae_interval_check():
    assert checks.check_iqae_interval(0.3, 0.25, 0.375, 0.0625) is None
    assert checks.check_iqae_interval(0.3, 0.25, 0.4, 0.0625) is not None
    assert checks.check_iqae_interval(0.2, 0.25, 0.375, 0.0625) is not None


# -- generator ---------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generator_is_deterministic(workload):
    first = gen.generate(workload, 5, REPO)
    assert gen.digest(first) == gen.digest(gen.generate(workload, 5, REPO))
    other = gen.generate(workload, 6, REPO)
    assert gen.digest(first) != gen.digest(other)
    counted = gen.WORKLOADS[workload]["counted"]
    assert first[:counted] == other[:counted]  # the count set ignores the seed


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_reference_digest(workload):
    """Seed 0 reproduces the digest recorded in workloads.json."""
    want = gen.WORKLOADS[workload]["reference_digest"]
    assert gen.digest(gen.generate(workload, 0, REPO)) == want


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_studies_alternate_and_thresholds_lie_in_range(workload):
    studies = gen.generate(workload, 3, REPO)
    assert [s.metric for s in studies[:4]] == ["mean", "overload", "mean", "overload"]
    for s in studies:
        raw = json.loads(s.text)
        if s.metric == "overload":
            loading, _ = checks.joint_loading(*gen.rated_row(raw))
            threshold = raw["analysis"]["threshold_pct"] / 100
            assert loading.min() < threshold < loading.max()
            assert 0 < s.reference < 1


def test_cmc_budget_formula():
    assert gen.cmc_budget(0.5, 0.01, 0.05) == 9604
    assert gen.cmc_budget(2.6e-5, 0.01, 0.05) == 1
    assert gen.cmc_budget(1e-6, 0.01, 0.05) == 0
    assert gen.cmc_budget(0.5, 0.01, 0.01) == round(2.5758293**2 * 0.25 / 1e-4)


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_no_overload_study_leaves_cmc_one_sample(workload):
    for seed in (4, 5, 19):  # seeds that drew a one-sample threshold before the redraw
        for s in gen.generate(workload, seed, REPO):
            if s.metric == "overload":
                an = json.loads(s.text)["analysis"]
                assert gen.cmc_budget(s.reference, an["epsilon"], an["alpha"]) != 1


def test_one_sample_probe_reports_an_outcome():
    worker = object.__new__(Worker)
    assert worker.probe_one_sample().startswith(("refused: ", "answered with 1 samples"))


@pytest.mark.parametrize("workload, qubits", [("quantum-dense", 9), ("classical-enum", 16),
                                               ("histogram-stages", 9), ("cli-bundled", 8)])
def test_study_sizes(workload, qubits):
    assert {s.n_qubits for s in gen.generate(workload, 1, REPO)} == {qubits}


# -- tail rule, scaling and spans ---------------------------------------------
def test_tail_keeps_ten_beyond():
    times = [float(t) for t in range(20, 0, -1)]
    value, percentile, n = run.tail(times)
    assert (value, percentile, n) == (10.0, 50.0, 20)
    assert sum(t > value for t in times) == 10
    assert run.tail([float(t) for t in range(11)])[:2] == (0.0, 100 / 11)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_times_subtract_children():
    tr = Tracer()
    with tr.span("root"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            with tr.span("a"):
                pass
    spans = {i: tr.duration(i) for i in range(4)}
    self_times = tr.self_times()
    assert self_times["root"] == pytest.approx(spans[0] - spans[1] - spans[2])
    assert self_times["b"] == pytest.approx(spans[2] - spans[3])
    assert self_times["a"] == pytest.approx(spans[1] + spans[3])
    assert [s[4] for s in tr.spans] == [None, 0, 0, 2]


# -- BENCHMARK.json agrees with what the runs print ---------------------------
def test_benchmark_json_matches_the_runs():
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: spec["why"] for name, spec in gen.WORKLOADS.items()
    }
    worker = object.__new__(Worker)
    worker.kind, worker.import_s = "analysis", 1.0
    layers = set(worker.layers(Tracer(), Counter(), 1, 0.0, 1.0, 0.0))
    layers |= {"cli.import_s", "setup.warmup_s"}
    assert {m["name"] for m in bench["per_layer"]} == layers
    res = {"sample_totals": [1, 2, 3], "times": [1.0] * 11, "scales": [1.0] * 11, "peak_rss_mb": 1.0,
           "failed": 0, "attempted": 11}
    assert [m["name"] for m in bench["end_to_end"]] == list(run.end_to_end([1.0], [1.0], res))
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert run.unit(metric["name"]) == metric["unit"], metric["name"]


def test_timings_are_scaled_to_reference_seconds():
    times = [1.0] * 11
    res = {"sample_totals": [1, 2, 3], "times": times, "scales": [0.5] * 5 + [2.0] * 6,
           "peak_rss_mb": 1.0, "failed": 0, "attempted": 11}
    metrics = run.end_to_end([2.0, 2.0, 2.0], [1.0, 2.0, 0.5], res)
    assert (metrics["setup_s"], metrics["study_s"], metrics["study_s_tail"]) == (2.0, 2.0, 0.5)
    # a lone outlying factor is voted down by its neighbours
    assert run.scaled([1.0] * 5, [1.0, 1.0, 9.0, 1.0, 1.0]) == [1.0] * 5


@pytest.mark.parametrize("kind", sorted(calibrate.KERNELS))
def test_kernels_run(kind):
    assert calibrate.scale(kind) > 0
