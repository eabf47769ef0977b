"""Seeded study generators for the benchmark workloads.

``generate(workload, seed, checkout)`` returns the studies of one run: the
JSON text the program receives, plus the inputs and exact value the output
checks need.  The same seed gives the same studies byte for byte; ``digest``
fingerprints them so two commits can be shown to run identical inputs.

Every workload alternates ``mean`` and ``overload`` studies.  Overload
thresholds are drawn uniformly inside the study's loading range, so the
quantum path never sees a degenerate estimator; they are not moved away
from loading levels, and no study is dropped for its result.  A threshold
whose exact overload probability gives classical Monte Carlo a budget of
exactly one sample is drawn again: gridqmc refuses such studies (see
``ONE_SAMPLE_PROBE`` in ``worker.py``, which shows that defect in every run).
"""
from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from checks import joint_loading, reference_metric

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())
COMMON = SPEC["common"]
WORKLOADS = SPEC["workloads"]

BUNDLED_DIR = Path("src") / "gridqmc" / "data"
#: the count set is drawn from this fixed entropy, not from the run's seed
COUNT_SET_ENTROPY = 20231003


@dataclass(frozen=True)
class Study:
    file: str
    text: str
    metric: str
    reference: float
    n_qubits: int
    cli_seed: int | None = None
    stage: str | None = None
    shots: int | None = None


def rated_row(raw: dict) -> tuple[np.ndarray, list, list]:
    """Rated DC sensitivity row of the monitored line and the per-bus forecasts.

    Solved here from the susceptances, apart from ``gridqmc.grid``; buses
    follow the network order with the slack left out.
    """
    net = raw["network"]
    buses = list(net["buses"])
    pos = {b: i for i, b in enumerate(buses)}
    keep = [i for i, b in enumerate(buses) if b != net["slack_bus"]]
    nodal = np.zeros((len(buses), len(buses)))
    for line in net["lines"]:
        f, t, b = pos[line["from_bus"]], pos[line["to_bus"]], line["susceptance_pu"]
        nodal[[f, t], [f, t]] += b
        nodal[f, t] -= b
        nodal[t, f] -= b
    angles = np.zeros((len(buses), len(keep)))
    angles[keep] = np.linalg.inv(nodal[np.ix_(keep, keep)])
    line = next(ln for ln in net["lines"] if ln["id"] == raw["analysis"]["line"])
    f, t = pos[line["from_bus"]], pos[line["to_bus"]]
    row = line["susceptance_pu"] * (angles[f] - angles[t]) / line["rating_mw"]
    by_bus = {inj["bus"]: inj for inj in raw["injections"]}
    ordered = [by_bus[buses[i]] for i in keep]
    return row, [inj["values_mw"] for inj in ordered], [inj["probabilities"] for inj in ordered]


def _study(file: str, raw: dict, text: str | None = None, **extra) -> Study:
    an = raw["analysis"]
    row, values, probs = rated_row(raw)
    threshold = an["threshold_pct"] / 100 if an["metric"] == "overload" else None
    return Study(
        file=file,
        text=text if text is not None else json.dumps(raw, indent=1),
        metric=an["metric"],
        reference=reference_metric(row, values, probs, an["metric"], threshold),
        n_qubits=sum(len(v).bit_length() - 1 for v in values),
        **extra,
    )


def cmc_budget(p: float, epsilon: float, alpha: float) -> int:
    """Classical Monte Carlo sample count for overload probability ``p``.

    The package's documented formula, round(z^2 p (1 - p) / epsilon^2), with
    z pinned at 1.96 for alpha = 0.05.
    """
    z = 1.96 if abs(alpha - 0.05) < 1e-12 else statistics.NormalDist().inv_cdf(1 - alpha / 2)
    return int(round(z**2 * p * (1 - p) / epsilon**2))


def _draw_threshold_pct(rng: np.random.Generator, raw: dict) -> float:
    """Uniform inside the loading range, within the schema's (0, 150] percent.

    Drawn again while the threshold would leave classical Monte Carlo a
    budget of one sample, which gridqmc refuses.
    """
    row, values, probs = rated_row(raw)
    loading, _ = joint_loading(row, values, probs)
    an = raw["analysis"]
    while True:
        pct = float(100 * rng.uniform(loading.min(), min(loading.max(), 1.5)))
        p = reference_metric(row, values, probs, "overload", pct / 100)
        if cmc_budget(p, an["epsilon"], an["alpha"]) != 1:
            return pct


def _meshed_raw(rng: np.random.Generator, p: dict, metric: str, methods: list) -> dict:
    """Ring of buses plus seeded chords, with seeded susceptances and forecasts.

    The slack is bus 1 and the monitored line is a ring line.  Networks in
    which some bus barely moves the monitored line are redrawn, so every
    bus's forecast matters to the answer.
    """
    n = len(p["bins"]) + 1
    ring = [(i, i % n + 1) for i in range(1, n + 1)]
    adjacent = {frozenset(e) for e in ring}
    others = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if frozenset((a, b)) not in adjacent]
    while True:
        picks = rng.choice(len(others), size=p["chords"], replace=False)
        pairs = ring + [others[i] for i in sorted(picks)]
        lines = [
            {"id": f"{a}-{b}", "from_bus": a, "to_bus": b,
             "susceptance_pu": round(float(rng.uniform(*COMMON["susceptance_pu"])), 4),
             "rating_mw": 1.0}
            for a, b in pairs
        ]
        injections = []
        for bus, bins in zip(range(2, n + 1), p["bins"]):
            start = rng.uniform(*COMMON["value_start_mw"])
            step = rng.uniform(*COMMON["value_step_mw"])
            injections.append({
                "bus": bus,
                "values_mw": [round(float(start + step * k), 4) for k in range(bins)],
                "probabilities": rng.dirichlet(np.ones(bins)).tolist(),
            })
        raw = {
            "network": {"buses": list(range(1, n + 1)), "slack_bus": 1, "lines": lines},
            "injections": injections,
            "analysis": {
                "line": lines[int(rng.integers(len(ring)))]["id"], "metric": metric,
                "threshold_pct": 90.0, "epsilon": COMMON["epsilon"], "alpha": COMMON["alpha"],
                "methods": list(methods), "shots_per_round": COMMON["shots_per_round"],
                "seed": int(rng.integers(2**31)),
            },
        }
        row, values, probs = rated_row(raw)
        if np.min(np.abs(row)) > COMMON["min_sensitivity"]:
            break
    # rate every line so the monitored line peaks at COMMON["peak_loading"]
    loading, _ = joint_loading(row, values, probs)
    rating = round(float(loading.max() / COMMON["peak_loading"]), 4)
    for line in lines:
        line["rating_mw"] = rating
    if metric == "overload":
        raw["analysis"]["threshold_pct"] = _draw_threshold_pct(rng, raw)
    return raw


def _metric(i: int) -> str:
    return "mean" if i % 2 == 0 else "overload"


def _studies(workload: str, rng: np.random.Generator, count: int, prefix: str,
             checkout: Path) -> list[Study]:
    p = WORKLOADS[workload]
    studies = []
    for i in range(count):
        file = f"{prefix}_{i:03d}.json"
        if p["kind"] == "analysis":
            studies.append(_study(file, _meshed_raw(rng, p, _metric(i), p["methods"])))
        elif p["kind"] == "histogram":
            raw = _meshed_raw(rng, p, _metric(i), ["iqae", "cmc", "exact"])
            studies.append(_study(file, raw, stage=p["stages"][i % len(p["stages"])],
                                  shots=p["shots"]))
        else:
            text = (checkout / BUNDLED_DIR / f"{p['base']}.json").read_text()
            raw = json.loads(text)
            if _metric(i) == "overload":
                raw["analysis"]["metric"] = "overload"
                raw["analysis"]["threshold_pct"] = _draw_threshold_pct(rng, raw)
                text = json.dumps(raw, indent=1)
            studies.append(_study(file, raw, text, cli_seed=int(rng.integers(2**31))))
    return studies


def generate(workload: str, seed: int, checkout: Path = Path(".")) -> list[Study]:
    """The run's studies: the fixed count set first, then the seeded studies.

    The count set is the same in every run, so the sample-budget totals
    taken over it repeat exactly whatever the seed.
    """
    p = WORKLOADS[workload]
    key = sorted(WORKLOADS).index(workload)
    count_rng = np.random.default_rng(np.random.SeedSequence(COUNT_SET_ENTROPY, spawn_key=(key, 1)))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key, 0)))
    return (_studies(workload, count_rng, p["counted"], "count", checkout)
            + _studies(workload, rng, p["studies"], "study", checkout))


def digest(studies: list[Study]) -> str:
    """SHA-256 over every generated study, its checks' inputs included."""
    blob = json.dumps([asdict(s) for s in studies], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def write(studies: list[Study], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for s in studies:
        (directory / s.file).write_text(s.text)
