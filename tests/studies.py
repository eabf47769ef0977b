"""Study generators shared by the tests and the size ladder; importable without pytest."""
import numpy as np

from gridqmc import InjectionDistribution
from gridqmc.config import parse_config

FORECAST_PROBS = [0.08, 0.43, 0.42, 0.07]


def random_distribution(rng: np.random.Generator, bus: int, n_bins: int = 4) -> InjectionDistribution:
    """Random strictly-increasing MW levels with Dirichlet probabilities."""
    probs = rng.dirichlet(np.ones(n_bins))
    values = np.sort(rng.uniform(-3.0, 3.0, n_bins))
    while np.any(np.diff(values) <= 0):
        values = np.sort(rng.uniform(-3.0, 3.0, n_bins))
    return InjectionDistribution(bus=bus, values_mw=values, probabilities=probs)


def synthetic_grid(n_buses: int, seed: int = 0) -> tuple[np.ndarray, list[InjectionDistribution]]:
    """Rated sensitivity row and forecasts of a synthetic grid with 4-bin buses.

    Values ``arange(4) - 2``, Dirichlet probabilities and a row drawn from
    ``uniform(-0.3, 0.3)``: 2 * n_buses qubits.
    """
    rng = np.random.default_rng(seed)
    dists = [
        InjectionDistribution(bus=i + 1, values_mw=np.arange(4) - 2, probabilities=rng.dirichlet(np.ones(4)))
        for i in range(n_buses)
    ]
    return rng.uniform(-0.3, 0.3, n_buses), dists


def ring_study(n_buses: int, seed: int = 0) -> dict:
    """Study file for a ring of n_buses + 1 buses with 4-bin forecasts, slack at bus 1."""
    rng = np.random.default_rng(seed)
    n = n_buses + 1
    lines = [
        {"id": f"{i}-{i % n + 1}", "from_bus": i, "to_bus": i % n + 1,
         "susceptance_pu": 1.0, "rating_mw": 4.0}
        for i in range(1, n + 1)
    ]
    injections = [
        {"bus": b, "values_mw": [-2, -1, 0, 1], "probabilities": rng.dirichlet(np.ones(4)).tolist()}
        for b in range(2, n + 1)
    ]
    return {
        "network": {"buses": list(range(1, n + 1)), "slack_bus": 1, "lines": lines},
        "injections": injections,
        "analysis": {"line": "1-2", "metric": "mean", "methods": ["iqae", "exact"], "seed": 5},
    }


def nine_qubit_ring():
    """Ring study with four 4-bin buses and one 2-bin bus."""
    raw = ring_study(5, seed=4)
    raw["injections"][-1].update(values_mw=[-1, 2], probabilities=[0.3, 0.7])
    return parse_config(raw)


def random_study(rng: np.random.Generator) -> dict:
    """Study file drawn from the whole schema, for differential tests against the exact oracle.

    A connected network of 2-6 buses: a random spanning tree plus up to three extra lines,
    parallel and reversed ones included, with susceptances 10^U(-1, 1) pu and ratings
    U(0.3, 30) MW. Each non-slack bus has 1-16 bins on a 0.1, 0.5 or 1 MW grid, each bin of
    zero probability with chance 0.2 (one bin is kept), and the study at most 12 qubits.
    Either metric, ``threshold_pct`` U(10, 130), any line, methods iqae, exact and cmc.
    """
    n = int(rng.integers(2, 7))
    buses = list(range(1, n + 1))
    order = rng.permutation(buses).tolist()
    pairs = [(order[i], order[int(rng.integers(0, i))]) for i in range(1, n)]  # the spanning tree
    pairs += [tuple(rng.choice(buses, 2, replace=False).tolist()) for _ in range(int(rng.integers(0, 4)))]
    lines = [
        {"id": f"L{j}", "from_bus": f, "to_bus": t,
         "susceptance_pu": float(10 ** rng.uniform(-1, 1)), "rating_mw": float(rng.uniform(0.3, 30))}
        for j, (f, t) in enumerate((p, q) if rng.random() < 0.5 else (q, p) for p, q in pairs)
    ]
    slack = int(rng.choice(buses))
    injections, qubits_left = [], 12
    for bus in buses:
        if bus == slack:
            continue
        n_bins = 2 ** int(rng.integers(0, min(4, qubits_left) + 1))
        qubits_left -= n_bins.bit_length() - 1
        step = float(rng.choice([0.1, 0.5, 1.0]))
        values = np.sort(rng.choice(np.arange(-20, 21), n_bins, replace=False)) * step
        weights = rng.dirichlet(np.ones(n_bins)) * (rng.random(n_bins) >= 0.2)
        if not weights.any():
            weights[rng.integers(0, n_bins)] = 1.0
        injections.append({"bus": bus, "values_mw": values.tolist(),
                           "probabilities": (weights / weights.sum()).tolist()})
    return {
        "network": {"buses": buses, "slack_bus": slack, "lines": lines},
        "injections": injections,
        "analysis": {"line": f"L{int(rng.integers(0, len(lines)))}",
                     "metric": str(rng.choice(["mean", "overload"])),
                     "threshold_pct": float(rng.uniform(10, 130)),
                     "methods": ["iqae", "exact", "cmc"], "seed": int(rng.integers(0, 1000))},
    }
