import numpy as np
import pytest

from gridqmc import InjectionDistribution, Line, Network, builtin_config_path, load_config

FORECAST_PROBS = [0.08, 0.43, 0.42, 0.07]


@pytest.fixture
def three_bus_ring() -> Network:
    """Ring of three buses with equal susceptances, slack at bus 3."""
    return Network(
        bus_ids=(1, 2, 3),
        slack_bus=3,
        lines=(
            Line(1, 2, susceptance=1.0, rating_mw=2.0),
            Line(1, 3, susceptance=1.0, rating_mw=2.0),
            Line(2, 3, susceptance=1.0, rating_mw=2.0),
        ),
    )


@pytest.fixture
def forecast_dist() -> InjectionDistribution:
    """Four-bin generator forecast used throughout the examples."""
    return InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=FORECAST_PROBS)


@pytest.fixture
def three_bus_config():
    return load_config(builtin_config_path("three_bus"))


@pytest.fixture
def five_bus_config():
    return load_config(builtin_config_path("five_bus"))


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
