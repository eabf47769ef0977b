import pytest

from gridqmc import InjectionDistribution, Line, Network, builtin_config_path, load_config
from tests.studies import FORECAST_PROBS


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
