import json

import numpy as np
import pytest

from gridqmc import (
    ConfigurationError,
    DisconnectedNetworkError,
    Line,
    Network,
    build_ptdf,
    builtin_config_path,
    encode,
    joint_state,
    load_config,
    rate_scale_ptdf,
    stage_state,
)
from gridqmc import runner
from gridqmc.cli import main
from gridqmc.config import parse_config
from gridqmc.runner import STAGES
from tests.studies import nine_qubit_ring, ring_study


def nodal_flow_solve(network: Network, injections: dict[int, float]) -> np.ndarray:
    """Independent brute-force DC solve: nodal angles, then branch flows."""
    buses = list(network.bus_ids)
    pos = {b: i for i, b in enumerate(buses)}
    n = len(buses)
    b_nodal = np.zeros((n, n))
    for line in network.lines:
        f, t = pos[line.from_bus], pos[line.to_bus]
        b_nodal[f, f] += line.susceptance
        b_nodal[t, t] += line.susceptance
        b_nodal[f, t] -= line.susceptance
        b_nodal[t, f] -= line.susceptance
    keep = [i for i in range(n) if buses[i] != network.slack_bus]
    p = np.array([injections.get(buses[i], 0.0) for i in keep])
    theta = np.zeros(n)
    theta[keep] = np.linalg.solve(b_nodal[np.ix_(keep, keep)], p)
    return np.array(
        [line.susceptance * (theta[pos[line.from_bus]] - theta[pos[line.to_bus]]) for line in network.lines]
    )


def test_two_bus_single_line():
    net = Network((1, 2), slack_bus=2, lines=(Line(1, 2, susceptance=0.37, rating_mw=1.0),))
    ptdf = build_ptdf(net)
    assert ptdf.h[0, 0] == pytest.approx(1.0)
    assert ptdf.h[0, 1] == 0.0  # slack column


def test_three_bus_ring_column(three_bus_ring):
    ptdf = build_ptdf(three_bus_ring)
    col = ptdf.h[:, 0]
    assert col == pytest.approx([1 / 3, 2 / 3, 1 / 3])


def test_radial_chain_series_path():
    net = Network(
        (1, 2, 3),
        slack_bus=3,
        lines=(Line(1, 2, susceptance=2.0, rating_mw=1.0), Line(2, 3, susceptance=0.5, rating_mw=1.0)),
    )
    ptdf = build_ptdf(net)
    assert ptdf.h[:, 0] == pytest.approx([1.0, 1.0])


def test_slack_column_is_zero(three_bus_ring):
    ptdf = build_ptdf(three_bus_ring)
    slack_col = ptdf.bus_order.index(three_bus_ring.slack_bus)
    assert np.all(ptdf.h[:, slack_col] == 0.0)
    assert np.all(np.isfinite(ptdf.h))


def test_matches_nodal_solve_random(three_bus_ring):
    rng = np.random.default_rng(5)
    ptdf = build_ptdf(three_bus_ring)
    for _ in range(25):
        p = rng.normal(size=2)
        injections = {1: p[0], 2: p[1]}
        expected = nodal_flow_solve(three_bus_ring, injections)
        got = ptdf.h @ np.array([p[0], p[1], 0.0])
        assert got == pytest.approx(expected, abs=1e-10)


def test_flow_conservation(three_bus_ring):
    # unit injection at bus 1 leaves bus 1 and lands on the slack
    ptdf = build_ptdf(three_bus_ring)
    flows = ptdf.h @ np.array([1.0, 0.0, 0.0])
    net_out = {b: 0.0 for b in three_bus_ring.bus_ids}
    for j, line in enumerate(three_bus_ring.lines):
        net_out[line.from_bus] += flows[j]
        net_out[line.to_bus] -= flows[j]
    assert net_out[1] == pytest.approx(1.0, abs=1e-10)
    assert net_out[3] == pytest.approx(-1.0, abs=1e-10)


def test_rate_scale_examples(three_bus_ring):
    ptdf = build_ptdf(three_bus_ring)
    rated = rate_scale_ptdf(ptdf, three_bus_ring)
    assert rated.rated
    assert rated.h[:, 0] == pytest.approx([1 / 6, 1 / 3, 1 / 6])


def test_rate_scale_roundtrip(three_bus_ring):
    ptdf = build_ptdf(three_bus_ring)
    rated = rate_scale_ptdf(ptdf, three_bus_ring)
    ratings = np.array([line.rating_mw for line in three_bus_ring.lines])
    assert np.array_equal(rated.h * ratings[:, None], ptdf.h)


def test_rate_scale_rejects_rated(three_bus_ring):
    rated = rate_scale_ptdf(build_ptdf(three_bus_ring), three_bus_ring)
    with pytest.raises(ConfigurationError):
        rate_scale_ptdf(rated, three_bus_ring)


def test_rate_scale_refuses_a_network_without_the_line(three_bus_ring):
    other = Network((1, 2, 3), slack_bus=3, lines=(Line(1, 2, 1.0, 1.0), Line(2, 3, 1.0, 1.0)))  # no 1-3
    with pytest.raises(ConfigurationError, match="^unknown line '1-3'$"):
        rate_scale_ptdf(build_ptdf(three_bus_ring), other)


def test_row_accessor_excludes_slack(three_bus_ring):
    rated = rate_scale_ptdf(build_ptdf(three_bus_ring), three_bus_ring)
    row = rated.row("1-2")
    assert row.shape == (2,)
    assert row == pytest.approx([1 / 6, -1 / 6])


def test_row_of_an_unknown_line_refused(three_bus_ring):
    ptdf = rate_scale_ptdf(build_ptdf(three_bus_ring), three_bus_ring)
    with pytest.raises(ConfigurationError, match="^unknown line 'nope'$"):
        ptdf.row("nope")


def random_network(rng: np.random.Generator, n: int) -> Network:
    """A random tree plus chords, parallel and reversed lines among them; susceptances over six decades."""
    buses = [int(b) for b in rng.permutation(np.arange(1, n + 1) * 3)]
    pairs = [(buses[i], buses[int(rng.integers(i))]) for i in range(1, n)]
    pairs += [tuple(int(b) for b in rng.choice(buses, 2, replace=False)) for _ in range(rng.integers(0, n + 2))]
    lines = [Line(f, t, susceptance=float(10 ** rng.uniform(-3, 3)), rating_mw=float(rng.uniform(0.5, 500)),
                  name=f"L{j}") for j, (f, t) in enumerate(pairs)]
    return Network(tuple(buses), slack_bus=buses[int(rng.integers(n))], lines=tuple(lines))


def row_networks():
    for name in ("three_bus", "five_bus"):
        yield pytest.param(load_config(builtin_config_path(name)).network, id=name)
    for n in range(2, 11):
        for seed in range(5):
            yield pytest.param(parse_config(ring_study(n, seed)).network, id=f"ring{n}-seed{seed}")
    for seed in range(40):
        rng = np.random.default_rng(seed)
        yield pytest.param(random_network(rng, int(rng.integers(2, 13))), id=f"random-seed{seed}")
    for n in (18, 19, 20, 21, 27, 36, 45, 60):  # where a C-ordered line-susceptance operand changes bits
        yield pytest.param(random_network(np.random.default_rng(n), n), id=f"random-{n}-buses")


def dense_reference_row(network: Network, line: str) -> np.ndarray:
    """The rated row from the full nodal matrix: numpy sums in line order, then the slack cut out."""
    pos = {b: i for i, b in enumerate(network.bus_ids)}
    nodal = np.zeros((len(pos), len(pos)))
    b_flow = np.zeros((len(network.lines), len(pos)))
    for j, ln in enumerate(network.lines):
        f, t, b = pos[ln.from_bus], pos[ln.to_bus], ln.susceptance
        nodal[f, f] += b
        nodal[t, t] += b
        nodal[f, t] -= b
        nodal[t, f] -= b
        b_flow[j, f], b_flow[j, t] = b, -b
    keep = [pos[b] for b in network.non_slack_buses]
    h = b_flow[:, keep] @ np.linalg.inv(nodal[np.ix_(keep, keep)])
    j = network.line_index(line)
    return h[j] / network.lines[j].rating_mw


@pytest.mark.parametrize("network", row_networks())
def test_ptdf_rows_equal_the_dense_reference_bit_for_bit(network):
    ptdf = rate_scale_ptdf(build_ptdf(network), network)
    for line in network.lines:
        assert ptdf.row(line.label).tobytes() == dense_reference_row(network, line.label).tobytes()


def test_disconnected_network_rejected():
    with pytest.raises(DisconnectedNetworkError):
        Network((1, 2, 3, 4), slack_bus=1, lines=(Line(1, 2, 1.0, 1.0), Line(3, 4, 1.0, 1.0)))


@pytest.mark.parametrize(
    "line",
    [
        dict(from_bus=1, to_bus=1, susceptance=1.0, rating_mw=1.0),
        dict(from_bus=1, to_bus=2, susceptance=-1.0, rating_mw=1.0),
        dict(from_bus=1, to_bus=2, susceptance=1.0, rating_mw=0.0),
    ],
)
def test_bad_line_rejected(line):
    with pytest.raises(ConfigurationError):
        Line(**line)


def test_missing_slack_rejected():
    with pytest.raises(ConfigurationError):
        Network((1, 2), slack_bus=9, lines=(Line(1, 2, 1.0, 1.0),))


def bridged_by_a_subnormal_line():
    """Connected tree 1-2-3 whose line 2-3 has a subnormal susceptance: its PTDF overflows."""
    raw = ring_study(2)
    raw["network"]["lines"] = raw["network"]["lines"][:2]
    raw["network"]["lines"][1]["susceptance_pu"] = 5e-324
    return parse_config(raw)


def test_connected_network_with_an_overflowing_inverse_is_refused():
    with pytest.raises(DisconnectedNetworkError, match="singular"):
        build_ptdf(bridged_by_a_subnormal_line().network)


def test_connected_network_with_a_singular_solve_is_refused():
    # chain 0-1-2, slack 0: 1 + 1e16 rounds to 1e16, and the reduced matrix
    # [[1e16, -1e16], [-1e16, 1e16]] is exactly singular, so inv raises
    stiff = Network((0, 1, 2), slack_bus=0, lines=(Line(0, 1, 1.0, 1.0), Line(1, 2, 1e16, 1.0)))
    with pytest.raises(DisconnectedNetworkError, match="^reduced susceptance matrix is singular$") as info:
        build_ptdf(stiff)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_refuses_what_build_ptdf_refuses(stage):
    with pytest.raises(DisconnectedNetworkError, match="singular"):
        stage_state(bridged_by_a_subnormal_line(), stage)


def overflowing_nodal_sums():
    """Tree 1-2-3 at 1e308 on both lines: bus 2's nodal susceptance sum overflows to inf."""
    raw = ring_study(2)
    raw["network"]["lines"] = raw["network"]["lines"][:2]
    for line in raw["network"]["lines"]:
        line["susceptance_pu"] = 1e308
    return raw


OVERFLOW = "nodal susceptance sums overflow"


def test_overflowing_nodal_sums_are_refused_not_inverted_to_zeros():
    # np.linalg.inv would return zeros here, and the 1-2 PTDF row would be [0, 0, 0]
    with pytest.raises(ConfigurationError, match=OVERFLOW):
        build_ptdf(parse_config(overflowing_nodal_sums()).network)


@pytest.mark.parametrize("stage", STAGES)
def test_every_stage_refuses_overflowing_nodal_sums(stage):
    with pytest.raises(ConfigurationError, match=OVERFLOW):
        stage_state(parse_config(overflowing_nodal_sums()), stage)


def test_run_refuses_overflowing_nodal_sums(tmp_path, capsys):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(overflowing_nodal_sums()))
    assert main(["run", "--config", str(path)]) == 2
    assert OVERFLOW in capsys.readouterr().err


def test_stage_psi_builds_no_ptdf(monkeypatch):
    def refuse(*_):
        raise AssertionError("stage psi built the PTDF")

    monkeypatch.setattr(runner, "build_ptdf", refuse)
    monkeypatch.setattr(runner, "rate_scale_ptdf", refuse)
    config = nine_qubit_ring()
    psi = joint_state([encode(d) for d in config.ordered_injections()])
    assert np.array_equal(stage_state(config, "psi").amplitudes, psi.amplitudes)
