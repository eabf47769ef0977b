"""DC network model and power transfer distribution factors.

The distribution-factor matrix maps bus injections (slack excluded) to line
flows under the lossless DC approximation.  Rows can additionally be divided
by the line MW ratings so that downstream results are loading fractions
(1.0 = 100% of rating).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError, DisconnectedNetworkError


@dataclass(frozen=True)
class Line:
    """A transmission line between two buses.

    Susceptance is given directly in per unit; the sign convention for flow
    is positive from ``from_bus`` to ``to_bus``.
    """

    from_bus: int
    to_bus: int
    susceptance: float
    rating_mw: float
    name: str = ""

    def __post_init__(self):
        if self.from_bus == self.to_bus:
            raise ConfigurationError(f"line {self.label} is a self loop")
        if not 0 < self.susceptance < math.inf:
            raise ConfigurationError(f"line {self.label}: susceptance must be finite and > 0")
        if not 0 < self.rating_mw < math.inf:
            raise ConfigurationError(f"line {self.label}: rating_mw must be finite and > 0")

    @property
    def label(self) -> str:
        return self.name or f"{self.from_bus}-{self.to_bus}"


@dataclass(frozen=True)
class Network:
    """Grid topology: bus ids, slack bus and line list.

    The graph must be connected and every line endpoint must be a declared
    bus.  All values are immutable after construction.
    """

    bus_ids: tuple[int, ...]
    slack_bus: int
    lines: tuple[Line, ...]

    def __post_init__(self):
        object.__setattr__(self, "bus_ids", tuple(self.bus_ids))
        object.__setattr__(self, "lines", tuple(self.lines))
        if len(set(self.bus_ids)) != len(self.bus_ids):
            raise ConfigurationError("duplicate bus ids")
        if self.slack_bus not in self.bus_ids:
            raise ConfigurationError(f"slack bus {self.slack_bus} is not a declared bus")
        if not self.lines:
            raise ConfigurationError("network needs at least one line")
        declared = set(self.bus_ids)
        for line in self.lines:
            if line.from_bus not in declared or line.to_bus not in declared:
                raise ConfigurationError(f"line {line.label} references an undeclared bus")
        labels = [line.label for line in self.lines]
        if len(set(labels)) != len(labels):
            raise ConfigurationError("duplicate line labels")
        if not self._connected():
            raise DisconnectedNetworkError("network graph is not connected")

    def _connected(self) -> bool:
        adjacency: dict[int, set[int]] = {b: set() for b in self.bus_ids}
        for line in self.lines:
            adjacency[line.from_bus].add(line.to_bus)
            adjacency[line.to_bus].add(line.from_bus)
        seen = {self.bus_ids[0]}
        stack = [self.bus_ids[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.bus_ids)

    @property
    def non_slack_buses(self) -> tuple[int, ...]:
        return tuple(b for b in self.bus_ids if b != self.slack_bus)

    def line_index(self, label: str) -> int:
        for j, line in enumerate(self.lines):
            if line.label == label:
                return j
        raise ConfigurationError(f"unknown line {label!r}")


@dataclass(frozen=True)
class PtdfMatrix:
    """Dense distribution-factor matrix with an explicit zero slack column.

    ``h[j, i]`` is the sensitivity of line ``line_order[j]`` to a unit
    injection at bus ``bus_order[i]``; the slack column is identically zero
    so that bus indexing stays uniform.
    """

    h: np.ndarray
    rated: bool
    line_order: tuple[str, ...]
    bus_order: tuple[int, ...]
    slack_bus: int = field(default=-1)

    def row(self, line_label: str) -> np.ndarray:
        """Row for one line, restricted to the non-slack buses in bus order."""
        j = self.line_order.index(line_label)
        keep = [i for i, b in enumerate(self.bus_order) if b != self.slack_bus]
        return self.h[j, keep].copy()


def _nodal_solve(network: Network) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Line susceptances by bus, the reduced nodal inverse (refused if singular or overflowing) and the kept buses."""
    buses = list(network.bus_ids)
    n_bus = len(buses)
    pos = {b: i for i, b in enumerate(buses)}
    slack_pos = pos[network.slack_bus]

    b_nodal = np.zeros((n_bus, n_bus))
    b_flow = np.zeros((len(network.lines), n_bus))
    with np.errstate(over="ignore"):  # a sum that overflows is refused below, not warned about
        for j, line in enumerate(network.lines):
            f, t = pos[line.from_bus], pos[line.to_bus]
            b = line.susceptance
            b_nodal[f, f] += b
            b_nodal[t, t] += b
            b_nodal[f, t] -= b
            b_nodal[t, f] -= b
            b_flow[j, f] = b
            b_flow[j, t] = -b

    keep = [i for i in range(n_bus) if i != slack_pos]
    reduced = b_nodal[np.ix_(keep, keep)]
    if not np.all(np.isfinite(reduced)):  # inv would return zeros, a PTDF of all zeros
        raise ConfigurationError("nodal susceptance sums overflow: the reduced susceptance matrix is not finite")
    try:
        inv = np.linalg.inv(reduced)
    except np.linalg.LinAlgError as exc:
        raise DisconnectedNetworkError("reduced susceptance matrix is singular") from exc
    if not np.all(np.isfinite(inv)):
        raise DisconnectedNetworkError("reduced susceptance matrix is singular")
    return b_flow, inv, keep


def build_ptdf(network: Network) -> PtdfMatrix:
    """Build the unrated distribution-factor matrix from the susceptance data.

    Solves the reduced nodal system (slack row/column removed) and applies
    the line-to-bus susceptance map, so that ``h @ p`` equals the DC branch
    flows for any injection vector ``p`` with the slack absorbing the balance.
    """
    b_flow, inv, keep = _nodal_solve(network)
    h = np.zeros(b_flow.shape)
    h[:, keep] = b_flow[:, keep] @ inv
    return PtdfMatrix(
        h=h,
        rated=False,
        line_order=tuple(line.label for line in network.lines),
        bus_order=network.bus_ids,
        slack_bus=network.slack_bus,
    )


def rate_scale_ptdf(ptdf: PtdfMatrix, network: Network) -> PtdfMatrix:
    """Divide each row by the line rating so outputs are loading fractions."""
    if ptdf.rated:
        raise ConfigurationError("ptdf is already rated")
    rating = {line.label: line.rating_mw for line in network.lines}
    try:
        ratings = np.array([rating[lbl] for lbl in ptdf.line_order])
    except KeyError as exc:
        raise ConfigurationError(f"unknown line {exc.args[0]!r}") from None
    return replace(ptdf, h=ptdf.h / ratings[:, None], rated=True)
