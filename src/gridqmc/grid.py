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
        try:
            j = self.line_order.index(line_label)
        except ValueError:
            raise ConfigurationError(f"unknown line {line_label!r}") from None
        keep = [i for i, b in enumerate(self.bus_order) if b != self.slack_bus]
        return self.h[j, keep].copy()


def _nodal_solve(network: Network) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Kept-bus line susceptances, the reduced nodal inverse (refused if singular or overflowing), the kept buses.

    One loop over the lines adds each line into the reduced matrix, in line order: O(lines) Python
    work whatever the bus count. A sum that overflows is inf, without a warning, and is refused below.
    """
    keep = [i for i, b in enumerate(network.bus_ids) if b != network.slack_bus]
    col = {network.bus_ids[i]: c for c, i in enumerate(keep)}  # the slack bus has no column
    reduced = np.zeros((len(keep), len(keep)))
    b_flow_t = np.zeros((len(keep), len(network.lines)))
    with np.errstate(over="ignore"):
        for j, line in enumerate(network.lines):
            f, t, b = col.get(line.from_bus), col.get(line.to_bus), line.susceptance
            if f is not None:
                reduced[f, f] += b
                b_flow_t[f, j] = b
            if t is not None:
                reduced[t, t] += b
                b_flow_t[t, j] = -b
                if f is not None:
                    reduced[f, t] -= b
                    reduced[t, f] -= b
    if not np.all(np.isfinite(reduced)):  # inv would return zeros, a PTDF of all zeros
        raise ConfigurationError("nodal susceptance sums overflow: the reduced susceptance matrix is not finite")
    try:
        inv = np.linalg.inv(reduced)
    except np.linalg.LinAlgError as exc:
        raise DisconnectedNetworkError("reduced susceptance matrix is singular") from exc
    if not np.all(np.isfinite(inv)):
        raise DisconnectedNetworkError("reduced susceptance matrix is singular")
    # b_flow in Fortran order, the layout the PTDF's bits are pinned to: BLAS takes another kernel
    # for a C-ordered operand, whose last bits differ at some sizes (first at 18 buses)
    return b_flow_t.T, inv, keep


def build_ptdf(network: Network) -> PtdfMatrix:
    """Build the unrated distribution-factor matrix from the susceptance data.

    Solves the reduced nodal system (slack row/column removed) and applies
    the line-to-bus susceptance map, so that ``h @ p`` equals the DC branch
    flows for any injection vector ``p`` with the slack absorbing the balance.
    """
    b_flow, inv, keep = _nodal_solve(network)
    h = np.zeros((len(network.lines), len(network.bus_ids)))
    h[:, keep] = b_flow @ inv
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
