"""Configuration schema: JSON ingestion and validation.

The documented schema (see README) carries the network, one injection
forecast per non-slack bus, and the analysis settings.  All physical units
are explicit in the field names (``_mw``, ``_pu``, ``_pct``).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError
from .estimation import IQAE_MAX_EPSILON
from .grid import Line, Network
from .injection import InjectionDistribution

VALID_METHODS = ("iqae", "cmc", "exact")


@dataclass(frozen=True)
class AnalysisSettings:
    line: str
    metric: str = "mean"
    threshold_pct: float = 90.0
    epsilon: float = 0.01
    alpha: float = 0.05
    methods: tuple[str, ...] = ("iqae", "cmc", "exact")
    shots_per_round: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.metric not in ("mean", "overload"):
            raise ConfigurationError(f"analysis.metric: unknown metric {self.metric!r}")
        if not 0 < self.threshold_pct <= 150:
            raise ConfigurationError("analysis.threshold_pct: must lie in (0, 150]")
        if not 0 < self.alpha < 1:
            raise ConfigurationError("analysis.alpha: must lie in (0, 1)")
        if not 0 < self.epsilon < math.inf:
            raise ConfigurationError("analysis.epsilon: must be positive and finite")
        if not self.shots_per_round >= 1:
            raise ConfigurationError("analysis.shots_per_round: must be at least 1")
        if not self.seed >= 0:
            raise ConfigurationError("analysis.seed: must be non-negative")
        for m in self.methods:
            if m not in VALID_METHODS:
                raise ConfigurationError(f"analysis.methods: unknown method {m!r}")
        if not self.methods:
            raise ConfigurationError("analysis.methods: must not be empty")
        if "iqae" in self.methods and not self.epsilon < IQAE_MAX_EPSILON:
            raise ConfigurationError(f"analysis.epsilon: must be below {IQAE_MAX_EPSILON} for iqae")

    @property
    def threshold_fraction(self) -> float:
        return self.threshold_pct / 100.0


@dataclass(frozen=True)
class PipelineConfig:
    network: Network
    injections: tuple[InjectionDistribution, ...]
    analysis: AnalysisSettings
    source: str = field(default="", compare=False)

    def __post_init__(self):
        object.__setattr__(self, "injections", tuple(self.injections))
        by_bus = {inj.bus for inj in self.injections}
        if len(by_bus) != len(self.injections):
            raise ConfigurationError("injections: duplicate bus entry")
        expected = set(self.network.non_slack_buses)
        if by_bus != expected:
            missing = sorted(expected - by_bus)
            extra = sorted(by_bus - expected)
            parts = []
            if missing:
                parts.append(f"missing buses {missing}")
            if extra:
                parts.append(f"unexpected buses {extra}")
            raise ConfigurationError("injections: " + ", ".join(parts))
        self.network.line_index(self.analysis.line)  # raises for unknown lines

    def ordered_injections(self) -> list[InjectionDistribution]:
        """Injections in network bus order, slack excluded."""
        by_bus = {inj.bus: inj for inj in self.injections}
        return [by_bus[b] for b in self.network.non_slack_buses]


def _integer(value, path: str) -> int:
    """``value`` as an int; a fraction, a bool or a non-number is refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{path}: must be an integer, got {value!r}")
    return value


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    return mapping[key]


def load_config(path: str | Path, analysis_overrides: dict | None = None) -> PipelineConfig:
    """Parse and validate a JSON configuration file.

    ``analysis_overrides`` replace fields of the file's ``analysis`` section
    before anything is validated, so the study is checked as it will run.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: not valid JSON ({exc})") from exc
    if analysis_overrides and isinstance(raw, dict) and isinstance(raw.get("analysis"), dict):
        raw["analysis"].update(analysis_overrides)
    return parse_config(raw, source=str(path))


def parse_config(raw: dict, source: str = "") -> PipelineConfig:
    if not isinstance(raw, dict):
        raise ConfigurationError("top level must be a JSON object")
    net_raw = _require(raw, "network", "$")
    lines = []
    for i, line_raw in enumerate(_require(net_raw, "lines", "$.network")):
        lines.append(
            Line(
                from_bus=_require(line_raw, "from_bus", f"$.network.lines[{i}]"),
                to_bus=_require(line_raw, "to_bus", f"$.network.lines[{i}]"),
                susceptance=float(_require(line_raw, "susceptance_pu", f"$.network.lines[{i}]")),
                rating_mw=float(_require(line_raw, "rating_mw", f"$.network.lines[{i}]")),
                name=str(line_raw.get("id", "")),
            )
        )
    network = Network(
        bus_ids=tuple(_require(net_raw, "buses", "$.network")),
        slack_bus=_require(net_raw, "slack_bus", "$.network"),
        lines=tuple(lines),
    )

    injections = []
    for i, inj_raw in enumerate(_require(raw, "injections", "$")):
        injections.append(
            InjectionDistribution(
                bus=_require(inj_raw, "bus", f"$.injections[{i}]"),
                values_mw=_require(inj_raw, "values_mw", f"$.injections[{i}]"),
                probabilities=_require(inj_raw, "probabilities", f"$.injections[{i}]"),
            )
        )

    an_raw = _require(raw, "analysis", "$")
    methods = an_raw.get("methods", list(VALID_METHODS))
    if not isinstance(methods, (list, tuple)):
        raise ConfigurationError(f"analysis.methods: must be a list of method names, got {methods!r}")
    analysis = AnalysisSettings(
        line=str(_require(an_raw, "line", "$.analysis")),
        metric=an_raw.get("metric", "mean"),
        threshold_pct=float(an_raw.get("threshold_pct", 90.0)),
        epsilon=float(an_raw.get("epsilon", 0.01)),
        alpha=float(an_raw.get("alpha", 0.05)),
        methods=tuple(methods),
        shots_per_round=_integer(an_raw.get("shots_per_round", 100), "analysis.shots_per_round"),
        seed=_integer(an_raw.get("seed", 0), "analysis.seed"),
    )
    return PipelineConfig(network=network, injections=tuple(injections), analysis=analysis, source=source)


def builtin_config_path(name: str) -> Path:
    """Path to a packaged fixture configuration ("three_bus" or "five_bus")."""
    ref = resources.files("gridqmc") / "data" / f"{name}.json"
    if not ref.is_file():
        raise ConfigurationError(f"no builtin configuration named {name!r}")
    return Path(str(ref))
