"""Configuration schema: JSON ingestion and validation.

The documented schema (see README) carries the network, one injection
forecast per non-slack bus, and the analysis settings.  All physical units
are explicit in the field names (``_mw``, ``_pu``, ``_pct``).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

from .errors import ConfigurationError
from .estimation import IQAE_MAX_EPSILON, MAX_SHOTS_PER_ROUND
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
    methods: tuple[str, ...] = VALID_METHODS
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
        if not 1 <= self.shots_per_round <= MAX_SHOTS_PER_ROUND:
            raise ConfigurationError(f"analysis.shots_per_round: must lie in [1, {MAX_SHOTS_PER_ROUND}]")
        if not self.seed >= 0:
            raise ConfigurationError("analysis.seed: must be non-negative")
        for i, m in enumerate(self.methods):
            if m not in VALID_METHODS:
                raise ConfigurationError(f"analysis.methods: unknown method {m!r}")
            if m in self.methods[:i]:
                raise ConfigurationError(f"analysis.methods: duplicate method {m!r}")
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


def _typed(value, types, path: str, what: str):
    """``value`` if it has the JSON type ``what``: a bool is no number, nor is a numeric string."""
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigurationError(f"{path}: must be {what}, got {value!r}")
    return value


def _number(value, path: str) -> float:
    return float(_typed(value, (int, float), path, "a number"))


def _integer(value, path: str) -> int:
    """``value`` as an int; a fraction, a bool or a non-number is refused, not truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _typed(value, int, path, "an integer")


def _string(value, path: str) -> str:
    return _typed(value, str, path, "a string")


def _list_of(read):
    """Reader of a JSON list whose every item ``read`` reads."""
    def read_list(value, path: str) -> list:
        return [read(item, f"{path}[{i}]") for i, item in enumerate(_typed(value, list, path, "a list"))]
    return read_list


#: how :func:`parse_config` reads an ``analysis`` field, by its annotation in AnalysisSettings
_ANALYSIS_READERS = {"str": _string, "float": _number, "int": _integer,
                     "tuple[str, ...]": lambda value, path: tuple(_list_of(_string)(value, path))}


def _object(value, path: str, known) -> dict:
    """``value`` if it is a JSON object whose every key is one of ``known``: a misspelt key is refused."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{path}: must be an object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(known))
    if unknown:
        raise ConfigurationError(f"{path}: unknown fields {unknown}")
    return value


def _require(mapping: dict, key: str, path: str, read=lambda value, path: value):
    """``mapping[key]`` as ``read`` reads it."""
    if key not in mapping:
        raise ConfigurationError(f"{path}.{key}: missing required field")
    return read(mapping[key], f"{path}.{key}")


def _line(raw, path: str) -> Line:
    raw = _object(raw, path, ("id", "from_bus", "to_bus", "susceptance_pu", "rating_mw"))
    return Line(
        from_bus=_require(raw, "from_bus", path, _integer),
        to_bus=_require(raw, "to_bus", path, _integer),
        susceptance=_require(raw, "susceptance_pu", path, _number),
        rating_mw=_require(raw, "rating_mw", path, _number),
        name=_string(raw.get("id", ""), f"{path}.id"),
    )


def _injection(raw, path: str) -> InjectionDistribution:
    raw = _object(raw, path, ("bus", "values_mw", "probabilities"))
    return InjectionDistribution(
        bus=_require(raw, "bus", path, _integer),
        values_mw=_require(raw, "values_mw", path, _list_of(_number)),
        probabilities=_require(raw, "probabilities", path, _list_of(_number)),
    )


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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from exc
    if analysis_overrides and isinstance(raw, dict) and isinstance(raw.get("analysis"), dict):
        raw["analysis"].update(analysis_overrides)
    return parse_config(raw, source=str(path))


def parse_config(raw: dict, source: str = "") -> PipelineConfig:
    """Read a study's JSON value, every field as its JSON type.

    Absent ``analysis`` fields take the defaults of :class:`AnalysisSettings`.
    Every object refuses a key that is none of its fields, naming the
    object's JSON path; the top level also accepts a ``description``.
    """
    raw = _object(raw, "$", ("network", "injections", "analysis", "description"))
    net_raw = _object(_require(raw, "network", "$"), "$.network", ("buses", "slack_bus", "lines"))
    network = Network(
        bus_ids=tuple(_require(net_raw, "buses", "$.network", _list_of(_integer))),
        slack_bus=_require(net_raw, "slack_bus", "$.network", _integer),
        lines=tuple(_require(net_raw, "lines", "$.network", _list_of(_line))),
    )
    injections = _require(raw, "injections", "$", _list_of(_injection))

    annotations = {f.name: f.type for f in fields(AnalysisSettings)}
    an_raw = _object(_require(raw, "analysis", "$"), "$.analysis", annotations)
    _require(an_raw, "line", "$.analysis")  # the one field without a default
    analysis = AnalysisSettings(
        **{key: _require(an_raw, key, "$.analysis", _ANALYSIS_READERS[annotations[key]]) for key in an_raw}
    )
    return PipelineConfig(network=network, injections=tuple(injections), analysis=analysis, source=source)


def builtin_config_path(name: str) -> Path:
    """Path to a packaged fixture configuration ("three_bus" or "five_bus")."""
    ref = resources.files("gridqmc") / "data" / f"{name}.json"
    if not ref.is_file():
        raise ConfigurationError(f"no builtin configuration named {name!r}")
    return Path(str(ref))
