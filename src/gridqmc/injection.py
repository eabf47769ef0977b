"""Discrete per-bus injection forecasts and their amplitude encoding.

A forecast is a probability vector over 2**n megawatt levels.  The encoding
stores the probabilities themselves, L2-normalized, directly as amplitudes
(not their square roots), so measurement probabilities are the squares of
the forecast probabilities up to the recorded norm factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .simulator import StateVector

_PROB_SUM_TOL = 1e-9


@dataclass(frozen=True)
class InjectionDistribution:
    """Forecast for one bus: MW levels and their probabilities.

    Levels may be negative (loads); the vector length must be a power of two
    and the levels strictly increasing.
    """

    bus: int
    values_mw: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values_mw, dtype=float)
        probs = np.asarray(self.probabilities, dtype=float)
        values.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "values_mw", values)
        object.__setattr__(self, "probabilities", probs)
        n = len(values)
        if n == 0 or n & (n - 1) != 0:
            raise ConfigurationError(f"bus {self.bus}: number of levels must be a power of two")
        if len(probs) != n:
            raise ConfigurationError(f"bus {self.bus}: values and probabilities differ in length")
        # NaN passes every comparison below, so finiteness comes first
        for name, arr in (("values_mw", values), ("probabilities", probs)):
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"bus {self.bus}: {name} must be finite")
        if np.any(np.diff(values) <= 0):
            raise ConfigurationError(f"bus {self.bus}: values_mw must be strictly increasing")
        if np.any(probs < 0) or np.any(probs > 1):
            raise ConfigurationError(f"bus {self.bus}: probabilities must lie in [0, 1]")
        if abs(probs.sum() - 1.0) > _PROB_SUM_TOL:
            raise ConfigurationError(
                f"bus {self.bus}: probabilities sum to {probs.sum():.6f}, expected 1"
            )

    @property
    def n_qubits(self) -> int:
        return len(self.values_mw).bit_length() - 1


@dataclass(frozen=True)
class EncodedInjection:
    """L2-normalized amplitude vector plus the norm factor for rescaling."""

    amplitudes: np.ndarray
    norm_factor: float

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=float)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_qubits(self) -> int:
        return len(self.amplitudes).bit_length() - 1


def encode(dist: InjectionDistribution) -> EncodedInjection:
    """Normalize a forecast's probability vector into quantum amplitudes."""
    norm = math.sqrt(float(dist.probabilities @ dist.probabilities))
    return EncodedInjection(amplitudes=dist.probabilities / norm, norm_factor=norm)


def joint_state(encodings: list[EncodedInjection]) -> StateVector:
    """Kronecker product of the per-bus encodings, first register most significant.

    Each bus's state prep takes ``e_0`` to its amplitudes, so this is also
    the state prep applied to ``|0>``.
    """
    if not encodings:
        raise ConfigurationError("need at least one encoding")
    amps = encodings[0].amplitudes
    for enc in encodings[1:]:
        amps = np.multiply.outer(amps, enc.amplitudes).ravel()
    n = sum(enc.n_qubits for enc in encodings)
    return StateVector(n, amps)
