"""Discrete per-bus injection forecasts and their amplitude encoding.

A forecast is a probability vector over 2**n megawatt levels.  The encoding
stores the probabilities themselves, L2-normalized, directly as amplitudes
(not their square roots), so measurement probabilities are the squares of
the forecast probabilities up to the recorded norm factor.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .simulator import StateVector, UnitaryMatrix, householder, reflection_unitary

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
    norm = float(np.linalg.norm(dist.probabilities))
    if norm == 0.0:
        raise ConfigurationError(f"bus {dist.bus}: all-zero probability vector")
    return EncodedInjection(amplitudes=dist.probabilities / norm, norm_factor=norm)


def joint_state(encodings: list[EncodedInjection]) -> StateVector:
    """Kronecker product of the per-bus encodings, first register most significant."""
    if not encodings:
        raise ConfigurationError("need at least one encoding")
    amps = encodings[0].amplitudes
    for enc in encodings[1:]:
        amps = np.kron(amps, enc.amplitudes)
    n = sum(enc.n_qubits for enc in encodings)
    return StateVector(n, amps)


def state_prep_unitary(encoding: EncodedInjection) -> UnitaryMatrix:
    """Unitary whose first column is the amplitude vector.

    A Householder reflection mapping the all-zero basis state onto the
    amplitude vector; reduces to the identity when the vector already is
    that basis state.
    """
    return reflection_unitary(*householder(encoding.amplitudes, 0))


def prep_reflections(encodings: Sequence[EncodedInjection]) -> tuple[tuple[np.ndarray, float], ...]:
    """Per bus the :func:`householder` ``(w, gain)`` of :func:`state_prep_unitary`."""
    return tuple(householder(enc.amplitudes, 0) for enc in encodings)


def reflect_axes(reflections: Sequence[tuple[np.ndarray, float]], x: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of :func:`prep_reflections` to ``x``.

    ``x`` is viewed as one axis per bus, first bus most significant, and
    each reflection contracts its own axis: O(2^n * sum 2^k) time, no
    matrix.  The product is symmetric, so this is also its adjoint.  The
    caller checks that ``len(x)`` is the product of the axis lengths.
    """
    y = np.array(x, dtype=float)
    left, right = 1, len(y)
    for w, gain in reflections:
        k = len(w)
        right //= k
        if gain:
            block = y.reshape(left, k, right)
            dots = np.einsum("lkr,k->lr", block, w)
            block -= gain * w[None, :, None] * dots[:, None, :]
        left *= k
    return y


def apply_state_prep(encodings: Sequence[EncodedInjection], x: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of the per-bus :func:`state_prep_unitary` to ``x``."""
    if len(x) != int(np.prod([len(enc.amplitudes) for enc in encodings])):
        raise ConfigurationError("state length does not match the encodings")
    return reflect_axes(prep_reflections(encodings), x)
