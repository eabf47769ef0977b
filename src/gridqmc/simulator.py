"""Minimal statevector simulator.

Supports exactly what the pipeline needs: Householder reflections, reading
exact basis-state probabilities and drawing seeded measurement shots.  Every
operator the pipeline builds is real orthogonal, so amplitudes are float64.
Everything is immutable; no gates, no noise, no hardware backends.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EnumerationBoundError

MAX_QUBITS = 20

#: the most shots :func:`sample_counts` draws: numpy counts them in int64
MAX_SHOTS = int(np.iinfo(np.int64).max)

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-10
#: a reflection vector with a smaller squared norm stands for the identity
_IDENTITY_NORM2 = 1e-24


def check_qubit_count(n_qubits: int) -> None:
    """Refuse a study of more than ``MAX_QUBITS`` qubits, before any joint state is formed."""
    if n_qubits > MAX_QUBITS:
        raise EnumerationBoundError(
            f"{n_qubits} qubits ({2**n_qubits} joint states), at most {MAX_QUBITS} supported"
        )


def check_shots(shots: int) -> None:
    """Refuse a shot count below 1 or over ``MAX_SHOTS``."""
    if shots < 1:
        raise ConfigurationError("shots must be >= 1")
    if shots > MAX_SHOTS:
        raise ConfigurationError(f"shots must be at most {MAX_SHOTS} (2^63 - 1)")


def _frozen_real(values) -> np.ndarray:
    """Read-only float64 copy of ``values``; input that is not real is refused, not cast."""
    if not np.isrealobj(values):
        raise ConfigurationError("amplitudes must be real")
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure n-qubit state as a real amplitude vector of length 2**n."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen_real(self.amplitudes)
        object.__setattr__(self, "amplitudes", amps)
        check_qubit_count(self.n_qubits)
        if amps.shape != (2**self.n_qubits,):
            raise ConfigurationError("amplitude vector length must be 2**n_qubits")
        if not abs(math.sqrt(float(amps @ amps)) - 1.0) <= _NORM_TOL:  # a NaN norm is refused too
            raise ConfigurationError("statevector is not normalized")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def probabilities(self) -> np.ndarray:
        return self.amplitudes**2


def householder(u: np.ndarray, axis: int) -> tuple[np.ndarray, float]:
    """Householder reflection ``I - gain w w^T`` swapping ``e_axis`` and the unit vector ``u``.

    Returns ``(w, gain)`` with ``w = u - e_axis`` and ``gain = 2 / ||w||^2``;
    the gain is zero, the identity, when ``u`` already is that basis state.
    """
    w = np.array(u, dtype=float)
    w[axis] -= 1.0
    wnorm2 = float(w @ w)
    return w, 0.0 if wnorm2 < _IDENTITY_NORM2 else 2.0 / wnorm2


def sample_counts(s: StateVector, shots: int, rng_seed: int) -> np.ndarray:
    """Draw a multinomial histogram over all basis states.

    Deterministic for a fixed seed; returns a length-2**n integer array of
    counts, including zero rows.
    """
    check_shots(shots)
    probs = s.probabilities()
    probs = probs / probs.sum()  # strip the 1e-9 norm slack
    rng = np.random.default_rng(rng_seed)
    return rng.multinomial(shots, probs)
