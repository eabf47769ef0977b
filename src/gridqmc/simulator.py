"""Minimal statevector simulator.

Supports exactly what the pipeline needs: Householder reflections, applying
dense unitaries, checking matrix-free operators, reading exact basis-state
probabilities and drawing seeded measurement shots.  Every operator the
pipeline builds is real orthogonal, so amplitudes are float64.  Everything
is immutable; no gates, no noise, no hardware backends.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

MAX_QUBITS = 20

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-10
_PROBE_COUNT = 3
_PROBE_SEED = 20231003
#: a reflection vector with a smaller squared norm stands for the identity
_IDENTITY_NORM2 = 1e-24


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
        if self.n_qubits > MAX_QUBITS:
            raise ConfigurationError(f"at most {MAX_QUBITS} qubits supported")
        if amps.shape != (2**self.n_qubits,):
            raise ConfigurationError("amplitude vector length must be 2**n_qubits")
        if abs(np.linalg.norm(amps) - 1.0) > _NORM_TOL:
            raise ConfigurationError("statevector is not normalized")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def probabilities(self) -> np.ndarray:
        return self.amplitudes**2


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense real orthogonal operator on n qubits, checked at construction."""

    entries: np.ndarray

    def __post_init__(self):
        mat = _frozen_real(self.entries)
        object.__setattr__(self, "entries", mat)
        n, m = mat.shape
        if n != m or n & (n - 1) != 0:
            raise ConfigurationError("unitary must be square with power-of-two dimension")
        if n > 2**MAX_QUBITS:
            raise ConfigurationError(f"at most {MAX_QUBITS} qubits supported")
        residual = np.max(np.abs(mat.T @ mat - np.eye(n)))
        if residual > _UNITARY_TOL * n:
            raise ConfigurationError(f"matrix is not unitary (residual {residual:.2e})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(self.entries.shape[0]).bit_length() - 1


def householder(u: np.ndarray, axis: int) -> tuple[np.ndarray, float]:
    """Householder reflection ``I - gain w w^T`` swapping ``e_axis`` and the unit vector ``u``.

    Returns ``(w, gain)`` with ``w = u - e_axis`` and ``gain = 2 / ||w||^2``;
    the gain is zero, the identity, when ``u`` already is that basis state.
    """
    w = np.array(u, dtype=float)
    w[axis] -= 1.0
    wnorm2 = float(w @ w)
    return w, 0.0 if wnorm2 < _IDENTITY_NORM2 else 2.0 / wnorm2


def reflection_unitary(w: np.ndarray, gain: float) -> UnitaryMatrix:
    """Dense form ``I - gain w w^T`` of a :func:`householder` reflection."""
    return UnitaryMatrix(np.eye(len(w)) - gain * np.outer(w, w))


def probe_unitary(
    op: Callable[[np.ndarray], np.ndarray],
    dim: int,
    adjoint: Callable[[np.ndarray], np.ndarray] | None = None,
) -> None:
    """Check a matrix-free operator on seeded random unit vectors.

    Requires ``||U x|| = ||x||`` and, given the adjoint, ``U^T U x = x``
    within the unitarity tolerance: a few operator calls in place of the
    O(dim^3) dense check.
    """
    rng = np.random.default_rng(_PROBE_SEED)
    for _ in range(_PROBE_COUNT):
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        ux = op(x)
        residual = abs(np.linalg.norm(ux) - 1.0)
        if adjoint is not None:
            residual = max(residual, float(np.max(np.abs(adjoint(ux) - x))))
        if residual > _UNITARY_TOL:
            raise ConfigurationError(f"operator is not unitary (probe residual {residual:.2e})")


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def apply(u: UnitaryMatrix, s: StateVector) -> StateVector:
    """Apply a unitary to a state; norm is preserved by construction."""
    if u.dim != s.dim:
        raise ConfigurationError(f"dimension mismatch: {u.dim} vs {s.dim}")
    return StateVector(s.n_qubits, u.entries @ s.amplitudes)


def probability_of(s: StateVector, basis_index: int) -> float:
    """Exact probability of measuring one computational basis state."""
    if not 0 <= basis_index < s.dim:
        raise ConfigurationError(f"basis index {basis_index} out of range")
    return float(s.amplitudes[basis_index] ** 2)


def sample_counts(s: StateVector, shots: int, rng_seed: int) -> np.ndarray:
    """Draw a multinomial histogram over all basis states.

    Deterministic for a fixed seed; returns a length-2**n integer array of
    counts, including zero rows.
    """
    if shots < 1:
        raise ConfigurationError("shots must be >= 1")
    probs = s.probabilities()
    probs = probs / probs.sum()  # strip the 1e-9 norm slack
    rng = np.random.default_rng(rng_seed)
    return rng.multinomial(shots, probs)
