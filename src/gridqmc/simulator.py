"""Minimal statevector simulator.

Supports exactly what the pipeline needs: Householder reflections, checking
matrix-free operators, reading exact basis-state probabilities and drawing
seeded measurement shots.  Every operator the pipeline builds is real
orthogonal, so amplitudes are float64.  Everything is immutable; no gates,
no noise, no hardware backends.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EnumerationBoundError

MAX_QUBITS = 20

_NORM_TOL = 1e-9
_UNITARY_TOL = 1e-10
_PROBE_COUNT = 3
_PROBE_SEED = 20231003
#: a reflection vector with a smaller squared norm stands for the identity
_IDENTITY_NORM2 = 1e-24


def check_qubit_count(n_qubits: int) -> None:
    """Refuse a study of more than ``MAX_QUBITS`` qubits, before any joint state is formed."""
    if n_qubits > MAX_QUBITS:
        raise EnumerationBoundError(
            f"{n_qubits} qubits ({2**n_qubits} joint states), at most {MAX_QUBITS} supported"
        )


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
        if abs(np.linalg.norm(amps) - 1.0) > _NORM_TOL:
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


def probe_unitary(
    op: Callable[[np.ndarray], np.ndarray],
    dim: int,
    adjoint: Callable[[np.ndarray], np.ndarray] | None = None,
    probes: np.ndarray | None = None,
) -> np.ndarray:
    """Check a matrix-free operator on seeded random unit vectors and return them.

    The vectors are the columns of one ``(dim, _PROBE_COUNT)`` block, so
    ``op`` and ``adjoint`` must map a block column by column, as they map a
    vector.  Requires ``||U x|| = ||x||`` and, given the adjoint,
    ``U^T U x = x`` for every column within the unitarity tolerance: two
    operator calls in place of the O(dim^3) dense check.  ``probes``, a
    block that an earlier probe returned, replaces the seeded draw.
    """
    if (x := probes) is None:
        rng = np.random.default_rng(_PROBE_SEED)
        x = rng.standard_normal((_PROBE_COUNT, dim))
        x /= np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
        x = x.T  # one probe per column
    ux = op(x)
    residual = float(np.max(np.abs(np.sqrt(np.einsum("ij,ij->j", ux, ux)) - 1.0)))
    if adjoint is not None:
        back = adjoint(ux) - x
        residual = max(residual, float(np.max(np.abs(back, out=back))))
    if residual > _UNITARY_TOL:
        raise ConfigurationError(f"operator is not unitary (probe residual {residual:.2e})")
    return x


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
