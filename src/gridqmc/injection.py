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
from .simulator import StateVector, householder

_PROB_SUM_TOL = 1e-9
#: :func:`reflect_axes` updates an axis in slices whose temporary holds at most
#: this many elements
_UPDATE_ELEMENTS = 2**16
#: :func:`prep_reflections` fuses adjacent buses into one dense factor while the
#: fused axis has at most this many levels; 64 was slower at 20 qubits
_FUSED_LEVELS = 16


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
        amps = np.multiply.outer(amps, enc.amplitudes).ravel()
    n = sum(enc.n_qubits for enc in encodings)
    return StateVector(n, amps)


@dataclass(frozen=True)
class _Reflection:
    """Reflection ``I - gw w^T`` of a bus of more than ``_FUSED_LEVELS`` levels, not formed as a matrix.

    Its dense form would take k^2 floats, 8 TiB for one bus of 2^20 levels.
    ``f @ x`` applies it along the first of the last two axes of ``x``, as
    for a dense factor.
    """

    w: np.ndarray
    gw: np.ndarray

    def __len__(self) -> int:
        return len(self.w)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return x - self.gw[:, None] * (self.w @ x)[..., None, :]


def prep_reflections(encodings: Sequence[EncodedInjection]) -> tuple[np.ndarray | _Reflection, ...]:
    """The state prep as a few factors: the Kronecker product of every bus's reflection of ``e_0`` onto its amplitudes.

    Adjacent buses share one dense factor, the Kronecker product of their
    reflections, while the fused axis has at most ``_FUSED_LEVELS`` levels:
    buses of 4, 4, 4, 4 and 2 levels give factors of 16, 16 and 2.  A bus of
    more levels is a factor of its own, kept as its rank-1 reflection.  Each
    factor is exactly symmetric, and so is their product.
    """
    factors, fused = [], np.eye(1)
    for enc in encodings:
        w, gain = householder(enc.amplitudes, 0)
        if len(fused) * len(w) > _FUSED_LEVELS:
            factors.append(fused)
            fused = np.eye(1)
        if len(w) > _FUSED_LEVELS:
            factors.append(_Reflection(w, gain * w))
        else:
            r = np.eye(len(w)) - gain * np.outer(w, w)  # joined by broadcasting, bit for bit np.kron(fused, r)
            fused = (fused[:, None, :, None] * r[None, :, None, :]).reshape(len(fused) * len(r), -1)
    return tuple(f for f in [*factors, fused] if len(f) > 1)


def reflect_axes(factors: Sequence[np.ndarray | _Reflection], y: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of :func:`prep_reflections` to ``y`` in place and return it.

    ``y``, a C-contiguous vector or ``(dim, m)`` block of columns, is viewed
    as one axis per factor, first factor most significant, and each factor
    is applied along its axis by one matrix product per slice: ``f @ block``
    with the axis in the middle of a ``(left, k, right)`` view, and on the
    last axis of a vector ``f @ rows.T``, one GEMM per slice of rows.  No
    temporary holds more than ``_UPDATE_ELEMENTS`` elements, or one axis of
    a bus that has more levels.  The product is symmetric, so this is also
    its adjoint.  The caller checks that ``len(y)`` is the product of the
    axis lengths.
    """
    left, right = 1, y.size
    for f in factors:
        k = len(f)
        right //= k
        if right == 1:
            rows = y.reshape(left, k)
            step = max(1, _UPDATE_ELEMENTS // k)
            for i in range(0, left, step):
                rows[i : i + step] = (f @ rows[i : i + step].T).T
        else:
            block = y.reshape(left, k, right)
            width = min(right, max(1, _UPDATE_ELEMENTS // k))
            step = max(1, _UPDATE_ELEMENTS // (k * width))
            for i in range(0, left, step):
                for j in range(0, right, width):
                    sub = block[i : i + step, :, j : j + width]
                    sub[...] = f @ sub
        left *= k
    return y
