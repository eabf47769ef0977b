"""Dense builders: the pipeline and Grover operators as checked matrices, the small-n oracle.

Every factor of the structured :class:`~gridqmc.flowmap.PipelineOperator` is
materialized here as a matrix whose unitarity is checked in O(d^3): the
per-bus state preps, the 0/1 flow map and its completion C = P R, the
metric reflection, their product A and the Grover operator Q = A S0 A^T Sg.
Each 2^n x 2^n operator takes 2^(2n + 3) bytes, so the builders stop at
``MAX_DENSE_QUBITS``.  They serve histogram stage V and check the
structured operator in the tests.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .estimation import _check_rotation
from .flowmap import (
    EstimatorVector,
    LevelCompletion,
    LineLevels,
    _metric_reflection,
    build_estimator_vector,
    line_levels,
)
from .injection import EncodedInjection, InjectionDistribution, encode
from .simulator import _UNITARY_TOL, StateVector, _frozen_real, householder

#: qubits above which :func:`build_line_map` refuses to build the dense path, whose
#: n_columns x n_columns float64 operators take 2^(2n + 3) bytes each
MAX_DENSE_QUBITS = 12


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
        residual = np.max(np.abs(mat.T @ mat - np.eye(n)))
        if residual > _UNITARY_TOL * n:
            raise ConfigurationError(f"matrix is not unitary (residual {residual:.2e})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(self.entries.shape[0]).bit_length() - 1


def reflection_unitary(w: np.ndarray, gain: float) -> UnitaryMatrix:
    """Dense form ``I - gain w w^T`` of a :func:`~gridqmc.simulator.householder` reflection."""
    return UnitaryMatrix(np.eye(len(w)) - gain * np.outer(w, w))


def zero_state(n_qubits: int) -> StateVector:
    amps = np.zeros(2**n_qubits)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def apply(u: UnitaryMatrix, s: StateVector) -> StateVector:
    """Apply a unitary to a state; norm is preserved by construction."""
    if u.dim != s.dim:
        raise ConfigurationError(f"dimension mismatch: {u.dim} vs {s.dim}")
    return StateVector(s.n_qubits, u.entries @ s.amplitudes)


def state_prep_unitary(encoding: EncodedInjection) -> UnitaryMatrix:
    """Unitary whose first column is the amplitude vector.

    A Householder reflection mapping the all-zero basis state onto the
    amplitude vector; reduces to the identity when the vector already is
    that basis state.
    """
    return reflection_unitary(*householder(encoding.amplitudes, 0))


@dataclass(frozen=True)
class LineFlowMap(LineLevels):
    """Line levels with their dense 0/1 map onto the loading levels.

    ``m[k, c] == 1`` iff ``labels[c] == k``: every column holds exactly one
    1.  ``m_sc`` is filled by :func:`orthonormalize_rows`.
    """

    m: np.ndarray
    m_sc: np.ndarray | None = None


def build_line_map(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    line: str = "",
) -> LineFlowMap:
    """Dense form of :func:`~gridqmc.flowmap.line_levels`: one 0/1 row per loading level.

    Raises :class:`ConfigurationError` above ``MAX_DENSE_QUBITS``, before
    any joint state is enumerated.
    """
    n_qubits = sum(d.n_qubits for d in distributions)
    if n_qubits > MAX_DENSE_QUBITS:
        raise ConfigurationError(f"{n_qubits} qubits are over the dense path's {MAX_DENSE_QUBITS}-qubit budget")
    levels = line_levels(h_row, distributions, line=line)
    n_rows, n_cols = levels.n_rows, levels.n_columns
    m = np.zeros((n_rows, n_cols))
    m[levels.labels, np.arange(n_cols)] = 1.0
    return LineFlowMap(**vars(levels), m=m)


def orthonormalize_rows(lf_map: LineFlowMap) -> LineFlowMap:
    """Divide every row by its L2 norm, making the map semi-orthogonal."""
    if np.any(lf_map.row_norms == 0):
        raise ConfigurationError("flow map has a zero row")
    return replace(lf_map, m_sc=lf_map.m / lf_map.row_norms[:, None])


@dataclass(frozen=True)
class UnitaryFactorization:
    """The factors of a :class:`~gridqmc.flowmap.LevelCompletion` as dense unitaries.

    ``v_h`` is the per-level reflection R and ``u_padded`` the permutation
    P; the top ``n_rows`` rows of ``u_padded @ v_h`` equal the
    orthonormalized map.
    """

    v_h: UnitaryMatrix
    u_padded: UnitaryMatrix


def _reflection_matrix(c: LevelCompletion) -> np.ndarray:
    """R of ``c`` as a dense matrix, exactly symmetric: ``I - gain_k w_k w_k^T`` per reflected level."""
    w = -c.inv_sqrt[c.level]
    w[np.searchsorted(c.members, c.heads)] += 1.0
    s = np.sqrt(c.gain)[c.level] * w
    r = np.eye(len(c.first) + len(c.rest))
    same_level = c.level[:, None] == c.level[None, :]
    r[np.ix_(c.members, c.members)] -= same_level * np.outer(s, s)
    return r


def unitary_factorize(lf_map: LineFlowMap) -> UnitaryFactorization:
    """Materialize the unitary completion C = P R of the map's levels.

    Takes the map from :func:`build_line_map`, whose qubit budget bounds
    the two dense factors.
    """
    completion = LevelCompletion.from_levels(lf_map)
    return UnitaryFactorization(
        v_h=UnitaryMatrix(_reflection_matrix(completion)),
        u_padded=UnitaryMatrix(completion.permute(np.eye(lf_map.n_columns))),
    )


def householder_unitary(v: np.ndarray) -> UnitaryMatrix:
    """Reflection placing ``v / ||v||`` on the last row and column.

    Symmetric involution; the overlap of any state with the all-ones basis
    state after applying it equals the normalized inner product with ``v``.
    Returns the identity when ``v`` already points along the last axis.
    """
    return reflection_unitary(*_metric_reflection(v))


@dataclass(frozen=True)
class PipelineUnitary:
    """Composed operator: state prep, flow map factors, then the estimator.

    The amplitude of the all-ones basis state applied to the all-zero input
    is the metric on the amplitude scale; ``scaling`` converts it back to
    physical units.
    """

    a: UnitaryMatrix
    scaling: float

    @property
    def good_state_index(self) -> int:
        return self.a.dim - 1


def assemble_pipeline(
    preps: list[UnitaryMatrix],
    factorization: UnitaryFactorization,
    h: UnitaryMatrix,
    scaling: float,
) -> PipelineUnitary:
    """Multiply the stage unitaries into one dense operator."""
    prep = preps[0].entries
    for p in preps[1:]:
        prep = np.kron(prep, p.entries)
    dim = factorization.v_h.dim
    if prep.shape[0] != dim or h.dim != dim:
        raise ConfigurationError("stage dimensions do not match")
    a = h.entries @ factorization.u_padded.entries @ factorization.v_h.entries @ prep
    return PipelineUnitary(a=UnitaryMatrix(a), scaling=scaling)


def build_line_pipeline(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    metric: str,
    threshold: float | None = None,
    line: str = "",
) -> tuple[PipelineUnitary | None, LineFlowMap, EstimatorVector]:
    """Run the full construction for one line and metric.

    Returns ``(pipeline, flow_map, estimator)``; the pipeline is ``None``
    when the estimator is degenerate (metric exactly zero, nothing to
    estimate).
    """
    encodings = [encode(d) for d in distributions]
    n_qubits = sum(enc.n_qubits for enc in encodings)
    lf_map = orthonormalize_rows(build_line_map(h_row, distributions, line=line))
    estimator = build_estimator_vector(lf_map, metric, n_qubits, encodings, threshold)
    if estimator.is_degenerate:
        return None, lf_map, estimator
    factorization = unitary_factorize(lf_map)
    h_unitary = householder_unitary(estimator.v)
    preps = [state_prep_unitary(enc) for enc in encodings]
    pipeline = assemble_pipeline(preps, factorization, h_unitary, estimator.scaling)
    return pipeline, lf_map, estimator


@dataclass(frozen=True)
class GroverOperator:
    """Amplification operator Q = A S0 A^T Sg as a dense unitary."""

    q: UnitaryMatrix
    a_op: PipelineUnitary

    @property
    def good_state_index(self) -> int:
        return self.a_op.good_state_index

    def good_probability(self, k: int) -> float:
        """Probability of the good state in Q^k A|0>, stepped k times from A|0>."""
        x = self.a_op.a.entries[:, 0]
        for _ in range(k):
            x = self.q.entries @ x
        return float(x[self.good_state_index] ** 2)


def build_grover(a: PipelineUnitary) -> GroverOperator:
    """Assemble the dense Grover operator and verify its rotation identity."""
    dim = a.a.dim
    amat = a.a.entries
    s0 = np.eye(dim)
    s0[0, 0] = -1.0
    sg = np.eye(dim)
    sg[a.good_state_index, a.good_state_index] = -1.0
    q = amat @ s0 @ amat.T @ sg
    op = GroverOperator(q=UnitaryMatrix(q), a_op=a)
    _check_rotation(op)
    return op
