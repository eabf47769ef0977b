"""Dense builders: the pipeline and Grover operators as checked matrices, the small-n oracle.

Every factor of the pipeline operator A, whose image of |0> is
:func:`~gridqmc.flowmap.prepared_state`, is materialized here as a checked
matrix: the per-bus state preps, the 0/1 flow map and its completion
C = P R, the metric reflection, their product A and the Grover operator
Q = A S0 A^T Sg.  The unitarity check is exact by
structure for a 0/1 permutation matrix (P, and R when no level is
reflected): an O(d^2) test finds it, and P^T P = I needs no gram.  The
metric reflection, a reflected R, A and Q keep their O(d^3) gram at the
same tolerance.  A product by a permutation or by a diagonal sign matrix
S0, Sg is an index operation (a column gather, none for the identity, or a
negation) that gives the product's entries exactly, so stage V makes three
d x d BLAS calls when R = I: the metric reflection's gram, A = H P R prep
and A's gram.  A matrix that a builder here makes is checked in place, not
copied.  :func:`build_line_pipeline` forms H, and frees its gram, before P
and R exist, and :func:`assemble_pipeline` drops each factor once its
product is formed, so stage V holds at most four d x d matrices at once
(H, P, R and H P at the column gather).  Each 2^n x 2^n operator takes
2^(2n + 3) bytes, 128 MiB at 12 qubits, so the builders stop at
``MAX_DENSE_QUBITS``.  They serve histogram stage V and check the
structured path in the tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigurationError
from .estimation import _check_rotation
from .flowmap import (
    EstimatorVector,
    LineLevels,
    _metric_reflection,
    build_estimator_vector,
    line_levels,
    overload_cut,
)
from .injection import EncodedInjection, InjectionDistribution, encode
from .simulator import _UNITARY_TOL, StateVector, _frozen_real, householder

#: qubits above which :func:`build_line_map` and :func:`build_line_pipeline` refuse to
#: build the dense path, whose n_columns x n_columns float64 operators take 2^(2n + 3) bytes each
MAX_DENSE_QUBITS = 12


def _dense_levels(
    h_row: np.ndarray, distributions: list[InjectionDistribution], cut: float | None = None
) -> LineLevels:
    """:func:`~gridqmc.flowmap.line_levels`, refused over ``MAX_DENSE_QUBITS`` before enumerating."""
    n_qubits = sum(d.n_qubits for d in distributions)
    if n_qubits > MAX_DENSE_QUBITS:
        raise ConfigurationError(f"{n_qubits} qubits are over the dense path's {MAX_DENSE_QUBITS}-qubit budget")
    return line_levels(h_row, distributions, cut=cut)


@dataclass(frozen=True)
class UnitaryMatrix:
    """Dense real orthogonal operator on n qubits, checked at construction.

    A 0/1 permutation matrix is recognized in O(d^2) and accepted without its
    gram, as P^T P = I exactly; ``order`` then holds the column of each row's
    1.  Any other matrix is checked by its O(d^3) gram.
    """

    entries: np.ndarray
    order: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._check(_frozen_real(self.entries))

    @classmethod
    def _built(cls, mat: np.ndarray) -> "UnitaryMatrix":
        """Check a float64 array that a builder here has just made: frozen in place, not copied."""
        u = object.__new__(cls)
        mat.setflags(write=False)
        u._check(mat)
        return u

    def _check(self, mat: np.ndarray) -> None:
        object.__setattr__(self, "entries", mat)
        n = len(mat) if mat.ndim == 2 else 0
        if mat.shape != (n, n) or n < 1 or n & (n - 1) != 0:
            raise ConfigurationError("unitary must be square with power-of-two dimension")
        order = _permutation_order(mat)
        object.__setattr__(self, "order", order)
        if order is not None:
            return  # the gram's residual would be exactly 0.0
        gram = mat.T @ mat
        gram.flat[:: n + 1] -= 1.0  # max|mat^T mat - I| in place: x - 0.0 is x
        residual = np.abs(gram, out=gram).max()
        if not residual <= _UNITARY_TOL * n:  # a NaN residual is refused too
            raise ConfigurationError(f"matrix is not unitary (residual {residual:.2e})")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def n_qubits(self) -> int:
        return int(self.entries.shape[0]).bit_length() - 1


def _permutation_order(mat: np.ndarray) -> np.ndarray | None:
    """The column of each row's 1 if ``mat`` is a 0/1 permutation matrix, else None, in O(d^2).

    Exactly n non-zeros (so a dense matrix costs one pass), each exactly 1.0,
    one per row and one per column.  -0.0 counts as zero; a NaN or a -1 is no 1.
    """
    n = len(mat)
    if np.count_nonzero(mat) != n:
        return None
    order = mat.argmax(axis=1)
    if not np.all(mat[np.arange(n), order] == 1.0):  # n non-zeros and a 1 in every row: one per row
        return None
    hit = np.zeros(n, dtype=bool)
    hit[order] = True
    return order if hit.all() else None


def reflection_unitary(w: np.ndarray, gain: float) -> UnitaryMatrix:
    """Dense form ``I - gain w w^T`` of a :func:`~gridqmc.simulator.householder` reflection."""
    r = np.outer(w, w)
    r *= -gain
    r.flat[:: len(w) + 1] += 1.0  # bit for bit np.eye(len(w)) - gain * np.outer(w, w)
    return UnitaryMatrix._built(r)


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

    ``m[k, c] == 1`` iff joint state ``c`` lies on level ``k``: every column
    holds exactly one 1.  ``m_sc`` is filled by :func:`orthonormalize_rows`.
    """

    m: np.ndarray
    m_sc: np.ndarray | None = None


def build_line_map(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    line: str = "",
) -> LineFlowMap:
    """Dense form of :func:`~gridqmc.flowmap.line_levels`: one 0/1 row per loading level.

    ``line`` is accepted for callers that pass it and is not read.  Raises
    :class:`ConfigurationError` above ``MAX_DENSE_QUBITS``, before any joint
    state is enumerated.
    """
    levels = _dense_levels(h_row, distributions)
    n_rows, n_cols = levels.n_rows, levels.n_columns
    m = np.zeros((n_rows, n_cols))
    m[np.arange(n_rows), levels.first] = 1.0  # a level of one state holds its first state alone
    m[np.flatnonzero(levels.row_norms > 1)[levels.level], levels.members] = 1.0
    return LineFlowMap(**vars(levels), m=m)


def orthonormalize_rows(lf_map: LineFlowMap) -> LineFlowMap:
    """Divide every row by its L2 norm, making the map semi-orthogonal."""
    if np.any(lf_map.row_norms == 0):
        raise ConfigurationError("flow map has a zero row")
    return replace(lf_map, m_sc=lf_map.m / lf_map.row_norms[:, None])


@dataclass(frozen=True)
class UnitaryFactorization:
    """The factors of the completion C = P R of :class:`~gridqmc.flowmap.LineLevels` as dense unitaries.

    ``v_h`` is the per-level reflection R and ``u_padded`` the permutation
    P; the top ``n_rows`` rows of ``u_padded @ v_h`` equal the
    orthonormalized map.
    """

    v_h: UnitaryMatrix
    u_padded: UnitaryMatrix


def _reflection_matrix(c: LineLevels) -> np.ndarray:
    """R of ``c`` as a dense matrix, exactly symmetric: ``I - gain_k w_k w_k^T`` per reflected level."""
    w = -c.inv_sqrt[c.level]
    w[np.searchsorted(c.members, c.heads)] += 1.0
    s = np.sqrt(c.gain)[c.level] * w
    r = np.eye(c.n_columns)
    by_level = np.argsort(c.level, kind="stable")
    ends = np.cumsum(np.bincount(c.level, minlength=len(c.heads)))
    for block in np.split(by_level, ends[:-1]):  # one level's block at a time; the rest stays 0.0
        members = c.members[block]
        r[np.ix_(members, members)] -= np.outer(s[block], s[block])
    return r


def unitary_factorize(levels: LineLevels) -> UnitaryFactorization:
    """Materialize the unitary completion C = P R of the levels.

    Takes levels that :func:`build_line_map` or :func:`build_line_pipeline`
    has checked against the qubit budget, which bounds the two dense factors.
    """
    n = levels.n_columns
    p = np.zeros((n, n))
    p[np.arange(n), np.concatenate([levels.first, levels.rest])] = 1.0  # levels.permute(np.eye(n))
    return UnitaryFactorization(
        v_h=UnitaryMatrix._built(_reflection_matrix(levels)), u_padded=UnitaryMatrix._built(p)
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


def _times(x: np.ndarray, u: UnitaryMatrix) -> np.ndarray:
    """``x @ u``; by a permutation, the column gather that gives its entries (one entry times 1 plus zeros)."""
    if u.order is None:
        return x @ u.entries
    if np.array_equal(u.order, np.arange(u.dim)):
        return x  # the identity
    return x.take(np.argsort(u.order), axis=1)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron(a, b)`` bit for bit: one strided product per entry of the smaller factor."""
    out = np.empty((len(a), len(b), len(a), len(b)))
    if len(b) <= len(a):
        for (i, j), x in np.ndenumerate(b):
            np.multiply(a, x, out=out[:, i, :, j])
    else:
        for (i, j), x in np.ndenumerate(a):
            np.multiply(x, b, out=out[i, :, j, :])
    return out.reshape(len(a) * len(b), -1)


def assemble_pipeline(
    preps: list[UnitaryMatrix],
    factorization: UnitaryFactorization,
    h: UnitaryMatrix,
    scaling: float,
) -> PipelineUnitary:
    """Multiply the stage unitaries into one dense operator.

    H and P are dropped after the column gather H P, R after the product by
    R, and that product and the Kronecker product of the preps once A
    exists.  A caller that hands over its only references to ``h`` and
    ``factorization``, as :func:`build_line_pipeline` does, thus holds at
    most four d x d matrices at once: H, P, R and H P.  A caller that keeps
    its references gets the same A and keeps its factors unchanged.
    """
    dim = factorization.v_h.dim
    if math.prod(p.dim for p in preps) != dim or h.dim != dim:
        raise ConfigurationError("stage dimensions do not match")
    x = _times(h.entries, factorization.u_padded)
    r = factorization.v_h
    del h, factorization  # H and P go here unless the caller holds them too
    x = _times(x, r)
    del r
    prep = preps[0].entries
    for p in preps[1:]:
        prep = _kron(prep, p.entries)
    a = x @ prep
    del x, prep
    return PipelineUnitary(a=UnitaryMatrix._built(a), scaling=scaling)


def build_line_pipeline(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    metric: str,
    threshold: float | None = None,
) -> tuple[PipelineUnitary | None, LineLevels, EstimatorVector]:
    """Run the full construction for one line and metric.

    Returns ``(pipeline, levels, estimator)``; the pipeline is ``None``
    when the estimator is degenerate (metric exactly zero, nothing to
    estimate).  No step reads the dense flow map, so none is built.
    """
    encodings = [encode(d) for d in distributions]
    n_qubits = sum(enc.n_qubits for enc in encodings)
    levels = _dense_levels(h_row, distributions, overload_cut(metric, threshold))
    estimator = build_estimator_vector(levels, metric, n_qubits, encodings, threshold)
    if estimator.is_degenerate:
        return None, levels, estimator
    preps = [state_prep_unitary(enc) for enc in encodings]
    # H, and its gram, before P and R; no name here holds a factor that assemble_pipeline drops
    pipeline = assemble_pipeline(
        preps, h=householder_unitary(estimator.v), factorization=unitary_factorize(levels),
        scaling=estimator.scaling,
    )
    return pipeline, levels, estimator


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
    amat = a.a.entries
    a_s0 = amat.copy()
    a_s0[:, 0] *= -1.0  # amat @ S0, S0 = I - 2|0><0|
    q = a_s0 @ amat.T
    del a_s0
    q[:, a.good_state_index] *= -1.0  # @ Sg, Sg = I - 2|g><g|: bit for bit amat @ s0 @ amat.T @ sg
    op = GroverOperator(q=UnitaryMatrix._built(q), a_op=a)
    _check_rotation(op)
    return op
