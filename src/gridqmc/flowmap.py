"""Line-flow mapping and its unitarization.

For one line, the weighted Kronecker sum of the bus MW levels gives the
loading value reached by every joint injection state.  Grouping equal
values labels every joint state with its loading level; the labels define a
0/1 matrix that maps the joint injection state onto a loading-distribution
state.  A Householder reflection then folds the chosen risk metric into the
amplitude of the all-ones basis state.

The estimation path, :func:`build_pipeline_operator`, keeps the operator in
factored form and applies it to a statevector in O(2^n * sum 2^k) time:
per-bus state-prep reflections, one reflection per loading level plus a
permutation for the unitary completion of the map (:class:`LevelCompletion`),
and the rank-1 metric reflection.  The dense builders (:func:`build_line_map`,
:func:`unitary_factorize`, :func:`assemble_pipeline`) materialize the same
factors as matrices; they serve histogram stage V and act as the small-n
oracle.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError
from .injection import (
    EncodedInjection,
    InjectionDistribution,
    encode,
    prep_reflections,
    reflect_axes,
    state_prep_unitary,
)
from .simulator import MAX_QUBITS, UnitaryMatrix, householder, probe_unitary, reflection_unitary

#: absolute tolerance for grouping equal loading values
VALUE_GROUP_TOL = 1e-9

#: a loading level counts as overloaded when ``level >= threshold - THRESHOLD_TOL``;
#: float sums such as 0.3 * 3 land a few ulps below a threshold they equal
THRESHOLD_TOL = 1e-9

#: bytes above which :func:`build_line_map` refuses to build the dense path
DENSE_BUDGET_BYTES = 2**30


def kron_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise sums, first operand most significant.

    Output index ``i * len(b) + j`` holds ``a[i] + b[j]``, matching the
    ordering of the Kronecker product of the corresponding states.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ConfigurationError("kron_sum operands must be non-empty")
    return np.add.outer(a, b).ravel()


def group_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cluster a value vector into distinct levels within an absolute tolerance.

    Returns (sorted distinct levels, index of each input value's level).
    Values are chained: a new level starts where the sorted gap exceeds
    ``VALUE_GROUP_TOL``.
    """
    order = np.argsort(values)
    ordered = values[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ordered) > VALUE_GROUP_TOL) + 1))
    sizes = np.diff(np.append(starts, len(values)))
    labels = np.empty(len(values), dtype=int)
    labels[order] = np.repeat(np.arange(len(starts)), sizes)
    # reduceat matches ndarray.mean bit for bit only on one or two members
    distinct = np.add.reduceat(ordered, starts) / sizes
    for k in np.flatnonzero(sizes > 2):
        distinct[k] = ordered[starts[k] : starts[k] + sizes[k]].mean()
    return distinct, labels


@dataclass(frozen=True)
class LineLevels:
    """Distinct loading levels of one line and the level of every joint state.

    ``labels[c]`` is the index into ``distinct_values`` (absolute loading,
    fraction of rating) reached by joint state ``c``; ``row_norms[k]`` is
    the square root of the number of joint states on level ``k``.
    ``mass[k]`` is the probability of level ``k`` and ``mass_loading[k]``
    the probability-weighted sum of its states' loadings; zero-probability
    states add nothing to either, whatever their loading.
    """

    line: str
    distinct_values: np.ndarray
    labels: np.ndarray
    row_norms: np.ndarray
    mass: np.ndarray
    mass_loading: np.ndarray

    @property
    def n_rows(self) -> int:
        return len(self.distinct_values)

    @property
    def n_columns(self) -> int:
        return len(self.labels)


def line_levels(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    line: str = "",
) -> LineLevels:
    """Enumerate the loading value of every joint state and group equal ones.

    ``h_row`` must be the rated distribution-factor row restricted to the
    non-slack buses, ordered consistently with ``distributions``.  Loading
    signs are folded by absolute value.
    """
    h_row = np.asarray(h_row, dtype=float)
    if len(distributions) == 0:
        raise ConfigurationError("need at least one distribution")
    if len(h_row) != len(distributions):
        raise ConfigurationError("h_row length must match the number of distributions")

    loading, prob = np.array([0.0]), np.ones(1)
    for h, dist in zip(h_row, distributions):
        loading = kron_sum(loading, h * dist.values_mw)
        prob = np.multiply.outer(prob, dist.probabilities).ravel()
    loading = np.abs(loading)

    distinct, labels = group_values(loading)
    r = len(distinct)
    return LineLevels(
        line=line,
        distinct_values=distinct,
        labels=labels,
        row_norms=np.sqrt(np.bincount(labels, minlength=r).astype(float)),
        mass=np.bincount(labels, weights=prob, minlength=r),
        mass_loading=np.bincount(labels, weights=prob * loading, minlength=r),
    )


@dataclass(frozen=True)
class LineFlowMap(LineLevels):
    """Line levels with their dense 0/1 map onto the loading levels.

    ``m[k, c] == 1`` iff ``labels[c] == k``: every column holds exactly one
    1.  ``m_sc`` is filled by :func:`orthonormalize_rows`.
    """

    m: np.ndarray
    m_sc: np.ndarray | None = None


def _dense_path_bytes(n_rows: int, n_columns: int) -> int:
    """Lower bound on the memory the dense path holds at once.

    The float64 map and its orthonormalized copy, plus two float64
    ``n_columns`` x ``n_columns`` operators: a factor of the completion and
    the residual of its orthogonality check.
    """
    return 2 * 8 * n_rows * n_columns + 2 * 8 * n_columns * n_columns


def build_line_map(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    line: str = "",
) -> LineFlowMap:
    """Dense form of :func:`line_levels`: one 0/1 row per loading level.

    Raises :class:`ConfigurationError` before allocating anything dense
    when its lower bound on the dense path's memory exceeds
    ``DENSE_BUDGET_BYTES``.
    """
    levels = line_levels(h_row, distributions, line=line)
    n_rows, n_cols = levels.n_rows, levels.n_columns
    needed = _dense_path_bytes(n_rows, n_cols)
    if needed > DENSE_BUDGET_BYTES:
        raise ConfigurationError(
            f"dense flow map for {n_cols} joint states needs at least "
            f"{needed / 2**30:.1f} GiB, over the {DENSE_BUDGET_BYTES / 2**30:.1f} GiB budget"
        )
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
    """The factors of a :class:`LevelCompletion` as dense unitaries.

    ``v_h`` is the per-level reflection R and ``u_padded`` the permutation
    P; the top ``n_rows`` rows of ``u_padded @ v_h`` equal the
    orthonormalized map.
    """

    v_h: UnitaryMatrix
    u_padded: UnitaryMatrix


def unitary_factorize(lf_map: LineFlowMap) -> UnitaryFactorization:
    """Materialize the unitary completion C = P R of the map's levels.

    Takes the map from :func:`build_line_map`, whose budget check bounds
    the two dense factors.
    """
    completion = LevelCompletion.from_levels(lf_map)
    return UnitaryFactorization(
        v_h=UnitaryMatrix(completion.reflection_matrix()),
        u_padded=UnitaryMatrix(np.eye(lf_map.n_columns)[completion.order]),
    )


@dataclass(frozen=True)
class EstimatorVector:
    """Weights turning the loading-distribution state into one risk number.

    For the mean metric the weight of each level is the level itself; for
    the overload metric it is an indicator of the level reaching the
    threshold.  Row norms are folded back in so the un-normalized map is
    effectively applied.  A level of zero probability gets no weight: its
    amplitude is zero, and a weight would only shrink the estimated
    amplitude.  ``scaling`` converts the final amplitude into physical
    units.  ``level_metric`` is every level's share of the metric, taken
    from its states of positive probability only.
    """

    metric: str
    threshold: float | None
    v: np.ndarray
    scaling: float
    level_metric: np.ndarray

    @property
    def is_degenerate(self) -> bool:
        """True when no level adds to the metric; the metric is exactly zero.

        Decided from probability mass, not from ``v``: a level's value
        averages all its states, zero-probability ones included, so a level
        whose states of positive probability load the line by exactly zero
        can keep a weight of a few ulps.
        """
        return not np.any(self.level_metric)


def build_estimator_vector(
    levels: LineLevels,
    metric: str,
    n_qubits: int,
    encodings: Sequence[EncodedInjection],
    threshold: float | None = None,
) -> EstimatorVector:
    """Build the metric weight vector, padded to the full state dimension."""
    dim = 2**n_qubits
    if levels.n_columns != dim:
        raise ConfigurationError("flow map does not match the qubit count")
    if metric == "mean":
        weight = levels.distinct_values * levels.row_norms
        level_metric = levels.mass_loading
    elif metric == "overload":
        if threshold is None:
            raise ConfigurationError("overload metric needs a threshold")
        over = levels.distinct_values >= threshold - THRESHOLD_TOL
        weight = np.where(over, levels.row_norms, 0.0)
        level_metric = np.where(over, levels.mass, 0.0)
    else:
        raise ConfigurationError(f"unknown metric {metric!r}")
    v = np.zeros(dim)
    v[: levels.n_rows] = np.where(levels.mass > 0, weight, 0.0)
    prod_norms = float(np.prod([enc.norm_factor for enc in encodings]))
    scaling = float(np.linalg.norm(v)) * prod_norms
    return EstimatorVector(
        metric=metric, threshold=threshold, v=v, scaling=scaling, level_metric=level_metric
    )


def _metric_reflection(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``(w, gain)`` of the :func:`householder` taking the last axis to ``v / ||v||``."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ConfigurationError("householder vector must be non-zero")
    return householder(v / norm, -1)


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
    good_state_index: int
    scaling: float


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
    return PipelineUnitary(a=UnitaryMatrix(a), good_state_index=dim - 1, scaling=scaling)


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


def _reflect(x: np.ndarray, w: np.ndarray, coef: float) -> np.ndarray:
    """Rank-1 reflection ``(I - coef * w w^T) x``."""
    return x - (coef * (w @ x)) * w


@dataclass(frozen=True)
class LevelCompletion:
    """Unitary completion of the orthonormalized map as factors, C = P R.

    R is one Householder reflection per loading level, taking the level's
    first joint state to the uniform vector on the level.  P sends those
    first states to indices 0..r-1 and keeps the others, in order, after
    them.  Row k of C is therefore row k of the orthonormalized map, because
    the levels have disjoint supports.  :func:`unitary_factorize` is its
    dense form.
    """

    labels: np.ndarray
    inv_sqrt: np.ndarray  # 1/sqrt(level size)
    gain: np.ndarray  # 2 / ||w_k||^2, zero for single-state levels
    first: np.ndarray  # first joint state of every level
    order: np.ndarray  # (C x)[j] = (R x)[order[j]]

    @classmethod
    def from_levels(cls, levels: LineLevels) -> "LevelCompletion":
        labels = levels.labels
        n = len(labels)
        first = np.unique(labels, return_index=True)[1]
        inv_sqrt = 1.0 / levels.row_norms
        # ||e_first - uniform||^2 = 2 - 2/sqrt(size)
        wnorm2 = 2.0 - 2.0 * inv_sqrt
        gain = np.divide(2.0, wnorm2, out=np.zeros_like(wnorm2), where=levels.row_norms > 1)
        rest = np.ones(n, dtype=bool)
        rest[first] = False
        order = np.concatenate((first, np.flatnonzero(rest)))
        return cls(labels=labels, inv_sqrt=inv_sqrt, gain=gain, first=first, order=order)

    def _reflect_levels(self, x: np.ndarray) -> np.ndarray:
        # per level: w = e_first - uniform, R x = x - gain * (w . x) w
        sums = np.bincount(self.labels, weights=x, minlength=len(self.first))
        dots = x[self.first] - sums * self.inv_sqrt
        beta = self.gain * dots
        y = x + (beta * self.inv_sqrt)[self.labels]
        y[self.first] -= beta
        return y

    def reflection_matrix(self) -> np.ndarray:
        """R as a dense matrix, exactly symmetric: ``I - gain_k w_k w_k^T`` per level."""
        w = -self.inv_sqrt[self.labels]
        w[self.first] += 1.0
        s = np.sqrt(self.gain)[self.labels] * w
        same_level = self.labels[:, None] == self.labels[None, :]
        return np.eye(len(w)) - same_level * np.outer(s, s)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._reflect_levels(x)[self.order]

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        y = np.empty_like(x)
        y[self.order] = x
        return self._reflect_levels(y)


@dataclass(frozen=True)
class PipelineOperator:
    """The pipeline operator A = H C prep, kept as factors and applied as calls.

    ``prep`` is the Kronecker product of the per-bus state-prep reflections,
    held as their :func:`~gridqmc.injection.prep_reflections`, ``C`` the
    :class:`LevelCompletion` and ``H`` the rank-1 metric reflection.  Same
    contract as :class:`PipelineUnitary`: the amplitude of
    ``good_state_index`` in ``A|0>`` is the metric on the amplitude scale.
    """

    prep: tuple[tuple[np.ndarray, float], ...]
    completion: LevelCompletion
    h_vector: np.ndarray
    h_gain: float
    good_state_index: int
    scaling: float

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def dim(self) -> int:
        return len(self.h_vector)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x for a real vector x of length ``dim``."""
        self._check_length(x)
        y = self.completion.apply(reflect_axes(self.prep, x))
        return _reflect(y, self.h_vector, self.h_gain)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """A^T x; every factor but the permutation is symmetric."""
        self._check_length(x)
        y = self.completion.apply_adjoint(_reflect(x, self.h_vector, self.h_gain))
        return reflect_axes(self.prep, y)

    def _check_length(self, x: np.ndarray) -> None:
        if len(x) != self.dim:
            raise ConfigurationError("state length does not match the operator")

    def prepared(self) -> np.ndarray:
        """A|0>."""
        e0 = np.zeros(self.dim)
        e0[0] = 1.0
        return self.apply(e0)


def build_pipeline_operator(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    metric: str,
    threshold: float | None = None,
    line: str = "",
) -> tuple[PipelineOperator | None, LineLevels, EstimatorVector]:
    """Structured counterpart of :func:`build_line_pipeline`; no dense matrix.

    Returns ``(operator, levels, estimator)``; the operator is ``None`` when
    the estimator is degenerate.  Seeded probes check ``||A x|| = ||x||``
    and ``A^T A x = x`` in place of a dense unitarity residual.
    """
    encodings = tuple(encode(d) for d in distributions)
    n_qubits = sum(enc.n_qubits for enc in encodings)
    if n_qubits > MAX_QUBITS:
        raise ConfigurationError(f"{n_qubits} qubits, at most {MAX_QUBITS} supported")
    levels = line_levels(h_row, distributions, line=line)
    estimator = build_estimator_vector(levels, metric, n_qubits, encodings, threshold)
    if estimator.is_degenerate:
        return None, levels, estimator
    h_vector, h_gain = _metric_reflection(estimator.v)
    op = PipelineOperator(
        prep=prep_reflections(encodings),
        completion=LevelCompletion.from_levels(levels),
        h_vector=h_vector,
        h_gain=h_gain,
        good_state_index=2**n_qubits - 1,
        scaling=estimator.scaling,
    )
    probe_unitary(op.apply, op.dim, op.apply_adjoint)
    return op, levels, estimator
