"""Line-flow mapping and its unitarization.

For one line, the weighted Kronecker sum of the bus MW levels gives the
loading value reached by every joint injection state.  Grouping equal
values labels every joint state with its loading level; the labels define a
0/1 matrix that maps the joint injection state onto a loading-distribution
state.  A Householder reflection then folds the chosen risk metric into the
amplitude of the all-ones basis state.

:func:`build_pipeline_operator` keeps the operator in factored form and
applies it to a statevector in O(2^n * sum 2^k) time: per-bus state-prep
reflections, one reflection per loading level plus a permutation for the
unitary completion of the map (:class:`LevelCompletion`), and the rank-1
metric reflection.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError
from .injection import EncodedInjection, InjectionDistribution, encode, prep_reflections, reflect_axes
from .simulator import check_qubit_count, householder, probe_unitary

#: absolute tolerance for grouping equal loading values
VALUE_GROUP_TOL = 1e-9

#: a loading level counts as overloaded when ``level >= threshold - THRESHOLD_TOL``;
#: float sums such as 0.3 * 3 land a few ulps below a threshold they equal
THRESHOLD_TOL = 1e-9


def group_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster a value vector into distinct levels within an absolute tolerance.

    Returns (sorted distinct levels, index of each input value's level,
    smallest input index on each level).  Values are chained: a new level
    starts where the sorted gap exceeds ``VALUE_GROUP_TOL``.
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
    return distinct, labels, np.minimum.reduceat(order, starts)


@dataclass(frozen=True)
class LineLevels:
    """Distinct loading levels of one line and the level of every joint state.

    ``labels[c]`` is the index into ``distinct_values`` (absolute loading,
    fraction of rating) reached by joint state ``c`` and ``first[k]`` the
    smallest joint state on level ``k``; ``row_norms[k]`` is the square
    root of the number of joint states on level ``k``.
    ``mass[k]`` is the probability of level ``k`` and ``mass_loading[k]``
    the probability-weighted sum of its states' loadings; zero-probability
    states add nothing to either, whatever their loading.
    """

    line: str
    distinct_values: np.ndarray
    labels: np.ndarray
    first: np.ndarray
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

    # joint states in Kronecker order, first bus most significant
    loading, prob = np.array([0.0]), np.ones(1)
    for h, dist in zip(h_row, distributions):
        loading = np.add.outer(loading, h * dist.values_mw).ravel()
        prob = np.multiply.outer(prob, dist.probabilities).ravel()
    loading = np.abs(loading)

    distinct, labels, first = group_values(loading)
    r = len(distinct)
    return LineLevels(
        line=line,
        distinct_values=distinct,
        labels=labels,
        first=first,
        row_norms=np.sqrt(np.bincount(labels, minlength=r).astype(float)),
        mass=np.bincount(labels, weights=prob, minlength=r),
        mass_loading=np.bincount(labels, weights=prob * loading, minlength=r),
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
    return EstimatorVector(v=v, scaling=scaling, level_metric=level_metric)


def _metric_reflection(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``(w, gain)`` of the :func:`householder` taking the last axis to ``v / ||v||``."""
    v = np.asarray(v, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ConfigurationError("householder vector must be non-zero")
    return householder(v / norm, -1)


def _reflect(x: np.ndarray, w: np.ndarray, coef: float) -> np.ndarray:
    """Rank-1 reflection ``(I - coef * w w^T) x`` in place, on a vector or on each column of a block."""
    beta = coef * (w @ x)
    for column, b in zip(x.reshape(len(x), -1).T, beta.reshape(-1)):
        column -= b * w
    return x


@dataclass(frozen=True)
class LevelCompletion:
    """Unitary completion of the orthonormalized map as factors, C = P R.

    R is one Householder reflection per loading level, taking the level's
    first joint state to the uniform vector on the level.  P sends those
    first states to indices 0..r-1 and keeps the others, in order, after
    them.  Row k of C is therefore row k of the orthonormalized map, because
    the levels have disjoint supports.  A level of one state reflects
    nothing, so R keeps only the levels of more than one state.  Every
    method takes a vector of length ``dim`` or a ``(dim, m)`` block, whose
    columns are transformed alike.
    """

    first: np.ndarray  # first joint state of every level, shared with LineLevels
    rest: np.ndarray  # the other joint states, in index order
    members: np.ndarray  # states of the reflected levels, in index order
    level: np.ndarray  # reflected level of every member
    heads: np.ndarray  # first state of every reflected level
    inv_sqrt: np.ndarray  # 1/sqrt(level size), per reflected level
    gain: np.ndarray  # 2 / ||w_k||^2, per reflected level

    @classmethod
    def from_levels(cls, levels: LineLevels) -> "LevelCompletion":
        reflected = levels.row_norms > 1
        members = np.flatnonzero(reflected[levels.labels])
        inv_sqrt = 1.0 / levels.row_norms[reflected]
        rest = np.ones(levels.n_columns, dtype=bool)
        rest[levels.first] = False
        return cls(
            first=levels.first,
            rest=np.flatnonzero(rest),
            members=members,
            level=(np.cumsum(reflected) - 1)[levels.labels[members]],
            heads=levels.first[reflected],
            inv_sqrt=inv_sqrt,
            # ||e_first - uniform||^2 = 2 - 2/sqrt(size)
            gain=2.0 / (2.0 - 2.0 * inv_sqrt),
        )

    def reflect(self, y: np.ndarray) -> np.ndarray:
        """R y, in place; R is symmetric, so this is also its adjoint."""
        if not len(self.members):
            return y
        # per level: w = e_first - uniform, R x = x - gain * (w . x) w; one
        # bincount over (level, column) pairs sums each level in index order
        cols = y.reshape(len(y), -1)
        m = cols.shape[1]
        bins = (self.level[:, None] * m + np.arange(m)).ravel()
        sums = np.bincount(bins, weights=cols[self.members].ravel(), minlength=len(self.gain) * m)
        dots = cols[self.heads] - sums.reshape(-1, m) * self.inv_sqrt[:, None]
        beta = self.gain[:, None] * dots
        cols[self.members] += (beta * self.inv_sqrt[:, None])[self.level]
        cols[self.heads] -= beta
        return y

    def permute(self, y: np.ndarray) -> np.ndarray:
        """P y into a new array; ``take`` in mode "clip" writes straight into it."""
        out, r = np.empty(y.shape), len(self.first)
        y.take(self.first, axis=0, out=out[:r], mode="clip")
        y.take(self.rest, axis=0, out=out[r:], mode="clip")
        return out

    def unpermute(self, x: np.ndarray) -> np.ndarray:
        """P^T x into a new array."""
        y, r = np.empty(np.shape(x)), len(self.first)
        y[self.first], y[self.rest] = x[:r], x[r:]
        return y

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.permute(self.reflect(np.array(x, dtype=float)))

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        return self.reflect(self.unpermute(x))


@dataclass(frozen=True)
class PipelineOperator:
    """The pipeline operator A = H P R prep = H P B, kept as factors and applied as calls.

    ``prep`` is the Kronecker product of the per-bus state-prep reflections,
    held as the few fused factors of :func:`~gridqmc.injection.prep_reflections`
    and applied by :func:`~gridqmc.injection.reflect_axes`, P R the
    :class:`LevelCompletion` and H the rank-1 metric reflection.  The Grover
    iterate works in the frame of B = R prep: A^T Sg A = B^T (I - 2 u u^T) B
    for u = P^T H e_g.  The amplitude of ``good_state_index`` in ``A|0>``
    is the metric on the amplitude scale; ``scaling`` converts it back to
    physical units.  ``apply`` and ``apply_adjoint`` take a vector or a
    ``(dim, m)`` block of columns and leave it unchanged; R reflects only
    levels of more than one state.
    """

    prep: tuple  # the factors of prep_reflections
    completion: LevelCompletion
    h_vector: np.ndarray
    h_gain: float
    scaling: float

    @property
    def n_qubits(self) -> int:
        return self.dim.bit_length() - 1

    @property
    def dim(self) -> int:
        return len(self.h_vector)

    @property
    def good_state_index(self) -> int:
        return self.dim - 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        """A x = H P B x for a real vector of length ``dim`` or each column of a ``(dim, m)`` block."""
        y = self.completion.permute(self.completion.reflect(reflect_axes(self.prep, self._own(x))))
        return _reflect(y, self.h_vector, self.h_gain)

    def apply_adjoint(self, x: np.ndarray) -> np.ndarray:
        """A^T x = B^T P^T H x; every factor but the permutation is symmetric."""
        return self._from_frame(self.completion.unpermute(_reflect(self._own(x), self.h_vector, self.h_gain)))

    def _own(self, x: np.ndarray) -> np.ndarray:
        """``x``, checked for length, as a new C-contiguous float64 array to be overwritten in place."""
        if len(x) != self.dim:
            raise ConfigurationError("state length does not match the operator")
        return np.array(x, dtype=float, order="C")

    def _from_frame(self, y: np.ndarray) -> np.ndarray:
        """B^T y = prep R y, in place."""
        return reflect_axes(self.prep, self.completion.reflect(y))

    @cached_property
    def good_axis(self) -> np.ndarray:
        """The unit vector u = P^T H e_g, computed on first use."""
        e_g = np.eye(1, self.dim, self.good_state_index)[0]
        return self.completion.unpermute(_reflect(e_g, self.h_vector, self.h_gain))

    def _reflect_good(self, y: np.ndarray) -> np.ndarray:
        """A^T Sg A y = B^T (I - 2 u u^T) B y, where Sg negates the good state; overwrites ``y``."""
        y = self.completion.reflect(reflect_axes(self.prep, y))
        return self._from_frame(_reflect(y, self.good_axis, 2.0))

    def prepared(self) -> np.ndarray:
        """A|0>."""
        return self.apply(np.eye(1, self.dim)[0])


def build_pipeline_operator(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    metric: str,
    threshold: float | None = None,
    line: str = "",
) -> tuple[PipelineOperator | None, LineLevels, EstimatorVector]:
    """Build the pipeline operator for one line and metric; no dense matrix.

    Returns ``(operator, levels, estimator)``; the operator is ``None`` when
    the estimator is degenerate.  Seeded probes check ``||A x|| = ||x||`` and
    ``A^T A x = x`` in place of a dense unitarity residual; their block is
    left beside the fields for :func:`~gridqmc.estimation.build_grover_iterate`.
    """
    encodings = tuple(encode(d) for d in distributions)
    n_qubits = sum(enc.n_qubits for enc in encodings)
    check_qubit_count(n_qubits)
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
        scaling=estimator.scaling,
    )
    op.__dict__["_probes"] = probe_unitary(op.apply, op.dim, op.apply_adjoint)
    return op, levels, estimator
