"""Line-flow mapping and its unitarization.

For one line, the weighted Kronecker sum of the bus MW levels gives the
loading value reached by every joint injection state.  Grouping equal
values gives the loading levels, and the 0/1 matrix that sends every joint
state to its level maps the joint injection state onto a
loading-distribution state.  :class:`LineLevels` holds the levels and that
map's unitary completion C = P R, one reflection per level of more than one
state and a permutation.  A Householder reflection then folds the chosen
risk metric into the amplitude of the all-ones basis state.

:func:`prepared_state` forms only psi = A|0>, in O(2^n) time and memory:
the per-bus state preps take |0> to the joint state of the encodings, C
completes the map, and the rank-1 metric reflection follows.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .injection import EncodedInjection, InjectionDistribution, encode, joint_state
from .simulator import check_qubit_count, householder

#: absolute tolerance for grouping equal loading values
VALUE_GROUP_TOL = 1e-9

#: a loading level counts as overloaded when ``level >= threshold - THRESHOLD_TOL``;
#: float sums such as 0.3 * 3 land a few ulps below a threshold they equal
THRESHOLD_TOL = 1e-9


def overload_cut(metric: str, threshold: float | None) -> float | None:
    """``threshold - THRESHOLD_TOL`` for the overload metric, where a level must not straddle it."""
    return threshold - THRESHOLD_TOL if metric == "overload" and threshold is not None else None


def group_values(
    values: np.ndarray, cut: float | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster a value vector into levels within an absolute tolerance.

    Returns (each level's smallest value, index of each input value's
    level, smallest input index on each level).  Values are chained: a new
    level starts where the sorted gap exceeds ``VALUE_GROUP_TOL``, and where
    the sorted values cross ``cut``, if one is given.  A level is keyed by
    its smallest member, an exact input value, so ``level >= cut`` exactly
    when every member is.
    """
    order = np.argsort(values)
    ordered = values[order]
    breaks = np.diff(ordered) > VALUE_GROUP_TOL
    if cut is not None:
        crossing = int(ordered.searchsorted(cut))  # ordered[crossing:] lie at or above the cut
        if 0 < crossing < len(ordered):
            breaks[crossing - 1] = True
    starts = np.concatenate(([0], np.flatnonzero(breaks) + 1))
    sizes = np.diff(np.append(starts, len(values)))
    labels = np.empty(len(values), dtype=int)
    labels[order] = np.repeat(np.arange(len(starts)), sizes)
    return ordered[starts], labels, np.minimum.reduceat(order, starts)


@dataclass(frozen=True)
class LineLevels:
    """Distinct loading levels of one line and the unitary completion C = P R of their map.

    ``distinct_values[k]`` is the smallest absolute loading (fraction of
    rating) on level ``k`` and ``first[k]`` the smallest joint state on it;
    ``row_norms[k]`` is the square root of the number of joint states on
    level ``k``.  ``mass[k]`` is the probability of level ``k`` and
    ``mass_loading[k]`` the probability-weighted sum of its states'
    loadings; zero-probability states add nothing to either, whatever their
    loading.

    R is one Householder reflection per loading level, taking the level's
    first joint state to the uniform vector on the level.  P sends those
    first states to indices 0..r-1 and keeps the others, in order, after
    them.  Row k of C is therefore row k of the orthonormalized 0/1 map,
    because the levels have disjoint supports.  A level of one state
    reflects nothing, so R keeps only the levels of more than one state.
    Every method takes one real vector of length ``n_columns``.
    """

    distinct_values: np.ndarray
    first: np.ndarray
    row_norms: np.ndarray
    mass: np.ndarray
    mass_loading: np.ndarray
    rest: np.ndarray  # the joint states that head no level, in index order
    members: np.ndarray  # states of the reflected levels, in index order
    level: np.ndarray  # reflected level of every member
    heads: np.ndarray  # first state of every reflected level
    inv_sqrt: np.ndarray  # 1/sqrt(level size), per reflected level
    gain: np.ndarray  # 2 / ||w_k||^2, per reflected level

    @property
    def n_rows(self) -> int:
        return len(self.distinct_values)

    @property
    def n_columns(self) -> int:
        return len(self.first) + len(self.rest)

    def reflect(self, y: np.ndarray) -> np.ndarray:
        """R y, in place; with no reflected level every array below is empty and ``y`` is unchanged."""
        # per level: w = e_first - uniform, R x = x - gain * (w . x) w; one
        # bincount sums each level's members in index order
        sums = np.bincount(self.level, weights=y[self.members], minlength=len(self.gain))
        beta = self.gain * (y[self.heads] - sums * self.inv_sqrt)
        y[self.members] += (beta * self.inv_sqrt)[self.level]
        y[self.heads] -= beta
        return y

    def permute(self, y: np.ndarray) -> np.ndarray:
        """P y into a new array; ``take`` in mode "clip" writes straight into it."""
        out, r = np.empty(y.shape), len(self.first)
        y.take(self.first, axis=0, out=out[:r], mode="clip")
        y.take(self.rest, axis=0, out=out[r:], mode="clip")
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """C x = P R x into a new array; ``x`` is left unchanged."""
        return self.permute(self.reflect(np.array(x, dtype=float)))


def line_levels(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    cut: float | None = None,
) -> LineLevels:
    """Enumerate the loading value of every joint state, group equal ones and complete their map.

    ``h_row`` must be the rated distribution-factor row restricted to the
    non-slack buses, ordered consistently with ``distributions``.  Loading
    signs are folded by absolute value.  No level holds loadings on both
    sides of ``cut`` (see :func:`group_values`).
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

    distinct, labels, first = group_values(loading, cut)
    r = len(distinct)
    row_norms = np.sqrt(np.bincount(labels, minlength=r).astype(float))
    mass = np.bincount(labels, weights=prob, minlength=r)
    mass_loading = np.bincount(labels, weights=prob * loading, minlength=r)
    del loading, prob  # freed before the completion's arrays are formed

    reflected = row_norms > 1
    members = np.flatnonzero(reflected[labels])
    level = (np.cumsum(reflected) - 1)[labels[members]]
    rest = np.ones(len(labels), dtype=bool)
    rest[first] = False
    del labels
    inv_sqrt = 1.0 / row_norms[reflected]
    return LineLevels(
        distinct_values=distinct,
        first=first,
        row_norms=row_norms,
        mass=mass,
        mass_loading=mass_loading,
        rest=np.flatnonzero(rest),
        members=members,
        level=level,
        heads=first[reflected],
        inv_sqrt=inv_sqrt,
        # ||e_first - uniform||^2 = 2 - 2/sqrt(size)
        gain=2.0 / (2.0 - 2.0 * inv_sqrt),
    )


@dataclass(frozen=True)
class EstimatorVector:
    """Weights turning the loading-distribution state into one risk number.

    Each level is weighed by what it adds to the metric per unit of its
    probability: for the mean metric its probability-weighted loading
    ``mass_loading / mass``, for the overload metric 1 where its loadings
    reach the overload cut.  Row norms are folded back in so the
    un-normalized map is effectively applied.  A level of zero probability
    gets no weight: its amplitude is zero, and a weight would only shrink
    the estimated amplitude.  ``scaling`` converts the final amplitude into
    physical units; noiselessly it gives the sum of the levels' shares of
    the metric, the exact oracle's sum.
    """

    v: np.ndarray
    scaling: float

    @property
    def is_degenerate(self) -> bool:
        """True when no level adds to the metric; the metric is exactly zero."""
        return not np.any(self.v)


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
    live = levels.mass > 0
    if metric == "mean":
        value = np.divide(levels.mass_loading, levels.mass, out=np.zeros(levels.n_rows), where=live)
    elif metric == "overload":
        if threshold is None:
            raise ConfigurationError("overload metric needs a threshold")
        value = live & (levels.distinct_values >= overload_cut(metric, threshold))
    else:
        raise ConfigurationError(f"unknown metric {metric!r}")
    v = np.zeros(dim)
    v[: levels.n_rows] = value * levels.row_norms
    prod_norms = float(np.prod([enc.norm_factor for enc in encodings]))
    scaling = math.sqrt(float(v @ v)) * prod_norms
    return EstimatorVector(v=v, scaling=scaling)


def _metric_reflection(v: np.ndarray) -> tuple[np.ndarray, float]:
    """``(w, gain)`` of the :func:`householder` taking the last axis to ``v / ||v||``."""
    v = np.asarray(v, dtype=float)
    norm = math.sqrt(float(v @ v))
    if norm == 0:
        raise ConfigurationError("householder vector must be non-zero")
    return householder(v / norm, -1)


def _reflect(x: np.ndarray, w: np.ndarray, coef: float) -> np.ndarray:
    """Rank-1 reflection ``(I - coef * w w^T) x`` of a vector, in place."""
    x -= coef * (w @ x) * w
    return x


def prepared_state(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    metric: str,
    threshold: float | None = None,
) -> tuple[np.ndarray | None, LineLevels, EstimatorVector]:
    """psi = A|0> for one line and metric, A = H P R prep; no operator is formed.

    Each bus's state prep takes ``e_0`` to its encoded amplitudes, so
    ``prep|0>`` is the joint state of the encodings, and psi = H P R
    ``joint_state``.  Returns ``(psi, levels, estimator)`` with psi a
    read-only float64 vector, or ``None`` when the estimator is degenerate.
    The amplitude of the last basis state in psi is the metric on the
    amplitude scale; ``estimator.scaling`` converts it to physical units.
    """
    encodings = [encode(d) for d in distributions]
    n_qubits = sum(enc.n_qubits for enc in encodings)
    check_qubit_count(n_qubits)
    levels = line_levels(h_row, distributions, cut=overload_cut(metric, threshold))
    estimator = build_estimator_vector(levels, metric, n_qubits, encodings, threshold)
    if estimator.is_degenerate:
        return None, levels, estimator
    psi = levels.apply(joint_state(encodings).amplitudes)
    _reflect(psi, *_metric_reflection(estimator.v))
    psi.setflags(write=False)
    return psi, levels, estimator
