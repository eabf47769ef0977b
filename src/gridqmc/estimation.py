"""Iterative amplitude estimation over simulated measurement shots.

The Grover iterate Q = A S0 A^T Sg combines the pipeline operator with two
basis-state phase flips.  :func:`build_grover_iterate` steps W = S0 A^T Sg A,
as Q^k A|0> = A W^k|0>, on a structured :class:`PipelineOperator`: state prep,
level reflections, one rank-1 reflection, level reflections, state prep and
S0, no permutation or metric reflection.  Estimation maintains a confidence
interval on the rotation angle, adaptively raising the Grover power whenever
the scaled interval still fits in one half-plane, and tightens it with
Clopper-Pearson binomial intervals on seeded shot draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError, EstimationFailureError
from .flowmap import PipelineOperator
from .simulator import probe_unitary

_PHASE_CHECK_TOL = 1e-8

#: a binomial tail sum stops once a term adds less than this share of the total
_TAIL_SUM_EPS = 1e-17
#: the quantile solve stops once a step moves the logit by at most this
_LOGIT_STEP_TOL = 1e-9
_MAX_QUANTILE_STEPS = 100

#: :func:`iqae` accepts half-widths epsilon in (0, IQAE_MAX_EPSILON)
IQAE_MAX_EPSILON = 0.25


@dataclass(frozen=True)
class GroverIterate:
    """Amplification operator as steps of W = S0 A^T Sg A on the structured pipeline operator."""

    a_op: PipelineOperator

    @cached_property
    def start(self) -> np.ndarray:
        return np.eye(1, self.a_op.dim)[0]  # |0>

    @cached_property
    def _readout(self) -> np.ndarray:
        """r = A^T e_g = B^T u, computed on first use."""
        return self.a_op._from_frame(self.a_op.good_axis.copy())

    def step(self, x: np.ndarray) -> np.ndarray:
        """W x for a vector or each column of a block; S0 negates row 0."""
        y = self.a_op._reflect_good(self.a_op._own(x))  # the one copy of the step, overwritten in place
        y[0] = -y[0]
        return y

    def _power(self, k: int) -> np.ndarray:
        """W^k|0>, stepped on from the highest power computed so far if that is at most k.

        IQAE thus repeats no step of the rotation check or of its own earlier rounds.
        """
        highest = self.__dict__.get("_highest", (0, self.start))
        done, x = highest if highest[0] <= k else (0, self.start)
        for _ in range(k - done):
            x = self.step(x)
        if k >= highest[0]:
            # kept beside the fields of the frozen dataclass, as cached_property does
            self.__dict__["_highest"] = (k, x)
        return x

    def good_probability(self, k: int) -> float:
        return float((self._readout @ self._power(k)) ** 2)  # (r . W^k|0>)^2


@dataclass(frozen=True)
class EstimationResult:
    """Point estimate with confidence interval and sample accounting.

    ``raw_a`` lives on the amplitude-squared scale for the quantum method
    and equals the metric itself for the classical ones.
    ``oracle_applications`` weights every shot by 2k+1 pipeline calls.
    """

    method: str
    raw_a: float
    metric_value: float
    ci_low: float
    ci_high: float
    shots_total: int
    oracle_applications: int
    epsilon: float
    alpha: float
    seed: int | None

    def __post_init__(self):
        if not self.ci_low <= self.metric_value <= self.ci_high:
            raise ConfigurationError("estimate must lie inside its confidence interval")

    @classmethod
    def point(cls, method: str, value: float, epsilon: float, alpha: float, seed: int | None):
        """A result known exactly, drawn from no sample: a zero-width interval at ``value``."""
        return cls(method=method, raw_a=value, metric_value=value, ci_low=value, ci_high=value,
                   shots_total=0, oracle_applications=0, epsilon=epsilon, alpha=alpha, seed=seed)


def _check_rotation(op: GroverIterate) -> None:
    """Good-state probability after k steps, ``op.good_probability(k)``, must be sin^2((2k+1) theta)."""
    theta = math.asin(min(math.sqrt(op.good_probability(0)), 1.0))
    for k in range(3):
        expected = math.sin((2 * k + 1) * theta) ** 2
        got = op.good_probability(k)
        if abs(got - expected) > _PHASE_CHECK_TOL:
            raise ConfigurationError(
                f"Grover rotation identity violated at k={k}: {got} vs {expected}"
            )


def build_grover_iterate(a: PipelineOperator) -> GroverIterate:
    """Structured Grover iterate, probed for unitarity (reusing the build's block) and the rotation identity."""
    op = GroverIterate(a_op=a)
    probe_unitary(op.step, a.dim, probes=a.__dict__.pop("_probes", None))
    _check_rotation(op)
    return op


def _ratio_sum(k: int, n: int, odds: float) -> float:
    """``sum_{j >= k} P[X = j] / P[X = k]`` for X ~ Binomial(n, x), odds = x / (1 - x).

    Stops once a term is negligible, which is exact where the terms only
    shrink, i.e. for k >= n x.
    """
    term = total = 1.0
    for j in range(k, n):
        term *= (n - j) / (j + 1) * odds
        total += term
        if term < _TAIL_SUM_EPS * total:
            break
    return total


def _upper_tail_logit(k: int, n: int, q: float) -> float:
    """Logit of the x with ``P[X >= k] = q`` for X ~ Binomial(n, x); 1 <= k <= n, q < 1/2.

    That x is the q-quantile of Beta(k, n - k + 1), i.e. the inverse of the
    regularized incomplete beta function, I_x(k, n - k + 1) = q.  Halley
    steps on g(s) = log(P[X >= k] / q) in the logit s = log(x / (1 - x)),
    where g is concave and nearly linear at both ends, start from the normal
    approximation of Abramowitz & Stegun 26.5.22.  The tail is summed from
    whichever side is the smaller, so it keeps its relative precision.
    """
    a, b = k, n - k + 1
    z = -NormalDist().inv_cdf(q)
    lam = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = z * math.sqrt(h + lam) / h - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (
        lam + 5.0 / 6.0 - 2.0 / (3.0 * h)
    )
    s = math.log(a / b) - 2.0 * w
    log_comb = math.log(math.comb(n, k))
    log_q = math.log(q)
    for _ in range(_MAX_QUANTILE_STEPS):
        # x, log x and log(1 - x) from the logit without cancellation
        e = math.exp(-abs(s))
        log1p_e = math.log1p(e)
        if s >= 0:
            x, odds, log_x, log_y = 1.0 / (1.0 + e), 1.0 / e, -log1p_e, -s - log1p_e
        else:
            x, odds, log_x, log_y = e / (1.0 + e), e, s - log1p_e, -log1p_e
        pmf = math.exp(log_comb + k * log_x + (n - k) * log_y)
        if k >= n * x:
            tail = pmf * _ratio_sum(k, n, odds)
        else:  # one minus the lower tail P[X <= k - 1], summed downwards from k
            tail = 1.0 - pmf * (_ratio_sum(n - k, n, 1.0 / odds) - 1.0)
        g = math.log(tail) - log_q
        # g' = (d tail/ds) / tail with d tail/ds = k pmf (1 - x), and g''/g' = k - (n + 1) x - g'
        slope = k * pmf * (1.0 - x) / tail
        u = g / slope
        step = u / (1.0 - 0.5 * min(1.0, u * (k - (n + 1) * x - slope)))
        s -= step
        if abs(step) <= _LOGIT_STEP_TOL:
            return s
    raise EstimationFailureError(f"binomial quantile for k={k}, n={n}, q={q} did not converge")


def _expit(s: float) -> float:
    """1 / (1 + exp(-s)) without overflow."""
    if s >= 0:
        return 1.0 / (1.0 + math.exp(-s))
    e = math.exp(s)
    return e / (1.0 + e)


def _clopper_pearson(one_counts: int, shots: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval.

    The endpoints are the beta quantiles I^-1_{alpha/2}(k, n - k + 1) and
    I^-1_{1-alpha/2}(k + 1, n - k); the upper one is found as one minus the
    lower endpoint of the complementary count n - k.
    """
    k, n = one_counts, shots
    lo = 0.0 if k == 0 else _expit(_upper_tail_logit(k, n, alpha / 2))
    hi = 1.0 if k == n else _expit(-_upper_tail_logit(n - k, n, alpha / 2))
    return lo, hi


def _find_next_k(k: int, upper_half: bool, theta_interval: tuple[float, float]) -> tuple[int, bool]:
    """Largest power such that the scaled angle interval stays invertible.

    Angles are in units of full turns; the scaled interval (4k+2)*interval
    must lie entirely in the upper or lower half-circle.
    """
    theta_l, theta_u = theta_interval
    old_scaling = 4 * k + 2
    max_scaling = int(1 / (2 * (theta_u - theta_l)))
    scaling = max_scaling - (max_scaling - 2) % 4
    while scaling >= 2 * old_scaling:
        theta_min = scaling * theta_l - int(scaling * theta_l)
        theta_max = scaling * theta_u - int(scaling * theta_u)
        if theta_min <= theta_max <= 0.5:
            return (scaling - 2) // 4, True
        if 0.5 <= theta_min <= theta_max:
            return (scaling - 2) // 4, False
        scaling -= 4
    return k, upper_half


def iqae(
    g: GroverIterate,
    epsilon: float,
    alpha: float,
    shots_per_round: int = 100,
    rng_seed: int = 0,
) -> EstimationResult:
    """Adaptive amplitude estimation on the amplitude-squared scale.

    Returns an interval of width at most 2*epsilon whose coverage of the
    true amplitude is at least 1-alpha.  Shots are drawn from the exact
    good-state probability of the amplified circuit with a seeded binomial
    generator, so runs are reproducible.  ``g`` is read only through ``g.good_probability(k)``.
    """
    if not 0 < epsilon < IQAE_MAX_EPSILON:
        raise ConfigurationError(f"epsilon must lie in (0, {IQAE_MAX_EPSILON})")
    if not 0 < alpha < 1:
        raise ConfigurationError("alpha must lie in (0, 1)")
    if shots_per_round < 1:
        raise ConfigurationError("shots_per_round must be >= 1")

    rng = np.random.default_rng(rng_seed)
    n_rounds_nominal = max(1, math.ceil(math.log2(math.pi / (8 * epsilon))))
    alpha_round = alpha / n_rounds_nominal
    max_rounds = 10 * n_rounds_nominal

    # angle in units of full turns; amplitude a = sin^2(2*pi*t), t in [0, 1/4]
    theta_l, theta_u = 0.0, 0.25
    a_l, a_u = 0.0, 1.0
    upper_half = True
    k = 0
    # a certain event can come out a few ulps above 1
    p_good = min(g.good_probability(0), 1.0)
    shots_total = 0
    oracle_applications = 0
    round_shots = 0
    round_ones = 0
    rounds = 0

    while a_u - a_l > 2 * epsilon:
        if rounds >= max_rounds:
            raise EstimationFailureError(
                f"no convergence within {max_rounds} rounds", partial_interval=(a_l, a_u)
            )
        rounds += 1
        k_next, upper_half = _find_next_k(k, upper_half, (theta_l, theta_u))
        if k_next != k:
            k = k_next
            p_good = min(g.good_probability(k), 1.0)
            round_shots = 0
            round_ones = 0

        ones = int(rng.binomial(shots_per_round, p_good))
        shots_total += shots_per_round
        oracle_applications += shots_per_round * (2 * k + 1)
        # pool shots taken at the same power before the binomial interval
        round_shots += shots_per_round
        round_ones += ones

        p_lo, p_hi = _clopper_pearson(round_ones, round_shots, alpha_round)
        scaling = 4 * k + 2
        if upper_half:
            t_lo = math.acos(1 - 2 * p_lo) / (2 * math.pi)
            t_hi = math.acos(1 - 2 * p_hi) / (2 * math.pi)
        else:
            t_lo = 1 - math.acos(1 - 2 * p_hi) / (2 * math.pi)
            t_hi = 1 - math.acos(1 - 2 * p_lo) / (2 * math.pi)
        theta_l = (int(scaling * theta_l) + t_lo) / scaling
        theta_u = (int(scaling * theta_u) + t_hi) / scaling
        a_l = math.sin(2 * math.pi * theta_l) ** 2
        a_u = math.sin(2 * math.pi * theta_u) ** 2

    estimate = (a_l + a_u) / 2
    return EstimationResult(
        method="iqae",
        raw_a=estimate,
        metric_value=estimate,
        ci_low=a_l,
        ci_high=a_u,
        shots_total=shots_total,
        oracle_applications=oracle_applications,
        epsilon=epsilon,
        alpha=alpha,
        seed=rng_seed,
    )


def rescale(result: EstimationResult, scaling: float) -> EstimationResult:
    """Map an amplitude-scale result onto the physical metric scale.

    The metric is sqrt(a) * scaling; the square root is monotone, so the
    interval endpoints transform directly.
    """
    if not 0 <= result.ci_low <= result.ci_high <= 1 + 1e-12:
        raise ConfigurationError("raw interval must lie within [0, 1]")
    return replace(
        result,
        metric_value=math.sqrt(result.raw_a) * scaling,
        ci_low=math.sqrt(result.ci_low) * scaling,
        ci_high=math.sqrt(min(result.ci_high, 1.0)) * scaling,
    )
