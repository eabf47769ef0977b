"""Iterative amplitude estimation over simulated measurement shots.

The Grover iterate Q = A S0 A^T Sg combines the pipeline operator with two
basis-state phase flips.  As S0 = I - 2|0><0|, A S0 A^T = I - 2 psi psi^T
for psi = A|0>, so :func:`build_grover_iterate` needs psi alone, as
:func:`~gridqmc.flowmap.prepared_state` forms it, and a step is a sign flip
of the good amplitude and one rank-1 reflection about psi.  Q is orthogonal
exactly when ||psi|| = 1, as (I - 2 psi psi^T)^2 = I + 4(||psi||^2 - 1) psi psi^T,
so that one residual is its unitarity check.  Estimation maintains a
confidence interval on the rotation angle, adaptively raising the Grover
power whenever the scaled interval still fits in one half-plane, and
tightens it with Clopper-Pearson binomial intervals on seeded shot draws.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError, EstimationFailureError
from .simulator import _UNITARY_TOL, _frozen_real

_PHASE_CHECK_TOL = 1e-8

#: a binomial tail sum stops once a term adds less than this share of the total
_TAIL_SUM_EPS = 1e-17
#: the quantile solve stops once a step moves the logit by at most this
_LOGIT_STEP_TOL = 1e-9
_MAX_QUANTILE_STEPS = 100
#: Clopper-Pearson intervals kept per process.  An interval depends on (ones, shots, alpha)
#: alone: 1,284 distinct nine-qubit studies at epsilon = 0.01 and alpha = 0.05 asked for
#: 3,913 intervals, of which 178 were distinct.
CLOPPER_PEARSON_CACHE_SIZE = 1024

#: :func:`iqae` accepts at most this many shots per round.  At epsilon = 0.01 it runs at most
#: 60 rounds, so it pools at most 60,000 shots, and one interval on those takes about 0.2 s
#: (k = n / 2, the slowest count; ``math.comb`` costs about n^2).
MAX_SHOTS_PER_ROUND = 1000

#: :func:`iqae` accepts half-widths epsilon in (0, IQAE_MAX_EPSILON)
IQAE_MAX_EPSILON = 0.25


@dataclass(eq=False)
class GroverIterate:
    """Amplification operator Q = (I - 2 psi psi^T) Sg for psi = A|0>, read-only in ``start``.

    ``good_state_index`` is the basis state Sg negates.  ``_highest`` holds
    the highest power k computed so far and Q^k psi.
    """

    start: np.ndarray
    good_state_index: int
    _highest: tuple[int, np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        self._highest = (0, self.start)

    def step(self, x: np.ndarray) -> np.ndarray:
        """Q x for one vector of the length of psi: negate the good amplitude, reflect about psi."""
        psi = self.start
        if np.shape(x) != (len(psi),):
            raise ConfigurationError(f"state must be one vector of length {len(psi)}, not shape {np.shape(x)}")
        y = np.array(x, dtype=float)  # the one copy of the step, overwritten in place
        y[self.good_state_index] *= -1.0
        y -= psi * (2.0 * (psi @ y))
        return y

    def _power(self, k: int) -> np.ndarray:
        """Q^k psi, stepped on from the highest power computed so far if that is at most k.

        IQAE thus repeats no step of the rotation check or of its own earlier rounds.
        """
        done, x = self._highest if self._highest[0] <= k else (0, self.start)
        for _ in range(k - done):
            x = self.step(x)
        if k >= self._highest[0]:
            self._highest = (k, x)
        return x

    def good_probability(self, k: int) -> float:
        return float(self._power(k)[self.good_state_index] ** 2)


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
        if not abs(got - expected) <= _PHASE_CHECK_TOL:  # NaN fails too
            raise ConfigurationError(
                f"Grover rotation identity violated at k={k}: {got} vs {expected}"
            )


def build_grover_iterate(psi: np.ndarray) -> GroverIterate:
    """Grover iterate on psi = A|0>, checked for ||psi|| = 1 and the rotation identity.

    The good state is the last basis state.  The iterate keeps psi read-only:
    a writable or non-float64 ``psi`` is copied first.
    """
    psi = np.asarray(psi)
    if psi.ndim != 1:
        raise ConfigurationError(f"psi must be one vector, not shape {psi.shape}")
    if psi.flags.writeable or psi.dtype != float:
        psi = _frozen_real(psi)
    residual = abs(float(psi @ psi) - 1.0)
    if not residual <= _UNITARY_TOL:  # a NaN residual is refused too
        raise ConfigurationError(f"Grover iterate is not unitary (|psi.psi - 1| = {residual:.2e})")
    op = GroverIterate(start=psi, good_state_index=len(psi) - 1)
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
    approximation of Abramowitz & Stegun 26.5.22.  The tail is summed upward
    from k alone: the root lies below k/n, as P[X >= k] >= 1/2 > q at x = k/n
    (the median of Binomial(n, k/n) is k), and a sum of positive terms keeps
    its relative precision wherever an iterate lands.
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
        tail = pmf * _ratio_sum(k, n, odds)
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


@functools.lru_cache(maxsize=CLOPPER_PEARSON_CACHE_SIZE)
def _clopper_pearson(one_counts: int, shots: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval, memoized per process.

    The endpoints are the beta quantiles I^-1_{alpha/2}(k, n - k + 1) and
    I^-1_{1-alpha/2}(k + 1, n - k); the upper one is found as one minus the
    lower endpoint of the complementary count n - k.  ``__wrapped__`` is the
    uncached solve.
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


def _next_angles(
    theta_interval: tuple[float, float], k: int, upper_half: bool, p_interval: tuple[float, float]
) -> tuple[float, float]:
    """Angle interval after a round at power k whose pooled good-state probability lies in ``p_interval``."""
    theta_l, theta_u = theta_interval
    p_lo, p_hi = p_interval
    scaling = 4 * k + 2
    if upper_half:
        t_lo = math.acos(1 - 2 * p_lo) / (2 * math.pi)
        t_hi = math.acos(1 - 2 * p_hi) / (2 * math.pi)
    else:
        t_lo = 1 - math.acos(1 - 2 * p_hi) / (2 * math.pi)
        t_hi = 1 - math.acos(1 - 2 * p_lo) / (2 * math.pi)
    # _find_next_k keeps the scaled interval inside one half-period, so both ends share the
    # period of its midpoint.  An end's own period can be one too high: after a round with
    # no hits in the lower half-plane, t_hi = 1 puts scaling * theta_u on an integer
    period = int(scaling * (theta_l + theta_u) / 2)
    return (period + t_lo) / scaling, (period + t_hi) / scaling


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
    if not 1 <= shots_per_round <= MAX_SHOTS_PER_ROUND:
        raise ConfigurationError(f"shots_per_round must lie in [1, {MAX_SHOTS_PER_ROUND}]")

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
        oracle_applications += shots_per_round * (2 * k + 1)
        # pool shots taken at the same power before the binomial interval
        round_shots += shots_per_round
        round_ones += ones

        p_interval = _clopper_pearson(round_ones, round_shots, alpha_round)
        theta_l, theta_u = _next_angles((theta_l, theta_u), k, upper_half, p_interval)
        a_l = math.sin(2 * math.pi * theta_l) ** 2
        a_u = math.sin(2 * math.pi * theta_u) ** 2

    if not a_l <= a_u:  # an angle update gone wrong, not the study: no result, as at the round cap
        raise EstimationFailureError(
            f"inverted interval [{a_l:.6g}, {a_u:.6g}] after {rounds} rounds", partial_interval=(a_l, a_u)
        )
    estimate = (a_l + a_u) / 2
    return EstimationResult(
        method="iqae",
        raw_a=estimate,
        metric_value=estimate,
        ci_low=a_l,
        ci_high=a_u,
        shots_total=rounds * shots_per_round,
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
