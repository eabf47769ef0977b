"""Classical baselines: exact enumeration and seeded Monte Carlo.

The enumeration oracle sums over every joint injection bin, each a pair of
a state of the first half of the buses and one of the second half
(Horowitz & Sahni's meet-in-the-middle split, J. ACM 21:277, 1974).  It
is kept independent of the quantum flow-map construction, so the two
paths can be checked against each other.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError
from .estimation import EstimationResult
from .flowmap import THRESHOLD_TOL
from .injection import InjectionDistribution
from .simulator import check_qubit_count


@dataclass(frozen=True)
class ExactDistribution:
    """Exact distribution of the absolute line loading, held as two halves of the buses.

    Every joint state is a pair of a state of the first buses, the head, and
    a state of the remaining buses, the tail; its signed loading is the sum
    of the two halves' partial loadings and its probability their product.
    ``head_loading``/``head_mass`` and ``tail_loading``/``tail_mass`` are the
    halves' signed partial loadings and probabilities, in mixed-radix order
    with the first bus most significant.  Loadings, ``mean`` and ``std`` are
    fractions of the line rating, the unit in which the sample-count formula
    and epsilon are stated.

    ``mean`` and ``std`` are direct sums over the joint states, from one
    |head + tail| matrix of 2^n entries; ``overload_probability`` counts in
    the sorted tail and forms nothing of length 2^n.  A joint state (a, b)
    is overloaded when |a + b| >= t' = threshold - 1e-9, with a + b exact:
    b >= t' - a or b <= -t' - a, each bound rounded outward.  A rule on the
    sorted levels could differ where a chain of distinct loadings less than
    1e-9 apart straddles t'.
    """

    head_loading: np.ndarray
    head_mass: np.ndarray
    tail_loading: np.ndarray
    tail_mass: np.ndarray

    @cached_property
    def _moments(self) -> tuple[float, float]:
        """Mean and std of |loading|, summed over the joint states in one |head + tail| matrix."""
        pa, pb = self.head_mass, self.tail_mass
        m = np.add.outer(self.head_loading, self.tail_loading)
        np.abs(m, out=m)
        mean = float(pa @ (m @ pb))
        m -= mean
        np.square(m, out=m)
        return mean, math.sqrt(float(pa @ (m @ pb)))

    mean = property(lambda self: self._moments[0])
    std = property(lambda self: self._moments[1])

    @cached_property
    def _sorted_tail(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sorted tail loadings b, ``below[i]`` the mass of b[:i] and ``above[i]`` that of b[i:]."""
        order = np.argsort(self.tail_loading)
        mass = self.tail_mass[order]
        below = np.concatenate(([0.0], mass.cumsum()))
        above = np.concatenate((mass[::-1].cumsum()[::-1], [0.0]))
        return self.tail_loading[order], below, above

    @cached_property
    def _overload(self) -> dict[float, float]:
        return {}

    def overload_probability(self, threshold: float) -> float:
        """P(|loading| >= threshold - 1e-9), counted once per threshold (exact and cmc both read it).

        A sum of products of bin probabilities can round above 1, where every
        joint state counts; the probability is kept at most 1.
        """
        if threshold not in self._overload:
            self._overload[threshold] = min(self._count_overload(threshold), 1.0)
        return self._overload[threshold]

    def _count_overload(self, threshold: float) -> float:
        if not math.isfinite(threshold):  # the bounds below would be NaN
            raise ConfigurationError("overload threshold must be finite")
        cut = threshold - THRESHOLD_TOL
        b, below, above = self._sorted_tail
        if cut <= 0:  # every state counts
            return float(self.head_mass.sum() * above[0])
        a = self.head_loading
        bounds = _ceil_sum(cut, np.concatenate((-a, a)))  # least floats at or above cut - a, cut + a
        high = b.searchsorted(bounds[: len(a)])  # first tail state with a + b >= cut
        low = b.searchsorted(-bounds[len(a) :], side="right")  # tail states with a + b <= -cut
        return float(self.head_mass @ (above[high] + below[low]))

    def metric(self, metric: str, threshold: float | None = None) -> float:
        if metric == "mean":
            return self.mean
        if metric == "overload":
            if threshold is None:
                raise ConfigurationError("overload metric needs a threshold")
            return self.overload_probability(threshold)
        raise ConfigurationError(f"unknown metric {metric!r}")


def _ceil_sum(p: float, q: np.ndarray) -> np.ndarray:
    """The least float at or above the exact sum p + q, by the error term of Knuth's TwoSum."""
    s = p + q
    bp = s - p
    err = (p - (s - bp)) + (q - bp)
    return np.where(err > 0, np.nextafter(s, np.inf), s)


def _fold(
    columns: Sequence[tuple[np.ndarray, np.ndarray]], loading: np.ndarray, mass: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Signed loading and mass of the joint states, ``loading`` and ``mass`` extended by each column.

    A column is one bus's scaled values and probabilities; mixed radix, the
    new bus least significant.  One outer product per bus: a half of
    narrow buses holds about 2^(n/2) states, where the number of calls, not
    the outer product's short inner loop, sets the cost.
    """
    for values, probs in columns:
        loading = np.add.outer(loading, values).ravel()
        mass = np.multiply.outer(mass, probs).ravel()
    return loading, mass


def exact_line_distribution(
    h_row: np.ndarray, distributions: list[InjectionDistribution]
) -> ExactDistribution:
    """Enumerate the joint bins as two halves of the buses, cut where the head holds nearest n/2 qubits."""
    h_row = np.asarray(h_row, dtype=float)
    if len(h_row) != len(distributions):
        raise ConfigurationError("h_row length must match the number of distributions")
    n_qubits = sum(dist.n_qubits for dist in distributions)
    check_qubit_count(n_qubits)

    columns = [(h * dist.values_mw, dist.probabilities) for h, dist in zip(h_row, distributions)]
    head_qubits = list(itertools.accumulate((dist.n_qubits for dist in distributions), initial=0))
    cut = min(range(len(head_qubits)), key=lambda k: abs(2 * head_qubits[k] - n_qubits))  # first on a tie
    start = (np.zeros(1), np.ones(1))
    head, tail = _fold(columns[:cut], *start), _fold(columns[cut:], *start)
    return ExactDistribution(*head, *tail)


def _critical_value(alpha: float) -> float:
    # 1.96 pinned for the standard 95% interval; tables are quoted with it
    if abs(alpha - 0.05) < 1e-12:
        return 1.96
    return NormalDist().inv_cdf(1 - alpha / 2)


#: largest Monte Carlo budget :func:`required_samples` grants: 2^24 draws, about 0.4 GiB of
#: float64 draw arrays (a bus's uniforms, the running loading and the samples)
MAX_CMC_SAMPLES = 2**24


def required_samples(sigma_n: float, epsilon: float, alpha: float) -> int:
    """Monte Carlo sample count for a target margin of error.

    Rounds the real value to the nearest integer.  A budget that is not
    finite, or over ``MAX_CMC_SAMPLES``, is refused before any draw; so is
    an epsilon whose square underflows to zero.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be > 0")
    z = _critical_value(alpha)
    budget = z**2 * sigma_n**2 / epsilon**2 if epsilon**2 > 0 else math.inf
    if not budget <= MAX_CMC_SAMPLES:  # a NaN budget is refused too
        raise ConfigurationError(
            f"Monte Carlo budget of {budget:.4g} samples at epsilon {epsilon:g} is over the "
            f"limit of {MAX_CMC_SAMPLES} (2^24) samples"
        )
    return int(round(budget))


#: widest bus that counts its cut points (O(k·n); at most 256, a uint8 count); wider ones binary-search.
#: Per 16-level bus (2 vCPU): 73-132 against 250-327 µs at n = 9,000, 33 against 19 µs at 1,600
_COUNT_LEVELS = 16


def _draw_loading(rng: np.random.Generator, h_row: np.ndarray, distributions, n: int) -> np.ndarray:
    """``n`` draws of |loading|: per bus, the draws of ``rng.choice(values, n, p=p)``, without its checks."""
    loading = np.zeros(n)
    for h, dist in zip(h_row, distributions):
        p = dist.probabilities
        u = rng.random(n)
        if len(p) > _COUNT_LEVELS:
            cdf = p.cumsum()
            cdf /= cdf[-1]
            index = cdf.searchsorted(u, side="right")
        else:  # the same index, the count of cut points <= u; cdf[-1] = 1 > u is never one
            # cumsum's sequential sums and ``cdf /= cdf[-1]``'s quotients, in Python floats
            cdf = list(itertools.accumulate(p.tolist()))
            cdf = [c / cdf[-1] for c in cdf]
            index = (u >= cdf[0]).view(np.uint8)
            for cut in cdf[1:-1]:
                index += u >= cut
        loading += (h * dist.values_mw).take(index)
    return np.abs(loading, out=loading)


def classical_mc(
    h_row: np.ndarray,
    distributions: list[InjectionDistribution],
    metric: str,
    epsilon: float,
    alpha: float,
    rng_seed: int,
    threshold: float | None = None,
    exact: ExactDistribution | None = None,
) -> EstimationResult:
    """Plain Monte Carlo estimate with a margin-of-error interval.

    The sample count comes from the classically computed standard deviation
    of the metric variable; sampling is inverse-CDF per bus with a seeded
    generator.  ``exact`` is the :func:`exact_line_distribution` of the same
    inputs, if the caller already has it; it is enumerated here otherwise.
    """
    if exact is None:
        exact = exact_line_distribution(h_row, distributions)
    value = exact.metric(metric, threshold)  # refuses an unknown metric or a missing threshold
    sigma_n = exact.std if metric == "mean" else math.sqrt(value * (1 - value))  # Bernoulli(value)

    n = required_samples(sigma_n, epsilon, alpha)
    if n == 0:
        return EstimationResult.point("cmc", value, epsilon, alpha, rng_seed)

    loading = _draw_loading(np.random.default_rng(rng_seed), np.asarray(h_row, float), distributions, n)
    samples = loading if metric == "mean" else (loading >= threshold - THRESHOLD_TOL).astype(float)

    # ``samples.mean()`` and ``samples.std(ddof=1)``: the same pairwise sums, without their Python layer
    estimate = float(np.add.reduce(samples)) / n
    samples -= estimate
    np.multiply(samples, samples, out=samples)
    # one sample has no sample deviation; fall back on the sigma that sized the budget
    sigma_sample = math.sqrt(float(np.add.reduce(samples)) / (n - 1)) if n > 1 else sigma_n
    margin = _critical_value(alpha) * sigma_sample / math.sqrt(n)
    return EstimationResult(
        method="cmc",
        raw_a=estimate,
        metric_value=estimate,
        ci_low=estimate - margin,
        ci_high=estimate + margin,
        shots_total=n,
        oracle_applications=n,
        epsilon=epsilon,
        alpha=alpha,
        seed=rng_seed,
    )
