"""Classical baselines: exact enumeration and seeded Monte Carlo.

The enumeration oracle visits every joint injection bin and is kept
independent of the quantum flow-map construction, so the two paths can
be checked against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .errors import ConfigurationError
from .estimation import EstimationResult
from .flowmap import THRESHOLD_TOL
from .injection import InjectionDistribution
from .simulator import check_qubit_count

_VALUE_TOL = 1e-9


@dataclass(frozen=True)
class ExactDistribution:
    """Exact distribution of the absolute line loading.

    ``loading`` and ``mass`` are |loading| and probability per joint state, in
    mixed-radix order with the first bus most significant.  Loadings, mean and
    ``std`` are fractions of the line rating, the unit in which the
    sample-count formula and epsilon are stated.  A joint state is overloaded
    when its own |loading| >= threshold - 1e-9; a rule on the sorted levels
    could differ only where a chain of distinct loadings less than 1e-9 apart
    straddles threshold - 1e-9.  ``std``, and the sorted levels ``values`` and
    ``probabilities`` (zero-mass states dropped), are computed on first access.
    """

    loading: np.ndarray
    mass: np.ndarray
    mean: float

    @cached_property
    def std(self) -> float:
        return math.sqrt(float(((self.loading - self.mean) ** 2) @ self.mass))

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        keep = self.mass > 0.0
        loading = self.loading[keep]
        order = np.argsort(loading, kind="stable")  # equal loadings stay in enumeration order
        loading = loading[order]
        mass = self.mass[keep][order]
        # a level is a chain of sorted values whose consecutive gaps are within the tolerance
        starts = np.concatenate(([0], np.flatnonzero(np.diff(loading) > _VALUE_TOL) + 1))
        probs = np.add.reduceat(mass, starts)
        return np.add.reduceat(loading * mass, starts) / probs, probs

    values = property(lambda self: self._levels[0])
    probabilities = property(lambda self: self._levels[1])

    def overload_probability(self, threshold: float) -> float:
        return float(self.mass[self.loading >= threshold - THRESHOLD_TOL].sum())

    def metric(self, metric: str, threshold: float | None = None) -> float:
        if metric == "mean":
            return self.mean
        if metric == "overload":
            if threshold is None:
                raise ConfigurationError("overload metric needs a threshold")
            return self.overload_probability(threshold)
        raise ConfigurationError(f"unknown metric {metric!r}")


def exact_line_distribution(
    h_row: np.ndarray, distributions: list[InjectionDistribution]
) -> ExactDistribution:
    """Enumerate every joint bin: |loading| and mass per joint state, unsorted."""
    h_row = np.asarray(h_row, dtype=float)
    if len(h_row) != len(distributions):
        raise ConfigurationError("h_row length must match the number of distributions")
    n_qubits = sum(dist.n_qubits for dist in distributions)
    check_qubit_count(n_qubits)

    # mixed radix over the joint states, first bus most significant; one ufunc
    # call per column, as an outer product's k-wide inner loop runs k at a time
    loading, mass = np.zeros(1), np.ones(1)
    for h, dist in zip(h_row, distributions):
        next_loading = np.empty((len(loading), len(dist.values_mw)))
        next_mass = np.empty_like(next_loading)
        for j, (value, prob) in enumerate(zip(h * dist.values_mw, dist.probabilities)):
            np.add(loading, value, out=next_loading[:, j])
            np.multiply(mass, prob, out=next_mass[:, j])
        loading, mass = next_loading.ravel(), next_mass.ravel()
    np.abs(loading, out=loading)
    return ExactDistribution(loading=loading, mass=mass, mean=float(loading @ mass))


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
        cdf = dist.probabilities.cumsum()
        cdf /= cdf[-1]
        u = rng.random(n)
        if len(cdf) > _COUNT_LEVELS:
            index = cdf.searchsorted(u, side="right")
        else:  # the same index, the count of cut points <= u; cdf[-1] = 1 > u is never one
            index = np.zeros(n, np.uint8)
            for cut in cdf[:-1].tolist():
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

    estimate = float(samples.mean())
    # one sample has no sample deviation; fall back on the sigma that sized the budget
    sigma_sample = float(samples.std(ddof=1)) if n > 1 else sigma_n
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
