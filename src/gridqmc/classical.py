"""Classical baselines: exact enumeration and seeded Monte Carlo.

The enumeration oracle visits every joint injection bin and is kept
independent of the quantum flow-map construction, so the two paths can
be checked against each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

    Values, mean and ``std`` are fractions of the line rating, the unit in
    which the sample-count formula and epsilon are stated.
    """

    values: np.ndarray
    probabilities: np.ndarray
    mean: float
    std: float

    def overload_probability(self, threshold: float) -> float:
        return float(self.probabilities[self.values >= threshold - THRESHOLD_TOL].sum())

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
    """Enumerate every joint bin and accumulate mass per distinct |loading|."""
    h_row = np.asarray(h_row, dtype=float)
    if len(h_row) != len(distributions):
        raise ConfigurationError("h_row length must match the number of distributions")
    n_qubits = sum(dist.n_qubits for dist in distributions)
    check_qubit_count(n_qubits)

    # mixed radix over the joint states, first bus most significant
    loading, mass = np.zeros(1), np.ones(1)
    for h, dist in zip(h_row, distributions):
        loading = np.add.outer(loading, h * dist.values_mw).ravel()
        mass = np.multiply.outer(mass, dist.probabilities).ravel()
    keep = mass > 0.0
    loading = np.abs(loading[keep])
    order = np.argsort(loading)
    loading = loading[order]
    # equal loadings back in enumeration order: the stable sort's order, whatever the sort
    run = np.zeros(len(loading), dtype=np.int64)
    np.not_equal(loading[1:], loading[:-1], out=run[1:])
    np.cumsum(run, out=run)
    run *= len(loading)
    order = np.sort(run + order) - run
    mass = mass[keep][order]
    # a level is a chain of sorted values whose consecutive gaps are within the tolerance
    starts = np.concatenate(([0], np.flatnonzero(np.diff(loading) > _VALUE_TOL) + 1))
    probs_arr = np.add.reduceat(mass, starts)
    values_arr = np.add.reduceat(loading * mass, starts) / probs_arr
    mean = float(values_arr @ probs_arr)
    var = float(((values_arr - mean) ** 2) @ probs_arr)
    std = math.sqrt(max(var, 0.0))
    return ExactDistribution(values=values_arr, probabilities=probs_arr, mean=mean, std=std)


def _critical_value(alpha: float) -> float:
    # 1.96 pinned for the standard 95% interval; tables are quoted with it
    if abs(alpha - 0.05) < 1e-12:
        return 1.96
    return NormalDist().inv_cdf(1 - alpha / 2)


def required_samples(sigma_n: float, epsilon: float, alpha: float) -> int:
    """Monte Carlo sample count for a target margin of error.

    Rounds the real value to the nearest integer.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be > 0")
    z = _critical_value(alpha)
    return int(round(z**2 * sigma_n**2 / epsilon**2))


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

    rng = np.random.default_rng(rng_seed)
    h_row = np.asarray(h_row, dtype=float)
    loading = np.zeros(n)
    for h, dist in zip(h_row, distributions):
        draws = rng.choice(dist.values_mw, size=n, p=dist.probabilities)
        loading += h * draws
    loading = np.abs(loading)
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
