"""Iterative amplitude estimation over simulated measurement shots.

The Grover iterate Q = A S0 A^T Sg combines the pipeline operator with two
basis-state phase flips.  :func:`build_grover_iterate` applies it as
operator calls on a structured :class:`PipelineOperator`;
:func:`build_grover` assembles it as a dense unitary from a
:class:`PipelineUnitary` and serves as the small-n oracle.  Estimation
maintains a confidence interval on the rotation angle, adaptively raising
the Grover power whenever the scaled interval still fits in one half-plane,
and tightens it with Clopper-Pearson binomial intervals on seeded shot
draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy import special

from .errors import ConfigurationError, EstimationFailureError
from .flowmap import PipelineOperator, PipelineUnitary
from .simulator import (
    StateVector,
    UnitaryMatrix,
    apply,
    probability_of,
    probe_unitary,
    zero_state,
)

_PHASE_CHECK_TOL = 1e-8

#: :func:`iqae` accepts half-widths epsilon in (0, IQAE_MAX_EPSILON)
IQAE_MAX_EPSILON = 0.25


@dataclass(frozen=True)
class GroverOperator:
    """Amplification operator for the all-ones target state."""

    q: UnitaryMatrix
    a_op: PipelineUnitary
    good_state_index: int

    @property
    def theta(self) -> float:
        """Rotation angle, amplitude = sin(theta)."""
        amp = self.a_op.a.entries[self.good_state_index, 0]
        return float(np.arcsin(np.clip(abs(amp), 0.0, 1.0)))

    def amplified_state(self, k: int, start: StateVector | None = None) -> StateVector:
        """Apply k Grover steps to (a continuation of) the prepared state."""
        state = start if start is not None else apply(self.a_op.a, zero_state(self.a_op.a.n_qubits))
        for _ in range(k):
            state = apply(self.q, state)
        return state


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


@dataclass(frozen=True)
class GroverIterate:
    """Amplification operator applied as calls to a structured pipeline operator.

    Offers what :func:`iqae` needs of a :class:`GroverOperator`,
    ``amplified_state`` and ``good_state_index``, without a dense matrix.
    """

    a_op: PipelineOperator
    good_state_index: int
    prepared: np.ndarray  # A|0>, real

    @property
    def theta(self) -> float:
        """Rotation angle, amplitude = sin(theta)."""
        amp = self.prepared[self.good_state_index]
        return float(np.arcsin(np.clip(abs(amp), 0.0, 1.0)))

    def step(self, x: np.ndarray) -> np.ndarray:
        """Q x = A S0 A^T Sg x; each phase flip negates one amplitude."""
        y = x.copy()
        y[self.good_state_index] = -y[self.good_state_index]
        y = self.a_op.apply_adjoint(y)
        y[0] = -y[0]
        return self.a_op.apply(y)

    def amplified_state(self, k: int, start: StateVector | None = None) -> StateVector:
        """Apply k Grover steps to (a continuation of) the prepared state."""
        x = self.prepared
        if start is not None:
            x = start.amplitudes
            if np.any(x.imag):
                raise ConfigurationError("the structured Grover iterate acts on real states")
            x = x.real
        for _ in range(k):
            x = self.step(x)
        return StateVector(self.a_op.n_qubits, x)


def _check_rotation(op: GroverOperator | GroverIterate) -> None:
    """Good-state probability after k steps must be sin^2((2k+1) theta), k = 0..2."""
    theta = op.theta
    state = op.amplified_state(0)
    for k in range(3):
        if k > 0:
            state = op.amplified_state(1, start=state)
        expected = math.sin((2 * k + 1) * theta) ** 2
        got = probability_of(state, op.good_state_index)
        if abs(got - expected) > _PHASE_CHECK_TOL:
            raise ConfigurationError(
                f"Grover rotation identity violated at k={k}: {got} vs {expected}"
            )


def build_grover(a: PipelineUnitary) -> GroverOperator:
    """Assemble the dense Grover operator and verify its rotation identity."""
    dim = a.a.dim
    amat = a.a.entries
    s0 = np.eye(dim)
    s0[0, 0] = -1.0
    sg = np.eye(dim)
    sg[a.good_state_index, a.good_state_index] = -1.0
    q = amat @ s0 @ amat.conj().T @ sg
    op = GroverOperator(q=UnitaryMatrix(q), a_op=a, good_state_index=a.good_state_index)
    _check_rotation(op)
    return op


def build_grover_iterate(a: PipelineOperator) -> GroverIterate:
    """Structured Grover iterate, probed for unitarity and the rotation identity."""
    op = GroverIterate(a_op=a, good_state_index=a.good_state_index, prepared=a.prepared())
    probe_unitary(op.step, a.dim)
    _check_rotation(op)
    return op


def _clopper_pearson(one_counts: int, shots: int, alpha: float) -> tuple[float, float]:
    """Exact two-sided binomial confidence interval."""
    k, n = one_counts, shots
    lo = 0.0 if k == 0 else float(special.betaincinv(k, n - k + 1, alpha / 2))
    hi = 1.0 if k == n else float(special.betaincinv(k + 1, n - k, 1 - alpha / 2))
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
    g: GroverOperator,
    epsilon: float,
    alpha: float,
    shots_per_round: int = 100,
    rng_seed: int = 0,
) -> EstimationResult:
    """Adaptive amplitude estimation on the amplitude-squared scale.

    Returns an interval of width at most 2*epsilon whose coverage of the
    true amplitude is at least 1-alpha.  Shots are drawn from the exact
    good-state probability of the amplified circuit with a seeded binomial
    generator, so runs are reproducible.
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
    prepared = g.amplified_state(0)
    state = prepared
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
            state = g.amplified_state(k_next - k, start=state)
            k = k_next
            round_shots = 0
            round_ones = 0

        p_good = probability_of(state, g.good_state_index)
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
