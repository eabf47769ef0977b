"""Output checks, with a reference enumeration written apart from the package.

Nothing here imports gridqmc: the reference enumerates every joint bin by
mixed-radix index arithmetic on numpy arrays, so it shares no code with
``flowmap.kron_sum``/``group_values`` or with ``classical``.
"""
from __future__ import annotations

import math

import numpy as np

#: slack of the ``loading >= threshold`` comparison, as documented by the package
VALUE_TOL = 1e-9
#: largest allowed gap between the package's exact value and the reference
EXACT_TOL = 1e-9
#: histogram probabilities are printed with 12 significant digits
PROBABILITY_SUM_TOL = 1e-8

HISTOGRAM_HEADER = "bitstring,count,exact_probability"


def joint_loading(h_row, values, probabilities) -> tuple[np.ndarray, np.ndarray]:
    """|loading| and probability of every joint bin, first bus most significant."""
    sizes = [len(v) for v in values]
    total = math.prod(sizes)
    index = np.arange(total)
    loading = np.zeros(total)
    prob = np.ones(total)
    stride = total
    for h, v, p, size in zip(h_row, values, probabilities, sizes):
        stride //= size
        digit = (index // stride) % size
        loading += h * np.asarray(v, dtype=float)[digit]
        prob *= np.asarray(p, dtype=float)[digit]
    return np.abs(loading), prob


def reference_metric(h_row, values, probabilities, metric: str, threshold: float | None) -> float:
    """Exact mean |loading| or overload probability by full enumeration."""
    loading, prob = joint_loading(h_row, values, probabilities)
    if metric == "mean":
        return float(loading @ prob)
    return float(prob[loading >= threshold - VALUE_TOL].sum())


def check_exact(exact_value: float, reference: float) -> str | None:
    if abs(exact_value - reference) > EXACT_TOL:
        return f"exact value {exact_value!r} differs from the reference {reference!r}"
    return None


def check_iqae_interval(raw_a: float, ci_low: float, ci_high: float, epsilon: float) -> str | None:
    """The amplitude-scale interval is at most 2*epsilon wide and holds its estimate."""
    if ci_high - ci_low > 2 * epsilon:
        return f"IQAE interval [{ci_low}, {ci_high}] is wider than 2*epsilon={2 * epsilon}"
    if not ci_low <= raw_a <= ci_high:
        return f"IQAE estimate {raw_a} lies outside its interval [{ci_low}, {ci_high}]"
    return None


def check_cli_report(report_bytes: bytes, expected_json: str) -> str | None:
    if report_bytes != (expected_json + "\n").encode():
        return "CLI report differs from run_analysis(cfg).to_json() plus a newline"
    return None


def check_histogram(csv_text: str, n_qubits: int, shots: int) -> str | None:
    """2^n rows in basis order, counts summing to the shots, probabilities to 1."""
    lines = csv_text.splitlines()
    if not lines or lines[0] != HISTOGRAM_HEADER:
        return "histogram CSV has a wrong header"
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 2**n_qubits:
        return f"histogram CSV has {len(rows)} rows, expected {2**n_qubits}"
    if any(row[0] != f"{i:0{n_qubits}b}" for i, row in enumerate(rows)):
        return "histogram CSV rows are not the basis states in order"
    count_sum = sum(int(row[1]) for row in rows)
    if count_sum != shots:
        return f"histogram counts sum to {count_sum}, expected {shots}"
    prob_sum = math.fsum(float(row[2]) for row in rows)
    if abs(prob_sum - 1.0) > PROBABILITY_SUM_TOL:
        return f"histogram probabilities sum to {prob_sum!r}"
    return None
