"""Studies drawn from the whole schema (``tests.studies.random_study``) against the exact oracle."""
import functools
import json
import math

import numpy as np
import pytest

from gridqmc import exact_line_distribution, run_analysis
from gridqmc.cli import main
from gridqmc.config import parse_config
from gridqmc.errors import GridQmcError
from gridqmc.flowmap import prepared_state
from gridqmc.runner import _analysis_inputs
from tests.studies import random_study

SEEDS = range(300)
#: the seeds whose study also runs through ``gridqmc run``
CLI_SEEDS = range(0, 300, 10)
#: the IQAE miss tally fails only at a count whose probability under 1 - alpha coverage is below this
TALLY_FALSE_ALARM = 1e-6


@functools.cache
def sweep_study(seed):
    """``(raw, config, report)`` of the study at ``seed``; config or report is None where it is refused.

    Cached, so the tally reads the reports that the per-seed test made."""
    raw = random_study(np.random.default_rng(seed))
    try:
        config = parse_config(raw)
    except GridQmcError:
        return raw, None, None
    try:
        return raw, config, run_analysis(config)
    except GridQmcError:
        return raw, config, None


@pytest.mark.parametrize("seed", SEEDS)
def test_random_study_agrees_with_the_oracle(seed, tmp_path):
    raw, config, report = sweep_study(seed)
    if config is None:
        return
    an = config.analysis
    h_row, dists = _analysis_inputs(config)
    # noiseless identity: the amplitude of the good state, rescaled, is the oracle's metric
    psi, _, estimator = prepared_state(h_row, dists, an.metric, an.threshold_fraction)
    exact = exact_line_distribution(h_row, dists).metric(an.metric, an.threshold_fraction)
    if psi is None:
        assert exact == 0.0
    else:
        assert abs(estimator.scaling * abs(psi[-1]) - exact) <= 1e-12 * max(1.0, abs(exact))
    if an.metric == "overload":
        assert 0.0 <= exact <= 1.0

    if report is not None:
        if an.metric == "overload":
            # IQAE's rescaled estimate of a probability near 1 can pass 1, so it is not checked here
            assert 0.0 <= report.exact_value <= 1.0
            assert 0.0 <= report.results["cmc"].metric_value <= 1.0

    if seed in CLI_SEEDS:
        path = tmp_path / "study.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")]) in (0, 2, 3)


def binomial_tail_bound(n, p, false_alarm):
    """The least m with P[Binomial(n, p) >= m] < ``false_alarm``."""
    def tail(m):
        return sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(m, n + 1))
    return next(m for m in range(n + 2) if tail(m) < false_alarm)


def test_binomial_tail_bound():
    assert binomial_tail_bound(300, 0.05, 1e-6) == 37
    assert binomial_tail_bound(10, 0.5, 1e-3) == 10  # P[X = 10] = 1/1024
    assert binomial_tail_bound(10, 0.5, 9e-4) == 11  # no count is that rare


def test_iqae_misses_within_the_binomial_bound():
    # each IQAE interval covers the exact value with probability at least 1 - alpha, so the
    # number of misses over the sweep is at most Binomial(N, alpha) in distribution
    runs = [report for _, _, report in map(sweep_study, SEEDS) if report is not None]
    (alpha,) = {report.results["iqae"].alpha for report in runs}
    misses = sum(not report.coverage["iqae"] for report in runs)
    assert len(runs) == len(SEEDS)  # every seed runs
    assert misses < binomial_tail_bound(len(runs), alpha, TALLY_FALSE_ALARM)
