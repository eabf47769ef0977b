"""Studies drawn from the whole schema (``tests.studies.random_study``) against the exact oracle."""
import json

import numpy as np
import pytest

from gridqmc import exact_line_distribution, run_analysis
from gridqmc.cli import main
from gridqmc.config import parse_config
from gridqmc.errors import GridQmcError
from gridqmc.flowmap import prepared_state
from gridqmc.runner import _analysis_inputs
from tests.studies import random_study

#: the seeds whose study also runs through ``gridqmc run``
CLI_SEEDS = range(0, 300, 10)


@pytest.mark.parametrize("seed", range(300))
def test_random_study_agrees_with_the_oracle(seed, tmp_path):
    raw = random_study(np.random.default_rng(seed))
    try:
        config = parse_config(raw)
    except GridQmcError:
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

    try:
        report = run_analysis(config)
    except GridQmcError:
        pass
    else:
        if an.metric == "overload":
            # IQAE's rescaled estimate of a probability near 1 can pass 1, so it is not checked here
            assert 0.0 <= report.exact_value <= 1.0
            assert 0.0 <= report.results["cmc"].metric_value <= 1.0

    if seed in CLI_SEEDS:
        path = tmp_path / "study.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "report.json")]) in (0, 2, 3)
