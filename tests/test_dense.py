"""Each index operation of the dense builders against the matrix product it replaces, bit for bit."""
import importlib
import json
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gridqmc import (
    ConfigurationError,
    InjectionDistribution,
    UnitaryMatrix,
    assemble_pipeline,
    build_estimator_vector,
    build_grover,
    build_line_map,
    builtin_config_path,
    encode,
    householder_unitary,
    load_config,
    orthonormalize_rows,
    state_prep_unitary,
    unitary_factorize,
)
from gridqmc import dense
from gridqmc.config import parse_config
from gridqmc.dense import UnitaryFactorization, reflection_unitary
from gridqmc.flowmap import _metric_reflection, line_levels
from gridqmc.runner import _analysis_inputs, stage_state
from gridqmc.simulator import _UNITARY_TOL, householder
from tests.studies import nine_qubit_ring, random_distribution, ring_study

BENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def _study(config):
    an = config.analysis
    h_row, dists = _analysis_inputs(config)
    return h_row, dists, an.metric, an.threshold_fraction if an.metric == "overload" else None


def _tied_grid():
    """Equal sensitivities on 4-level buses: many joint states share a loading level."""
    dists = [
        InjectionDistribution(bus=b, values_mw=np.arange(4) - 2, probabilities=p)
        for b, p in ((1, [0.1, 0.2, 0.3, 0.4]), (2, [0.4, 0.3, 0.2, 0.1]), (3, [0.25, 0.25, 0.25, 0.25]))
    ]
    return np.array([0.25, 0.25, -0.125]), dists, "mean", None


def _distinct_grid():
    """Random levels and sensitivities: every joint state is a level of its own."""
    rng = np.random.default_rng(11)
    return rng.uniform(-0.3, 0.3, 3), [random_distribution(rng, b) for b in (1, 2, 3)], "overload", 0.1


STUDIES = {
    "three_bus": lambda: _study(load_config(builtin_config_path("three_bus"))),
    "five_bus": lambda: _study(load_config(builtin_config_path("five_bus"))),
    "nine_qubit_ring": lambda: _study(nine_qubit_ring()),
    "tied_grid": _tied_grid,
    "distinct_grid": _distinct_grid,
}


@pytest.fixture(params=list(STUDIES), scope="module")
def parts(request):
    h_row, dists, metric, threshold = STUDIES[request.param]()
    encodings = [encode(d) for d in dists]
    n_qubits = sum(e.n_qubits for e in encodings)
    lf_map = orthonormalize_rows(build_line_map(h_row, dists))
    estimator = build_estimator_vector(lf_map, metric, n_qubits, encodings, threshold)
    assert not estimator.is_degenerate
    fact = unitary_factorize(lf_map)
    identity = np.array_equal(fact.v_h.entries, np.eye(fact.v_h.dim))
    assert identity == (request.param == "distinct_grid")  # the grids cover v_h = I and v_h != I
    return request.param, encodings, lf_map, estimator, fact


def test_permutation_is_the_completion_applied_to_the_identity(parts):
    _, _, lf_map, _, fact = parts
    assert np.array_equal(fact.u_padded.entries, lf_map.permute(np.eye(lf_map.n_columns)))


def test_reflections_equal_identity_minus_outer_product(parts):
    _, encodings, _, estimator, _ = parts
    reflections = [householder(e.amplitudes, 0) for e in encodings] + [_metric_reflection(estimator.v)]
    for w, gain in reflections:
        expected = np.eye(len(w)) - gain * np.outer(w, w)
        assert np.array_equal(reflection_unitary(w, gain).entries, expected)


def test_assembly_equals_the_product_of_the_stage_matrices(parts):
    _, encodings, _, estimator, fact = parts
    preps = [state_prep_unitary(e) for e in encodings]
    h = householder_unitary(estimator.v)
    kron = preps[0].entries
    for p in preps[1:]:
        kron = np.kron(kron, p.entries)
    expected = h.entries @ fact.u_padded.entries @ fact.v_h.entries @ kron
    assert np.array_equal(assemble_pipeline(preps, fact, h, estimator.scaling).a.entries, expected)


def test_assembly_is_the_same_whether_the_caller_keeps_or_hands_over_its_factors(parts):
    _, encodings, lf_map, estimator, fact = parts
    preps = [state_prep_unitary(e) for e in encodings]
    h = householder_unitary(estimator.v)

    def held():
        return [(u.entries.tobytes(), None if u.order is None else u.order.tobytes())
                for u in (h, fact.u_padded, fact.v_h, *preps)]

    before = held()
    kept = assemble_pipeline(preps, fact, h, estimator.scaling)  # as perfbench/replay.py calls it
    assert held() == before
    handed = assemble_pipeline(
        preps, h=householder_unitary(estimator.v), factorization=unitary_factorize(lf_map),
        scaling=estimator.scaling,
    )
    assert handed.a.entries.tobytes() == kept.a.entries.tobytes()


def _distinct_nine_qubit_ring():
    """``nine_qubit_ring`` with drawn bus values: every joint state is a level of its own (R = I)."""
    raw = ring_study(5, seed=4)
    raw["injections"][-1].update(values_mw=[-1, 2], probabilities=[0.3, 0.7])
    rng = np.random.default_rng(0)
    for injection in raw["injections"]:
        injection["values_mw"] = np.sort(rng.uniform(-2, 1, len(injection["values_mw"]))).tolist()
    return parse_config(raw)


@pytest.mark.parametrize("config, identity_r", [
    (_distinct_nine_qubit_ring, True),
    (lambda: parse_config(ring_study(5)), False),
], ids=["nine-qubits-R=I", "ring5-R!=I"])
def test_stage_v_holds_at_most_four_dense_matrices(config, identity_r):
    # H, P, R and H P at the column gather, plus a quarter matrix for the 2^n vectors
    cfg = config()
    h_row, dists = _analysis_inputs(cfg)
    levels = line_levels(h_row, dists)
    assert (levels.n_rows == levels.n_columns) == identity_r
    stage_state(cfg, "V")  # imports and first-call set-up are not counted
    tracemalloc.start()
    try:
        state = stage_state(cfg, "V")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix_bytes = 8 * state.dim**2
    assert peak <= 4.25 * matrix_bytes


def test_grover_equals_the_three_product_form(parts):
    _, encodings, _, estimator, fact = parts
    preps = [state_prep_unitary(e) for e in encodings]
    pipe = assemble_pipeline(preps, fact, householder_unitary(estimator.v), estimator.scaling)
    a, dim, g = pipe.a.entries, pipe.a.dim, pipe.good_state_index
    s0, sg = np.eye(dim), np.eye(dim)
    s0[0, 0] = sg[g, g] = -1.0
    assert np.array_equal(build_grover(pipe).q.entries, a @ s0 @ a.T @ sg)


def test_perturbed_matrix_is_refused_with_the_full_residual(parts):
    _, _, _, _, fact = parts
    m = fact.u_padded.entries @ fact.v_h.entries
    n = len(m)
    m[n // 2, 1] += 1e-6
    residual = np.max(np.abs(m.T @ m - np.eye(n)))
    assert residual > _UNITARY_TOL * n
    with pytest.raises(ConfigurationError, match=rf"\(residual {residual:.2e}\)$"):
        UnitaryMatrix(m)


def test_nan_matrix_is_refused():
    m = np.eye(4)
    m[2, 3] = np.nan  # a NaN residual fails no ``>`` comparison
    with pytest.raises(ConfigurationError, match=r"not unitary \(residual nan\)"):
        UnitaryMatrix(m)


@pytest.mark.parametrize("m", [np.zeros((0, 0)), np.ones(4), np.eye(2)[None]], ids=["empty", "vector", "3-d"])
def test_what_is_no_square_matrix_is_refused_by_its_shape(m):
    with pytest.raises(ConfigurationError, match="square with power-of-two dimension"):
        UnitaryMatrix(m)  # the empty matrix has no non-zero, but is no permutation either


def _near_identity():
    u = np.eye(4)
    u[0, 1] = 1e-11  # within the unitarity tolerance, but h @ u is no column gather of h
    return u


@pytest.mark.parametrize("u", [
    np.kron(np.eye(2), [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]]),
    _near_identity(),
    np.diag([1.0, -1.0, 1.0, 1.0]),
], ids=["rotation", "near-identity", "sign-flip"])
def test_assembly_multiplies_a_factor_that_is_no_permutation(u):
    rng = np.random.default_rng(5)
    h = reflection_unitary(*householder(rng.dirichlet(np.ones(4)) ** 0.5, 0))
    fact = UnitaryFactorization(v_h=UnitaryMatrix(np.eye(4)[[2, 0, 3, 1]]), u_padded=UnitaryMatrix(u))
    expected = h.entries @ u @ fact.v_h.entries
    assert np.array_equal(assemble_pipeline([UnitaryMatrix(np.eye(4))], fact, h, 1.0).a.entries, expected)


def _permutation(n, seed):
    return np.eye(n)[np.random.default_rng(seed).permutation(n)]


def _with(m, entry, value):
    m = m.copy()
    m[entry] = value
    return m


def _negative_zeros(m):
    return np.where(m == 0.0, -0.0, m)


#: (matrix, whether it is a 0/1 permutation); built from its entries, each takes its gram either way
PERMUTATION_CASES = {
    "identity-1x1": (np.eye(1), True),
    "identity-8": (np.eye(8), True),
    "permutation-2": (np.eye(2)[[1, 0]], True),
    "permutation-16": (_permutation(16, 1), True),
    "permutation-64": (_permutation(64, 2), True),
    "negative-zeros": (_negative_zeros(_permutation(8, 3)), True),
    "minus-one-1x1": (-np.eye(1), False),
    "signed-permutation": (_permutation(8, 4) * np.where(np.arange(8) % 3, 1.0, -1.0)[:, None], False),
    "one-ulp-above-1": (_with(np.eye(4)[[3, 1, 0, 2]], (2, 0), np.nextafter(1.0, 2.0)), False),
    "repeated-column": (np.eye(4)[[0, 1, 1, 3]], False),  # one 1 per row, column 2 empty
    "extra-one": (np.array([[1.0, 1.0], [0.0, 1.0]]), False),
    "nan-for-a-one": (_with(np.eye(4)[[1, 0, 3, 2]], (2, 3), np.nan), False),
}


@pytest.mark.parametrize("case", list(PERMUTATION_CASES))
def test_permutation_check_gives_the_grams_verdict(case):
    m, is_permutation = PERMUTATION_CASES[case]
    n = len(m)
    residual = np.max(np.abs(m.T @ m - np.eye(n)))
    assert not is_permutation or residual == 0.0
    if residual <= _UNITARY_TOL * n:
        assert UnitaryMatrix(m).order is None  # a permutation too: only UnitaryMatrix.permutation declares one
    else:  # a NaN residual too
        with pytest.raises(ConfigurationError, match=re.escape(f"(residual {residual:.2e})") + "$"):
            UnitaryMatrix(m)


@pytest.mark.parametrize("n", [1, 2, 16, 64])
def test_declared_permutation_is_the_identity_gathered_by_its_order(n):
    order = np.random.default_rng(n).permutation(n)
    u = UnitaryMatrix.permutation(order)
    assert u.entries.tobytes() == np.eye(n)[order].tobytes()
    assert np.array_equal(u.order, order)


@pytest.mark.parametrize("order", [[3, 1, 1, 0], [3, 1, 2, 4], [1, 2, 3, 4], [3, 1, -2, 0]],
                         ids=["repeated", "out-of-range", "missing-zero", "negative"])
def test_what_is_no_permutation_of_its_indices_is_refused(order):
    with pytest.raises(ConfigurationError, match=r"not a permutation of 0\.\.3$"):
        UnitaryMatrix.permutation(order)


@pytest.mark.parametrize("order", [[], [2, 0, 1]], ids=["empty", "three"])
def test_a_permutation_of_no_power_of_two_length_is_refused_by_its_shape(order):
    with pytest.raises(ConfigurationError, match="square with power-of-two dimension"):
        UnitaryMatrix.permutation(order)


def _v_study(case):
    """The benchmark's first histogram-stages V study (every level distinct, R = I) or a tied ring (R != I)."""
    if case == "tied_ring":
        return parse_config(ring_study(3))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        gen = importlib.import_module("gen")
    finally:
        sys.path.remove(str(BENCH_DIR))
    return parse_config(json.loads(next(s for s in gen.generate("histogram-stages", 1) if s.stage == "V").text))


@pytest.mark.parametrize("case", ["histogram_stages_v0", "tied_ring"])
def test_line_pipeline_declares_its_permutations_and_takes_every_other_gram(case, monkeypatch):
    cfg = _v_study(case)
    factors = {}
    assemble = dense.assemble_pipeline

    def spy(preps, factorization, h, scaling):
        factors.update(preps=preps, p=factorization.u_padded, r=factorization.v_h, h=h)
        return assemble(preps, factorization, h, scaling)

    monkeypatch.setattr(dense, "assemble_pipeline", spy)
    h_row, dists = _analysis_inputs(cfg)
    an = cfg.analysis
    pipeline, levels, _ = dense.build_line_pipeline(h_row, dists, an.metric, an.threshold_fraction)
    reflected = len(levels.members) > 0
    assert reflected == (case == "tied_ring")
    assert np.array_equal(factors["p"].order, np.concatenate([levels.first, levels.rest]))
    if reflected:
        assert factors["r"].order is None
    else:
        assert np.array_equal(factors["r"].order, np.arange(levels.n_columns))
    assert factors["h"].order is None and pipeline.a.order is None
    assert all(prep.order is None for prep in factors["preps"])


@pytest.mark.parametrize("order", [[0, 1, 2, 3], [2, 0, 3, 1]], ids=["identity", "permutation"])
def test_assembly_gathers_by_permutation_factors(order):
    rng = np.random.default_rng(6)
    h = reflection_unitary(*householder(rng.dirichlet(np.ones(4)) ** 0.5, 0))
    prep = reflection_unitary(*householder(rng.dirichlet(np.ones(4)) ** 0.5, 0))
    p = np.eye(4)[order]
    fact = UnitaryFactorization(v_h=UnitaryMatrix(np.eye(4)), u_padded=UnitaryMatrix.permutation(order))
    expected = h.entries @ p @ np.eye(4) @ prep.entries
    assert np.array_equal(assemble_pipeline([prep], fact, h, 1.0).a.entries, expected)
