"""Enumeration references for the exact oracle's tests; importable without pytest."""
import numpy as np


def joint_states(h_row, dists):
    """|loading| and mass of every joint state, first bus most significant."""
    loading, mass = np.zeros(1), np.ones(1)
    for h, d in zip(h_row, dists):
        loading = np.add.outer(loading, h * d.values_mw).ravel()
        mass = np.multiply.outer(mass, d.probabilities).ravel()
    return np.abs(loading), mass


def stable_sort_reference(h_row, dists, tol=1e-9):
    """The sorted loading levels, zero-mass states dropped, with a stable argsort: equal
    loadings keep their enumeration order, so every level sums its mass in that order.

    Returns (each level's mass-weighted loading, each level's mass).
    """
    loading, mass = joint_states(h_row, dists)
    keep = mass > 0.0
    loading, mass = loading[keep], mass[keep]
    order = np.argsort(loading, kind="stable")
    loading, mass = loading[order], mass[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(loading) > tol) + 1))
    probs = np.add.reduceat(mass, starts)
    values = np.add.reduceat(loading * mass, starts) / probs
    return values, probs
