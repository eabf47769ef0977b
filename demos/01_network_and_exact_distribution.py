"""Classical groundwork: PTDF sensitivities and the exact loading distribution.

Builds a three-bus ring with uncertain injections at two buses, derives the
line sensitivities under the DC approximation, and enumerates the exact
distribution of the monitored line's loading.  Ends with the Monte Carlo
sample count a 1% margin of error would require.
"""
import numpy as np

from gridqmc import (
    InjectionDistribution,
    Line,
    Network,
    build_ptdf,
    exact_line_distribution,
    rate_scale_ptdf,
    required_samples,
)
from gridqmc.flowmap import line_levels

network = Network(
    bus_ids=(1, 2, 3),
    slack_bus=3,
    lines=(
        Line(from_bus=1, to_bus=2, susceptance=1.0, rating_mw=0.5),
        Line(from_bus=1, to_bus=3, susceptance=1.0, rating_mw=0.5),
        Line(from_bus=2, to_bus=3, susceptance=1.0, rating_mw=0.5),
    ),
)

forecast = [0.08, 0.43, 0.42, 0.07]
injections = [
    InjectionDistribution(bus=1, values_mw=[0, 1, 2, 3], probabilities=forecast),
    InjectionDistribution(bus=2, values_mw=[0, 1, 2, 3], probabilities=forecast),
]

ptdf = rate_scale_ptdf(build_ptdf(network), network)
print("rated PTDF rows (loading per MW injected, slack column zero):")
for label, row in zip(ptdf.line_order, ptdf.h):
    print(f"  line {label}: {np.round(row, 4)}")

h_row = ptdf.row("1-2")
# the loading levels the quantum path groups, each at its probability-weighted loading
levels = line_levels(h_row, injections)
live = levels.mass > 0
print("\nexact |loading| distribution of line 1-2 (fraction of rating):")
for value, prob in zip(levels.mass_loading[live] / levels.mass[live], levels.mass[live]):
    print(f"  {value:6.4f}  p = {prob:.4f}")
exact = exact_line_distribution(h_row, injections)
print(f"\nmean loading      : {exact.mean:.4f}")
print(f"std of loading    : {exact.std:.4f}")
print(f"overload P(>=90%) : {exact.overload_probability(0.9):.4f}")

n = required_samples(exact.std, epsilon=0.01, alpha=0.05)
print(f"\nplain Monte Carlo needs about {n} samples for a 1% margin at 95% confidence")
