"""Stage-by-stage walk through the quantum estimation pipeline.

Loads the bundled three-bus study, shows the amplitude-encoded joint
injection state, the state after the line-flow mapping, and finally the
single amplitude that carries the mean line loading.  A sampled histogram
of the injection register is written next to this script.
"""
from pathlib import Path

import numpy as np

from gridqmc import (
    build_ptdf,
    builtin_config_path,
    export_histogram,
    load_config,
    rate_scale_ptdf,
    stage_state,
)
from gridqmc.flowmap import prepared_state

config = load_config(builtin_config_path("three_bus"))

psi = stage_state(config, "psi")
print("joint injection state |psi> (amplitudes are L2-normalized probabilities):")
for i, amp in enumerate(psi.amplitudes):
    if abs(amp) > 1e-12:
        print(f"  |{i:04b}>  amplitude {amp.real:+.4f}  measured with p = {abs(amp)**2:.4f}")

loading_state = stage_state(config, "L")
print("\nstate |L> after the flow mapping (one row per distinct loading level):")
# rated distribution factors of the monitored line, one per non-slack bus
h_row = rate_scale_ptdf(build_ptdf(config.network), config.network).row(config.analysis.line)
dists = config.ordered_injections()
psi_v, levels, estimator = prepared_state(h_row, dists, "mean", line=config.analysis.line)
for value, amp in zip(levels.distinct_values, loading_state.amplitudes):
    print(f"  loading {value:6.4f}  amplitude {amp.real:+.4f}")

amp = psi_v[-1]  # A|0> = H P R |psi>: the joint state through the level and metric reflections
print(f"\ntarget amplitude on |1111>  : {amp:.6f}")
print(f"scaling back to loading     : {amp * estimator.scaling:.6f}")
print("(compare the exact mean printed by demo 01)")

out = Path(__file__).with_name("three_bus_psi_histogram.csv")
export_histogram(config, "psi", shots=1024, seed=42, path=out)
print(f"\n1024-shot histogram of |psi> written to {out.name}")
