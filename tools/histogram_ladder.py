"""Size ladder: `gridqmc run` and `gridqmc histogram` on ring studies of 8 to 20 qubits.

Writes ``ring_study(n)`` (tests/studies.py) for n = 4, 6, 8, 10 to a temporary
directory and runs on each, in a fresh interpreter and each time to a new
file, ``gridqmc run`` (its methods ``iqae`` and ``exact``), the same on a copy
of the study whose metric is ``overload`` at ``threshold_pct`` 40, ``gridqmc
run --methods exact,cmc --epsilon 0.0025`` (classical Monte Carlo at about
10^5 samples), ``gridqmc histogram --stage psi|L`` and, on the rungs of at
most ``dense.MAX_DENSE_QUBITS`` qubits (n = 4 and 6: 8 and 12 qubits),
``--stage V``. Prints one line per run: qubits, stage (``run``, ``overload``
and ``cmc`` for the three reports), source tree, wall time, the child's peak
RSS (``os.wait4``) and the sha256 of the report or CSV. A report records its
study's path, so its sha256 compares trees within one invocation only.
``--stages`` limits a run to the named rungs, for example ``--stages V`` to
the two stage-V runs.

    python3 tools/histogram_ladder.py
    python3 tools/histogram_ladder.py --src ../parent/src src --repeat 3
    python3 tools/histogram_ladder.py --src ../parent/src src --repeat 3 --stages V

With several ``--src`` trees the runs alternate between them, so that two
versions of the program are timed under the same machine load. Needs numpy,
not pytest; it is not part of the test suite.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]  # tests.studies imports gridqmc

from gridqmc.dense import MAX_DENSE_QUBITS  # noqa: E402
from tests.studies import ring_study  # noqa: E402

RING_BUSES = (4, 6, 8, 10)
STAGES = ("psi", "L", "V")
#: the ``overload`` rung's threshold, in percent of the line rating
OVERLOAD_PCT = 40
#: the CLI arguments of each rung, by its name in the stage column
COMMANDS = {
    "run": ["run"],
    "overload": ["run"],
    "cmc": ["run", "--methods", "exact,cmc", "--epsilon", "0.0025"],
    **{stage: ["histogram", "--stage", stage, "--shots", "1024"] for stage in STAGES},
}


def run_once(src: Path, study: Path, stage: str, out: Path) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and output sha256 of one `gridqmc run` or `gridqmc histogram` process."""
    cmd = [sys.executable, "-m", "gridqmc.cli", *COMMANDS[stage], "--config", str(study), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
    if proc.returncode:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()  # every run writes a new file, not over the last one
    return wall, usage.ru_maxrss / 1024, digest


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", nargs="+", type=Path, default=[ROOT / "src"],
                    help="gridqmc source trees to run, alternated (default: this checkout's src)")
    ap.add_argument("--repeat", type=int, default=1, help="runs per study, stage and tree")
    ap.add_argument("--stages", nargs="+", choices=list(COMMANDS), default=list(COMMANDS),
                    help="rungs to run, by their stage column (default: all)")
    args = ap.parse_args(argv)
    print("qubits stage src wall_s peak_rss_mb sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for n_buses in RING_BUSES:
            raw = ring_study(n_buses)
            study = Path(tmp) / f"ring{n_buses}.json"
            study.write_text(json.dumps(raw))
            raw["analysis"].update(metric="overload", threshold_pct=OVERLOAD_PCT)
            overload = Path(tmp) / f"ring{n_buses}_overload.json"
            overload.write_text(json.dumps(raw))
            stages = STAGES if 2 * n_buses <= MAX_DENSE_QUBITS else STAGES[:2]  # V is dense
            for stage in (s for s in ("run", "overload", "cmc", *stages) if s in args.stages):
                path = overload if stage == "overload" else study
                for _ in range(args.repeat):
                    for src in args.src:
                        wall, rss, digest = run_once(src.resolve(), path, stage, Path(tmp) / "out")
                        print(f"{2 * n_buses} {stage} {src} {wall:.3f} {rss:.1f} {digest[:16]}",
                              flush=True)


if __name__ == "__main__":
    main()
