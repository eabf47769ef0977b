"""Benchmark worker: one fresh interpreter per set-up.

``python3 perfbench/worker.py MANIFEST`` is started by ``run.py`` from the
root of a checkout.  It imports gridqmc from the checkout's ``src``, parses
the workload's studies and runs one warm-up ``three_bus`` analysis, then
prints ``ready`` with its set-up timings.  It exits on ``quit``.  On ``go``
it checks the pinned bundled studies, answers studies in a closed loop
until the manifest's seconds are up, checks every output and prints one JSON
result line.  With ``trace`` set, each study is followed by its traced
replay and the result carries per-layer figures instead of timings.
"""
from __future__ import annotations

import dataclasses
import json
import platform
import resource
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

#: (IQAE shots, IQAE oracle calls, CMC samples) at the studies' configured seeds
PINS = {"three_bus": (300, 1700, 8454), "five_bus": (300, 1300, 9362)}
#: a one-bus overload study with p = 2.6e-5, for which classical Monte Carlo
#: budgets one sample at epsilon 0.01: its interval is then NaN and gridqmc
#: refuses the study.  The generator keeps such thresholds out of the
#: workloads; this probe shows, in every run, whether the defect is still there.
ONE_SAMPLE_PROBE = {"values_mw": [0.0, 1.0], "probabilities": [1 - 2.6e-5, 2.6e-5],
                    "threshold": 1.0, "epsilon": 0.01, "alpha": 0.05}
#: layers whose self times the traced run reports, per traced study
LAYER_TIMES = (
    "config.parse", "grid.ptdf", "injection.encode", "injection.state_prep",
    "injection.joint_state", "flowmap.line_map", "flowmap.orthonormalize",
    "flowmap.estimator", "flowmap.factorize", "flowmap.householder", "flowmap.assemble",
    "estimation.grover", "estimation.iqae", "classical.exact", "classical.cmc",
    "runner.stage_state", "simulator.apply", "simulator.sample",
)
#: work counts the replay tallies, reported per traced study
LAYER_COUNTS = (
    "flowmap.map_bytes", "flowmap.pipeline_bytes", "estimation.grover_bytes",
    "flowmap.levels", "classical.enum_states", "simulator.state_dim",
)


def budget(report) -> tuple[int, int, int]:
    """(IQAE shots, IQAE oracle calls, CMC samples) of one report."""
    res = report.results
    iqae = res.get("iqae")
    cmc = res.get("cmc")
    return (
        iqae.shots_total if iqae else 0,
        iqae.oracle_applications if iqae else 0,
        cmc.shots_total if cmc else 0,
    )


def blas_info() -> dict:
    """OpenBLAS build and thread count of the numpy in use, where it can be read."""
    import ctypes
    import numpy as np

    info = {"numpy_blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]}
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    if libs:
        lib = ctypes.CDLL(str(libs[0]))
        get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        get_config = getattr(lib, "scipy_openblas_get_config64_", None)
        if get_threads is not None and get_config is not None:
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            info["openblas_threads"] = get_threads()
            info["openblas_config"] = get_config().decode()
    return info


class Refused(Exception):
    """``gridqmc run`` exited non-zero on a study."""


class Worker:
    def __init__(self, manifest: dict, configs: list, warm_report, import_s: float):
        self.m = manifest
        self.kind = manifest["kind"]
        self.studies = manifest["studies"]
        self.configs = configs
        self.warm_report = warm_report
        self.import_s = import_s
        self.out_dir = Path(manifest["dir"]) / "out"
        self.out_dir.mkdir(exist_ok=True)
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0  # studies refused by the program or answered wrongly
        self.wrong = 0  # studies whose output failed a check

    # -- pinned bundled studies -------------------------------------------
    def check_pins(self) -> tuple[int, int, int]:
        from gridqmc import builtin_config_path, load_config, run_analysis

        reports = {
            "three_bus": self.warm_report,
            "five_bus": run_analysis(load_config(builtin_config_path("five_bus"))),
        }
        totals = [0, 0, 0]
        for name, report in reports.items():
            got = budget(report)
            self.attempted += 1
            if got != PINS[name]:
                self.failed += 1
                self.wrong += 1
                self.failures.append(f"{name}: counts {got}, pinned {PINS[name]}")
            totals = [a + b for a, b in zip(totals, got)]
        return tuple(totals)

    # -- known defect ------------------------------------------------------
    def probe_one_sample(self) -> str:
        """Outcome of the one-sample CMC study; not counted as a workload study."""
        from gridqmc import InjectionDistribution, classical_mc
        from gridqmc.errors import GridQmcError

        pr = ONE_SAMPLE_PROBE
        dist = InjectionDistribution(bus=2, values_mw=pr["values_mw"],
                                     probabilities=pr["probabilities"])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # numpy on std(ddof=1) of one
                res = classical_mc([1.0], [dist], "overload", pr["epsilon"], pr["alpha"],
                                   rng_seed=1, threshold=pr["threshold"])
        except GridQmcError as exc:
            return f"refused: {type(exc).__name__}: {exc}"
        return f"answered with {res.shots_total} samples"

    # -- one study, untraced ----------------------------------------------
    def _path(self, study: dict) -> str:
        return str(Path(self.m["dir"]) / study["file"])

    def answer(self, study: dict, config) -> dict:
        """Answer one study; returns its wall time, checks and report."""
        from gridqmc import export_histogram, run_analysis

        from calibrate import scale
        from checks import check_cli_report, check_exact, check_histogram

        errors = []
        rec = {"report": None, "config": config, "scale": scale(self.m["kernel"])}
        if self.kind == "analysis":
            t0 = time.perf_counter()
            report = run_analysis(config)
            rec["study_s"] = time.perf_counter() - t0
        elif self.kind == "cli":
            out = self.out_dir / "report.json"
            out.unlink(missing_ok=True)
            cmd = [sys.executable, "-m", "gridqmc.cli", "run", "--config", self._path(study),
                   "--seed", str(study["cli_seed"]), "--out", str(out)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            rec["study_s"] = time.perf_counter() - t0
            if proc.returncode != 0:
                raise Refused(f"gridqmc run exited {proc.returncode}: {proc.stderr[-500:]}")
            config = rec["config"] = dataclasses.replace(
                config, analysis=dataclasses.replace(config.analysis, seed=study["cli_seed"])
            )
            t0 = time.perf_counter()
            report = run_analysis(config)
            rec["in_process_s"] = time.perf_counter() - t0
            errors.append(check_cli_report(out.read_bytes(), report.to_json()))
        else:
            out = self.out_dir / "histogram.csv"
            t0 = time.perf_counter()
            export_histogram(config, study["stage"], study["shots"], config.analysis.seed, out)
            rec["study_s"] = time.perf_counter() - t0
            rec["csv"] = out.read_text()
            errors.append(check_histogram(rec["csv"], study["n_qubits"], study["shots"]))
            report = None
        if report is not None:
            if report.exact_value is not None:
                errors.append(check_exact(report.exact_value, study["reference"]))
            rec["report"] = report
        rec["errors"] = [e for e in errors if e is not None]
        return rec

    # -- one study, traced replay -----------------------------------------
    def replay(self, tr, tally: Counter, study: dict, rec: dict) -> tuple[int, str | None]:
        """Replay the study under spans; returns (root span index, error)."""
        from gridqmc import load_config

        from checks import check_iqae_interval
        from replay import replay_analysis, replay_histogram

        with tr.span("config.parse"):
            load_config(self._path(study))
        root = len(tr.spans)
        config = rec["config"]
        if self.kind == "histogram":
            csv = replay_histogram(tr, config, study["stage"], study["shots"],
                                   config.analysis.seed, tally)
            return root, None if csv == rec["csv"] else "traced histogram differs from export_histogram"
        untraced = rec["report"]
        report, raw = replay_analysis(tr, config, untraced, tally)
        if report.to_json() != untraced.to_json():
            return root, "traced replay differs from run_analysis"
        if raw is not None:
            tally["estimation.iqae_runs"] += 1
            tally["estimation.shots"] += raw.shots_total
            tally["estimation.oracle_calls"] += raw.oracle_applications
            tally["estimation.rounds"] += raw.shots_total // config.analysis.shots_per_round
            tally["estimation.ci_miss"] += not untraced.coverage["iqae"]
            return root, check_iqae_interval(raw.raw_a, raw.ci_low, raw.ci_high, raw.epsilon)
        return root, None

    # -- the closed loop --------------------------------------------------
    def run(self) -> dict:
        from gridqmc.errors import GridQmcError

        from spans import Tracer

        trace = self.m["trace"]
        pinned = self.check_pins()
        counted = self.m["counted"]
        totals = [0, 0, 0]
        times: list[float] = []
        scales: list[float] = []
        tr, tally = Tracer(), Counter()
        traced_root, untraced_wall, process_s = 0.0, 0.0, 0.0
        start = time.perf_counter()
        i = 0
        while (len(times) < self.m["min_studies"] and i < 3 * self.m["min_studies"]
               or time.perf_counter() - start < self.m["seconds"]):
            index, i = i, i + 1
            study = self.studies[index % len(self.studies)]
            self.attempted += 1
            try:
                rec = self.answer(study, self.configs[index % len(self.studies)])
            except (GridQmcError, Refused) as exc:
                # the program refused a valid study: a failed study, not a wrong answer
                self.failed += 1
                self.failures.append(f"{study['file']}: {type(exc).__name__}: {exc}")
                continue
            times.append(rec["study_s"])
            scales.append(rec["scale"])
            errors = rec["errors"]
            if index < counted and rec["report"] is not None:
                totals = [a + b for a, b in zip(totals, budget(rec["report"]))]
            if trace and not errors:
                tr.study = index
                root, error = self.replay(tr, tally, study, rec)
                errors = [error] if error else []
                if self.kind == "cli":
                    untraced_wall += rec["in_process_s"]
                    process_s += rec["study_s"] - rec["in_process_s"]
                else:
                    untraced_wall += rec["study_s"]
                traced_root += tr.duration(root)
            if errors:
                self.failed += 1
                self.wrong += 1
                self.failures.extend(f"{study['file']}: {e}" for e in errors)

        who = resource.RUSAGE_CHILDREN if self.kind == "cli" else resource.RUSAGE_SELF
        result = {
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "failures": self.failures[:20],
            "times": times,
            "scales": scales,
            "sample_totals": [a + b for a, b in zip(pinned, totals)],
            "known_defects": {"cmc_one_sample": self.probe_one_sample()},
            "peak_rss_mb": resource.getrusage(who).ru_maxrss * 1024 / 1e6,
            "env": {
                "python": platform.python_version(),
                "numpy": __import__("numpy").__version__,
                "scipy": __import__("scipy").__version__,
                **blas_info(),
            },
        }
        if trace:
            result["layers"] = self.layers(tr, tally, len(times), traced_root, untraced_wall, process_s)
        return result

    def layers(self, tr, tally, n, traced_root, untraced_wall, process_s) -> dict:
        n = max(n, 1)
        self_times = tr.self_times()
        out = {f"{name}_s": self_times.get(name, 0.0) / n for name in LAYER_TIMES}
        out.update({name: tally[name] / n for name in LAYER_COUNTS})
        runs = tally["estimation.iqae_runs"]
        out.update({
            "runner.glue_s": self_times.get("study", 0.0) / n,
            "estimation.rounds": tally["estimation.rounds"] / runs if runs else 0.0,
            "estimation.oracle_per_shot": (
                tally["estimation.oracle_calls"] / tally["estimation.shots"] if runs else 0.0
            ),
            "estimation.shots": tally["estimation.shots"],
            "estimation.ci_miss": tally["estimation.ci_miss"],
            "estimation.iqae_runs": runs,
            "cli.process_s": process_s / n,
            "trace.overhead_s": (traced_root - untraced_wall) / n,
            "trace.studies": n,
        })
        # the share of study_s the traced layers account for; on the CLI
        # workload the child's import counts as a layer
        imported = self.import_s * n if self.kind == "cli" else 0.0
        out["trace.coverage"] = (traced_root + imported) / (untraced_wall + process_s)
        return out


def main() -> int:
    manifest = json.loads(Path(sys.argv[1]).read_text())
    src = (Path.cwd() / "src").resolve()
    t0 = time.perf_counter()
    import gridqmc.cli  # noqa: F401  (what `gridqmc run` imports)
    import_s = time.perf_counter() - t0
    import gridqmc
    from gridqmc import builtin_config_path, load_config, run_analysis

    if src not in Path(gridqmc.__file__).resolve().parents:
        print(f"gridqmc was imported from {gridqmc.__file__}, not from {src}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    configs = [load_config(Path(manifest["dir"]) / s["file"]) for s in manifest["studies"]]
    parse_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_analysis(load_config(builtin_config_path("three_bus")))
    warmup_s = time.perf_counter() - t0
    print("ready " + json.dumps({"import_s": import_s, "parse_s": parse_s, "warmup_s": warmup_s}),
          flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    print(json.dumps(Worker(manifest, configs, warm, import_s).run()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
