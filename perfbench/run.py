"""gridqmc benchmark: time to answer, sample budget and memory per workload.

Run from the root of a gridqmc checkout:

    python3 perfbench/run.py --workload quantum-dense --seed 1 --seconds 20 --trace 0

The studies are generated from ``--seed`` and written under
``.perfbench_work/``; the program sees only those files.  Load is a closed
loop with one client: each study starts when the previous one returns.  Set
up happens ``SETUPS`` times, each in a fresh interpreter; the last one then
answers studies for ``--seconds`` (see ``worker.py``).  Every output is
checked.  The last line of standard output is the result; the line before
it records the inputs' digest, the tail percentile and the environment.
With ``--trace 1`` the result carries the per-layer figures of a traced
replay instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
from calibrate import scale

HERE = Path(__file__).resolve().parent
SETUPS = 3
#: studies that must lie beyond the reported tail value
TAIL_BEYOND = 10
#: a tail needs more than ten studies
MIN_STUDIES = 11
#: half-width of the running median over kernel factors (5 studies)
SMOOTH = 2
#: a traced run covers the histogram mix: 3 stages x 2 metrics
MIN_TRACED = 6
#: give up and kill the worker before the run's 180 s limit
DEADLINE_S = 170
#: one BLAS thread: on a 2-vCPU machine two threads made study times spread
#: about twice as wide (one 10-qubit study: 1.17-1.92 s against 1.92-2.12 s)
BLAS_THREADS = 1
#: units of the metrics not in seconds, bytes or counts
UNITS = {"study_s_tail": "s", "peak_rss_mb": "MB", "pass_rate": "share",
         "trace.coverage": "share", "estimation.oracle_per_shot": "ratio"}


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return UNITS.get(metric, "count")


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "gridqmc").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise Deadline(f"run exceeded {DEADLINE_S} s")


def run_workers(manifest_path: Path, env: dict, procs: list) -> tuple[list, list, list, dict]:
    """Set up SETUPS times; the last worker answers the studies.

    Returns the set-up wall times, the spawn-kernel factor measured before
    each (see ``calibrate``; set-up is start-up-bound), the set-up parts
    the workers report, and the last worker's result.
    """
    setup_s, factors, parts = [], [], []
    for k in range(SETUPS):
        factors.append(scale("spawn"))
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(manifest_path)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
            start_new_session=True,
        )
        procs.append(proc)
        line = proc.stdout.readline()
        setup_s.append(time.perf_counter() - t0)
        if not line.startswith("ready "):
            proc.wait()
            raise RuntimeError(f"worker did not start (exit {proc.returncode})")
        parts.append(json.loads(line[len("ready "):]))
        last = k == SETUPS - 1
        out, _ = proc.communicate("go\n" if last else "quit\n")
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}")
    return setup_s, factors, parts, json.loads(out.strip().splitlines()[-1])


def scaled(times: list[float], factors: list[float]) -> list[float]:
    """Wall times in reference seconds (see ``calibrate``).

    Each time is scaled by the running median of the kernel factors measured
    around it: the machine drifts over seconds to minutes, and the running
    median follows that drift without passing on one measurement's noise.
    """
    return [
        t * statistics.median(factors[max(0, i - SMOOTH):i + SMOOTH + 1])
        for i, t in enumerate(times)
    ]


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile that still has at least ten studies beyond it.

    Returns (value, percentile, number of studies).  With n sorted times the
    value is the one with exactly ten larger, at percentile 100*(n-10)/n; a
    run therefore needs more than ten studies.
    """
    n = len(times)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} studies, got {n}")
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def end_to_end(setup_s: list[float], setup_factors: list[float], res: dict) -> dict:
    """Timings in reference seconds, totals as counted."""
    shots, oracle, cmc = res["sample_totals"]
    times = scaled(res["times"], res["scales"])
    return {
        "setup_s": statistics.median(scaled(setup_s, setup_factors)),
        "study_s": statistics.median(times) if times else 0.0,
        # a run with too few studies has failed already; its tail is its slowest study
        "study_s_tail": tail(times)[0] if len(times) > TAIL_BEYOND else max(times, default=0.0),
        "peak_rss_mb": res["peak_rss_mb"],
        "iqae_shots": shots,
        "iqae_oracle_calls": oracle,
        "cmc_samples": cmc,
        "pass_rate": 1 - res["failed"] / res["attempted"],
    }


def per_layer(parts: list[dict], res: dict) -> dict:
    return {
        **res["layers"],
        "cli.import_s": statistics.median(p["import_s"] for p in parts),
        "setup.warmup_s": statistics.median(p["warmup_s"] for p in parts),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gridqmc" / "__init__.py").is_file():
        print("error: run from the root of a gridqmc checkout (no src/gridqmc here)", file=sys.stderr)
        return 2

    spec = gen.WORKLOADS[args.workload]
    studies = gen.generate(args.workload, args.seed, root)
    work = Path(".perfbench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    procs: list[subprocess.Popen] = []
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(DEADLINE_S)
    try:
        gen.write(studies, work)
        manifest = {
            "kind": spec["kind"],
            "dir": str(work),
            "studies": [
                {k: v for k, v in vars(s).items() if k != "text"} for s in studies
            ],
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "counted": spec["counted"],
            "kernel": spec["kernel"],
            "min_studies": MIN_TRACED if args.trace else max(MIN_STUDIES, spec["counted"]),
        }
        manifest_path = work / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        setup_s, setup_factors, parts, res = run_workers(manifest_path, worker_env(root), procs)
    except Deadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in procs:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    times = res["times"]
    attempted, failed = res["attempted"], res["failed"]
    # a refused study is a failed operation; only a wrong output makes the run incorrect
    correct = res["wrong"] == 0 and len(times) >= manifest["min_studies"]
    metrics = per_layer(parts, res) if args.trace else end_to_end(setup_s, setup_factors, res)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "generator": {**gen.COMMON, **spec},
        "studies_digest": gen.digest(studies),
        "studies_answered": len(times),
        "study_wall_s": times,
        "study_scales": res["scales"],
        "study_s_tail": (
            dict(zip(("percentile", "studies"), tail(times)[1:]))
            if not args.trace and len(times) > TAIL_BEYOND else None
        ),
        "wall_study_s": statistics.median(times) if times else None,
        "fail_rate": failed / attempted,
        "failures": res["failures"],
        "known_defects": res["known_defects"],
        "setup_wall_s": setup_s,
        "setup_scales": setup_factors,
        "setup_parts": parts,
        "environment": {
            **res["env"],
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "blas_threads_env": BLAS_THREADS,
            "commit": commit(root),
            "source_sha256": source_digest(root),
            "machine_settings_changed": {"cache_drop": False, "cpu_pinning": False,
                                         "cgroup_change": False},
        },
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
