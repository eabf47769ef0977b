"""Benchmark pairs: `perfbench/run.py --trace 0` in a parent and a change checkout, alternating.

For every seed, runs the benchmark once in each checkout, the parent first on
even pairs and the change first on odd ones, so that both sides see the same
drift of a shared machine. Prints each pair as it ends, then for every
end-to-end metric of ``BENCHMARK.json``: each side's median and quartiles,
the change against the parent in percent, the pairs the change won (ties
count for neither side) and whether a gain is shown. A gain is shown when the
change wins at least nine tenths of the pairs and the medians differ, in the
better direction, by more than the parent's interquartile range. Last come
each side's ``correct`` runs and ``failed`` operations.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload quantum-dense --seeds 211-220 --seconds 10

Standard library only; it changes nothing in either checkout but the
benchmark's own scratch directory.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: a gain is shown only when the change wins at least this share of the pairs
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list[int]:
    """``"211-220"``, ``"3,5,8"`` or a mix of both: the seeds in the order given."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one benchmark run: ``correct``, ``attempted``, ``failed`` and ``metrics``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:  # 1 is an incorrect run, which still reports
        raise RuntimeError(f"{checkout}: exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (``statistics.quantiles``, inclusive)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: quartiles, pairs won and whether the change shows a gain."""
    sign = 1 if better == "lower" else -1
    won = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))  # a tie is not won
    pq, cq = quartiles(parent), quartiles(change)
    gap = sign * (pq[1] - cq[1])  # > 0 when the change's median is better
    return {
        "parent": pq,
        "change": cq,
        "change_pct": 100 * (cq[1] - pq[1]) / pq[1] if pq[1] else None,
        "won": won,
        "pairs": len(parent),
        "gain": won >= WIN_SHARE * len(parent) and gap > pq[2] - pq[0],
    }


def report_lines(results: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[str]:
    """The summary table of paired (parent, change) results, then correct runs and failed operations."""
    lines = [f"{'metric':<18} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} "
             f"{'change':>8} {'won':>7}  gain"]
    for spec in end_to_end:
        name = spec["name"]
        if not all(name in side["metrics"] for pair in results for side in pair):
            continue
        s = summarize([p["metrics"][name]["value"] for p, _ in results],
                      [c["metrics"][name]["value"] for _, c in results], spec["better"])
        sides = ["{1:.6g} [{0:.6g}, {2:.6g}]".format(*s[side]) for side in ("parent", "change")]
        pct = "n/a" if s["change_pct"] is None else f"{s['change_pct']:+.1f}%"
        won = f"{s['won']}/{s['pairs']}"
        lines.append(f"{name:<18} {sides[0]:>34} {sides[1]:>34} {pct:>8} {won:>7}  "
                     f"{'yes' if s['gain'] else 'no'}")
    for i, side in enumerate(("parent", "change")):
        runs = [pair[i] for pair in results]
        lines.append(f"{side}: correct {sum(r['correct'] for r in runs)}/{len(runs)} runs, "
                     f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} operations")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 211-220 or 3,5,8")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    results = []
    for i, seed in enumerate(args.seeds):
        sides = {"parent": args.parent, "change": args.change}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        res = {side: run_bench(sides[side], args.workload, seed, args.seconds) for side in order}
        results.append((res["parent"], res["change"]))
        study = {side: res[side]["metrics"].get("study_s", {}).get("value") for side in sides}
        print(f"pair {i + 1} seed {seed} ({order[0]} first): study_s parent {study['parent']} "
              f"change {study['change']}", flush=True)
    print("\n".join(report_lines(results, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
