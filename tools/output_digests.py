"""Output digests: the sha256 of every benchmark study's report or CSV, one line per study.

For each chosen workload and seed, generates the studies with
``perfbench/gen.py`` and answers each in process, as the benchmark worker
does: ``run_analysis`` for an analysis study and for a CLI study (at the
study's own ``cli_seed``), ``export_histogram`` for a histogram study. Prints
one line per study: workload, seed, study index, metric (``metric/stage`` for
a histogram study) and the sha256 of ``RunReport.to_json()`` or of the CSV
file. A study's ``source`` is its file name, not a path, so the lines of two
checkouts compare with ``diff``:

    python3 tools/output_digests.py --seeds 0-3 > change.txt
    (cd ../parent && python3 tools/output_digests.py --seeds 0-3) > parent.txt
    diff parent.txt change.txt

A study the program refuses prints ``refused:`` and the error's class in place
of the sha256. Reads ``perfbench/`` and writes nothing there; needs numpy, not
pytest.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]  # gen imports checks as a top-level module

import gen  # noqa: E402
from bench_pairs import parse_seeds  # noqa: E402
from gridqmc import export_histogram, run_analysis  # noqa: E402
from gridqmc.config import parse_config  # noqa: E402
from gridqmc.errors import GridQmcError  # noqa: E402


def output_bytes(study: gen.Study, scratch: Path) -> bytes:
    """The report JSON or histogram CSV the program gives for one generated study."""
    config = parse_config(json.loads(study.text), source=study.file)
    if study.stage is not None:
        out = scratch / "histogram.csv"
        return export_histogram(config, study.stage, study.shots, config.analysis.seed, out).read_bytes()
    if study.cli_seed is not None:
        config = dataclasses.replace(config, analysis=dataclasses.replace(config.analysis, seed=study.cli_seed))
    return run_analysis(config).to_json().encode()


def digest_lines(workload: str, seed: int, scratch: Path):
    for index, study in enumerate(gen.generate(workload, seed, ROOT)):
        label = study.metric if study.stage is None else f"{study.metric}/{study.stage}"
        try:
            digest = hashlib.sha256(output_bytes(study, scratch)).hexdigest()
        except GridQmcError as exc:
            digest = f"refused:{type(exc).__name__}"
        yield f"{workload} {seed} {index} {label} {digest}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(gen.WORKLOADS),
                        help="a workload to digest; repeat for more (default: every workload)")
    parser.add_argument("--seeds", default="0", help='seeds as "0-3", "3,5,8" or a mix (default: 0)')
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        for workload in args.workload or sorted(gen.WORKLOADS):
            for seed in parse_seeds(args.seeds):
                for line in digest_lines(workload, seed, Path(scratch)):
                    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
