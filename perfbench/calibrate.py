"""Reference kernels that measure how fast the machine is running right now.

On a shared 2-vCPU machine the same study's time drifted by up to +-20 %
from one 25 s run to the next while nothing changed. Over ten seeds, the
spread of raw run medians (IQR over median) was 0.25 on ``classical-enum``.
A fixed kernel of the same kind of work drifts in step. So before each study
the worker times the kernel, and the run scales each wall time by the
running median of ``REFERENCE_S / kernel time`` over five studies. The
result is in seconds at the speed the machine had when the references were
measured. Over ten seeds, the spread of the scaled run medians was
0.03-0.05, and that of the tails 0.01-0.05. The kernels are
benchmark code, so a change to gridqmc moves the scaled times exactly as it
moves the raw ones.
"""
from __future__ import annotations

import itertools
import subprocess
import sys
import time

import numpy as np

_WEIGHTS = (0.3, -0.7, 1.1, 0.2, -0.4, 0.9, -1.3)
_MATRIX = np.random.default_rng(0).standard_normal((256, 256))


def python_kernel() -> float:
    """Interpreter-bound work: the shape of an enumeration loop."""
    total = 0.0
    for combo in itertools.product(range(4), repeat=len(_WEIGHTS)):
        s = 0.0
        for w, j in zip(_WEIGHTS, combo):
            s += w * j
        total += abs(s)
    return total


def blas_kernel() -> float:
    """LAPACK/BLAS-bound work: an SVD and complex matrix products."""
    u, _, vh = np.linalg.svd(_MATRIX)
    c = (u @ vh).astype(complex)
    return float(np.abs(c @ c @ c).sum())


def spawn_kernel() -> None:
    """Start-up-bound work: a fresh interpreter importing standard modules.

    Set-up and ``gridqmc run`` are mostly interpreter start and imports.
    Over 30 fresh ``import gridqmc.cli`` runs their time divided by this
    kernel's spread by 0.12 (coefficient of variation), against 0.19 when
    divided by the Python kernel's.
    """
    subprocess.run([sys.executable, "-S", "-c", "import json, decimal, email.parser"], check=True)


KERNELS = {"python": python_kernel, "blas": blas_kernel, "spawn": spawn_kernel}
#: kernel runs per measurement, averaged: the mean tracks the slowdown a
#: study meets, where the fastest run would track the machine's quiet moments
REPEATS = 3
#: rounded mean kernel times on a 2-vCPU x86-64 VM, one BLAS thread
#: (Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31)
REFERENCE_S = {"python": 0.018, "blas": 0.030, "spawn": 0.055}


def scale(kind: str) -> float:
    """Time one kernel; the factor turning wall seconds into reference seconds."""
    t0 = time.perf_counter()
    for _ in range(REPEATS):
        KERNELS[kind]()
    return REFERENCE_S[kind] * REPEATS / (time.perf_counter() - t0)
