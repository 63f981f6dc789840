"""A fixed computation that measures how fast the machine runs right now.

Each operation runs it right after its experiment call. ``run.py`` scales
the operation's times by ``REFERENCE_S / reference_seconds()``, which turns
them into times on a machine where this computation takes ``REFERENCE_S``.
On a shared machine, interference slows a whole operation and the
reference run next to it alike. Scaling cancels most of that slowdown,
while a change to the program moves only the operation. The workload
mixes the kinds of work that ``sparsegap`` does: large and small complex
SVDs, small products in a Python loop, and JSON encoding.  ``svd`` and
``norm`` are bound when this module is imported, so a tracer that wraps
``numpy.linalg`` later does not slow the computation down.
"""

from __future__ import annotations

import json
import time

import numpy as np
from numpy.linalg import norm, svd

REFERENCE_S = 0.10  # its time, right after an operation, on a quiet 2-core Xeon VM


def reference_seconds() -> float:
    rng = np.random.default_rng(0)
    large = rng.standard_normal((128, 512)) + 1j * rng.standard_normal((128, 512))
    medium = rng.standard_normal((128, 32)) + 1j * rng.standard_normal((128, 32))
    small = rng.standard_normal((64, 16)) + 1j * rng.standard_normal((64, 16))
    rows = [{"pair": i // 10, "trial": i % 10, "residual": i / 7.0, "verdict": "NOT_REPRESENTABLE"}
            for i in range(3000)]
    t0 = time.perf_counter()
    for _ in range(2):
        svd(large, full_matrices=False)
    for _ in range(100):
        svd(medium, full_matrices=False)
    for _ in range(300):
        svd(small, compute_uv=False)
        float(norm(small.conj().T @ small))
    json.dumps(rows, sort_keys=True, indent=2)
    return time.perf_counter() - t0
