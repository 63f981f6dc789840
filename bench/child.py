"""One benchmark operation: a single ``sparsegap experiment`` call in this process.

Run by ``run.py`` in a fresh interpreter with BLAS/OpenMP threads pinned
to 1, from the workload's directory, which holds ``config.json`` and any
dictionary file.  Writes into ``c/``: the report (``report.json`` and
``report.csv``), ``dictionary.npy`` (the atoms of the dictionary the run
built or loaded), ``result.json`` (timings, exit status, peak memory and
the time of the reference computation run right after the call) and, with
``--trace 1``, ``spans.json``.

    python3 child.py --src SRC_DIR --trace 0|1

The timed import of ``sparsegap.cli`` comes first.  The options are read
from ``sys.argv`` by hand, and the harness imports nothing before it but
modules the interpreter has already loaded at start-up; json, numpy and
the tracer follow it.  So none of the modules the program imports is paid
for before the clock starts.
"""

from __future__ import annotations

import functools
import os
import sys
import time

USAGE = "usage: child.py --src SRC_DIR --trace 0|1"


def _time_dictionary_stage(stage: dict, tracing) -> None:
    """Time the public dictionary constructor or loader the run calls.

    Every ``build_*`` function and ``load_dictionary`` of
    ``sparsegap.dictionary`` is wrapped, and all references to them in the
    program are rebound; nested calls count once.  The dictionary returned
    by the outermost call is kept for the output checks.
    """
    dictionary = sys.modules["sparsegap.dictionary"]
    replacements = {}
    depth = [0]
    for attr, fn in list(vars(dictionary).items()):
        if not callable(fn) or not (attr.startswith("build_") or attr == "load_dictionary"):
            continue

        def timed(*args, _fn=fn, **kwargs):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                result = _fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                stage["seconds"] += time.perf_counter() - t0
                stage["dictionary"] = result
            return result

        replacements[id(fn)] = (fn, functools.wraps(fn)(timed))
    tracing.rebind(replacements)


def peak_rss_kb() -> int:
    """High-water resident set of this process image.

    ``ru_maxrss`` would not do: at exec it takes over the high-water mark of
    the parent's address space, which the parent shares until then.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    if len(sys.argv) != 5 or set(opts) != {"--src", "--trace"} or opts["--trace"] not in ("0", "1"):
        print(USAGE, file=sys.stderr)
        return 2
    src = os.path.realpath(opts["--src"])
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import sparsegap.cli as cli
    import_s = time.perf_counter() - t0

    import json
    from pathlib import Path

    import numpy as np

    import tracer as tracing
    # Imported before the tracer wraps numpy.linalg, so that the reference
    # computation calls the unwrapped functions in traced operations too.
    from reference import reference_seconds

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"sparsegap imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    out = Path("c")
    stage = {"seconds": 0.0, "dictionary": None}
    _time_dictionary_stage(stage, tracing)
    tracer = None
    if opts["--trace"] == "1":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    argv = ["experiment", "--config", "config.json", "--out", str(out / "report"),
            "--format", "both"]
    t0 = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - t0
    peak_rss_mb = peak_rss_kb() / 1024.0
    reference_s = reference_seconds()

    if stage["dictionary"] is not None:
        np.save(out / "dictionary.npy", stage["dictionary"].atoms)
    if tracer is not None:
        (out / "spans.json").write_text(json.dumps(tracer.spans))
    (out / "result.json").write_text(json.dumps({
        "exit_code": code,
        "run_s": run_s,
        "setup_s": import_s + stage["seconds"],
        "peak_rss_mb": peak_rss_mb,
        "reference_s": reference_s,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
