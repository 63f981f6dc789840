"""sparsegap benchmark: one workload, run in fresh processes, checked, reported.

    python3 bench/run.py --workload gap-trials --seed 1 --seconds 36 --trace 0

Writes the workload's inputs (see ``workloads.py``) under ``.bench_work/``,
runs one discarded warm-up operation, then whole rounds of operations for
``--seconds`` seconds.  An operation is one ``sparsegap experiment`` call in
a fresh interpreter (``child.py``) with BLAS/OpenMP threads pinned to 1;
operations run one at a time.  Every operation's outputs go through the
workload's checks (``checks.py``); one that fails them, or crashes, counts
as failed.

With ``--trace 0`` a round is one untraced operation and the result holds
the end-to-end metrics: medians over the run's operations.  With
``--trace 1`` a round is one untraced and one traced operation, in
alternating order, and the result holds the per-layer metrics: medians over
the traced operations, plus ``trace.overhead_s``, the traced minus the
untraced median ``run_s``.  Every time is scaled to reference speed: each
operation also times a fixed computation (``reference.py``) right after
its call, and its times are multiplied by ``REFERENCE_S`` over that time.
This cancels the machine's changing speed (see README.md).  The line
before the result gives the unscaled medians of ``run_s`` and ``setup_s``
and the median reference time, so that the size of the scaling shows.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json``.  ``correct`` is false when operations
that passed their checks disagree on the report rows.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads
from reference import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# The harness process imports the program too: workloads.py writes the
# sgdict-1 file with its writer, and checks.py takes the sweep subsets from
# its public sampler.
sys.path.insert(0, str(SRC))
CHILD_TIMEOUT_S = 60
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for huge pages on arrays of 4 MiB and more; whether the
    # kernel grants them depends on the machine's memory, which makes the
    # peak resident set jump by 2 MiB steps from run to run.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    # glibc raises its mmap threshold each time a large block is freed, so
    # whether a later array is mapped afresh or carved from the heap hangs
    # on the exact sizes of earlier allocations: a few bytes more in a path
    # flip sweep-build's peak between 53.6 and 60.3 MB.  Fixing the
    # threshold at the highest value it can rise to removes that.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    return env


def run_operation(work: Path, trace: int, env: dict) -> dict:
    """Run one operation in ``work``; returns its files and measurements."""
    out = work / "c"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    cmd = [sys.executable, os.path.relpath(BENCH / "child.py", work),
           "--src", os.path.relpath(SRC, work), "--trace", str(trace)]
    op = {"trace": trace, "ok": False, "problems": []}
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        op["problems"].append(f"operation ran longer than {CHILD_TIMEOUT_S} s")
        return op
    if proc.returncode != 0 or not (out / "result.json").is_file():
        op["problems"].append(f"operation exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return op
    try:
        op.update(json.loads((out / "result.json").read_text()))
        report_json = (out / "report.json").read_text()
        csv_text = (out / "report.csv").read_text()
        op["report"] = json.loads(report_json)
        atoms = np.load(out / "dictionary.npy") if (out / "dictionary.npy").is_file() else None
        if trace:
            op["spans"] = json.loads((out / "spans.json").read_text())
    except (OSError, ValueError) as exc:
        op["problems"].append(f"unreadable output: {exc}")
        return op
    op["report_bytes"] = len(report_json.encode()) + len(csv_text.encode())
    op["outputs"] = checks.Outputs(op["exit_code"], op["report"], csv_text, atoms)
    return op


def checker(name: str):
    if name == "gap-trials":
        return checks.check_gap_trials
    if name == "gap-pairs-file":
        return checks.check_gap_pairs_file
    from sparsegap.random_subsets import sample_uniform_subset
    return lambda out, spec: checks.check_sweep_build(out, spec, sample_uniform_subset)


def accept_ratio(report: dict) -> float:
    """Accepted T draws over all T draws: pairs / (pairs + T redraws)."""
    redraws = {r["pair"]: r["t_redraws"] for r in report["trials"] if "t_redraws" in r}
    return len(redraws) / (len(redraws) + sum(redraws.values())) if redraws else 1.0


def scale(op: dict) -> float:
    """Factor that turns the operation's times into reference-speed times."""
    return REFERENCE_S / op["reference_s"]


def end_to_end(ops: list[dict]) -> dict:
    med = statistics.median
    return {
        "run_s": med(op["run_s"] * scale(op) for op in ops),
        "trials_per_s": med(len(op["report"]["trials"]) / (op["run_s"] * scale(op)) for op in ops),
        "setup_s": med(op["setup_s"] * scale(op) for op in ops),
        "peak_rss_mb": med(op["peak_rss_mb"] for op in ops),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    per_op = []
    for op in traced:
        values = tracer.layer_metrics(op["spans"], len(op["report"]["trials"]))
        values = {k: v * scale(op) if k.endswith("_s") else v for k, v in values.items()}
        values["cli.report_bytes"] = op["report_bytes"]
        values["signals.sample_accept_ratio"] = accept_ratio(op["report"])
        per_op.append(values)
    metrics = {k: statistics.median(v[k] for v in per_op) for k in per_op[0]}
    metrics["trace.overhead_s"] = (statistics.median(op["run_s"] * scale(op) for op in traced)
                                   - statistics.median(op["run_s"] * scale(op) for op in untraced))
    return metrics


def measure(name: str, seed: int, seconds: float, trace: int, work: Path) -> list[dict]:
    spec = workloads.prepare(name, seed, work)
    check = checker(name)
    env = child_env()
    run_operation(work, trace, env)  # warm-up, discarded
    ops: list[dict] = []
    start = time.monotonic()
    while not ops or time.monotonic() - start < seconds:
        plan = ([0, 1] if len(ops) // 2 % 2 == 0 else [1, 0]) if trace else [0]
        for flag in plan:
            op = run_operation(work, flag, env)
            if "outputs" in op:
                try:
                    op["problems"] += check(op.pop("outputs"), spec)
                except Exception as exc:  # malformed report: the operation fails
                    op["problems"].append(f"check raised {exc!r}")
            op["ok"] = not op["problems"]
            for problem in op["problems"][:5]:
                print(f"{name} operation {len(ops)}: {problem}", file=sys.stderr)
            ops.append(op)
    return ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sparsegap" / "__init__.py").is_file():
        print(f"error: no sparsegap sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ops = measure(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    good = [op for op in ops if op["ok"]]
    first = good[0]["report"] if good else None
    agree = all(op["report"]["trials"] == first["trials"]
                and op["report"]["summary"] == first["summary"] for op in good)
    if not agree:
        print(f"{args.workload}: operations on the same inputs disagree", file=sys.stderr)
    untraced = [op for op in good if not op["trace"]]
    traced = [op for op in good if op["trace"]]
    if not untraced or (args.trace and not traced):
        print(f"{args.workload}: no operation passed its checks", file=sys.stderr)
        return 1
    values = per_layer(traced, untraced) if args.trace else end_to_end(untraced)
    measured = traced if args.trace else untraced
    print("unscaled: " + json.dumps({
        "run_s": statistics.median(op["run_s"] for op in measured),
        "setup_s": statistics.median(op["setup_s"] for op in measured),
        "reference_s": statistics.median(op["reference_s"] for op in measured),
    }))
    missing = set(units) - set(values)
    if missing:
        print(f"error: metrics not computed: {sorted(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": agree,
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
