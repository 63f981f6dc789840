"""Self-test of the benchmark's checks and trace.

    python3 bench/selftest.py

For each workload it runs one real operation, confirms that its outputs
pass the workload's checks, and then confirms that every deliberately
corrupted copy (a flipped verdict, a dropped row, a residual moved across
the floor, a perturbed atom, a pair at the redraw cap, ...) is rejected.
It also runs two traced operations per workload and requires identical
factorisation and call counts, and derives layer metrics from no spans at
all, which must read 0.  All inputs come from benchmark seed ``SEED``.
Exits 1 if any of this fails.
"""

from __future__ import annotations

import copy
import csv
import io
import os
import shutil
import sys

import checks
import run
import tracer
import workloads

SEED = 1


def csv_of(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def corrupt(out: checks.Outputs, spec: dict, edit) -> tuple[checks.Outputs, dict]:
    """Apply ``edit`` to a copy of one operation's outputs and spec.

    ``edit`` gets a dict with ``report``, ``atoms``, ``spec``, ``exit_code``
    and ``csv``; unless it sets ``csv``, the CSV is rewritten from the
    edited JSON rows, so that only the targeted check sees the change.
    """
    case = {"report": copy.deepcopy(out.report), "atoms": out.atoms.copy(),
            "spec": copy.deepcopy(spec), "exit_code": out.exit_code, "csv": None}
    edit(case)
    csv_text = case["csv"] if case["csv"] is not None else csv_of(case["report"]["trials"])
    return checks.Outputs(case["exit_code"], case["report"], csv_text, case["atoms"]), case["spec"]


def first_row(**values):
    return lambda c: c["report"]["trials"][0].update(values)


def csv_differs(c):
    rows = copy.deepcopy(c["report"]["trials"])
    rows[0]["trial"] += 1
    c["csv"] = csv_of(rows)


def at_redraw_cap(c):
    for r in c["report"]["trials"]:
        if r["pair"] == 0:
            r["t_redraws"] = checks.REDRAW_CAP


def perturb_atom(c):
    c["atoms"][3, 5] += 1e-9


def non_unit_atom(c):
    c["atoms"][:, 7] *= 1.0 + 1e-6
    c["spec"]["frame"] = c["atoms"]


def non_tight_frame(c):
    c["atoms"][:, 7] = c["atoms"][:, 8]
    c["spec"]["frame"] = c["atoms"]


def shift_coherence(c):
    c["report"]["params"]["mu"] += 1e-9


def shift_stored_coherence(c):
    c["spec"]["stored_coherence"] += 1e-9


# label: (edit, a fragment of the problem the targeted check must report)
COMMON = {
    "dropped row": (lambda c: c["report"]["trials"].pop(), "report rows, expected"),
    "nonzero exit status": (lambda c: c.update(exit_code=1), "exit status 1"),
    "CSV differs from JSON": (csv_differs, "CSV rows differ"),
}

CORRUPTIONS = {
    "gap-trials": {
        "flipped verdict": (first_row(verdict="REPRESENTABLE"), "two-threshold rule"),
        "residual moved across the floor": (first_row(residual=5e-7), "two-threshold rule"),
        "representable row": (first_row(residual=1e-12, verdict="REPRESENTABLE"), "not NOT_REPRESENTABLE"),
        "perturbed atom": (perturb_atom, "unitary DFT"),
        "wrong coherence": (shift_coherence, "is not 1/sqrt"),
    },
    "gap-pairs-file": {
        "flipped verdict": (first_row(verdict="REPRESENTABLE"), "two-threshold rule"),
        "inconclusive row": (first_row(rank_condition=False, residual=1e-8, verdict="INCONCLUSIVE"),
                             "INCONCLUSIVE verdict"),
        "rank condition with a representable row": (
            first_row(rank_condition=True, residual=1e-12, verdict="REPRESENTABLE"), "rank condition holds"),
        "pair at the redraw cap": (at_redraw_cap, "redraw cap"),
        "perturbed atom": (perturb_atom, "differs from the frame written"),
        "non-unit atom": (non_unit_atom, "atom norms deviate"),
        "non-tight frame": (non_tight_frame, "deviates from (N/m) I"),
        "wrong reported coherence": (shift_coherence, "reported coherence"),
        "wrong stored coherence": (shift_stored_coherence, "stored coherence"),
    },
    "sweep-build": {
        "perturbed statistic": (first_row(gram_deviation=0.5), "gram_deviation"),
        "pinv norm below 1": (first_row(pinv_norm=0.99), "< 1"),
        "rows out of order": (lambda c: c["report"]["trials"].reverse(), "one per (s, trial)"),
        "non-unit atom": (non_unit_atom, "atom norms deviate"),
        "non-tight frame": (non_tight_frame, "deviates from (N/m) I"),
    },
}


def main() -> int:
    failures = []
    env = run.child_env()
    root = run.WORK / f"selftest-{os.getpid()}"
    try:
        for name, cases in CORRUPTIONS.items():
            work = root / name
            work.mkdir(parents=True)
            spec = workloads.prepare(name, SEED, work)
            check = run.checker(name)
            op = run.run_operation(work, 0, env)
            if "outputs" not in op:
                failures.append(f"{name}: operation failed: {op['problems']}")
                continue
            good = op["outputs"]
            problems = check(good, spec)
            print(f"{name}: genuine outputs {'pass' if not problems else 'FAIL ' + str(problems)}")
            if problems:
                failures.append(f"{name}: genuine outputs rejected")
            for label, (edit, expected) in {**COMMON, **cases}.items():
                problems = check(*corrupt(good, spec, edit))
                hit = [p for p in problems if expected in p]
                print(f"  {label}: {'rejected: ' + hit[0] if hit else 'NOT REJECTED ' + str(problems)}")
                if not hit:
                    failures.append(f"{name}: {label} not rejected by its check")

            counts = []
            for _ in range(2):
                op = run.run_operation(work, 1, env)
                if "spans" not in op:
                    failures.append(f"{name}: traced operation failed: {op['problems']}")
                    break
                metrics = tracer.layer_metrics(op["spans"], len(op["report"]["trials"]))
                counts.append({k: v for k, v in metrics.items()
                               if "factorizations" in k or k.endswith("_calls")})
            if len(counts) == 2:
                print(f"  traced counts {counts[0]}")
                if counts[0] != counts[1]:
                    failures.append(f"{name}: traced counts differ: {counts}")
        empty = tracer.layer_metrics([], 0)
        if any(empty.values()):
            failures.append(f"metrics without spans are not 0: {empty}")
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            run.WORK.rmdir()
        except OSError:
            pass
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
