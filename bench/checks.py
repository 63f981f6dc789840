"""Independent output checks, one per workload.

Each checker takes one operation's outputs and returns a list of problems;
an empty list means the outputs are correct.  The checks recompute what
they compare against with their own numpy code and constants, never with
the program's helpers, except that ``sweep-build`` takes its subsets from
the public ``sample_uniform_subset`` with its documented seeds
``[master_seed, s, trial]``.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from workloads import gram_coherence, tightness_error

CEILING = 1e-10          # residual at or below: REPRESENTABLE
FLOOR = 1e-6             # residual above: NOT_REPRESENTABLE
REDRAW_CAP = 100         # T redraws at which the program stops redrawing
TIGHT_TOL = 1e-8
UNIT_TOL = 1e-10
MATCH_TOL = 1e-12
STATS_REL_TOL = 1e-9


@dataclass
class Outputs:
    """What one operation produced."""

    exit_code: int
    report: dict
    csv_text: str
    atoms: Optional[np.ndarray]


def expected_verdict(residual: float) -> str:
    if residual <= CEILING:
        return "REPRESENTABLE"
    if residual > FLOOR:
        return "NOT_REPRESENTABLE"
    return "INCONCLUSIVE"


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _cell(value) -> str:
    """A report value as csv.DictWriter writes it."""
    return "" if value is None else str(value)


def _common(out: Outputs, n_rows: int) -> list[str]:
    problems = []
    if out.exit_code != 0:
        problems.append(f"exit status {out.exit_code}")
    rows = out.report.get("trials", [])
    if len(rows) != n_rows:
        problems.append(f"{len(rows)} report rows, expected {n_rows}")
    table = list(csv.DictReader(io.StringIO(out.csv_text)))
    if len(table) != len(rows):
        problems.append(f"CSV has {len(table)} rows, JSON has {len(rows)}")
    elif any(_cell(r.get(k)) != c[k] for r, c in zip(rows, table) for k in c):
        problems.append("CSV rows differ from JSON rows")
    if out.atoms is None:
        problems.append("no dictionary was built or loaded")
    return problems


def _frame_problems(atoms: np.ndarray) -> list[str]:
    problems = []
    worst = float(np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max())
    if worst > UNIT_TOL:
        problems.append(f"atom norms deviate from 1 by {worst:.3e}")
    err = tightness_error(atoms)
    if err > TIGHT_TOL:
        problems.append(f"Phi Phi* deviates from (N/m) I by {err:.3e}")
    return problems


def _gap_rows(rows: list[dict], pairs: int, trials: int) -> list[str]:
    problems = []
    keys = [(r.get("pair"), r.get("trial")) for r in rows]
    if keys != [(p, i) for p in range(pairs) for i in range(trials)]:
        problems.append("rows are not one per (pair, trial)")
    bad = [r for r in rows if r["verdict"] != expected_verdict(r["residual"])]
    if bad:
        problems.append(f"{len(bad)} verdicts disagree with the two-threshold rule")
    return problems


def check_gap_trials(out: Outputs, spec: dict) -> list[str]:
    cfg = spec["config"]
    pairs, trials = cfg["pairs"], cfg["trials_per_pair"]
    problems = _common(out, pairs * trials)
    if out.atoms is not None:
        m = cfg["dictionary"]["m"]
        want = np.hstack([np.eye(m), np.fft.fft(np.eye(m), axis=0) / math.sqrt(m)])
        if out.atoms.shape != want.shape or np.abs(out.atoms - want).max() > MATCH_TOL:
            problems.append("dictionary is not I (+) the unitary DFT")
        if not _close(out.report["params"]["mu"], 1.0 / math.sqrt(m), MATCH_TOL):
            problems.append(f"coherence {out.report['params']['mu']} is not 1/sqrt({m})")
    rows = out.report.get("trials", [])
    problems += _gap_rows(rows, pairs, trials)
    if any(r["verdict"] != "NOT_REPRESENTABLE" for r in rows):
        problems.append("a verdict is not NOT_REPRESENTABLE")
    return problems


def check_gap_pairs_file(out: Outputs, spec: dict) -> list[str]:
    cfg = spec["config"]
    pairs, trials = cfg["pairs"], cfg["trials_per_pair"]
    problems = _common(out, pairs * trials)
    if out.atoms is not None:
        if out.atoms.shape != spec["frame"].shape or not np.array_equal(out.atoms, spec["frame"]):
            problems.append("loaded frame differs from the frame written to the file")
        problems += _frame_problems(out.atoms)
        mu = gram_coherence(out.atoms)
        if not _close(mu, out.report["params"]["mu"], MATCH_TOL):
            problems.append(f"reported coherence {out.report['params']['mu']} != recomputed {mu}")
        if not _close(mu, spec["stored_coherence"], MATCH_TOL):
            problems.append(f"stored coherence {spec['stored_coherence']} != recomputed {mu}")
    rows = out.report.get("trials", [])
    problems += _gap_rows(rows, pairs, trials)
    if any(r["rank_condition"] and r["verdict"] != "NOT_REPRESENTABLE" for r in rows):
        problems.append("rank condition holds on a row that is not NOT_REPRESENTABLE")
    if any(r["verdict"] == "INCONCLUSIVE" for r in rows):
        problems.append("an INCONCLUSIVE verdict")
    capped = sorted({r["pair"] for r in rows if r["t_redraws"] >= REDRAW_CAP})
    if capped:
        problems.append(f"pairs {capped} reached the T-redraw cap")
    return problems


def subset_statistics(atoms: np.ndarray, gram: np.ndarray, s_idx) -> tuple[float, float, float]:
    """(max cross-correlation, Gram deviation, pseudoinverse norm) of one subset."""
    s_idx = np.asarray(s_idx)
    rest = np.setdiff1d(np.arange(atoms.shape[1]), s_idx)
    cross = gram[np.ix_(s_idx, rest)]
    max_cross = float(np.sqrt(np.max(np.sum(np.abs(cross) ** 2, axis=0)))) if rest.size else 0.0
    gram_dev = float(np.abs(np.linalg.eigvalsh(gram[np.ix_(s_idx, s_idx)] - np.eye(s_idx.size))).max())
    pinv = np.linalg.pinv(atoms[:, s_idx])
    pinv_norm = float(np.sqrt(np.linalg.eigvalsh(pinv @ pinv.conj().T).max()))
    return max_cross, gram_dev, pinv_norm


def check_sweep_build(out: Outputs, spec: dict, sample_subset: Callable) -> list[str]:
    cfg = spec["config"]
    s_values, trials = cfg["s_values"], cfg["trials_per_s"]
    problems = _common(out, len(s_values) * trials)
    rows = out.report.get("trials", [])
    if [(r.get("s"), r.get("trial")) for r in rows] != [(s, i) for s in s_values for i in range(trials)]:
        problems.append("rows are not one per (s, trial)")
        return problems
    if out.atoms is None:
        return problems
    problems += _frame_problems(out.atoms)
    gram = out.atoms.conj().T @ out.atoms
    n = out.atoms.shape[1]
    keys = ("max_cross_correlation", "gram_deviation", "pinv_norm")
    for r in rows:
        subset = sample_subset(n, r["s"], [cfg["seed"], r["s"], r["trial"]])
        mine = subset_statistics(out.atoms, gram, list(subset.indices))
        for key, value in zip(keys, mine):
            if not abs(r[key] - value) <= STATS_REL_TOL * abs(value):
                problems.append(f"s={r['s']} trial={r['trial']}: {key} {r[key]} != recomputed {value}")
        if not r["pinv_norm"] >= 1.0:
            problems.append(f"s={r['s']} trial={r['trial']}: pinv_norm {r['pinv_norm']} < 1")
    return problems
