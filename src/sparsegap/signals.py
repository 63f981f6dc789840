"""Generic signals and Monte Carlo representability experiments.

A generic signal is u = Phi_S x with x drawn i.i.d. standard complex
Gaussian.  Whether u can be expressed over an alternative atom set T is
decided numerically through the relative least-squares residual of u
against range(Phi_T), with a two-threshold verdict policy: residuals at
or below the ceiling count as representable, residuals above the floor
as not representable, anything in between as inconclusive.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .dictionary import AtomSet, Dictionary
from .rank_bounds import (
    DependentSetError,
    RankReport,
    default_rank_tolerance,
    numerical_rank,
    projector_onto_range,
    rank_report,
)
from .thresholds import overlap_condition

RESIDUAL_CEILING = 1e-10
RESIDUAL_FLOOR = 1e-6
CONDITION_CAP = 1e6
INDEPENDENCE_REDRAW_CAP = 100


class Verdict(enum.Enum):
    NOT_REPRESENTABLE = "NOT_REPRESENTABLE"
    REPRESENTABLE = "REPRESENTABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class GenericSignal:
    support: AtomSet
    coefficients: np.ndarray
    signal: np.ndarray
    rng_seed: Optional[int] = None


@dataclass(frozen=True)
class RepresentabilityVerdict:
    rank_condition_holds: Optional[bool]
    residual: float
    verdict: Verdict


class RedrawCapExceededError(RuntimeError):
    """A sampler found no acceptable atom set within INDEPENDENCE_REDRAW_CAP draws."""


def _complex_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)


def make_signal(d: Dictionary, support: AtomSet, coefficients: Sequence[complex],
                rng_seed: Optional[int] = None) -> GenericSignal:
    """Assemble a signal from explicit coefficients (not necessarily generic)."""
    coeff = np.asarray(coefficients, dtype=np.complex128)
    if coeff.shape != (len(support),):
        raise ValueError("coefficient length must match the support size")
    return GenericSignal(
        support=support,
        coefficients=coeff,
        signal=d.subdictionary(support) @ coeff,
        rng_seed=rng_seed,
    )


def draw_generic_signal(d: Dictionary, support: AtomSet, seed) -> GenericSignal:
    """u = Phi_S x with x i.i.d. standard complex Gaussian, deterministic in seed."""
    phi_s = d.subdictionary(support)
    if len(support) == 0 or numerical_rank(phi_s) < len(support):
        raise DependentSetError("support must be a nonempty linearly independent set")
    rng = np.random.default_rng(seed)
    coeff = _complex_gaussian(rng, len(support))
    scalar_seed = seed if isinstance(seed, int) else None
    return GenericSignal(support=support, coefficients=coeff,
                         signal=phi_s @ coeff, rng_seed=scalar_seed)


def rank_condition(d: Dictionary, s_set: AtomSet, t_set: AtomSet) -> tuple[bool, RankReport]:
    """|T| < rank(Phi_{S u T}), with the full rank report for the union."""
    phi_s = d.subdictionary(s_set)
    if len(s_set) == 0 or numerical_rank(phi_s) < len(s_set):
        raise DependentSetError("S must be a nonempty linearly independent set")
    union = s_set.union(t_set)
    report = rank_report(d.subdictionary(union), mu=d.coherence)
    return len(t_set) < report.exact_rank, report


def residual_over(d: Dictionary, t_set: AtomSet, u: np.ndarray) -> float:
    """Relative misfit ||u - P_T u|| / ||u|| with P_T the range projector."""
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        raise ValueError("zero signal has no meaningful residual")
    if len(t_set) == 0:
        return 1.0
    p = projector_onto_range(d.subdictionary(t_set))
    return float(np.linalg.norm(u - p @ u)) / norm_u


def classify_residual(residual: float, ceiling: float = RESIDUAL_CEILING,
                      floor: float = RESIDUAL_FLOOR) -> Verdict:
    if floor <= ceiling:
        raise ValueError("residual floor must exceed the ceiling")
    if residual <= ceiling:
        return Verdict.REPRESENTABLE
    if residual > floor:
        return Verdict.NOT_REPRESENTABLE
    return Verdict.INCONCLUSIVE


def test_representability(d: Dictionary, t_set: AtomSet, signal: GenericSignal,
                          ceiling: float = RESIDUAL_CEILING,
                          floor: float = RESIDUAL_FLOOR) -> RepresentabilityVerdict:
    """Two-threshold verdict on whether the signal lies in range(Phi_T)."""
    if len(t_set) == 0:
        raise ValueError("T must be nonempty")
    res = residual_over(d, t_set, signal.signal)
    holds, _ = rank_condition(d, signal.support, t_set)
    return RepresentabilityVerdict(rank_condition_holds=holds, residual=res,
                                   verdict=classify_residual(res, ceiling, floor))


test_representability.__test__ = False  # not a pytest case despite the name


@dataclass
class ExperimentReport:
    """One experiment run: configuration, per-trial rows, summary, provenance."""

    kind: str
    params: dict
    master_seed: int
    columns: tuple[str, ...]
    trials: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    manifest: Optional[dict] = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": self.params,
            "master_seed": self.master_seed,
            "summary": self.summary,
            "trials": self.trials,
            "manifest": self.manifest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.columns), lineterminator="\n")
        writer.writeheader()
        for row in self.trials:
            writer.writerow({k: row.get(k) for k in self.columns})
        return buf.getvalue()


def _sample_support(d: Dictionary, s: int, rng: np.random.Generator) -> AtomSet:
    for _ in range(INDEPENDENCE_REDRAW_CAP):
        cand = AtomSet(tuple(sorted(rng.choice(d.n_atoms, size=s, replace=False).tolist())))
        if numerical_rank(d.subdictionary(cand)) == s:
            return cand
    raise RedrawCapExceededError(
        f"no linearly independent support of size {s} found in "
        f"{INDEPENDENCE_REDRAW_CAP} draws ({d.provenance})"
    )


def _range_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of range(A), with numerical_rank(A) columns, and A's singular values."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, sv > default_rank_tolerance(sv, a.shape)], sv


def _sample_overlapping(d: Dictionary, s_set: AtomSet, t: int, delta: int,
                        rng: np.random.Generator) -> tuple[AtomSet, np.ndarray, int]:
    """T = delta atoms of S plus t - delta atoms of the complement.

    Redraws T while cond(Phi_T) exceeds the cap; returns T, a basis of
    range(Phi_T) from the conditioning check's SVD, and the redraw count.
    """
    s_idx = np.array(s_set.indices)
    comp = np.array(d.complement(s_set).indices)
    for redraws in range(INDEPENDENCE_REDRAW_CAP):
        inside = rng.choice(s_idx, size=delta, replace=False) if delta else np.empty(0, int)
        outside = rng.choice(comp, size=t - delta, replace=False) if t - delta else np.empty(0, int)
        t_set = AtomSet(tuple(sorted(int(i) for i in np.concatenate([inside, outside]))))
        basis, sv = _range_basis(d.subdictionary(t_set))
        if sv[-1] > 0 and sv[0] / sv[-1] <= CONDITION_CAP:
            return t_set, basis, redraws
    raise RedrawCapExceededError(
        f"no T of size {t} with cond(Phi_T) <= {CONDITION_CAP:g} found in "
        f"{INDEPENDENCE_REDRAW_CAP} draws ({d.provenance})"
    )


def _trial_residuals(d: Dictionary, s_set: AtomSet, basis: np.ndarray, streams: list) -> list[float]:
    """residual_over of draw_generic_signal(d, s_set, st) for each stream st, batched.

    Equal up to rounding; S must already be known to be linearly independent.
    """
    x = np.array([_complex_gaussian(np.random.default_rng(st), len(s_set)) for st in streams])
    u = d.subdictionary(s_set) @ x.reshape(len(streams), len(s_set)).T
    norm_u = np.linalg.norm(u, axis=0)
    if not norm_u.all():
        raise ValueError("zero signal has no meaningful residual")
    return (np.linalg.norm(u - basis @ (basis.conj().T @ u), axis=0) / norm_u).tolist()


def equivalence_experiment(d: Dictionary, s_set: AtomSet, t_set: AtomSet,
                           trials: int, seed: int,
                           ceiling: float = RESIDUAL_CEILING,
                           floor: float = RESIDUAL_FLOOR) -> ExperimentReport:
    """Check the rank-condition dichotomy on repeated generic draws.

    Soundness: rank condition true means every residual stays above the
    floor.  Completeness: range containment (rank(Phi_R) = rank(Phi_T))
    means every residual stays at or below the ceiling.  Trial i draws
    from the stream [seed, i].
    """
    holds, report = rank_condition(d, s_set, t_set)
    basis, _ = _range_basis(d.subdictionary(t_set))
    rank_t = basis.shape[1]
    containment = report.exact_rank == rank_t
    residuals = _trial_residuals(d, s_set, basis, [[seed, i] for i in range(trials)])
    rows = [{"trial": i, "residual": res, "verdict": classify_residual(res, ceiling, floor).value}
            for i, res in enumerate(residuals)]
    verdicts = [r["verdict"] for r in rows]
    sound = (not holds) or all(v == Verdict.NOT_REPRESENTABLE.value for v in verdicts)
    complete = (not containment) or all(v == Verdict.REPRESENTABLE.value for v in verdicts)
    rep = ExperimentReport(
        kind="equivalence",
        params={"s_set": list(s_set.indices), "t_set": list(t_set.indices),
                "trials": trials, "ceiling": ceiling, "floor": floor,
                "dictionary": d.provenance},
        master_seed=seed,
        columns=("trial", "residual", "verdict"),
        trials=rows,
    )
    rep.summary = {
        "rank_condition_holds": holds,
        "rank_union": report.exact_rank,
        "rank_t": rank_t,
        "range_containment": containment,
        "sound": sound,
        "complete": complete,
        "consistent": sound and complete,
        "n_inconclusive": verdicts.count(Verdict.INCONCLUSIVE.value),
    }
    return rep


def gap_experiment(d: Dictionary, s: int, t: int, delta: int, pairs: int,
                   trials_per_pair: int, seed: int,
                   ceiling: float = RESIDUAL_CEILING,
                   floor: float = RESIDUAL_FLOOR) -> ExperimentReport:
    """Sample (S, T) pairs with exact overlap and tally verdicts.

    A violation is a pair where the overlap condition predicts
    non-representability yet some generic trial comes out REPRESENTABLE.
    Pair p samples S and T from the stream [seed, p] (RedrawCapExceededError
    past the redraw cap); its trial i draws from [seed, p, i].
    """
    if not (0 <= delta <= min(s, t)) or s < 1:
        raise ValueError("need s >= 1 and 0 <= delta <= min(s, t)")
    if s + t - delta > d.n_atoms:
        raise ValueError("s + t - delta exceeds the number of atoms")
    decision = overlap_condition(s, t, delta, d.coherence) if t >= 1 else None
    predicted_blocked = bool(decision.holds) if decision else False
    rows = []
    rank_condition_failures = t_redraws_total = 0
    for p in range(pairs if t and trials_per_pair else 0):
        rng = np.random.default_rng([seed, p])
        s_set = _sample_support(d, s, rng)
        t_set, basis, redraws = _sample_overlapping(d, s_set, t, delta, rng)
        holds, _ = rank_condition(d, s_set, t_set)
        rank_condition_failures += not holds
        t_redraws_total += redraws
        residuals = _trial_residuals(d, s_set, basis, [[seed, p, i] for i in range(trials_per_pair)])
        rows += [{
            "pair": p,
            "trial": i,
            "residual": res,
            "verdict": classify_residual(res, ceiling, floor).value,
            "rank_condition": holds,
            "predicted_blocked": predicted_blocked,
            "t_redraws": redraws,
        } for i, res in enumerate(residuals)]

    violations = sum(1 for r in rows
                     if r["predicted_blocked"] and r["verdict"] == Verdict.REPRESENTABLE.value)
    inconclusive = sum(1 for r in rows if r["verdict"] == Verdict.INCONCLUSIVE.value)
    rep = ExperimentReport(
        kind="gap",
        params={"s": s, "t": t, "delta": delta, "pairs": pairs,
                "trials_per_pair": trials_per_pair, "ceiling": ceiling, "floor": floor,
                "mu": d.coherence, "dictionary": d.provenance},
        master_seed=seed,
        columns=("pair", "trial", "residual", "verdict", "rank_condition",
                 "predicted_blocked", "t_redraws"),
        trials=rows,
    )
    rep.summary = {
        "overlap_rhs": decision.rhs if decision else None,
        "overlap_vacuous": decision.vacuous if decision else None,
        "predicted_blocked": predicted_blocked,
        "violations": violations,
        "n_inconclusive": inconclusive,
        "n_trials": len(rows),
        "rank_condition_failures": rank_condition_failures,
        "t_redraws_total": t_redraws_total,
    }
    return rep
