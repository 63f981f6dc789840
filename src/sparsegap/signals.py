"""Generic signals and Monte Carlo representability experiments.

A generic signal is u = Phi_S x with x drawn i.i.d. standard complex
Gaussian.  Whether u can be expressed over an alternative atom set T is
decided numerically through the relative least-squares residual of u
against range(Phi_T), with a two-threshold verdict policy: residuals at
or below the ceiling count as representable, residuals above the floor
as not representable, anything in between as inconclusive.  Experiments
return a ``manifest.ExperimentReport``; both decide a pair (S, T) with ``_pair_range``:
a QR factor of Phi_T once Gram-block eigenvalues certify S u T, SVDs below
``dictionary.GRAM_EIG_FLOOR``.  The SVD functions here are reference code for the tests.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dictionary import AtomSet, Dictionary
from .manifest import ExperimentReport
from .random_subsets import sample_uniform_subset
from .rank_bounds import DependentSetError, numerical_rank, range_basis
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


@dataclass(frozen=True)
class RepresentabilityVerdict:
    rank_condition_holds: Optional[bool]
    residual: float
    verdict: Verdict


class RedrawCapExceededError(RuntimeError):
    """A sampler found no acceptable atom set within INDEPENDENCE_REDRAW_CAP draws."""


def _complex_gaussian(rng: np.random.Generator, size: int) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2)


def make_signal(d: Dictionary, support: AtomSet, coefficients: Sequence[complex]) -> GenericSignal:
    """Assemble a signal from explicit coefficients (not necessarily generic)."""
    coeff = np.asarray(coefficients, dtype=np.complex128)
    if coeff.shape != (len(support),):
        raise ValueError("coefficient length must match the support size")
    return GenericSignal(
        support=support,
        coefficients=coeff,
        signal=d.subdictionary(support) @ coeff,
    )


def _independent_subdictionary(d: Dictionary, s_set: AtomSet) -> np.ndarray:
    """Phi_S; DependentSetError unless S is nonempty and linearly independent."""
    phi_s = d.subdictionary(s_set)
    if len(s_set) == 0 or numerical_rank(phi_s) < len(s_set):
        raise DependentSetError("S must be a nonempty linearly independent set")
    return phi_s


def draw_generic_signal(d: Dictionary, support: AtomSet, seed) -> GenericSignal:
    """u = Phi_S x with x i.i.d. standard complex Gaussian, deterministic in seed."""
    phi_s = _independent_subdictionary(d, support)
    rng = np.random.default_rng(seed)
    coeff = _complex_gaussian(rng, len(support))
    return GenericSignal(support=support, coefficients=coeff,
                         signal=phi_s @ coeff)


def rank_condition(d: Dictionary, s_set: AtomSet, t_set: AtomSet) -> tuple[bool, int]:
    """|T| < rank(Phi_{S u T}), with that rank (numerical_rank of the union)."""
    _independent_subdictionary(d, s_set)
    rank_union = numerical_rank(d.subdictionary(s_set.union(t_set)))
    return len(t_set) < rank_union, rank_union


def residual_over(d: Dictionary, t_set: AtomSet, u: np.ndarray) -> float:
    """Relative misfit ||u - Q (Q* u)|| / ||u|| with Q the range_basis of Phi_T."""
    norm_u = float(np.linalg.norm(u))
    if norm_u == 0.0:
        raise ValueError("zero signal has no meaningful residual")
    basis, _ = range_basis(d.subdictionary(t_set))
    return float(np.linalg.norm(u - basis @ (basis.conj().T @ u))) / norm_u


def classify_residual(residual: float) -> Verdict:
    if residual <= RESIDUAL_CEILING:
        return Verdict.REPRESENTABLE
    if residual > RESIDUAL_FLOOR:
        return Verdict.NOT_REPRESENTABLE
    return Verdict.INCONCLUSIVE


def test_representability(d: Dictionary, t_set: AtomSet,
                          signal: GenericSignal) -> RepresentabilityVerdict:
    """Two-threshold verdict on whether the signal lies in range(Phi_T)."""
    if len(t_set) == 0:
        raise ValueError("T must be nonempty")
    res = residual_over(d, t_set, signal.signal)
    holds, _ = rank_condition(d, signal.support, t_set)
    return RepresentabilityVerdict(rank_condition_holds=holds, residual=res,
                                   verdict=classify_residual(res))


test_representability.__test__ = False  # not a pytest case despite the name


def _sample_support(d: Dictionary, s: int, rng: np.random.Generator) -> AtomSet:
    for _ in range(INDEPENDENCE_REDRAW_CAP):
        cand = sample_uniform_subset(d.n_atoms, s, rng)
        if d.gram_eigvalsh(cand)[1] or numerical_rank(d.subdictionary(cand)) == s:
            return cand
    raise RedrawCapExceededError(
        f"no linearly independent support of size {s} found in "
        f"{INDEPENDENCE_REDRAW_CAP} draws ({d.provenance})"
    )


def _pair_range(d: Dictionary, s_set: AtomSet,
                t_set: AtomSet) -> tuple[np.ndarray, int, Optional[np.ndarray]]:
    """An orthonormal basis of range(Phi_T), rank(Phi_R) for R = S u T, and Phi_T's singular values.

    A G[R, R] above the floor gives a QR basis and rank |R| without an SVD (and None for the
    values: cond(Phi_T) <= sqrt(|T| / floor) by interlacing); else range_basis and numerical_rank.
    """
    union = s_set.union(t_set)
    phi_t = d.subdictionary(t_set)
    if d.gram_eigvalsh(union)[1]:
        return np.linalg.qr(phi_t)[0], len(union), None
    basis, sv_t = range_basis(phi_t)
    return basis, numerical_rank(d.subdictionary(union)), sv_t


def _sample_overlapping(d: Dictionary, s_set: AtomSet, t: int, delta: int,
                        rng: np.random.Generator) -> tuple[AtomSet, np.ndarray, int, int]:
    """T = delta atoms of S plus t - delta atoms of the complement.

    Redraws T while cond(Phi_T) exceeds the cap; returns T, the basis of
    range(Phi_T), the redraw count and rank(Phi_{S u T}) from _pair_range.
    """
    comp = d.complement(s_set)
    for redraws in range(INDEPENDENCE_REDRAW_CAP):
        inside = rng.choice(s_set.indices, size=delta, replace=False) if delta else np.empty(0, int)
        outside = rng.choice(comp, size=t - delta, replace=False) if t - delta else np.empty(0, int)
        t_set = AtomSet.of(np.concatenate([inside, outside]))
        basis, rank_union, sv_t = _pair_range(d, s_set, t_set)
        if sv_t is None or (sv_t[-1] > 0 and sv_t[0] / sv_t[-1] <= CONDITION_CAP):
            return t_set, basis, redraws, rank_union
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
                           trials: int, seed: int) -> ExperimentReport:
    """Check the rank-condition dichotomy on repeated generic draws.

    Soundness: rank condition true means every residual stays above the
    floor.  Completeness: range containment (rank(Phi_R) = rank(Phi_T))
    means every residual stays at or below the ceiling.  Trial i draws
    from the stream [seed, i].
    """
    basis, rank_union, sv_t = _pair_range(d, s_set, t_set)
    if sv_t is not None or not len(s_set):  # no Gram block certified S, or S is empty
        _independent_subdictionary(d, s_set)
    holds, rank_t = len(t_set) < rank_union, basis.shape[1]
    containment = rank_union == rank_t
    residuals = _trial_residuals(d, s_set, basis, [[seed, i] for i in range(trials)])
    rows = [{"trial": i, "residual": res, "verdict": classify_residual(res).value}
            for i, res in enumerate(residuals)]
    verdicts = [r["verdict"] for r in rows]
    sound = (not holds) or all(v == Verdict.NOT_REPRESENTABLE.value for v in verdicts)
    complete = (not containment) or all(v == Verdict.REPRESENTABLE.value for v in verdicts)
    return ExperimentReport(
        kind="equivalence",
        params={"s_set": list(s_set.indices), "t_set": list(t_set.indices),
                "trials": trials, "ceiling": RESIDUAL_CEILING, "floor": RESIDUAL_FLOOR,
                "dictionary": d.provenance},
        master_seed=seed,
        columns=("trial", "residual", "verdict"),
        trials=rows,
        summary={
            "rank_condition_holds": holds,
            "rank_union": rank_union,
            "rank_t": rank_t,
            "range_containment": containment,
            "sound": sound,
            "complete": complete,
            "consistent": sound and complete,
            "n_inconclusive": verdicts.count(Verdict.INCONCLUSIVE.value),
        },
    )


def gap_experiment(d: Dictionary, s: int, t: int, delta: int, pairs: int,
                   trials_per_pair: int, seed: int) -> ExperimentReport:
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
    if s > d.m:
        raise ValueError(f"s = {s} exceeds m = {d.m}: no {s} atoms are linearly independent")
    decision = overlap_condition(s, t, delta, d.coherence) if t >= 1 else None
    predicted_blocked = bool(decision.holds) if decision else False
    rows = []
    rank_condition_failures = t_redraws_total = 0
    for p in range(pairs if t and trials_per_pair else 0):
        rng = np.random.default_rng([seed, p])
        s_set = _sample_support(d, s, rng)
        # rank_condition without re-certifying S, which _sample_support just did
        t_set, basis, redraws, rank_union = _sample_overlapping(d, s_set, t, delta, rng)
        holds = t < rank_union
        rank_condition_failures += not holds
        t_redraws_total += redraws
        residuals = _trial_residuals(d, s_set, basis, [[seed, p, i] for i in range(trials_per_pair)])
        rows += [{
            "pair": p,
            "trial": i,
            "residual": res,
            "verdict": classify_residual(res).value,
            "rank_condition": holds,
            "predicted_blocked": predicted_blocked,
            "t_redraws": redraws,
        } for i, res in enumerate(residuals)]

    violations = sum(1 for r in rows
                     if r["predicted_blocked"] and r["verdict"] == Verdict.REPRESENTABLE.value)
    inconclusive = sum(1 for r in rows if r["verdict"] == Verdict.INCONCLUSIVE.value)
    return ExperimentReport(
        kind="gap",
        params={"s": s, "t": t, "delta": delta, "pairs": pairs,
                "trials_per_pair": trials_per_pair, "ceiling": RESIDUAL_CEILING, "floor": RESIDUAL_FLOOR,
                "mu": d.coherence, "dictionary": d.provenance},
        master_seed=seed,
        columns=("pair", "trial", "residual", "verdict", "rank_condition",
                 "predicted_blocked", "t_redraws"),
        trials=rows,
        summary={
            "overlap_rhs": decision.rhs if decision else None,
            "overlap_vacuous": decision.vacuous if decision else None,
            "predicted_blocked": predicted_blocked,
            "violations": violations,
            "n_inconclusive": inconclusive,
            "n_trials": len(rows),
            "rank_condition_failures": rank_condition_failures,
            "t_redraws_total": t_redraws_total,
        },
    )
