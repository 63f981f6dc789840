"""Generic signals and Monte Carlo representability experiments.

A generic signal is u = Phi_S x with x drawn i.i.d. standard complex Gaussian.  Whether u can be expressed
over an alternative atom set T is decided through the relative least-squares residual of u against range(Phi_T),
with a two-threshold verdict policy: at or below the ceiling representable, above the floor not representable,
in between inconclusive.  Experiments return a ``manifest.ExperimentReport``; both decide pairs (S, T) with
``_pair_range``.  ``gap`` samples and decides its pairs PAIR_CHUNK at a time: a round's Gram blocks share one
``dictionary.certify_gram_floor`` (a Cholesky of G - GRAM_EIG_FLOOR * I) and the certified ones one Cholesky of G,
so a certified pair costs 3 Cholesky factors of its own blocks; blocks below the floor take SVDs one by one.  The
SVD functions here are reference code for the tests.  Chunks change no stream: pair p samples from [seed, p] and
its trial i from [seed, p, i] (``random_subsets.rng_streams``); a trial's x takes one standard_normal call.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .dictionary import AtomSet, Dictionary, certify_gram_floor
from .manifest import ExperimentReport
from .random_subsets import rng_streams, sample_uniform_subset
from .rank_bounds import DependentSetError, numerical_rank, range_basis
from .thresholds import overlap_condition

RESIDUAL_CEILING = 1e-10
RESIDUAL_FLOOR = 1e-6
CONDITION_CAP = 1e6
INDEPENDENCE_REDRAW_CAP = 100
PAIR_CHUNK = 32  # gap pairs whose Gram blocks share one stacked Cholesky per stage; bounds the stacks' memory


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
    rank_condition_holds: bool
    residual: float
    verdict: Verdict


class RedrawCapExceededError(RuntimeError):
    """A sampler found no acceptable atom set within INDEPENDENCE_REDRAW_CAP draws."""


def _complex_gaussian(z: np.ndarray) -> np.ndarray:
    """x from normals z of shape (..., 2s): real parts first, then imaginary parts, as two calls of s would give."""
    s = z.shape[-1] // 2
    return (z[..., :s] + 1j * z[..., s:]) / math.sqrt(2)


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
    coeff = _complex_gaussian(np.random.default_rng(seed).standard_normal(2 * len(support)))
    return GenericSignal(support=support, coefficients=coeff, signal=phi_s @ coeff)


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


def _redraw_rounds(count: int, step, error: str) -> list:
    """The accepted result per stream j < count.  Round r calls step(js, r), which draws one candidate for each
    open stream j and returns a result for it, None to redraw; RedrawCapExceededError(error) past the cap."""
    found, open_ = [None] * count, range(count)
    for redraws in range(INDEPENDENCE_REDRAW_CAP):
        for j, res in zip(open_, step(open_, redraws)):
            found[j] = res
        if not (open_ := [j for j in open_ if found[j] is None]):
            return found
    raise RedrawCapExceededError(error)


def _sample_support(d: Dictionary, s: int, rngs: Sequence[np.random.Generator]) -> list[AtomSet]:
    """One linearly independent s-subset per Generator: G[S, S] passes the floor, else numerical_rank(Phi_S) == s."""
    def step(js, _):
        cands = [sample_uniform_subset(d.n_atoms, s, rngs[j]) for j in js]
        return [c if ok or numerical_rank(d.subdictionary(c)) == s else None
                for c, ok in zip(cands, certify_gram_floor(d.gram_blocks([c.indices for c in cands])))]

    return _redraw_rounds(len(rngs), step, f"no linearly independent support of size {s} found in "
                                           f"{INDEPENDENCE_REDRAW_CAP} draws ({d.provenance})")


def _pair_range(d: Dictionary, s_sets: Sequence[AtomSet],
                t_sets: Sequence[AtomSet]) -> Iterator[tuple[np.ndarray, int, int, Optional[np.ndarray]]]:
    """Per pair (all of one |S u T| and |T|): W with ||W x|| = ||(I - P_T) Phi_S x||, rank(Phi_R) for R = S u T,
    rank(Phi_T) and Phi_T's singular values.  Each G[R, R] is gathered in the order (T, X), X = S minus T, into one
    stack for one certify_gram_floor; the certified blocks take one Cholesky of G (the stack itself if all pass),
    whose trailing block has L22 L22* = G_XX - G_XT G_TT^-1 G_TX.  There W is L22* on X's entries of x (no rows if S
    is in T), the ranks are |R| and |T|, the values None (cond(Phi_T) <= sqrt(|T| / floor) by interlacing).  Else
    W = Phi_S - Q (Q* Phi_S), Q the range_basis of Phi_T, and numerical_rank.
    """
    x_pos = [[k for k, i in enumerate(s.indices) if i not in t.indices] for s, t in zip(s_sets, t_sets)]
    g = d.gram_blocks([t.indices + tuple(s.indices[k] for k in xp) for s, t, xp in zip(s_sets, t_sets, x_pos)])
    passes = certify_gram_floor(g)
    factors = iter(np.linalg.cholesky(g if passes.all() else g[passes]) if passes.any() else ())
    for s_set, t_set, xp, ok in zip(s_sets, t_sets, x_pos, passes):
        if ok:
            w = np.zeros((len(xp), len(s_set)), dtype=np.complex128)
            w[:, xp] = next(factors)[len(t_set):, len(t_set):].conj().T
            yield w, len(t_set) + len(xp), len(t_set), None
            continue
        phi_s, (q, sv_t) = d.subdictionary(s_set), range_basis(d.subdictionary(t_set))
        yield phi_s - q @ (q.conj().T @ phi_s), numerical_rank(d.subdictionary(s_set.union(t_set))), q.shape[1], sv_t


def _sample_overlapping(d: Dictionary, s_sets: Sequence[AtomSet], t: int, delta: int,
                        rngs: Sequence[np.random.Generator]) -> list[tuple[AtomSet, np.ndarray, int, int]]:
    """Per S and Generator, T = delta atoms of S plus t - delta of its complement, redrawn while cond(Phi_T) exceeds
    the cap: T, the residual operator W, the redraw count and rank(Phi_{S u T}) from _pair_range."""
    def step(js, redraws):
        cands = [AtomSet.of(np.concatenate([
            rngs[j].choice(s_sets[j].indices, size=delta, replace=False) if delta else np.empty(0, int),
            rngs[j].choice(d.complement(s_sets[j]), size=t - delta, replace=False) if t - delta else np.empty(0, int),
        ])) for j in js]
        ranges = _pair_range(d, [s_sets[j] for j in js], cands)
        return [(t_set, w, redraws, rank_union) if sv_t is None or sv_t[-1] > 0 and sv_t[0] / sv_t[-1] <= CONDITION_CAP
                else None for t_set, (w, rank_union, _, sv_t) in zip(cands, ranges)]

    return _redraw_rounds(len(rngs), step, f"no T of size {t} with cond(Phi_T) <= {CONDITION_CAP:g} found in "
                                           f"{INDEPENDENCE_REDRAW_CAP} draws ({d.provenance})")


def _trial_residuals(d: Dictionary, s_set: AtomSet, w: np.ndarray, streams) -> list[float]:
    """||W x|| / ||Phi_S x|| with W from _pair_range and x drawn from each Generator as draw_generic_signal does.

    residual_over up to rounding (0.0 if W has no rows); S must already be known to be independent.
    """
    z = np.array([rng.standard_normal(2 * len(s_set)) for rng in streams]).reshape(-1, 2 * len(s_set))
    x = _complex_gaussian(z).T  # column i from stream i
    norm_u = np.linalg.norm(d.subdictionary(s_set) @ x, axis=0)
    if not norm_u.all():
        raise ValueError("zero signal has no meaningful residual")
    return (np.linalg.norm(w @ x, axis=0) / norm_u).tolist()


def equivalence_experiment(d: Dictionary, s_set: Iterable[int], t_set: Iterable[int],
                           trials: int, seed: int) -> ExperimentReport:
    """Check the rank-condition dichotomy on repeated generic draws.

    Soundness: rank condition true means every residual stays above the
    floor.  Completeness: range containment (rank(Phi_R) = rank(Phi_T))
    means every residual stays at or below the ceiling.  Trial i draws
    from the stream [seed, i].
    """
    s_set, t_set = AtomSet.of(s_set), AtomSet.of(t_set)
    if max(s_set.indices + t_set.indices, default=-1) >= d.n_atoms:
        raise ValueError(f"atom indices must be below the {d.n_atoms} atoms of the dictionary")
    (w, rank_union, rank_t, sv_t), = _pair_range(d, [s_set], [t_set])
    if sv_t is not None or not len(s_set):  # no Gram block certified S, or S is empty
        _independent_subdictionary(d, s_set)
    holds = len(t_set) < rank_union
    containment = rank_union == rank_t
    residuals = _trial_residuals(d, s_set, w, rng_streams([seed], trials))
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
        failed=not (sound and complete) or Verdict.INCONCLUSIVE.value in verdicts,
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
    n_pairs = pairs if t and trials_per_pair else 0
    streams = rng_streams([seed], n_pairs)
    for first in range(0, n_pairs, PAIR_CHUNK):
        rngs = list(itertools.islice(streams, PAIR_CHUNK))
        s_sets = _sample_support(d, s, rngs)
        picks = _sample_overlapping(d, s_sets, t, delta, rngs)  # rank_condition, S already certified
        for p, (s_set, (_, w, redraws, rank_union)) in enumerate(zip(s_sets, picks), first):
            holds = t < rank_union
            rank_condition_failures += not holds
            t_redraws_total += redraws
            residuals = _trial_residuals(d, s_set, w, rng_streams([seed, p], trials_per_pair))
            rows += [{
                "pair": p,
                "trial": i,
                "residual": res,
                "verdict": classify_residual(res).value,
                "rank_condition": holds,
                "predicted_blocked": predicted_blocked,
                "t_redraws": redraws,
            } for i, res in enumerate(residuals)]

    violations = sum(r["verdict"] == Verdict.REPRESENTABLE.value for r in rows) if predicted_blocked else 0
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
        failed=violations > 0 or inconclusive > 0,
    )
