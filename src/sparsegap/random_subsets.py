"""Statistics of uniformly random atom subsets.

Measures, per sampled subset S: the worst cross-correlation
max_{v not in S} ||Phi_S* phi_v||, the Gram deviation ||Phi_S* Phi_S - I||
(spectral), and the pseudoinverse norm ||Phi_S^+|| = 1/sigma_min(Phi_S).
All three are read off the dictionary's Gram matrix G = Phi* Phi, formed
once per dictionary: the cross term from column sums of |G[S, :]|^2, the
other two from one eigvalsh of the s x s block G[S, S].  The pseudoinverse
norm 1/sqrt(lambda_min) loses relative accuracy as kappa(Phi_S)^2 * eps, so
when lambda_min < dictionary.GRAM_EIG_FLOOR it comes from the SVD of Phi_S instead.
That includes every s > m: G[S, S] is then singular, while sigma_min(Phi_S),
the m-th singular value, is not.

A sweep reports empirical quantiles plus how often the (1/2, sqrt(2))
good-event gates are violated, and the rank experiment compares the
measured rank of a random S u V against the weak-incoherence bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields

import numpy as np

from .dictionary import GRAM_EIG_FLOOR, AtomSet, Dictionary, is_weakly_incoherent, tightness_margin
from .manifest import ExperimentReport
from .rank_bounds import numerical_rank
from .thresholds import HypothesisViolatedError

CROSS_GATE = 0.5
PINV_GATE = math.sqrt(2.0)


def sample_uniform_subset(n_atoms: int, s: int, seed) -> AtomSet:
    """Uniformly random s-subset of {0, ..., N-1}, deterministic in seed.

    ``seed`` may be a Generator, which is drawn from (and advanced) in place.
    """
    if not (1 <= s <= n_atoms):
        raise ValueError("need 1 <= s <= n_atoms")
    return AtomSet.of(np.random.default_rng(seed).choice(n_atoms, size=s, replace=False))


def rng_streams(prefix, count: int):
    """default_rng([*prefix, i]) for i < count <= 2^32, lazily; ValueError at once on a negative key.

    Each stream's SeedSequence gets the uint32 words it would make of that list (each key little-endian,
    0 as one word) and so skips its per-call list coercion: the same streams, cheaper.
    """
    keys = list(map(operator.index, prefix))
    if min(keys, default=0) < 0 or count > 2**32:
        raise ValueError(f"stream keys must be nonnegative, at most 2^32 per prefix: {keys}, {count}")
    head = [k >> b & 0xFFFFFFFF for k in keys for b in range(0, max(k.bit_length(), 1), 32)]
    words = np.empty((max(count, 0), len(head) + 1), dtype=np.uint32)
    words[:, :-1], words[:, -1] = head, np.arange(len(words))
    return map(np.random.default_rng, words)


@dataclass(frozen=True)
class SubsetStatistics:
    max_cross_correlation: float
    gram_deviation: float
    pinv_norm: float

    def passes_gates(self) -> bool:
        return self.max_cross_correlation <= CROSS_GATE and self.pinv_norm <= PINV_GATE


def subset_statistics(d: Dictionary, s_set: AtomSet) -> SubsetStatistics:
    """The three subset statistics from the cached Gram matrix of ``d``."""
    if len(s_set) == 0:
        raise ValueError("S must be nonempty")
    max_cross = math.sqrt(d.max_cross_sq(s_set))
    w = np.linalg.eigvalsh(d.gram_blocks([s_set.indices])[0])  # reported, so the whole spectrum
    gram_dev = float(np.abs(w - 1.0).max())
    if w[0] >= GRAM_EIG_FLOOR:  # never when s > m: G[S, S] is then singular
        pinv_norm = 1.0 / math.sqrt(w[0])
    else:
        sigma_min = float(np.linalg.svd(d.subdictionary(s_set), compute_uv=False)[-1])
        pinv_norm = math.inf if sigma_min == 0.0 else 1.0 / sigma_min
    return SubsetStatistics(max_cross_correlation=max_cross, gram_deviation=gram_dev,
                            pinv_norm=pinv_norm)


def statistics_sweep(d: Dictionary, s_values, trials_per_s: int, seed: int,
                     beta: float = 1.0, c_sparsity: float = 1.0) -> ExperimentReport:
    """Per-s quantiles of the subset statistics and gate-violation fractions.

    The reported quantile level is 1 - N^(-beta); an s is in the regime when s <= c_sparsity * m / log N.
    ValueError, before any work, on a repeated s (it would reuse its streams), an s outside [1, N] or c_sparsity <= 0.
    """
    beta, c_sparsity = float(beta), float(c_sparsity)
    if beta < 1.0:
        raise ValueError("beta must be >= 1")
    if trials_per_s < 1:
        raise ValueError("trials_per_s must be positive")
    if len(set(s_values)) < len(s_values):  # a repeat would reuse its streams and count twice
        raise ValueError(f"s_values must not repeat: {list(s_values)}")
    if not c_sparsity > 0:
        raise ValueError(f"c_sparsity must be positive: {c_sparsity!r}")
    n = d.n_atoms
    if not all(1 <= s <= n for s in s_values):
        raise ValueError(f"s_values must lie in [1, {n}]: {list(s_values)}")
    names = tuple(f.name for f in fields(SubsetStatistics))
    levels = {"median": 0.5, "q_1_minus_1_over_n": 1.0 - 1.0 / n, "q_beta": 1.0 - n ** (-beta)}
    rows, per_s = [], {}
    for s in s_values:
        sub = []
        for trial, rng in enumerate(rng_streams([seed, s], trials_per_s)):
            st = subset_statistics(d, sample_uniform_subset(n, s, rng))
            sub.append({"s": s, "trial": trial, **{k: getattr(st, k) for k in names},
                        "cross_gate_ok": st.max_cross_correlation <= CROSS_GATE,
                        "pinv_gate_ok": st.pinv_norm <= PINV_GATE})
        per_s[str(s)] = {k: dict(zip(levels, map(float, np.quantile([r[k] for r in sub], list(levels.values())))))
                         for k in names}
        per_s[str(s)]["gate_violation_fraction"] = float(
            np.mean([not (r["cross_gate_ok"] and r["pinv_gate_ok"]) for r in sub]))
        rows += sub
    weak = is_weakly_incoherent(d, c_sparsity)
    return ExperimentReport(
        kind="stats-sweep",
        params={"s_values": list(s_values), "trials_per_s": trials_per_s,
                "beta": beta, "c_sparsity": c_sparsity,
                "dictionary": d.provenance},
        master_seed=seed,
        columns=("s", "trial", *names, "cross_gate_ok", "pinv_gate_ok"),
        trials=rows,
        summary={
            "per_s": per_s,
            "in_regime_s_values": [s for s in s_values if s <= c_sparsity * d.m / math.log(n)],
            "weakly_incoherent": weak.passed,
            "cross_gate": CROSS_GATE,
            "pinv_gate": PINV_GATE,
        },
    )


def weak_rank_bound_experiment(d: Dictionary, s: int, v_size: int, trials: int,
                               seed: int) -> ExperimentReport:
    """Measured rank of Phi_{S u V} versus the weak-incoherence lower bounds, on a tight frame (tightness_margin).

    Two candidate bounds are tracked: |S| + 2m|V|/N and |S| + m|V|/(2N)
    (the latter is what the good-event gate values give when plugged into
    the projected-block bound).  Violations are tallied separately for
    trials passing the (1/2, sqrt(2)) gates and for all trials.
    """
    m, n = d.m, d.n_atoms
    if n <= 2 * m:
        raise HypothesisViolatedError("requires N > 2m")
    if tightness_margin(d) < 0:
        raise ValueError("dictionary must be a tight frame")
    if s < 1 or v_size < 0 or s + v_size > n:
        raise ValueError("invalid (s, v_size)")
    bound_stated = s + 2.0 * m * v_size / n
    bound_gate_derived = s + m * v_size / (2.0 * n)
    rows = []
    for trial, rng in enumerate(rng_streams([seed], trials)):
        s_set = sample_uniform_subset(n, s, rng)
        v_set = AtomSet.of(rng.choice(d.complement(s_set), size=v_size, replace=False) if v_size else ())
        st = subset_statistics(d, s_set)
        rank = numerical_rank(d.subdictionary(s_set.union(v_set)))
        rows.append({
            "trial": trial,
            "rank": rank,
            "bound_stated": bound_stated,
            "bound_gate_derived": bound_gate_derived,
            "gated": st.passes_gates(),
            "max_cross_correlation": st.max_cross_correlation,
            "pinv_norm": st.pinv_norm,
            "violates_stated": rank < bound_stated - 1e-9,
            "violates_gate_derived": rank < bound_gate_derived - 1e-9,
        })
    gated = [r for r in rows if r["gated"]]
    return ExperimentReport(
        kind="weak-rank",
        params={"s": s, "v_size": v_size, "trials": trials, "dictionary": d.provenance},
        master_seed=seed,
        columns=("trial", "rank", "bound_stated", "bound_gate_derived", "gated",
                 "max_cross_correlation", "pinv_norm", "violates_stated",
                 "violates_gate_derived"),
        trials=rows,
        summary={
            "bound_stated": bound_stated,
            "bound_gate_derived": bound_gate_derived,
            "n_gated": len(gated),
            "gated_violations_stated": sum(r["violates_stated"] for r in gated),
            "gated_violations_gate_derived": sum(r["violates_gate_derived"] for r in gated),
            "all_violations_stated": sum(r["violates_stated"] for r in rows),
            "all_violations_gate_derived": sum(r["violates_gate_derived"] for r in rows),
        },
        failed=any(r["violates_gate_derived"] for r in gated),
    )
