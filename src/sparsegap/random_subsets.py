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
from dataclasses import dataclass

import numpy as np

from .dictionary import TIGHTNESS_TOL, AtomSet, Dictionary, is_weakly_incoherent
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
    w, trusted = d.gram_eigvalsh(s_set)
    gram_dev = float(np.abs(w - 1.0).max())
    if trusted:  # never when s > m: G[S, S] is then singular
        pinv_norm = 1.0 / math.sqrt(w[0])
    else:
        sigma_min = float(np.linalg.svd(d.subdictionary(s_set), compute_uv=False)[-1])
        pinv_norm = math.inf if sigma_min == 0.0 else 1.0 / sigma_min
    return SubsetStatistics(max_cross_correlation=max_cross, gram_deviation=gram_dev,
                            pinv_norm=pinv_norm)


@dataclass(frozen=True)
class SweepConfig:
    s_values: tuple[int, ...]
    trials_per_s: int
    master_seed: int
    beta: float = 1.0            # reported quantile level is 1 - N^(-beta)
    c_sparsity: float = 1.0      # in-regime cut: s <= c * m / log N

    def __post_init__(self):
        if self.beta < 1.0:
            raise ValueError("beta must be >= 1")
        if self.trials_per_s < 1:
            raise ValueError("trials_per_s must be positive")

    def in_regime(self, m: int, n_atoms: int) -> tuple[int, ...]:
        cut = self.c_sparsity * m / math.log(n_atoms)
        return tuple(s for s in self.s_values if s <= cut)


def statistics_sweep(d: Dictionary, config: SweepConfig) -> ExperimentReport:
    """Per-s quantiles of the subset statistics and gate-violation fractions."""
    n = d.n_atoms
    rows = []
    for s in config.s_values:
        for trial in range(config.trials_per_s):
            s_set = sample_uniform_subset(n, s, [config.master_seed, s, trial])
            st = subset_statistics(d, s_set)
            rows.append({
                "s": s,
                "trial": trial,
                "max_cross_correlation": st.max_cross_correlation,
                "gram_deviation": st.gram_deviation,
                "pinv_norm": st.pinv_norm,
                "cross_gate_ok": st.max_cross_correlation <= CROSS_GATE,
                "pinv_gate_ok": st.pinv_norm <= PINV_GATE,
            })
    q_hi = 1.0 - 1.0 / n
    q_beta = 1.0 - n ** (-config.beta)
    per_s = {}
    for s in config.s_values:
        sub = [r for r in rows if r["s"] == s]
        stats = {}
        for key in ("max_cross_correlation", "gram_deviation", "pinv_norm"):
            vals = np.array([r[key] for r in sub])
            stats[key] = {
                "median": float(np.quantile(vals, 0.5)),
                "q_1_minus_1_over_n": float(np.quantile(vals, q_hi)),
                "q_beta": float(np.quantile(vals, q_beta)),
            }
        stats["gate_violation_fraction"] = float(
            np.mean([not (r["cross_gate_ok"] and r["pinv_gate_ok"]) for r in sub])
        )
        per_s[str(s)] = stats
    weak = is_weakly_incoherent(d, config.c_sparsity)
    return ExperimentReport(
        kind="stats-sweep",
        params={"s_values": list(config.s_values), "trials_per_s": config.trials_per_s,
                "beta": config.beta, "c_sparsity": config.c_sparsity,
                "dictionary": d.provenance},
        master_seed=config.master_seed,
        columns=("s", "trial", "max_cross_correlation", "gram_deviation",
                 "pinv_norm", "cross_gate_ok", "pinv_gate_ok"),
        trials=rows,
        summary={
            "per_s": per_s,
            "in_regime_s_values": list(config.in_regime(d.m, n)),
            "weakly_incoherent": weak.passed,
            "cross_gate": CROSS_GATE,
            "pinv_gate": PINV_GATE,
        },
    )


def weak_rank_bound_experiment(d: Dictionary, s: int, v_size: int, trials: int,
                               seed: int) -> ExperimentReport:
    """Measured rank of Phi_{S u V} versus the weak-incoherence lower bounds.

    Two candidate bounds are tracked: |S| + 2m|V|/N and |S| + m|V|/(2N)
    (the latter is what the good-event gate values give when plugged into
    the projected-block bound).  Violations are tallied separately for
    trials passing the (1/2, sqrt(2)) gates and for all trials.
    """
    m, n = d.m, d.n_atoms
    if n <= 2 * m:
        raise HypothesisViolatedError("requires N > 2m")
    if abs(d.redundancy - n / m) > TIGHTNESS_TOL:
        raise ValueError("dictionary must be a tight frame")
    if s < 1 or v_size < 0 or s + v_size > n:
        raise ValueError("invalid (s, v_size)")
    bound_stated = s + 2.0 * m * v_size / n
    bound_gate_derived = s + m * v_size / (2.0 * n)
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        s_set = sample_uniform_subset(n, s, rng)
        v_idx = rng.choice(d.complement(s_set), size=v_size, replace=False) if v_size else ()
        v_set = AtomSet.of(v_idx)
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
    )
