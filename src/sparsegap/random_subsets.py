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

A sweep reports per s the median and 1 - 1/N quantile of each statistic, how
often the (1/2, sqrt(2)) good-event gates are violated and the smallest weak-gap
constants, mu log N and s log N / m.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .dictionary import GRAM_EIG_FLOOR, AtomSet, Dictionary, coherence_constant, tightness_margin
from .manifest import ExperimentReport

CROSS_GATE = 0.5
PINV_GATE = math.sqrt(2.0)
STATISTICS = ("max_cross_correlation", "gram_deviation", "pinv_norm")


def sample_uniform_subset(n_atoms: int, s: int, seed) -> AtomSet:
    """Uniformly random s-subset of {0, ..., N-1}, deterministic in seed.

    ``seed`` may be a Generator, which is drawn from (and advanced) in place.
    """
    if not (1 <= s <= n_atoms):
        raise ValueError("need 1 <= s <= n_atoms")
    return AtomSet.of(np.random.default_rng(seed).choice(n_atoms, size=s, replace=False))


def _seed_states(words: np.ndarray) -> np.ndarray:
    """(k, 4) uint64: numpy's SeedSequence(row).generate_state(4, np.uint64) for each row of a (k, w) uint32 array.

    numpy's arithmetic (numpy/random/bit_generator.pyx) on all rows at once: mix_entropy hashes the words into a
    4-word pool, the updates one pool word makes to the other three side by side; 8 output words are hashed from it.
    """
    def consts(c, mult, n):  # c * mult^j mod 2^32 for j <= n: the multipliers of n hash calls in turn
        return np.array([c * pow(mult, j, 2**32) % 2**32 for j in range(n + 1)], dtype=np.uint32)

    def hashmix(v, c):  # one hash call per column, v broadcast against the len(c) - 1 calls of multipliers c
        v = (v ^ c[:-1]) * c[1:]
        return v ^ v >> 16

    def mix(x, y):
        r = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)
        return r ^ r >> 16

    entropy = np.hstack([words, np.zeros((len(words), 4 - min(words.shape[1], 4)), dtype=np.uint32)])  # numpy's fill
    a = consts(0x43B0D7E5, 0x931E8875, 4 * len(entropy.T))
    pool = hashmix(entropy[:, :4], a[:5])
    for src, dst in enumerate([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]):
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, None], a[4 + 3 * src:8 + 3 * src]))
    for i in range(4, len(entropy.T)):
        pool = mix(pool, hashmix(entropy[:, i, None], a[4 * i:4 * i + 5]))
    return hashmix(np.tile(pool, 2), consts(0x8B51F9DD, 0x58F38DED, 8)).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _generator_from_state():
    """Generator(PCG64(...)) from a _seed_states row.  Made on first call: importing numpy.random takes ms."""
    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):  # PCG64 asks for (4, np.uint64)
            return self.state

    return lambda state: np.random.Generator(np.random.PCG64(SeedState(state)))


def rng_streams(prefix, *counts: int):
    """default_rng([*prefix, *i]) for each index tuple i < counts, row-major, lazily; ValueError at once on a
    negative key or a count outside [0, 2^32].

    The streams are bit for bit those, seeded in one pass: each row of uint32 words default_rng would make of its
    list (each key little-endian, 0 as one word) takes numpy's SeedSequence hash in _seed_states, all rows at once.
    Their bit_generator.seed_seq is no SeedSequence, so they neither spawn nor pickle; nothing here does either.
    """
    keys = list(map(operator.index, prefix))
    if min(keys, default=0) < 0 or not all(0 <= c <= 2**32 for c in counts):
        raise ValueError(f"stream keys must be nonnegative, counts in [0, 2^32]: {keys}, {counts}")
    head = [k >> b & 0xFFFFFFFF for k in keys for b in range(0, max(k.bit_length(), 1), 32)]
    words = np.empty((math.prod(counts), len(head) + len(counts)), dtype=np.uint32)
    words[:, :len(head)], words[:, len(head):] = head, np.indices(counts).reshape(len(counts), len(words)).T
    return map(_generator_from_state(), _seed_states(words))


def _quantiles(samples, levels) -> list[float]:
    """np.quantile's linear values of samples without NaN, except where an infinite neighbour makes one NaN
    (inf * 0 or inf - inf): there the lower order statistic if it has all the weight ((n - 1) q is whole), else inf."""
    with np.errstate(invalid="ignore"):
        values = np.quantile(samples, levels).tolist()
    ranked = sorted(samples)
    return [v if not math.isnan(v) else ranked[int(h)] if h == int(h) else math.inf
            for v, h in zip(values, ((len(ranked) - 1) * q for q in levels))]


def subset_statistics(d: Dictionary, s_set: AtomSet) -> dict[str, float]:
    """The STATISTICS of S, by name, from the cached Gram matrix of ``d``."""
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
    return dict(zip(STATISTICS, (max_cross, gram_dev, pinv_norm)))


def statistics_sweep(d: Dictionary, s_values, trials_per_s: int, seed: int = 0) -> ExperimentReport:
    """Per-s median and 1 - 1/N quantile of the subset statistics, and gate-violation fractions.

    mu log N and, per s, s log N / m are the smallest c that pass the weak gap's mu <= c / log N and s <= c m / log N.
    ValueError before any work on a repeated s or an s not in [1, N].
    """
    if seed < 0:
        raise ValueError(f"seed must not be negative: {seed}")
    if trials_per_s < 1:
        raise ValueError("trials_per_s must be positive")
    if len(set(s_values)) < len(s_values):  # a repeat would reuse its streams and count twice
        raise ValueError(f"s_values must not repeat: {list(s_values)}")
    n = d.n_atoms
    if not all(1 <= s <= n for s in s_values):
        raise ValueError(f"s_values must lie in [1, {n}]: {list(s_values)}")
    levels = {"median": 0.5, "q_1_minus_1_over_n": 1.0 - 1.0 / n}
    rows, per_s = [], {}
    for s in s_values:
        sub = []
        for trial, rng in enumerate(rng_streams([seed, s], trials_per_s)):
            st = subset_statistics(d, sample_uniform_subset(n, s, rng))
            sub.append({"s": s, "trial": trial, **st, "cross_gate_ok": st["max_cross_correlation"] <= CROSS_GATE,
                        "pinv_gate_ok": st["pinv_norm"] <= PINV_GATE})
        per_s[str(s)] = {k: dict(zip(levels, _quantiles([r[k] for r in sub], list(levels.values()))))
                         for k in STATISTICS}
        per_s[str(s)]["gate_violation_fraction"] = float(
            np.mean([not (r["cross_gate_ok"] and r["pinv_gate_ok"]) for r in sub]))
        per_s[str(s)]["sparsity_constant"] = s * math.log(n) / d.m
        rows += sub
    return ExperimentReport(
        kind="stats-sweep",
        params={"s_values": list(s_values), "trials_per_s": trials_per_s, "dictionary": d.provenance},
        master_seed=seed,
        columns=("s", "trial", *STATISTICS, "cross_gate_ok", "pinv_gate_ok"),
        trials=rows,
        summary={
            "per_s": per_s,
            "tightness_margin": tightness_margin(d),
            "coherence_constant": coherence_constant(d),
            "cross_gate": CROSS_GATE,
            "pinv_gate": PINV_GATE,
        },
    )

