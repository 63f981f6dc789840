"""Acceptance suite: one test per criterion, printing a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3 asserts the stated boundary values verbatim.
"""

import json
import math
import time

import numpy as np
import pytest

from sparsegap.cli import main as cli_main
from sparsegap.dictionary import (
    AtomSet,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
)
from sparsegap.random_subsets import statistics_sweep
from sparsegap.rank_bounds import (
    SingularBlockError,
    numerical_rank,
    rank_decompose_projected,
    rank_lb_coherence,
    rank_lb_frobenius_spectral,
    rank_lb_norm_ratio,
    rank_lb_trace_frobenius,
    rank_lb_weak,
    verify_schur_rank_identity,
)
from sparsegap.signals import (
    Verdict,
    classify_residual,
    draw_generic_signal,
    gap_experiment,
    make_signal,
    rank_condition,
    residual_over,
)
from sparsegap.thresholds import (
    donoho_elad_threshold,
    generic_up_threshold,
    overlap_condition,
    strong_gap_threshold,
)

TOL = 1e-9


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"[ACCEPTANCE {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def tight_32_128():
    return build_random_tight_frame(32, 128, seed=101)


@pytest.fixture(scope="module")
def tight_64_256():
    return build_random_tight_frame(64, 256, seed=202)


def test_criterion_01_rank_bound_domination():
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(1000):
        rows = int(rng.integers(2, 33))
        cols = int(rng.integers(2, 65))
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        rank = numerical_rank(a)
        gram = a.conj().T @ a
        if rank_lb_trace_frobenius(gram) > rank + TOL:
            violations += 1
        if rank_lb_frobenius_spectral(a) > rank + TOL:
            violations += 1
        for p, q in [(1, 2), (1, math.inf), (2, math.inf)]:
            if rank_lb_norm_ratio(a, p, q) > rank + TOL:
                violations += 1
    d = build_random_unit_norm(16, 48, seed=12)
    for _ in range(1000):
        r = int(rng.integers(1, 17))
        idx = AtomSet.of(sorted(int(i) for i in rng.choice(48, r, replace=False)))
        sub = d.subdictionary(idx)
        if rank_lb_coherence(r, d.coherence) > numerical_rank(sub) + TOL:
            violations += 1
        s = max(1, r // 2)
        s_set = AtomSet.of(idx.indices[:s])
        v_set = AtomSet.of(idx.indices[s:])
        if numerical_rank(d.subdictionary(s_set)) < s:
            continue
        dec = rank_decompose_projected(d, s_set, v_set)
        bound = rank_lb_weak(d, s_set, v_set)
        if bound > dec.projected_rank + TOL:
            violations += 1
        if s + bound > dec.rank_union + TOL:
            violations += 1
    elapsed = time.perf_counter() - start
    report(1, violations == 0 and elapsed < 60,
           f"violations={violations} elapsed={elapsed:.1f}s")


def test_criterion_02_schur_identities():
    rng = np.random.default_rng(21)
    schur_fail = schur_checked = 0
    for _ in range(1000):
        rows = int(rng.integers(2, 10))
        cols = int(rng.integers(2, 10))
        g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        x = g.conj().T @ g
        k = int(rng.integers(1, cols))
        try:
            res = verify_schur_rank_identity(x, k)
        except SingularBlockError:
            continue
        schur_checked += 1
        schur_fail += not res.holds
    d = build_random_unit_norm(12, 36, seed=22)
    lemma_fail = lemma_checked = 0
    for _ in range(1000):
        s = int(rng.integers(1, 11))
        v = int(rng.integers(0, 13))
        idx = rng.choice(36, size=s + v, replace=False)
        s_set = AtomSet.of(sorted(int(i) for i in idx[:s]))
        v_set = AtomSet.of(sorted(int(i) for i in idx[s:]))
        if numerical_rank(d.subdictionary(s_set)) < s:
            continue
        lemma_checked += 1
        lemma_fail += not rank_decompose_projected(d, s_set, v_set).holds
    report(2, schur_fail == 0 and lemma_fail == 0,
           f"schur {schur_fail}/{schur_checked} fail, "
           f"decomposition {lemma_fail}/{lemma_checked} fail")


def test_criterion_03_dirac_comb_boundary():
    d = build_spikes_sines(16)
    spikes = AtomSet.of([0, 4, 8, 12])
    sines = AtomSet.of([16, 20, 24, 28])
    union_rank = numerical_rank(d.subdictionary(spikes.union(sines)))
    comb = make_signal(d, spikes, [1, 1, 1, 1])
    residual = residual_over(d, sines, comb.signal)
    uncertainty_ok = len(spikes) + len(sines) > donoho_elad_threshold(d.coherence)
    ok = union_rank == 4 and residual <= 1e-10 and uncertainty_ok
    report(3, ok,
           f"rank(Phi_SuT)={union_rank} (stated 4), comb residual={residual:.2e}, "
           f"|S|+|T|=8 > 1/mu=4: {uncertainty_ok}")


def test_criterion_04_strong_gap_soundness(tight_32_128):
    start = time.perf_counter()
    d = build_spikes_sines(64)
    rep = gap_experiment(d, s=16, t=16, delta=0, pairs=50, trials_per_pair=20, seed=41)
    verdicts = [r["verdict"] for r in rep.trials]
    ok1 = (rep.summary["predicted_blocked"]
           and verdicts.count("REPRESENTABLE") == 0
           and verdicts.count("INCONCLUSIVE") == 0
           and len(verdicts) == 1000)
    rep2 = gap_experiment(tight_32_128, s=8, t=8, delta=0, pairs=50,
                          trials_per_pair=20, seed=42)
    verdicts2 = [r["verdict"] for r in rep2.trials]
    ok2 = (verdicts2.count("REPRESENTABLE") == 0
           and verdicts2.count("INCONCLUSIVE") == 0
           and len(verdicts2) == 1000)
    elapsed = time.perf_counter() - start
    report(4, ok1 and ok2 and elapsed < 120,
           f"spikes-sines clean={ok1}, tight-frame clean={ok2}, elapsed={elapsed:.1f}s")


def test_criterion_05_overlap_remark():
    ok = True
    details = []
    for m in (36, 64, 144):
        s = m // 3
        rhs = overlap_condition(s, s, 0, m**-0.5).rhs
        ok = ok and rhs >= s / 2 - 1e-9
        details.append(f"m={m}: rhs={rhs:.3f} >= s/2={s / 2}")
    report(5, ok, "; ".join(details))


def test_criterion_06_reduction_chain():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(10_000):
        s = int(rng.integers(1, 200))
        mu = float(rng.uniform(1e-3, 1.0))
        a = generic_up_threshold(s, 0, mu)
        b = strong_gap_threshold(s, mu)
        worst = max(worst, abs(a - b) / b)
        if s == 1:
            worst = max(worst, abs(a - donoho_elad_threshold(mu)) / a)
    for mu in np.linspace(1e-3, 1.0, 100):
        a = generic_up_threshold(1, 0, float(mu))
        worst = max(worst, abs(a - donoho_elad_threshold(float(mu))) / a)
    report(6, worst <= 1e-12, f"worst relative deviation {worst:.2e}")


def test_criterion_07_weak_gap_experiment(tight_32_128):
    d = tight_32_128
    s, seed = 8, 71
    n_pairs, trials = 500, 10
    representable_when_condition = 0
    inconclusive = 0
    condition_failures = 0
    for p in range(n_pairs):
        rng = np.random.default_rng([seed, p])
        s_idx = rng.choice(d.n_atoms, size=s, replace=False)
        s_set = AtomSet.of(sorted(int(i) for i in s_idx))
        if numerical_rank(d.subdictionary(s_set)) < s:
            condition_failures += 1
            continue
        t = (p % 12) + 1  # sweep t through 1..12 = floor(1.5 s)
        comp = np.setdiff1d(np.arange(d.n_atoms), s_idx)
        t_set = AtomSet.of(sorted(int(i) for i in rng.choice(comp, size=t, replace=False)))
        holds, _ = rank_condition(d, s_set, t_set)
        if not holds:
            condition_failures += 1
            continue
        for i in range(trials):
            sig = draw_generic_signal(d, s_set, [seed, p, i])
            verdict = classify_residual(residual_over(d, t_set, sig.signal))
            representable_when_condition += verdict is Verdict.REPRESENTABLE
            inconclusive += verdict is Verdict.INCONCLUSIVE
    fail_fraction = condition_failures / n_pairs
    report(7, representable_when_condition == 0 and inconclusive == 0,
           f"representable={representable_when_condition}, inconclusive={inconclusive}, "
           f"rank-condition failure fraction={fail_fraction:.4f}")


def test_criterion_08_statistics_sweep(tight_64_256):
    cfg = dict(s_values=(4, 8, 16), trials_per_s=200, seed=81)
    rep_a = statistics_sweep(tight_64_256, **cfg)
    rep_b = statistics_sweep(tight_64_256, **cfg)
    deterministic = rep_a.to_json() == rep_b.to_json()
    medians = [rep_a.summary["per_s"][str(s)]["max_cross_correlation"]["median"]
               for s in (4, 8, 16)]
    monotone = medians[0] < medians[1] < medians[2]
    fractions = {s: rep_a.summary["per_s"][str(s)]["gate_violation_fraction"]
                 for s in (4, 8, 16)}
    report(8, deterministic and monotone,
           f"medians={['%.4f' % v for v in medians]}, gate violations={fractions}")


def test_criterion_09_l0_cross_check():
    from itertools import combinations

    d = build_spikes_sines(4)
    n = d.n_atoms
    supports = [AtomSet.of(c) for size in (1, 2) for c in combinations(range(n), size)]
    counterexamples = 0
    assert 1 < (donoho_elad_threshold(d.coherence) + 1) / 2  # |S| = 1 < 1.5
    for trial in range(20):
        s_atom = trial % n
        s_set = AtomSet.of([s_atom])
        sig = draw_generic_signal(d, s_set, [91, trial])
        for t_set in supports:
            res = residual_over(d, t_set, sig.signal)
            if res > 1e-10:
                continue
            # representer: check whether it yields a sparser-or-equal vector
            phi_t = d.subdictionary(t_set)
            coeff = np.linalg.pinv(phi_t) @ sig.signal
            nnz_idx = [t_set.indices[i] for i in range(len(t_set))
                       if abs(coeff[i]) > 1e-8 * np.linalg.norm(coeff)]
            if len(nnz_idx) <= 1 and nnz_idx != [s_atom]:
                counterexamples += 1
    report(9, counterexamples == 0, f"counterexamples={counterexamples}")


def test_criterion_10_determinism(tmp_path, monkeypatch, capsys):
    cfg = {
        "experiment": "gap",
        "dictionary": {"kind": "random-tight", "m": 16, "n_atoms": 48, "seed": 7},
        "seed": 5,
        "s": 4, "t": 4, "delta": 1, "pairs": 4, "trials_per_pair": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    # the same command line (which the manifest records) run twice, from
    # two working directories so that the second run cannot read the first
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        out = tmp_path / name / "report"
        code = cli_main(["experiment", "--config", str(cfg_path), "--out", "report",
                         "--format", "both"])
        assert code == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        payload["manifest"].pop("timestamp")
        outs.append((json.dumps(payload, sort_keys=True),
                     out.with_suffix(".csv").read_bytes()))
    capsys.readouterr()
    identical = outs[0] == outs[1]
    report(10, identical, "byte-identical payloads (timestamp excluded)")
