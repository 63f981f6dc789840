import json
import math

import numpy as np
import pytest

from sparsegap.dictionary import (
    GRAM_EIG_FLOOR,
    AtomSet,
    Dictionary,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
    certify_gram_floor,
)
from sparsegap import signals
from sparsegap.rank_bounds import DependentSetError, numerical_rank
from sparsegap.signals import (
    INDEPENDENCE_REDRAW_CAP,
    RedrawCapExceededError,
    Verdict,
    _sample_overlapping,
    _sample_support,
    classify_residual,
    draw_generic_signal,
    equivalence_experiment,
    gap_experiment,
    make_signal,
    rank_condition,
    residual_over,
    test_representability,
)


class TestDrawGenericSignal:
    def test_deterministic(self):
        d = build_spikes_sines(8)
        s_set = AtomSet.of([0, 3, 9])
        a = draw_generic_signal(d, s_set, seed=42)
        b = draw_generic_signal(d, s_set, seed=42)
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.coefficients, b.coefficients)

    def test_coefficients_are_two_normal_draws(self):
        # real parts, then imaginary parts: what two standard_normal(s) calls give
        d = build_spikes_sines(8)
        sig = draw_generic_signal(d, AtomSet.of([0, 3, 9]), seed=[42, 2**40])
        rng = np.random.default_rng([42, 2**40])
        re, im = rng.standard_normal(3), rng.standard_normal(3)
        assert np.array_equal(sig.coefficients, (re + 1j * im) / math.sqrt(2))

    def test_single_spike_is_scaled_basis_vector(self):
        d = build_spikes_sines(4)
        sig = draw_generic_signal(d, AtomSet.of([2]), seed=0)
        expected = np.zeros(4, dtype=complex)
        expected[2] = sig.coefficients[0]
        assert np.allclose(sig.signal, expected)

    def test_coefficient_mean_near_zero(self):
        d = build_spikes_sines(4)
        draws = np.array([
            draw_generic_signal(d, AtomSet.of([0]), seed=i).coefficients[0]
            for i in range(10_000)
        ])
        # complex standard normal: SE of the mean is 1/sqrt(n) per part
        se = 1 / np.sqrt(len(draws) * 2)
        assert abs(draws.real.mean()) < 5 * se
        assert abs(draws.imag.mean()) < 5 * se

    def test_rejects_dependent_support(self):
        d = build_spikes_sines(4)
        with pytest.raises(DependentSetError):
            draw_generic_signal(d, AtomSet.of([0, 1, 2, 3, 4]), seed=0)


class TestRankCondition:
    def test_t_equals_s_fails(self):
        d = build_spikes_sines(8)
        s_set = AtomSet.of([0, 1, 2])
        holds, rank = rank_condition(d, s_set, s_set)
        assert not holds and rank == 3

    def test_disjoint_orthonormal_holds(self):
        d = build_spikes_sines(8)
        holds, rank = rank_condition(d, AtomSet.of([0, 1]), AtomSet.of([2, 3]))
        assert holds and rank == 4

    def test_dirac_comb_union_rank(self):
        # comb spikes vs comb sines: the two 4-dim spans meet only on the
        # comb line, so the union has rank 7 and the condition holds even
        # though the comb itself lives in both ranges
        d = build_spikes_sines(16)
        spikes = AtomSet.of([0, 4, 8, 12])
        sines = AtomSet.of([16, 20, 24, 28])
        holds, rank = rank_condition(d, spikes, sines)
        assert rank == 7
        assert holds

    def test_factorisations(self, linalg_calls):
        d = build_spikes_sines(8)
        sig = draw_generic_signal(d, AtomSet.of([0, 9]), seed=4)
        linalg_calls.clear()
        assert rank_condition(d, AtomSet.of([0, 9]), AtomSet.of([1, 2, 10])) == (True, 5)
        assert linalg_calls == {"svd": 2}  # Phi_S, to certify S, and the union
        linalg_calls.clear()
        residual_over(d, AtomSet.of([1, 2, 10]), sig.signal)
        assert linalg_calls == {"svd": 1}  # the range basis of Phi_T


class TestRepresentability:
    def test_superset_representable(self):
        d = build_spikes_sines(8)
        sig = draw_generic_signal(d, AtomSet.of([0, 1]), seed=1)
        verdict = test_representability(d, AtomSet.of([0, 1, 2]), sig)
        assert verdict.residual <= 1e-10
        assert verdict.verdict is Verdict.REPRESENTABLE

    def test_disjoint_orthonormal_not_representable(self):
        d = build_spikes_sines(8)
        sig = draw_generic_signal(d, AtomSet.of([0, 1]), seed=2)
        verdict = test_representability(d, AtomSet.of([2, 3]), sig)
        assert verdict.verdict is Verdict.NOT_REPRESENTABLE
        assert residual_over(d, AtomSet.of([]), sig.signal) == 1.0  # the empty span holds only 0

    def test_dirac_comb_measure_zero_exception(self):
        # the equal-coefficient comb is representable over the comb sines
        # although a generic signal on the comb spikes almost surely is not
        d = build_spikes_sines(16)
        spikes = AtomSet.of([0, 4, 8, 12])
        sines = AtomSet.of([16, 20, 24, 28])
        comb = make_signal(d, spikes, [1, 1, 1, 1])
        verdict = test_representability(d, sines, comb)
        assert verdict.residual <= 1e-10
        assert verdict.verdict is Verdict.REPRESENTABLE
        assert verdict.rank_condition_holds
        generic = draw_generic_signal(d, spikes, seed=3)
        assert test_representability(d, sines, generic).verdict is Verdict.NOT_REPRESENTABLE

    def test_zero_signal_rejected(self):
        d = build_spikes_sines(4)
        sig = make_signal(d, AtomSet.of([0]), [0.0])
        with pytest.raises(ValueError):
            test_representability(d, AtomSet.of([1]), sig)

    @pytest.mark.parametrize("residual,verdict", [
        (1e-10, Verdict.REPRESENTABLE),  # the ceiling is inclusive
        (1e-6, Verdict.INCONCLUSIVE),  # and so is the floor
        (np.nextafter(1e-6, 1), Verdict.NOT_REPRESENTABLE),
    ])
    def test_classify_residual_band(self, residual, verdict):
        assert classify_residual(residual) is verdict


class TestEquivalenceExperiment:
    def test_disjoint_orthonormal_all_blocked(self):
        d = build_spikes_sines(8)
        rep = equivalence_experiment(d, AtomSet.of([0, 1]), AtomSet.of([2, 3]),
                                     trials=100, seed=5)
        assert rep.summary["rank_condition_holds"]
        assert all(r["verdict"] == "NOT_REPRESENTABLE" for r in rep.trials)
        assert rep.summary["consistent"]

    def test_superset_all_representable(self):
        d = build_spikes_sines(8)
        rep = equivalence_experiment(d, AtomSet.of([0, 1]), AtomSet.of([0, 1, 2]),
                                     trials=100, seed=6)
        assert rep.summary["range_containment"]
        assert all(r["verdict"] == "REPRESENTABLE" for r in rep.trials)
        assert rep.summary["consistent"]

    def test_deterministic_payload(self):
        d = build_spikes_sines(8)
        a = equivalence_experiment(d, AtomSet.of([0, 1]), AtomSet.of([2, 3]), 10, seed=7)
        b = equivalence_experiment(d, AtomSet.of([0, 1]), AtomSet.of([2, 3]), 10, seed=7)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()


class TestGapExperiment:
    def test_spikes_sines_no_violations(self):
        d = build_spikes_sines(64)
        rep = gap_experiment(d, s=16, t=16, delta=0, pairs=5, trials_per_pair=4, seed=8)
        assert rep.summary["predicted_blocked"]
        assert abs(rep.summary["overlap_rhs"] - 11.0) < 1e-12
        assert rep.summary["violations"] == 0
        assert rep.summary["n_inconclusive"] == 0

    def test_tight_frame_no_representable(self):
        d = build_random_tight_frame(32, 128, seed=11)
        rep = gap_experiment(d, s=8, t=8, delta=0, pairs=5, trials_per_pair=4, seed=9)
        assert all(r["verdict"] == "NOT_REPRESENTABLE" for r in rep.trials)

    def test_coherence_rounded_above_one(self, near_duplicates_6_16):
        # the constructors accept mu = 1 + rounding, so the overlap condition must too
        assert 1.0 < near_duplicates_6_16.coherence
        rep = gap_experiment(near_duplicates_6_16, 2, 2, 0, pairs=1, trials_per_pair=1, seed=0)
        assert rep.summary["n_trials"] == 1 and rep.summary["overlap_vacuous"]

    def test_support_larger_than_m_rejected(self, linalg_calls):
        d = build_spikes_sines(4)
        linalg_calls.clear()
        # no 5 vectors in C^4 are independent, so no S can be drawn
        with pytest.raises(ValueError, match="exceeds m"):
            gap_experiment(d, 5, 1, 0, pairs=1, trials_per_pair=1, seed=0)
        assert linalg_calls == {}

    def test_zero_t_vacuous(self):
        d = build_spikes_sines(8)
        rep = gap_experiment(d, s=2, t=0, delta=0, pairs=3, trials_per_pair=3, seed=1)
        assert rep.trials == [] and rep.summary["n_trials"] == 0

    def test_exact_overlap_sampling(self):
        d = build_spikes_sines(16)
        rep = gap_experiment(d, 4, 6, 2, pairs=6, trials_per_pair=1, seed=12)
        assert rep.summary["n_trials"] == 6

    def test_csv_columns_fixed(self):
        d = build_spikes_sines(8)
        rep = gap_experiment(d, 2, 2, 0, pairs=2, trials_per_pair=2, seed=13)
        header = rep.to_csv().splitlines()[0]
        assert header == "pair,trial,residual,verdict,rank_condition,predicted_blocked,t_redraws"

    def test_json_csv_same_residuals(self):
        d = build_spikes_sines(8)
        rep = gap_experiment(d, 2, 2, 0, pairs=2, trials_per_pair=2, seed=14)
        from_json = [r["residual"] for r in json.loads(rep.to_json())["trials"]]
        from_csv = [float(line.split(",")[2]) for line in rep.to_csv().splitlines()[1:]]
        assert from_json == from_csv


# Residuals of the batched engine against the per-trial reference path
# (draw_generic_signal + residual_over) differ only by rounding.  Residuals
# at rounding level (S inside T) are compared absolutely.
RESIDUAL_RTOL = 1e-13
RESIDUAL_ATOL = 1e-14


def assert_rows_match_reference(d, rows, sets_of_row, stream_of_row):
    for row in rows:
        s_set, t_set = sets_of_row(row)
        sig = draw_generic_signal(d, s_set, stream_of_row(row))
        ref = residual_over(d, t_set, sig.signal)
        assert row["verdict"] == classify_residual(ref).value
        assert abs(row["residual"] - ref) <= RESIDUAL_RTOL * ref + RESIDUAL_ATOL


@pytest.fixture(scope="module")
def tight_24_64():
    return build_random_tight_frame(24, 64, seed=3)


def resampled_pair(d, seed, p, s, t, delta):
    """Pair p's S and T, sampled again from its stream [seed, p] as gap_experiment does."""
    rng = np.random.default_rng([seed, p])
    s_set, = _sample_support(d, s, [rng])
    return s_set, _sample_overlapping(d, [s_set], t, delta, [rng])[0][0]


class TestEngineMatchesReference:
    @pytest.mark.parametrize("kind", ["spikes-sines", "tight"])
    @pytest.mark.parametrize("s,t,delta", [(4, 5, 0), (4, 6, 2), (4, 6, 4)])
    def test_gap_rows(self, kind, s, t, delta, tight_24_64):
        d = build_spikes_sines(16) if kind == "spikes-sines" else tight_24_64
        rep = gap_experiment(d, s, t, delta, pairs=4, trials_per_pair=6, seed=17)
        pair_sets = {p: resampled_pair(d, 17, p, s, t, delta) for p in range(4)}
        assert len(rep.trials) == 24
        assert_rows_match_reference(d, rep.trials, lambda r: pair_sets[r["pair"]],
                                    lambda r: [17, r["pair"], r["trial"]])
        if delta == s:
            assert all(r["verdict"] == "REPRESENTABLE" for r in rep.trials)

    @pytest.mark.parametrize("kind", ["spikes-sines", "tight", "near-duplicates"])
    @pytest.mark.parametrize("t_indices", [[5, 6, 7], [1, 2, 9], [0, 1, 2, 3]])
    def test_equivalence_rows(self, kind, t_indices, tight_24_64, near_duplicates_6_16):
        d = {"spikes-sines": build_spikes_sines(16), "tight": tight_24_64,
             "near-duplicates": near_duplicates_6_16}[kind]
        s_set, t_set = AtomSet.of([0, 1, 2]), AtomSet.of(t_indices)
        rep = equivalence_experiment(d, s_set, t_set, trials=8, seed=19)
        assert rep.summary["rank_t"] == numerical_rank(d.subdictionary(t_set))
        holds, rank_union = rank_condition(d, s_set, t_set)
        assert (rep.summary["rank_condition_holds"], rep.summary["rank_union"]) == (holds, rank_union)
        idx = list(s_set.union(t_set).indices)
        below_floor = np.linalg.eigvalsh(d.gram[np.ix_(idx, idx)])[0] < GRAM_EIG_FLOOR
        # the SVD path runs only where T holds atom 9 of the near duplicates, atom 1's twin
        assert below_floor == (kind == "near-duplicates" and 9 in t_indices)
        assert_rows_match_reference(d, rep.trials, lambda r: (s_set, t_set),
                                    lambda r: [19, r["trial"]])

    def test_trial_coefficients_are_the_reference_draws(self, tight_24_64, monkeypatch):
        # column i of the x that _trial_residuals draws for pair p is draw_generic_signal's x from [seed, p, i]
        seen = []

        class RecordingW:
            def __init__(self, w):
                self.w = w

            def __matmul__(self, x):
                seen[-1].append(x)
                return self.w @ x

        trial_residuals = signals._trial_residuals

        def spy(d, s_set, w, streams):
            seen.append([s_set])
            return trial_residuals(d, s_set, RecordingW(w), streams)

        monkeypatch.setattr(signals, "_trial_residuals", spy)
        rep = gap_experiment(tight_24_64, 4, 6, 2, pairs=3, trials_per_pair=5, seed=41)
        assert [len(r) for r in seen] == [2, 2, 2] and len(rep.trials) == 15
        for p, (s_set, x) in enumerate(seen):
            assert x.shape == (4, 5)
            for i in range(5):
                assert np.array_equal(x[:, i], draw_generic_signal(tight_24_64, s_set, [41, p, i]).coefficients)

    def test_svd_count_independent_of_trials(self, linalg_calls):
        d = build_spikes_sines(16)
        counts = []
        for trials in (1, 7):
            linalg_calls.clear()
            gap_experiment(d, 4, 4, 1, pairs=3, trials_per_pair=trials, seed=10)
            counts.append(sum(linalg_calls.values()))
        # per pair: certificates of the Gram blocks of S and of S u T, Cholesky of the latter
        assert counts == [3 * 3, 3 * 3]

    def test_gap_rank_condition_matches_reference(self, tight_24_64, near_duplicates_6_16):
        cases = [(tight_24_64, s, t, delta) for s, t, delta in [
            (4, 5, 0), (4, 6, 2), (6, 4, 4), (4, 24, 0), (6, 24, 3),
            (4, 6, 4), (6, 6, 6),  # delta = s: T holds S, so the condition fails
            (5, 24, 1),  # s + t - delta > m: G[S u T, S u T] is singular
        ]] + [(near_duplicates_6_16, s, t, delta) for s, t, delta in [(3, 3, 2), (2, 3, 1), (4, 4, 3)]]
        for d, s, t, delta in cases:
            rep = gap_experiment(d, s, t, delta, pairs=8, trials_per_pair=2, seed=23)
            below_floor = []
            for r in rep.trials:
                s_set, t_set = resampled_pair(d, 23, r["pair"], s, t, delta)
                assert r["rank_condition"] == rank_condition(d, s_set, t_set)[0]
                idx = list(s_set.union(t_set).indices)
                below_floor.append(np.linalg.eigvalsh(d.gram[np.ix_(idx, idx)])[0] < GRAM_EIG_FLOOR)
            if d is near_duplicates_6_16 or s + t - delta > d.m:  # the SVD path ran and mattered
                assert any(below_floor)
                assert not all(r["rank_condition"] for r in rep.trials)
            if delta == s:
                assert not any(r["rank_condition"] for r in rep.trials)

    def test_factorisation_budget_per_pair(self, tight_24_64, linalg_calls):
        # every Gram block passes the floor here, so no pair needs an SVD
        gap_experiment(tight_24_64, 4, 6, 2, pairs=7, trials_per_pair=3, seed=31)
        assert linalg_calls == {"cholesky": 3 * 7}
        # one chunk: one stacked certificate for the S blocks, one for the S u T blocks and one Cholesky of the latter
        assert linalg_calls.calls == {"cholesky": 3}

    @pytest.mark.parametrize("kind,s,t,delta", [("tight", 5, 24, 1), ("near-duplicates", 2, 3, 1)])
    def test_chunk_boundaries(self, kind, s, t, delta, tight_24_64, near_duplicates_6_16):
        # s + t - delta > m sends every tight-frame pair down the SVD path; near duplicates redraw T
        d = tight_24_64 if kind == "tight" else near_duplicates_6_16
        full = gap_experiment(d, s, t, delta, pairs=70, trials_per_pair=2, seed=37).trials
        if kind == "tight":  # every G[S u T, S u T] is singular, so numerical_rank gives 24 = t
            assert not any(r["rank_condition"] for r in full)
        else:
            assert any(r["t_redraws"] for r in full)
        for k in (1, signals.PAIR_CHUNK - 1, signals.PAIR_CHUNK, signals.PAIR_CHUNK + 1):
            assert gap_experiment(d, s, t, delta, pairs=k, trials_per_pair=2, seed=37).trials == full[:2 * k]
        # pairs past the first chunk still sample from their own stream [seed, p]
        assert [(r["pair"], r["trial"]) for r in full] == [(p, i) for p in range(70) for i in range(2)]
        pair_sets = {p: resampled_pair(d, 37, p, s, t, delta) for p in (signals.PAIR_CHUNK, 69)}
        assert_rows_match_reference(d, [r for r in full if r["pair"] in pair_sets], lambda r: pair_sets[r["pair"]],
                                    lambda r: [37, r["pair"], r["trial"]])


class TestCertifiedResidual:
    """A certified pair's residual ||L22* x_X|| / ||u||, X = S minus T, from the Cholesky factor of
    G[R, R] (R = S u T), against residual_over and the interval its Schur complement block allows."""

    @pytest.mark.parametrize("kind", ["spikes-sines", "tight-24-64", "tight-12-40"])
    @pytest.mark.parametrize("s,t,delta", [(4, 6, 0), (3, 3, 0), (5, 6, 3), (6, 3, 2), (4, 6, 4), (3, 3, 3)])
    def test_residual_matches_reference_inside_schur_interval(self, kind, s, t, delta, tight_24_64):
        d = {"spikes-sines": build_spikes_sines(16), "tight-24-64": tight_24_64,
             "tight-12-40": build_random_tight_frame(12, 40, seed=5)}[kind]
        rep = gap_experiment(d, s, t, delta, pairs=4, trials_per_pair=3, seed=41)
        for row in rep.trials:
            s_set, t_set = resampled_pair(d, 41, row["pair"], s, t, delta)
            idx = list(s_set.union(t_set).indices)
            lam = np.linalg.eigvalsh(d.gram[np.ix_(idx, idx)])
            assert lam[0] >= GRAM_EIG_FLOOR  # the Cholesky path decided this pair
            sig = draw_generic_signal(d, s_set, [41, row["pair"], row["trial"]])
            res = row["residual"]
            if delta == s:  # X is empty: no rows to project, so no rounding either
                assert res == 0.0
                continue
            ref = residual_over(d, t_set, sig.signal)
            assert abs(res - ref) <= 1e-13 * ref
            # ||u||^2 r^2 = x_X* C x_X with C the Schur complement of G[T, T] in G[R, R],
            # whose eigenvalues lie in [lambda_min, lambda_max] of G[R, R]
            in_x = [i not in t_set.indices for i in s_set.indices]
            ratio = np.linalg.norm(sig.coefficients[in_x]) / np.linalg.norm(sig.signal)
            assert math.sqrt(lam[0]) * ratio * (1 - 1e-12) <= res <= math.sqrt(lam[-1]) * ratio * (1 + 1e-12)


@pytest.fixture(params=["spikes-sines", "random-unit", "near-duplicates"])
def engine_pair(request, near_duplicates_6_16):
    """(d, S, T, whether G[S u T, S u T] passes the floor): the two equivalence golden
    pairs and a near-duplicate pair whose T holds atom 0's twin."""
    if request.param == "spikes-sines":
        return build_spikes_sines(16), AtomSet.of([0, 5, 9]), AtomSet.of([16, 20, 27]), True
    if request.param == "random-unit":  # lambda_min of the union's Gram block is 6.2e-3
        return build_random_unit_norm(6, 12, seed=4), AtomSet.of([1, 2, 3]), AtomSet.of([3, 7, 10, 11]), False
    return near_duplicates_6_16, AtomSet.of([0, 1]), AtomSet.of([2, 8]), False


class TestSingleEngine:
    """gap and equivalence decide a pair with _pair_range, never with the reference functions."""

    def test_experiments_skip_reference_functions(self, engine_pair, monkeypatch):
        d, s_set, t_set, _ = engine_pair

        def forbidden(*args, **kwargs):
            raise AssertionError("an experiment called a reference function")

        for name in ("rank_condition", "residual_over", "draw_generic_signal", "test_representability"):
            monkeypatch.setattr(signals, name, forbidden)
        rep = equivalence_experiment(d, s_set, t_set, trials=3, seed=0)
        assert rep.summary["consistent"]
        rep = gap_experiment(d, len(s_set), len(t_set), s_set.overlap(t_set), pairs=3, trials_per_pair=2, seed=0)
        assert rep.summary["n_trials"] == 6

    def test_equivalence_factorisations(self, engine_pair, linalg_calls):
        d, s_set, t_set, certified = engine_pair
        idx = list(s_set.union(t_set).indices)
        assert (np.linalg.eigvalsh(d.gram[np.ix_(idx, idx)])[0] >= GRAM_EIG_FLOOR) == certified
        linalg_calls.clear()
        equivalence_experiment(d, s_set, t_set, trials=4, seed=0)
        # certified: the certificate and the Cholesky of G[S u T, S u T]; otherwise the SVDs
        # of Phi_T, Phi_{S u T} and Phi_S (to certify S) follow the failed certificate
        assert linalg_calls == ({"cholesky": 2} if certified else {"cholesky": 1, "svd": 3})

    @pytest.mark.parametrize("t_indices", [[2, 3], []])
    def test_empty_support_rejected(self, t_indices):
        d = build_spikes_sines(8)
        assert certify_gram_floor(d.gram_blocks([t_indices])).tolist() == [True]  # G[T, T] passes the floor
        with pytest.raises(DependentSetError):
            equivalence_experiment(d, AtomSet.of([]), AtomSet.of(t_indices), trials=1, seed=0)


class TestRedrawCap:
    def test_parallel_complement_raises_at_cap(self, linalg_calls):
        # S = {e1, e2}; the complement holds three copies of e2, so every T
        # of two complement atoms is rank one and no draw is well conditioned
        atoms = np.zeros((2, 5), dtype=complex)
        atoms[0, 0] = 1.0
        atoms[1, 1:] = 1.0
        d = Dictionary(atoms=atoms, coherence=1.0, redundancy=4.0)
        with pytest.raises(RedrawCapExceededError):
            _sample_overlapping(d, [AtomSet.of([0, 1])], 2, 0, [np.random.default_rng(0)])
        # per T draw: the Gram block of S u T is singular, so the SVDs of Phi_T and Phi_{S u T} follow
        assert linalg_calls == {"cholesky": INDEPENDENCE_REDRAW_CAP, "svd": 2 * INDEPENDENCE_REDRAW_CAP}
        with pytest.raises(RedrawCapExceededError):
            gap_experiment(d, 2, 2, 0, pairs=1, trials_per_pair=1, seed=0)

    def test_rank_one_dictionary_raises_at_support_cap(self, linalg_calls):
        # every atom is e1, so no S of two atoms is independent although s <= m
        d = Dictionary(atoms=np.outer([1.0, 0.0], np.ones(5)).astype(complex), coherence=1.0, redundancy=5.0)
        with pytest.raises(RedrawCapExceededError, match="support"):
            _sample_support(d, 2, [np.random.default_rng(0)])
        # per S draw: G[S, S] is singular, so the SVD of Phi_S follows
        assert linalg_calls == {"cholesky": INDEPENDENCE_REDRAW_CAP, "svd": INDEPENDENCE_REDRAW_CAP}
