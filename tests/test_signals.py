import json

import numpy as np
import pytest

from sparsegap.dictionary import AtomSet, Dictionary, build_random_tight_frame, build_spikes_sines
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
        holds, report = rank_condition(d, s_set, s_set)
        assert not holds and report.exact_rank == 3

    def test_disjoint_orthonormal_holds(self):
        d = build_spikes_sines(8)
        holds, report = rank_condition(d, AtomSet.of([0, 1]), AtomSet.of([2, 3]))
        assert holds and report.exact_rank == 4

    def test_dirac_comb_union_rank(self):
        # comb spikes vs comb sines: the two 4-dim spans meet only on the
        # comb line, so the union has rank 7 and the condition holds even
        # though the comb itself lives in both ranges
        d = build_spikes_sines(16)
        spikes = AtomSet.of([0, 4, 8, 12])
        sines = AtomSet.of([16, 20, 24, 28])
        holds, report = rank_condition(d, spikes, sines)
        assert report.exact_rank == 7
        assert holds


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


@pytest.fixture
def svd_calls(monkeypatch):
    """One-element list counting numpy.linalg.svd calls from here on."""
    calls = [0]
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls[0] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.fixture(scope="module")
def tight_24_64():
    return build_random_tight_frame(24, 64, seed=3)


class TestEngineMatchesReference:
    @pytest.mark.parametrize("kind", ["spikes-sines", "tight"])
    @pytest.mark.parametrize("s,t,delta", [(4, 5, 0), (4, 6, 2), (4, 6, 4)])
    def test_gap_rows(self, kind, s, t, delta, tight_24_64):
        d = build_spikes_sines(16) if kind == "spikes-sines" else tight_24_64
        rep = gap_experiment(d, s, t, delta, pairs=4, trials_per_pair=6, seed=17)
        # re-sample each pair's S and T from the pair stream, as the engine does
        pair_sets = {}
        for p in range(4):
            rng = np.random.default_rng([17, p])
            s_set = _sample_support(d, s, rng)
            pair_sets[p] = (s_set, _sample_overlapping(d, s_set, t, delta, rng)[0])
        assert len(rep.trials) == 24
        assert_rows_match_reference(d, rep.trials, lambda r: pair_sets[r["pair"]],
                                    lambda r: [17, r["pair"], r["trial"]])
        if delta == s:
            assert all(r["verdict"] == "REPRESENTABLE" for r in rep.trials)

    @pytest.mark.parametrize("kind", ["spikes-sines", "tight"])
    @pytest.mark.parametrize("t_indices", [[5, 6, 7], [1, 2, 9], [0, 1, 2, 3]])
    def test_equivalence_rows(self, kind, t_indices, tight_24_64):
        d = build_spikes_sines(16) if kind == "spikes-sines" else tight_24_64
        s_set, t_set = AtomSet.of([0, 1, 2]), AtomSet.of(t_indices)
        rep = equivalence_experiment(d, s_set, t_set, trials=8, seed=19)
        assert rep.summary["rank_t"] == numerical_rank(d.subdictionary(t_set))
        assert_rows_match_reference(d, rep.trials, lambda r: (s_set, t_set),
                                    lambda r: [19, r["trial"]])

    def test_svd_count_independent_of_trials(self, svd_calls):
        d = build_spikes_sines(16)
        counts = []
        for trials in (1, 7):
            svd_calls[0] = 0
            gap_experiment(d, 4, 4, 1, pairs=3, trials_per_pair=trials, seed=10)
            counts.append(svd_calls[0])
        assert counts[0] == counts[1] > 0


class TestRedrawCap:
    def test_parallel_complement_raises_at_cap(self, svd_calls):
        # S = {e1, e2}; the complement holds three copies of e2, so every T
        # of two complement atoms is rank one and no draw is well conditioned
        atoms = np.zeros((2, 5), dtype=complex)
        atoms[0, 0] = 1.0
        atoms[1, 1:] = 1.0
        d = Dictionary(atoms=atoms, coherence=1.0, redundancy=4.0)
        with pytest.raises(RedrawCapExceededError):
            _sample_overlapping(d, AtomSet.of([0, 1]), 2, 0, np.random.default_rng(0))
        assert svd_calls[0] == INDEPENDENCE_REDRAW_CAP  # one SVD per T draw
        with pytest.raises(RedrawCapExceededError):
            gap_experiment(d, 2, 2, 0, pairs=1, trials_per_pair=1, seed=0)
