import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsegap.dictionary import (
    GRAM_EIG_FLOOR,
    AtomSet,
    Dictionary,
    build_random_tight_frame,
    build_spikes_sines,
)
from sparsegap.random_subsets import (
    rng_streams,
    sample_uniform_subset,
    statistics_sweep,
    subset_statistics,
    weak_rank_bound_experiment,
)
from sparsegap.rank_bounds import numerical_rank
from sparsegap.thresholds import HypothesisViolatedError


class TestSampleUniformSubset:
    def test_full_set(self):
        assert sample_uniform_subset(6, 6, 0).indices == tuple(range(6))

    def test_deterministic(self):
        assert sample_uniform_subset(20, 5, 3) == sample_uniform_subset(20, 5, 3)

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            sample_uniform_subset(4, 5, 0)

    def test_singleton_frequencies_uniform(self):
        n, draws = 8, 10_000
        counts = np.zeros(n)
        for i in range(draws):
            counts[sample_uniform_subset(n, 1, i).indices[0]] += 1
        freq = counts / draws
        se = math.sqrt((1 / n) * (1 - 1 / n) / draws)
        assert np.all(np.abs(freq - 1 / n) < 5 * se)


class TestRngStreams:
    @pytest.mark.parametrize("key", [0, 2**32 - 1, 2**32, 2**40 + 12345, 2**64 + 3])
    @pytest.mark.parametrize("prefix", [[], [7], [3, 0], [2**33, 5, 2**64 + 1]])
    def test_same_streams_as_list_seeds(self, key, prefix):
        keys = prefix + [key]
        streams = list(rng_streams(keys, 3))
        assert len(streams) == 3
        for i, rng in enumerate(streams):
            ref = np.random.default_rng(keys + [i])
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5))

    def test_zero_count(self):
        assert list(rng_streams([1, 2], 0)) == []

    def test_negative_key_raises_at_once(self):
        for prefix in ([-1], [3, -2**40]):
            with pytest.raises(ValueError):
                rng_streams(prefix, 0)


class TestSubsetStatistics:
    def test_orthonormal(self):
        atoms = np.eye(6, dtype=complex)
        d = Dictionary(atoms=atoms, coherence=0.0, redundancy=1.0, provenance={})
        st = subset_statistics(d, AtomSet.of([0, 2, 4]))
        assert st.max_cross_correlation == 0.0
        assert st.gram_deviation < 1e-14
        assert abs(st.pinv_norm - 1.0) < 1e-12

    def test_spikes_sines_closed_form(self):
        d = build_spikes_sines(16)
        st = subset_statistics(d, AtomSet.of([0, 1, 2, 3]))
        assert abs(st.max_cross_correlation - 0.5) < 1e-12
        assert st.gram_deviation < 1e-12
        assert abs(st.pinv_norm - 1.0) < 1e-12

    def test_duplicate_atom_detected(self):
        atoms = np.hstack([np.eye(4, dtype=complex), np.eye(4, dtype=complex)[:, :1]])
        d = Dictionary(atoms=atoms, coherence=1.0, redundancy=2.0, provenance={})
        st = subset_statistics(d, AtomSet.of([0, 4]))
        assert st.gram_deviation >= 1.0 - 1e-12

    @pytest.mark.parametrize("s", [1, 4, 16, 17, 30])
    def test_gram_deviation_matches_spectral_norm(self, s, linalg_calls):
        # s > m = 16 leaves s - m zero Gram eigenvalues, so the deviation is >= 1
        d = build_random_tight_frame(16, 48, seed=11)
        for seed in range(5):
            s_set = sample_uniform_subset(48, s, [seed, s])
            linalg_calls.clear()
            st = subset_statistics(d, s_set)
            calls = dict(linalg_calls)
            phi_s = d.subdictionary(s_set)
            ref = np.linalg.norm(phi_s.conj().T @ phi_s - np.eye(s), 2)
            # Gram eigenvalues are O(1), so rounding is relative to max(ref, 1)
            assert abs(st.gram_deviation - ref) <= 1e-13 * max(ref, 1.0)
            assert st.gram_deviation >= 1.0 or s <= 16
            sigma_min = np.linalg.svd(phi_s, compute_uv=False)[-1]
            if s > 16 or sigma_min**2 < GRAM_EIG_FLOOR:  # the SVD fallback
                assert calls == {"eigvalsh": 1, "svd": 1}
                assert st.pinv_norm == 1.0 / sigma_min
            else:
                assert calls == {"eigvalsh": 1}
                assert abs(st.pinv_norm * sigma_min - 1.0) <= 1e-13

    def test_gram_deviation_counts_zero_eigenvalues(self):
        # all 17 atoms of a tight frame in C^16: every sigma^2 is 17/16, but
        # the 17 x 17 Gram matrix is singular, so the deviation is 1
        d = build_random_tight_frame(16, 17, seed=1)
        st = subset_statistics(d, AtomSet(tuple(range(17))))
        assert abs(st.gram_deviation - 1.0) < 1e-12

    def test_cross_correlation_entrywise_bound(self):
        d = build_random_tight_frame(16, 64, seed=2)
        for seed in range(20):
            s_set = sample_uniform_subset(64, 6, seed)
            st = subset_statistics(d, s_set)
            assert st.max_cross_correlation <= math.sqrt(6) * d.coherence + 1e-12
            assert st.pinv_norm >= 1.0 - 1e-12

    def test_gram_deviation_controls_pinv(self):
        d = build_random_tight_frame(16, 64, seed=3)
        for seed in range(50):
            s_set = sample_uniform_subset(64, 4, seed)
            st = subset_statistics(d, s_set)
            if st.gram_deviation < 1:
                assert numerical_rank(d.subdictionary(s_set)) == len(s_set)
                assert st.pinv_norm <= (1 - st.gram_deviation) ** -0.5 + 1e-9

    def test_unitary_invariance(self):
        d = build_random_tight_frame(8, 32, seed=4)
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        rotated = Dictionary(atoms=q @ d.atoms, coherence=d.coherence,
                             redundancy=d.redundancy, provenance={})
        s_set = sample_uniform_subset(32, 5, 7)
        a = subset_statistics(d, s_set)
        b = subset_statistics(rotated, s_set)
        assert abs(a.max_cross_correlation - b.max_cross_correlation) < 1e-10
        assert abs(a.gram_deviation - b.gram_deviation) < 1e-10
        assert abs(a.pinv_norm - b.pinv_norm) < 1e-10


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def reference_statistics(d, s_set):
    """(cross term, Gram deviation, sigma_min) from Phi_S* Phi_rest, the spectral norm and the SVD."""
    phi_s = d.subdictionary(s_set)
    rest = d.complement(s_set)
    cross = phi_s.conj().T @ d.atoms[:, rest]
    max_cross = float(np.sqrt(np.max(np.sum(np.abs(cross) ** 2, axis=0)))) if len(rest) else 0.0
    gram_dev = float(np.linalg.norm(phi_s.conj().T @ phi_s - np.eye(len(s_set)), 2))
    return max_cross, gram_dev, float(np.linalg.svd(phi_s, compute_uv=False)[-1])


def assert_matches_reference(d, s_set):
    """subset_statistics against the definitions; returns it and whether the SVD gave pinv_norm."""
    st_ = subset_statistics(d, s_set)
    max_cross, gram_dev, sigma_min = reference_statistics(d, s_set)
    assert abs(st_.max_cross_correlation - max_cross) <= 1e-13 * max(max_cross, 1.0)
    assert abs(st_.gram_deviation - gram_dev) <= 1e-13 * max(gram_dev, 1.0)
    fallback = len(s_set) > d.m or sigma_min**2 < GRAM_EIG_FLOOR
    if fallback:
        assert st_.pinv_norm == (math.inf if sigma_min == 0.0 else 1.0 / sigma_min)
    else:
        # 1/sqrt(lambda_min) is accurate to about kappa^2 * eps, and kappa^2 <= s / GRAM_EIG_FLOOR
        assert abs(st_.pinv_norm * sigma_min - 1.0) <= 1e-13
    return st_, fallback


@st.composite
def tight_frame_subsets(draw, oversized=False):
    """(random tight frame, uniform subset): s <= m, or m < s <= N when ``oversized``."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(m + 1, 4 * m))
    d = build_random_tight_frame(m, n, seed=draw(st.integers(0, 2**32 - 1)))
    s = draw(st.integers(m + 1, n) if oversized else st.integers(1, m))
    return d, sample_uniform_subset(n, s, draw(st.integers(0, 2**32 - 1)))


@st.composite
def near_duplicate_subsets(draw):
    """(unit atoms a + eps e_j around one atom a, eps = 10^k for k in [-16, -2], subset of s >= 2)."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = 10.0 ** draw(st.integers(-16, -2))
    noise = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    atoms = rng.standard_normal((m, 1)) + eps * noise
    d = Dictionary(atoms=atoms / np.linalg.norm(atoms, axis=0), coherence=1.0, redundancy=1.0)
    return d, sample_uniform_subset(n, draw(st.integers(2, n)), draw(st.integers(0, 2**32 - 1)))


class TestGramPath:
    """The Gram-matrix statistics against Phi_S* Phi_rest, norm(Phi_S* Phi_S - I, 2) and the SVD."""

    @PROPERTY_SETTINGS
    @given(tight_frame_subsets())
    def test_tight_frames(self, case):
        assert_matches_reference(*case)

    @PROPERTY_SETTINGS
    @given(tight_frame_subsets(oversized=True))
    def test_more_atoms_than_dimensions(self, case):
        stats, fallback = assert_matches_reference(*case)
        assert fallback
        assert math.isfinite(stats.pinv_norm)  # sigma_m(Phi_S) > 0

    @PROPERTY_SETTINGS
    @given(near_duplicate_subsets())
    def test_near_duplicate_atoms(self, case):
        assert assert_matches_reference(*case)[1]

    def test_sweep_one_eigvalsh_per_subset(self, linalg_calls):
        d = build_random_tight_frame(32, 128, seed=9)
        linalg_calls.clear()
        statistics_sweep(d, s_values=(2, 4, 8), trials_per_s=5, seed=4)
        assert linalg_calls == {"eigvalsh": 15}  # one per subset; the tightness check reads d.frame_spectrum

    def test_weak_rank_one_eigvalsh_per_trial(self, linalg_calls):
        d = build_random_tight_frame(32, 128, seed=8)
        linalg_calls.clear()
        weak_rank_bound_experiment(d, 8, 16, 5, seed=3)
        # one eigvalsh per trial (the tightness check reads d.frame_spectrum); the svd is numerical_rank(Phi_{S u V})
        assert linalg_calls == {"eigvalsh": 5, "svd": 5}

    def test_gram_is_formed_once_on_first_use(self):
        d = build_random_tight_frame(8, 32, seed=4)
        assert d.gram is d.gram
        assert np.array_equal(d.gram, d.atoms.conj().T @ d.atoms)
        assert not d.gram.flags.writeable


class TestStatisticsSweep:
    def test_orthonormal_sweep_trivial(self):
        atoms = np.eye(8, dtype=complex)
        d = Dictionary(atoms=atoms, coherence=0.0, redundancy=1.0, provenance={})
        rep = statistics_sweep(d, s_values=(1, 2, 4), trials_per_s=10, seed=0)
        for r in rep.trials:
            assert r["max_cross_correlation"] == 0.0
            assert abs(r["pinv_norm"] - 1.0) < 1e-12

    def test_singleton_cross_bounded_by_mu(self):
        d = build_random_tight_frame(8, 32, seed=5)
        rep = statistics_sweep(d, s_values=(1,), trials_per_s=30, seed=1)
        for r in rep.trials:
            assert r["max_cross_correlation"] <= d.coherence + 1e-12

    def test_deterministic(self):
        d = build_random_tight_frame(8, 32, seed=5)
        cfg = dict(s_values=(2, 4), trials_per_s=20, seed=2)
        assert statistics_sweep(d, **cfg).to_json() == statistics_sweep(d, **cfg).to_json()

    def test_repeated_s_rejected(self):
        # each (s, trial) row draws from the stream [seed, s, trial], so a repeat would duplicate rows
        with pytest.raises(ValueError, match="repeat"):
            statistics_sweep(build_spikes_sines(4), s_values=(3, 4, 3), trials_per_s=2, seed=0)

    @pytest.mark.parametrize("c_sparsity", [0, -1.5])
    def test_nonpositive_c_sparsity_rejected_before_any_factorisation(self, linalg_calls, c_sparsity):
        d = build_random_tight_frame(8, 32, seed=5)
        linalg_calls.clear()
        with pytest.raises(ValueError, match="c_sparsity must be positive"):
            statistics_sweep(d, s_values=(2, 4), trials_per_s=5, seed=0, c_sparsity=c_sparsity)
        assert not linalg_calls and not linalg_calls.calls

    @pytest.mark.parametrize("s_values", [(4, 8, 33), (0, 4)])
    def test_out_of_range_s_rejected_before_any_factorisation(self, linalg_calls, s_values):
        d = build_random_tight_frame(8, 32, seed=5)
        linalg_calls.clear()
        with pytest.raises(ValueError, match=r"s_values must lie in \[1, 32\]"):
            statistics_sweep(d, s_values=s_values, trials_per_s=5, seed=0)
        assert not linalg_calls and not linalg_calls.calls

    def test_quantiles_present(self):
        d = build_random_tight_frame(16, 64, seed=6)
        rep = statistics_sweep(d, s_values=(2, 4), trials_per_s=25, seed=3, beta=1.5)
        stats = rep.summary["per_s"]["4"]["max_cross_correlation"]
        assert set(stats) == {"median", "q_1_minus_1_over_n", "q_beta"}
        assert 0 <= rep.summary["per_s"]["2"]["gate_violation_fraction"] <= 1


class TestWeakRankBoundExperiment:
    def test_spikes_sines_boundary_rejected(self):
        d = build_spikes_sines(8)  # N = 2m exactly
        with pytest.raises(HypothesisViolatedError):
            weak_rank_bound_experiment(d, 2, 2, 5, seed=0)

    def test_empty_v_reduces_to_independence(self):
        d = build_random_tight_frame(8, 32, seed=7)
        rep = weak_rank_bound_experiment(d, 4, 0, 20, seed=1)
        for r in rep.trials:
            assert r["rank"] >= 4

    def test_gate_derived_bound_value(self):
        # gate values (1/2, sqrt 2) plugged into the projected-block bound
        # give |S| + m|V|/(2N), a factor 4 below the stated |S| + 2m|V|/N
        d = build_random_tight_frame(32, 128, seed=8)
        rep = weak_rank_bound_experiment(d, 8, 16, 5, seed=2)
        rho = 128 / 32
        lemma_at_gates = 8 + (1 / rho) * 16 * (1 - 2 * 0.25)
        assert abs(rep.summary["bound_gate_derived"] - lemma_at_gates) < 1e-12
        assert abs(rep.summary["bound_stated"] - (8 + 2 * 32 * 16 / 128)) < 1e-12

    def test_no_rank_violations_small_run(self):
        d = build_random_tight_frame(32, 128, seed=8)
        rep = weak_rank_bound_experiment(d, 8, 16, 25, seed=3)
        assert rep.summary["all_violations_stated"] == 0
        assert rep.summary["all_violations_gate_derived"] == 0
