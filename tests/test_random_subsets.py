import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsegap
from sparsegap.dictionary import (
    GRAM_EIG_FLOOR,
    AtomSet,
    Dictionary,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
    coherence_constant,
    tightness_margin,
)
from sparsegap.random_subsets import (
    STATISTICS,
    _quantiles,
    rng_streams,
    sample_uniform_subset,
    statistics_sweep,
    subset_statistics,
)
from sparsegap.rank_bounds import numerical_rank


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


@pytest.mark.parametrize("population", [(0, 3, 5), np.arange(7), np.arange(0)], ids=["tuple", "array", "empty"])
def test_choosing_no_atoms_leaves_the_stream_untouched(population):
    """The samplers call Generator.choice with size 0 where delta = 0, t = delta or v_size = 0, unguarded: it gives
    an empty int64 array and draws nothing, so every later draw of the stream is unchanged."""
    rng = np.random.default_rng(11)
    picked = rng.choice(population, size=0, replace=False)
    assert picked.dtype == np.int64 and picked.shape == (0,)
    assert rng.bit_generator.state == np.random.default_rng(11).bit_generator.state


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

    @staticmethod
    def assert_default_rng(streams, prefix, counts):
        """``streams`` are default_rng([*prefix, *i]) for the index tuples i < counts in row-major order."""
        streams = list(streams)
        indices = list(itertools.product(*map(range, counts)))
        assert len(streams) == len(indices)
        for rng, i in zip(streams, indices):
            ref = np.random.default_rng([*prefix, *i])
            assert rng.bit_generator.state == ref.bit_generator.state, i
            assert np.array_equal(rng.standard_normal(5), ref.standard_normal(5)), i

    @pytest.mark.parametrize("count", [0, 1, 1000])
    def test_counts(self, count):
        self.assert_default_rng(rng_streams([12, 3], count), [12, 3], (count,))

    @pytest.mark.parametrize("counts", [(3, 4), (2, 3, 2), (4, 0), (0, 4)])
    def test_axes_are_row_major(self, counts):
        self.assert_default_rng(rng_streams([5], *counts), [5], counts)

    @pytest.mark.parametrize("n_keys", range(6))
    def test_entropy_wider_than_the_pool(self, n_keys):
        # up to 5 keys plus the index: rows of 1 to 11 words against numpy's 4-word pool
        for prefix in ([7 * k + 1 for k in range(n_keys)], [2**40 + k for k in range(n_keys)]):
            self.assert_default_rng(rng_streams(prefix, 3), prefix, (3,))

    def test_keys_with_all_bits_set(self):
        prefix = [2**32 - 1, 2**64 - 1, 2**32 - 1]
        self.assert_default_rng(rng_streams(prefix, 2, 2), prefix, (2, 2))

    @given(prefix=st.lists(st.integers(0, 2**70), max_size=5),
           counts=st.lists(st.integers(0, 4), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    def test_any_prefix_and_counts(self, prefix, counts):
        self.assert_default_rng(rng_streams(prefix, *counts), prefix, counts)

    def test_cli_import_leaves_numpy_random_unimported(self):
        # numpy.random costs several ms to import, so the program imports it on first use, inside a run
        code = "import sys, sparsegap.cli; sys.exit('numpy.random' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(sparsegap.__file__).parents[1])}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestSubsetStatistics:
    def test_orthonormal(self):
        atoms = np.eye(6, dtype=complex)
        d = Dictionary(atoms=atoms, coherence=0.0, redundancy=1.0, provenance={})
        st = subset_statistics(d, AtomSet.of([0, 2, 4]))
        assert st["max_cross_correlation"] == 0.0
        assert st["gram_deviation"] < 1e-14
        assert abs(st["pinv_norm"] - 1.0) < 1e-12

    def test_spikes_sines_closed_form(self):
        d = build_spikes_sines(16)
        st = subset_statistics(d, AtomSet.of([0, 1, 2, 3]))
        assert abs(st["max_cross_correlation"] - 0.5) < 1e-12
        assert st["gram_deviation"] < 1e-12
        assert abs(st["pinv_norm"] - 1.0) < 1e-12

    def test_duplicate_atom_detected(self):
        atoms = np.hstack([np.eye(4, dtype=complex), np.eye(4, dtype=complex)[:, :1]])
        d = Dictionary(atoms=atoms, coherence=1.0, redundancy=2.0, provenance={})
        st = subset_statistics(d, AtomSet.of([0, 4]))
        assert st["gram_deviation"] >= 1.0 - 1e-12

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
            assert abs(st["gram_deviation"] - ref) <= 1e-13 * max(ref, 1.0)
            assert st["gram_deviation"] >= 1.0 or s <= 16
            sigma_min = np.linalg.svd(phi_s, compute_uv=False)[-1]
            if s > 16 or sigma_min**2 < GRAM_EIG_FLOOR:  # the SVD fallback
                assert calls == {"eigvalsh": 1, "svd": 1}
                assert st["pinv_norm"] == 1.0 / sigma_min
            else:
                assert calls == {"eigvalsh": 1}
                assert abs(st["pinv_norm"] * sigma_min - 1.0) <= 1e-13

    def test_gram_deviation_counts_zero_eigenvalues(self):
        # all 17 atoms of a tight frame in C^16: every sigma^2 is 17/16, but
        # the 17 x 17 Gram matrix is singular, so the deviation is 1
        d = build_random_tight_frame(16, 17, seed=1)
        st = subset_statistics(d, AtomSet(tuple(range(17))))
        assert abs(st["gram_deviation"] - 1.0) < 1e-12

    def test_cross_correlation_entrywise_bound(self):
        d = build_random_tight_frame(16, 64, seed=2)
        for seed in range(20):
            s_set = sample_uniform_subset(64, 6, seed)
            st = subset_statistics(d, s_set)
            assert st["max_cross_correlation"] <= math.sqrt(6) * d.coherence + 1e-12
            assert st["pinv_norm"] >= 1.0 - 1e-12

    def test_gram_deviation_controls_pinv(self):
        d = build_random_tight_frame(16, 64, seed=3)
        for seed in range(50):
            s_set = sample_uniform_subset(64, 4, seed)
            st = subset_statistics(d, s_set)
            if st["gram_deviation"] < 1:
                assert numerical_rank(d.subdictionary(s_set)) == len(s_set)
                assert st["pinv_norm"] <= (1 - st["gram_deviation"]) ** -0.5 + 1e-9

    def test_unitary_invariance(self):
        d = build_random_tight_frame(8, 32, seed=4)
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
        rotated = Dictionary(atoms=q @ d.atoms, coherence=d.coherence,
                             redundancy=d.redundancy, provenance={})
        s_set = sample_uniform_subset(32, 5, 7)
        a = subset_statistics(d, s_set)
        b = subset_statistics(rotated, s_set)
        assert abs(a["max_cross_correlation"] - b["max_cross_correlation"]) < 1e-10
        assert abs(a["gram_deviation"] - b["gram_deviation"]) < 1e-10
        assert abs(a["pinv_norm"] - b["pinv_norm"]) < 1e-10


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def reference_statistics(d, s_set):
    """(cross term, Gram deviation, sigma_min) from Phi_S* Phi_rest, the spectral norm and the SVD."""
    phi_s = d.subdictionary(s_set)
    rest = np.delete(np.arange(d.n_atoms), s_set.indices)
    cross = phi_s.conj().T @ d.atoms[:, rest]
    max_cross = float(np.sqrt(np.max(np.sum(np.abs(cross) ** 2, axis=0)))) if len(rest) else 0.0
    gram_dev = float(np.linalg.norm(phi_s.conj().T @ phi_s - np.eye(len(s_set)), 2))
    return max_cross, gram_dev, float(np.linalg.svd(phi_s, compute_uv=False)[-1])


def assert_matches_reference(d, s_set):
    """subset_statistics against the definitions; returns it and whether the SVD gave pinv_norm."""
    st_ = subset_statistics(d, s_set)
    max_cross, gram_dev, sigma_min = reference_statistics(d, s_set)
    assert abs(st_["max_cross_correlation"] - max_cross) <= 1e-13 * max(max_cross, 1.0)
    assert abs(st_["gram_deviation"] - gram_dev) <= 1e-13 * max(gram_dev, 1.0)
    fallback = len(s_set) > d.m or sigma_min**2 < GRAM_EIG_FLOOR
    if fallback:
        assert st_["pinv_norm"] == (math.inf if sigma_min == 0.0 else 1.0 / sigma_min)
    else:
        # 1/sqrt(lambda_min) is accurate to about kappa^2 * eps, and kappa^2 <= s / GRAM_EIG_FLOOR
        assert abs(st_["pinv_norm"] * sigma_min - 1.0) <= 1e-13
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
        assert math.isfinite(stats["pinv_norm"])  # sigma_m(Phi_S) > 0

    @PROPERTY_SETTINGS
    @given(near_duplicate_subsets())
    def test_near_duplicate_atoms(self, case):
        assert assert_matches_reference(*case)[1]

    def test_sweep_one_eigvalsh_per_subset(self, linalg_calls):
        d = build_random_tight_frame(32, 128, seed=9)
        linalg_calls.clear()
        statistics_sweep(d, s_values=(2, 4, 8), trials_per_s=5, seed=4)
        assert linalg_calls == {"eigvalsh": 15}  # one per subset; the tightness check reads d.frame_spectrum

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

    @pytest.mark.parametrize("d", [build_random_tight_frame(8, 32, seed=5), build_random_unit_norm(6, 20, seed=2)],
                             ids=["random-tight", "random-unit"])
    def test_summary_reports_the_weak_gap_constants(self, d):
        """No constant c is chosen: the summary gives the smallest c that passes each hypothesis of the weak gap."""
        summary = statistics_sweep(d, s_values=(1, 3), trials_per_s=2, seed=0).summary
        assert summary["tightness_margin"] == tightness_margin(d)
        assert summary["coherence_constant"] == coherence_constant(d) == d.coherence * math.log(d.n_atoms)
        for s in (1, 3):
            assert summary["per_s"][str(s)]["sparsity_constant"] == s * math.log(d.n_atoms) / d.m

    @pytest.mark.parametrize("s_values", [(4, 8, 33), (0, 4)])
    def test_out_of_range_s_rejected_before_any_factorisation(self, linalg_calls, s_values):
        d = build_random_tight_frame(8, 32, seed=5)
        linalg_calls.clear()
        with pytest.raises(ValueError, match=r"s_values must lie in \[1, 32\]"):
            statistics_sweep(d, s_values=s_values, trials_per_s=5, seed=0)
        assert not linalg_calls and not linalg_calls.calls

    @pytest.mark.parametrize("s_values", [[], [2]], ids=["no-s", "one-s"])
    def test_negative_seed_rejected_before_sampling(self, no_streams, s_values):
        # with no s, no stream would ever see the seed: this gave a report with master_seed -5
        with pytest.raises(ValueError, match="seed must not be negative: -5"):
            statistics_sweep(build_spikes_sines(8), s_values, 3, -5)

    @pytest.mark.parametrize("samples,q,expected", [
        ([1.0, 1.0, math.inf], 0.5, 1.0),  # all the weight on 1: numpy gives 1 + inf * 0
        ([math.inf, 1.0, 1.0], 0.5, 1.0),
        ([1.0, math.inf, math.inf], 0.5, math.inf),  # between two infinite neighbours: b - a = inf - inf
        ([1.0, 1.0, math.inf], 0.75, math.inf),  # numpy's weight >= 0.5 branch: inf - inf * 0.5
        ([1.0, math.inf, math.inf, math.inf], 0.5, math.inf),
    ])
    def test_quantile_nan_next_to_an_infinite_sample(self, samples, q, expected):
        with np.errstate(invalid="ignore"):
            assert math.isnan(np.quantile(samples, q))
        assert _quantiles(samples, [q]) == [expected]

    @given(st.lists(st.one_of(st.floats(0, 1e6), st.just(math.inf)), min_size=1, max_size=9),
           st.lists(st.floats(0, 1), min_size=1, max_size=3))
    def test_quantiles_keep_numpys_values_where_not_nan(self, samples, levels):
        with np.errstate(invalid="ignore"):
            ref = np.quantile(samples, levels).tolist()
        got = _quantiles(samples, levels)
        assert [v for v, r in zip(got, ref) if not math.isnan(r)] == [r for r in ref if not math.isnan(r)]
        assert not any(map(math.isnan, got))
        assert all(min(samples) <= v <= max(samples) for v in got)

    def test_quantiles_present(self):
        d = build_random_tight_frame(16, 64, seed=6)
        rep = statistics_sweep(d, s_values=(2, 4), trials_per_s=25, seed=3)
        # one tuple names the statistics of each row, the columns and the per-s quantiles
        assert rep.columns == ("s", "trial", *STATISTICS, "cross_gate_ok", "pinv_gate_ok")
        assert all(tuple(r) == rep.columns for r in rep.trials)
        for entry in rep.summary["per_s"].values():
            assert set(entry) == {*STATISTICS, "gate_violation_fraction", "sparsity_constant"}
            assert all(set(entry[k]) == {"median", "q_1_minus_1_over_n"} for k in STATISTICS)
        assert 0 <= rep.summary["per_s"]["2"]["gate_violation_fraction"] <= 1

