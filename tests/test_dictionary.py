import json
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import gram_coherence
from sparsegap.dictionary import (
    GRAM_EIG_FLOOR,
    TIGHTNESS_TOL,
    AtomSet,
    Dictionary,
    DictionaryError,
    TightFrameConvergenceError,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
    certify_gram_floor,
    is_weakly_incoherent,
    load_dictionary,
    _finalize,
    save_dictionary,
    tightness_margin,
    welch_lower_bound,
)


class TestAtomSet:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            AtomSet.of([1, 1, 2])

    def test_rejects_unsorted_tuple(self):
        with pytest.raises(ValueError):
            AtomSet((3, 1))

    def test_overlap(self):
        a = AtomSet.of([0, 1, 2, 3])
        b = AtomSet.of([2, 3, 4])
        assert a.overlap(b) == 2
        assert a.union(b).indices == (0, 1, 2, 3, 4)


class TestSpikesSines:
    def test_coherence_is_inverse_sqrt_m(self):
        d = build_spikes_sines(16)
        assert abs(d.coherence - 0.25) < 1e-12

    def test_tight_frame_rho_two(self):
        d = build_spikes_sines(4)
        assert abs(d.redundancy - 2.0) < 1e-10
        assert d.n_atoms / d.m == 2

    @pytest.mark.parametrize("m", [8, 16, 32, 64, 128, 256, 512])
    def test_redundancy_drift_is_of_order_m_eps(self, m):
        # lambda_max of the formed Phi Phi* lies above the exact rho = 2 by up to 0.92 m eps rho (at m = 512)
        assert abs(build_spikes_sines(m).redundancy - 2.0) <= 2 * m * np.finfo(float).eps * 2.0

    def test_spike_block_orthonormal(self):
        d = build_spikes_sines(16)
        assert abs(np.vdot(d.atoms[:, 0], d.atoms[:, 1])) < 1e-14

    def test_rejects_small_m(self):
        with pytest.raises(DictionaryError):
            build_spikes_sines(1)


class TestRandomUnitNorm:
    def test_deterministic(self):
        a = build_random_unit_norm(8, 16, seed=1)
        b = build_random_unit_norm(8, 16, seed=1)
        assert np.array_equal(a.atoms, b.atoms)

    def test_unit_norms(self):
        d = build_random_unit_norm(8, 16, seed=1)
        norms = np.linalg.norm(d.atoms, axis=0)
        assert np.all(np.abs(norms - 1) <= 1e-12)

    def test_seed_changes_coherence(self):
        a = build_random_unit_norm(8, 16, seed=1)
        b = build_random_unit_norm(8, 16, seed=2)
        assert a.coherence != b.coherence

    def test_rejects_too_few_atoms(self):
        with pytest.raises(DictionaryError):
            build_random_unit_norm(8, 4, seed=0)


def svd_tight_frame(m, n_atoms, seed, tol=TIGHTNESS_TOL):
    """Alternating projections in SVD form: (atoms, iterations to converge).

    The projection is the scaled polar factor sqrt(N/m) U V* of a thin SVD,
    and the frame bounds come from a second SVD of the renormalized iterate:
    it stops once every squared singular value is within tol of N/m.
    """
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((m, n_atoms)) + 1j * rng.standard_normal((m, n_atoms))
    atoms /= np.linalg.norm(atoms, axis=0)
    for iteration in range(1, 10_001):
        u, _, vh = np.linalg.svd(atoms, full_matrices=False)
        atoms = math.sqrt(n_atoms / m) * (u @ vh)
        atoms /= np.linalg.norm(atoms, axis=0)
        frame_res = np.abs(np.linalg.svd(atoms, compute_uv=False) ** 2 - n_atoms / m).max()
        norm_res = np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max()
        if frame_res <= tol and norm_res <= tol:
            return atoms, iteration
    raise AssertionError("reference did not converge")


class TestRandomTightFrame:
    @pytest.mark.parametrize("m,n_atoms,seed", [(8, 32, 7), (32, 128, 7), (2, 3, 0)])
    def test_matches_svd_reference(self, m, n_atoms, seed):
        ref, _ = svd_tight_frame(m, n_atoms, seed)
        d = build_random_tight_frame(m, n_atoms, seed)
        assert np.abs(d.atoms - ref).max() <= 1e-12

    @pytest.mark.parametrize("m,n_atoms,seed", [(8, 32, 7), (2, 3, 0)])
    def test_one_factorization_per_iteration(self, m, n_atoms, seed, linalg_calls):
        _, iterations = svd_tight_frame(m, n_atoms, seed)
        linalg_calls.clear()
        build_random_tight_frame(m, n_atoms, seed)
        # the start, one per iteration, and the validation SVD in _finalize
        assert sum(linalg_calls.values()) <= iterations + 2

    def test_iteration_cap_raises_with_finite_residuals(self, monkeypatch):
        monkeypatch.setattr("sparsegap.dictionary.TIGHT_FRAME_MAX_ITERATIONS", 1)
        with pytest.raises(TightFrameConvergenceError) as info:
            build_random_tight_frame(8, 32, seed=7)
        err = info.value
        assert err.iterations == 1
        assert math.isfinite(err.rho_residual) and math.isfinite(err.norm_residual)
        assert err.rho_residual > TIGHTNESS_TOL
        # the projection's column norms before renormalization, not the rounding left after it
        assert err.norm_residual > TIGHTNESS_TOL

    def test_rank_deficient_iterate_raises(self, monkeypatch):
        # a start with a zero row has a singular Phi Phi*, so no polar factor
        default_rng = np.random.default_rng

        class ZeroLastRow:
            def __init__(self, seed):
                self._rng = default_rng(seed)

            def standard_normal(self, size):
                x = self._rng.standard_normal(size)
                x[-1] = 0.0
                return x

        monkeypatch.setattr(np.random, "default_rng", ZeroLastRow)
        with pytest.raises(TightFrameConvergenceError) as info:
            build_random_tight_frame(3, 5, seed=1)
        assert info.value.iterations == 0
        assert math.isfinite(info.value.rho_residual) and math.isfinite(info.value.norm_residual)

    def test_redundancy_hits_target(self):
        d = build_random_tight_frame(8, 32, seed=7)
        assert abs(d.redundancy - 4.0) <= 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(st.integers(2, 12), st.integers(1, 24), st.integers(0, 2**32 - 1))
    @example(12, 1, 1)  # a stop on rho = lambda_max alone left lambda_min of this frame 1.05e-7 from N/m
    def test_tight_in_every_direction(self, m, extra, seed):
        d = build_random_tight_frame(m, m + extra, seed)
        w = np.linalg.eigvalsh(d.atoms @ d.atoms.conj().T)
        assert np.abs(w - d.n_atoms / m).max() <= TIGHTNESS_TOL
        assert tightness_margin(d) >= 0

    def test_coherence_respects_welch(self):
        d = build_random_tight_frame(8, 32, seed=7)
        welch = welch_lower_bound(8, 32)
        assert abs(welch - math.sqrt(24 / 248)) < 1e-12
        assert d.coherence >= welch

    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_three_atoms_in_two_dims_are_equiangular(self, seed):
        # every unit-norm tight frame of 3 vectors in C^2 has coherence 1/2
        d = build_random_tight_frame(2, 3, seed=seed)
        assert abs(d.coherence - 0.5) < 1e-4


class TestMetrics:
    def test_orthonormal_coherence_zero(self):
        assert _finalize(np.eye(6, dtype=complex), {}).coherence == 0.0

    def test_spikes_sines_m9(self):
        assert abs(build_spikes_sines(9).coherence - 1 / 3) < 1e-12

    def test_duplicate_atom_coherence_one(self):
        v = np.ones(4, dtype=complex) / 2
        atoms = np.stack([v, v], axis=1)
        assert abs(gram_coherence(atoms) - 1.0) < 1e-14

    def test_orthonormal_redundancy_one(self):
        assert abs(_finalize(np.eye(5, dtype=complex), {}).redundancy - 1.0) < 1e-12

    def test_spikes_sines_redundancy(self):
        assert abs(build_spikes_sines(8).redundancy - 2.0) < 1e-10

    def test_random_redundancy_at_least_ratio(self):
        d = build_random_unit_norm(8, 16, seed=3)
        assert d.redundancy >= 2.0 - 1e-10

    def test_welch_examples(self):
        assert welch_lower_bound(4, 4) == 0.0
        assert abs(welch_lower_bound(4, 8) - math.sqrt(4 / 28)) < 1e-12
        assert abs(welch_lower_bound(8, 32) - 0.3110855084) < 1e-9

    def test_metrics_invariant_under_column_phases(self):
        d = build_random_unit_norm(8, 16, seed=4)
        rng = np.random.default_rng(0)
        phases = np.exp(2j * np.pi * rng.random(16))
        scaled = _finalize(d.atoms * phases, {})
        assert abs(scaled.coherence - d.coherence) < 1e-12
        assert abs(scaled.redundancy - d.redundancy) < 1e-10

    def test_complement_lists_the_other_atoms(self):
        d = build_spikes_sines(8)
        for indices in [(), (0,), (3, 7, 15), tuple(range(1, 16)), tuple(range(16))]:
            comp = d.complement(AtomSet(indices))
            assert np.array_equal(comp, [i for i in range(16) if i not in indices])
            assert comp.dtype.kind == "i"

    def test_two_basis_union_coherence_is_cross_term(self):
        d = build_spikes_sines(8)
        cross = np.abs(d.atoms[:, :8].conj().T @ d.atoms[:, 8:]).max()
        assert abs(d.coherence - cross) < 1e-14


PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def finalized_dictionaries(draw):
    """Spikes-sines, random unit-norm, random tight frame, or m atoms plus near duplicates of one."""
    kind = draw(st.sampled_from(["spikes-sines", "random-unit", "random-tight", "near-duplicate"]))
    m = draw(st.integers(2, 12))
    n = draw(st.integers(m + 1, 4 * m))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "spikes-sines":
        return build_spikes_sines(m)
    if kind == "random-unit":
        return build_random_unit_norm(m, n, seed)
    if kind == "random-tight":
        return build_random_tight_frame(m, n, seed)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    noise = rng.standard_normal((m, n - m)) + 1j * rng.standard_normal((m, n - m))
    atoms = np.hstack([base, base[:, :1] + 10.0 ** draw(st.integers(-16, -2)) * noise])
    return _finalize(atoms / np.linalg.norm(atoms, axis=0), {"kind": "near-duplicate"})


class TestOneGram:
    """_finalize forms Phi* Phi once, reads the coherence off it and caches it."""

    @PROPERTY_SETTINGS
    @given(finalized_dictionaries())
    def test_coherence_matches_the_gram_formula(self, d):
        assert d.coherence == gram_coherence(d.atoms)
        assert "gram" in vars(d)
        assert np.array_equal(d.gram, d.atoms.conj().T @ d.atoms)

    def test_finalize_peak_memory_is_one_gram_and_its_magnitudes(self):
        atoms = build_random_unit_norm(8, 256, seed=1).atoms
        assert atoms.flags.c_contiguous and atoms.dtype == np.complex128  # _finalize copies nothing
        tracemalloc.start()
        try:
            d = _finalize(atoms, {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # G (16 B an entry) plus |G| (8 B); the old G - diag(diag(G)) path held three G-sized arrays
        assert peak <= 1.75 * d.gram.nbytes

    def test_gram_blocks_match_each_block_bit_for_bit(self):
        d = build_random_tight_frame(8, 24, seed=3)
        rows = [(0, 5, 9, 17), (23, 1, 2, 3), (4, 4, 6, 7)]  # any order, repeats included
        g = d.gram_blocks(rows)
        assert g.shape == (3, 4, 4)
        for i, row in enumerate(rows):
            assert np.array_equal(g[i], d.gram[np.ix_(row, row)])
        assert d.gram_blocks([()]).shape == (1, 0, 0)


class TestFrameSpectrum:
    """_finalize takes one eigvalsh of Phi Phi* and caches it; an SVD runs only below GRAM_EIG_FLOOR."""

    @pytest.mark.parametrize("build", [lambda: build_random_tight_frame(128, 512, seed=3),
                                       lambda: build_spikes_sines(64)], ids=["tight-128x512", "spikes-sines-64"])
    def test_well_conditioned_takes_one_eigvalsh_and_no_svd(self, build, linalg_calls):
        d = build()
        assert {k: n for k, n in linalg_calls.items() if k != "eigh"} == {"eigvalsh": 1}  # eigh: builder iterations
        linalg_calls.clear()
        assert tightness_margin(d) >= 0
        assert linalg_calls == {}
        w = d.frame_spectrum
        assert w[0] >= GRAM_EIG_FLOOR * w[-1]
        assert d.redundancy == w[-1]
        assert np.array_equal(w, np.linalg.eigvalsh(d.atoms @ d.atoms.conj().T))

    def test_below_the_floor_falls_back_to_the_svd(self, linalg_calls):
        d = build_random_unit_norm(20, 21, seed=1)
        assert linalg_calls == {"eigvalsh": 1, "svd": 1}
        w = d.frame_spectrum
        assert 1e-3 < w[0] / w[-1] < GRAM_EIG_FLOOR  # about 3.3e-3
        assert d.redundancy == w[-1]  # the SVD decides the span only

    @pytest.mark.parametrize("atoms", [np.array([[1, 1], [0, 0]]), np.eye(3)[:, [0, 1, 1, 0]]], ids=["2x2", "3x4"])
    def test_rank_deficient_atoms_do_not_span(self, atoms, linalg_calls):
        with pytest.raises(DictionaryError, match="atoms do not span"):
            _finalize(atoms, {})
        assert linalg_calls == {"eigvalsh": 1, "svd": 1}

    def test_cached_spectrum_is_read_only(self):
        d = build_spikes_sines(8)
        for name in ("gram", "frame_spectrum"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(d, name)[0] = 0

    def test_bare_dictionary_computes_the_spectrum_on_first_use(self, linalg_calls):
        atoms = build_random_tight_frame(8, 32, seed=7).atoms
        d = Dictionary(atoms=atoms, coherence=gram_coherence(atoms), redundancy=4.0, provenance={})
        linalg_calls.clear()
        assert "frame_spectrum" not in vars(d)
        assert tightness_margin(d) >= 0 and d.frame_spectrum is d.frame_spectrum
        assert linalg_calls == {"eigvalsh": 1}
        assert np.array_equal(d.frame_spectrum, np.linalg.eigvalsh(atoms @ atoms.conj().T))
        assert not d.frame_spectrum.flags.writeable


BAND = 1e-12  # a block whose computed lambda_min lies this close to the floor may go either way


def hermitian_stack(rng, lam):
    """Q diag(lam_i) Q* for each row lam_i of lam, Q a random unitary."""
    k, r = lam.shape
    q = np.linalg.qr(rng.standard_normal((k, r, r)) + 1j * rng.standard_normal((k, r, r)))[0]
    g = (q * lam[:, None, :]) @ q.conj().transpose(0, 2, 1)
    return (g + g.conj().transpose(0, 2, 1)) / 2


def near_floor_stack(rng, k, r, top):
    """k Hermitian r x r blocks with lambda_min = f (1 +- 10^-e), e = 1..12, the other eigenvalues up to top; and e."""
    e = rng.integers(1, 13, k)
    lam_min = GRAM_EIG_FLOOR * (1 + rng.choice([-1.0, 1.0], k) * 10.0**-e)
    lam = np.sort(np.hstack([lam_min[:, None], lam_min[:, None] + rng.uniform(0, top, (k, r - 1))]), axis=1)
    return hermitian_stack(rng, lam), e


def floor_reference(g):
    """(lambda_min >= GRAM_EIG_FLOOR, whether lambda_min lies outside BAND of the floor) per block, from eigvalsh."""
    w0 = np.linalg.eigvalsh(g)[:, 0]
    return w0 >= GRAM_EIG_FLOOR, np.abs(w0 - GRAM_EIG_FLOOR) > BAND


class TestGramFloorCertificate:
    """certify_gram_floor (a Cholesky of G - floor * I) against eigvalsh(G)[0] >= GRAM_EIG_FLOOR."""

    @PROPERTY_SETTINGS
    @given(st.integers(1, 16), st.integers(1, 8), st.integers(0, 2**32 - 1), st.sampled_from([1.0, 4.0, 32.0]))
    def test_agrees_with_eigvalsh_near_the_floor(self, r, k, seed, top):
        g, _ = near_floor_stack(np.random.default_rng(seed), k, r, top)  # e >= 10 lands inside BAND
        passes, decided = floor_reference(g)
        event("blocks skipped inside the band", payload=int(np.count_nonzero(~decided)))
        assert np.array_equal(certify_gram_floor(g)[decided], passes[decided])

    def test_skipped_blocks_are_the_ones_inside_the_band(self):
        g, e = near_floor_stack(np.random.default_rng(7), 2000, 8, 8.0)
        passes, decided = floor_reference(g)
        assert np.array_equal(certify_gram_floor(g)[decided], passes[decided])
        # f 10^-e is 1e-12 at e = 10: 452 of the 2000 blocks are skipped, all with e >= 10
        assert decided[e <= 9].all() and not decided[e >= 11].any()
        assert 0 < passes[decided].sum() < decided.sum()

    def test_one_failing_block_matches_block_by_block(self, linalg_calls):
        d = build_random_tight_frame(8, 24, seed=3)
        rows = [(0, 5, 9, 17), (23, 1, 2, 3), (4, 6, 7, 8), (10, 11, 12, 13)]
        g = d.gram_blocks(rows)
        g[2] = hermitian_stack(np.random.default_rng(1), np.array([[0.5 * GRAM_EIG_FLOOR, 1.0, 1.5, 2.0]]))[0]
        linalg_calls.clear()
        got = certify_gram_floor(g)
        assert linalg_calls.calls == {"cholesky": 1 + len(rows)}  # the stack fails as a whole, then each block
        assert got.tolist() == [certify_gram_floor(g[i:i + 1])[0] for i in range(len(rows))]
        assert got.tolist() == floor_reference(g)[0].tolist() == [True, True, False, True]
        linalg_calls.clear()
        assert certify_gram_floor(g[2:3]).tolist() == [False]
        assert linalg_calls.calls == {"cholesky": 1}  # a single block takes no retry

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_blocks_pass(self, k):
        assert certify_gram_floor(np.zeros((k, 0, 0), dtype=np.complex128)).tolist() == [True] * k

    @pytest.mark.parametrize("e", [1, 3, 6, 9])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_scaled_blocks(self, e, sign):
        # real Gram blocks scaled so that lambda_min sits at f (1 +- 10^-e), and scaled far up and down
        d = build_random_tight_frame(16, 48, seed=2)
        g = d.gram_blocks([range(i, i + 6) for i in range(0, 42, 6)])
        w0 = np.linalg.eigvalsh(g)[:, 0]
        for scale in (GRAM_EIG_FLOOR * (1 + sign * 10.0**-e) / w0, 1e3 * np.ones(len(g)), 1e-3 * np.ones(len(g))):
            scaled = g * scale[:, None, None]
            passes, decided = floor_reference(scaled)
            assert decided.all()
            assert np.array_equal(certify_gram_floor(scaled), passes)


class TestWeakIncoherence:
    def test_spikes_sines_large(self):
        d = build_spikes_sines(256)
        check = is_weakly_incoherent(d, c=1.0)
        assert check.tight
        # mu = 1/16 vs 1/log 512
        assert check.coherent == (1 / 16 <= 1 / math.log(512))

    def test_non_tight_fails_tightness(self):
        d = build_random_unit_norm(8, 16, seed=1)
        assert not is_weakly_incoherent(d, c=1.0).tight

    def test_orthonormal_passes(self):
        atoms = np.eye(8, dtype=complex)
        d = Dictionary(atoms=atoms, coherence=0.0, redundancy=1.0, provenance={})
        check = is_weakly_incoherent(d, c=1.0)
        assert check.passed

    def test_low_lower_frame_bound_is_not_tight(self):
        # Phi Phi* = diag(2, 2, 2 - 5e-8): rho = N/m exactly, but one direction falls short
        atoms = np.hstack([np.eye(3), np.diag([1.0, 1.0, math.sqrt(1 - 5e-8)])]).astype(complex)
        d = Dictionary(atoms=atoms, coherence=0.0, redundancy=2.0, provenance={})
        assert abs(tightness_margin(d) - (TIGHTNESS_TOL - 5e-8)) < 1e-15
        check = is_weakly_incoherent(d, c=1.0)
        assert not check.tight and check.tight_margin == tightness_margin(d)


class TestConstructionInvariants:
    @pytest.mark.parametrize("d", [
        build_spikes_sines(16),
        build_random_unit_norm(8, 24, seed=2),
        build_random_tight_frame(8, 32, seed=7),
    ], ids=["spikes-sines", "random-unit", "random-tight"])
    def test_all_invariants(self, d):
        norms = np.linalg.norm(d.atoms, axis=0)
        assert np.abs(norms - 1).max() <= 1e-8
        assert np.linalg.matrix_rank(d.atoms) == d.m
        assert d.redundancy >= d.n_atoms / d.m - 1e-10
        assert 0 <= d.coherence <= 1
        assert d.coherence >= welch_lower_bound(d.m, d.n_atoms) - 1e-10

    @pytest.mark.parametrize("frame", [
        build_random_tight_frame(8, 32, seed=7).atoms,
        np.array([[1, -0.5, -0.5], [0, math.sqrt(3) / 2, -math.sqrt(3) / 2]]),  # equiangular, mu = Welch = 1/2
    ], ids=["tight-8x32", "equiangular-3-in-c2"])
    def test_accepts_and_round_trips_norms_within_tolerance(self, frame, tmp_path):
        # unit norms give rho >= N/m and mu >= Welch only up to the norm tolerance, so neither is checked to 1e-10
        atoms = (1 - 5e-9) * frame.astype(complex)
        d = _finalize(atoms, {"kind": "scaled"})
        assert d.redundancy < d.n_atoms / d.m - 1e-10
        save_dictionary(d, tmp_path / "d.sgdict")
        loaded = load_dictionary(tmp_path / "d.sgdict")
        assert np.array_equal(loaded.atoms, atoms)
        assert (loaded.coherence, loaded.redundancy) == (d.coherence, d.redundancy)

    @pytest.mark.parametrize("entry", [math.nan, complex(0, math.nan)], ids=["real", "imaginary"])
    def test_rejects_nan_atom(self, entry):
        atoms = np.eye(3, dtype=complex)
        atoms[2, 1] = entry  # its norm is NaN, which is not above the tolerance either
        with pytest.raises(DictionaryError, match="atom norms deviate from 1 by nan"):
            _finalize(atoms, {})


class TestSerialization:
    def test_round_trip(self, tmp_path):
        d = build_random_tight_frame(8, 32, seed=7)
        path = tmp_path / "d.sgdict"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert np.array_equal(loaded.atoms, d.atoms)
        assert loaded.coherence == d.coherence
        assert loaded.redundancy == d.redundancy
        assert loaded.provenance == d.provenance

    def test_payload_is_little_endian_complex128_column_major(self, tmp_path):
        d = build_random_unit_norm(3, 5, seed=1)
        path = tmp_path / "d.sgdict"
        save_dictionary(d, path)
        expected = b"".join(struct.pack("<2d", z.real, z.imag) for z in d.atoms.ravel(order="F"))
        assert (tmp_path / "d.sgdict.bin").read_bytes() == expected
        assert load_dictionary(path).atoms.tobytes() == d.atoms.tobytes()

    def test_format_field(self, tmp_path):
        d = build_spikes_sines(4)
        path = tmp_path / "d.sgdict"
        save_dictionary(d, path)
        meta = json.loads(path.read_text())
        assert meta["format"] == "sgdict-1"
        payload = (tmp_path / meta["payload"]).read_bytes()
        assert len(payload) == 2 * 8 * d.m * d.n_atoms


def tamper(path, **changes):
    """Rewrite the sgdict-1 metadata at ``path`` with ``changes`` applied."""
    meta = json.loads(path.read_text())
    meta.update(changes)
    path.write_text(json.dumps(meta))


@pytest.fixture
def saved_frame(tmp_path):
    d = build_random_tight_frame(8, 32, seed=7)
    path = tmp_path / "sub" / "d.sgdict"
    path.parent.mkdir()
    save_dictionary(d, path)
    return d, path


class TestLoadValidation:
    @pytest.mark.parametrize("payload", [
        "../d.sgdict.bin", "..", ".", "", "sub/d.sgdict.bin", "sub\\d.sgdict.bin", None, 3,
    ])
    def test_rejects_payload_outside_directory(self, saved_frame, payload):
        _, path = saved_frame
        # a copy one level up, which a joined "../d.sgdict.bin" would read
        data = (path.parent / "d.sgdict.bin").read_bytes()
        (path.parent.parent / "d.sgdict.bin").write_bytes(data)
        tamper(path, payload=payload)
        with pytest.raises(DictionaryError, match="payload"):
            load_dictionary(path)

    def test_rejects_absolute_payload(self, saved_frame):
        _, path = saved_frame
        tamper(path, payload=str((path.parent / "d.sgdict.bin").resolve()))
        with pytest.raises(DictionaryError, match="payload"):
            load_dictionary(path)

    @pytest.mark.parametrize("name", ["coherence", "redundancy"])
    @pytest.mark.parametrize("offset", [1e-6, -2e-9])
    def test_rejects_stored_metric_mismatch(self, saved_frame, name, offset):
        d, path = saved_frame
        tamper(path, **{name: getattr(d, name) + offset})
        with pytest.raises(DictionaryError, match=f"stored {name}"):
            load_dictionary(path)

    @pytest.mark.parametrize("name", ["coherence", "redundancy"])
    @pytest.mark.parametrize("value", [None, "0.5", float("nan")])
    def test_rejects_missing_or_non_numeric_metric(self, saved_frame, name, value):
        _, path = saved_frame
        tamper(path, **{name: value})
        with pytest.raises(DictionaryError, match=f"stored {name}"):
            load_dictionary(path)

    def test_accepts_drift_within_tolerance(self, saved_frame):
        d, path = saved_frame
        tamper(path, coherence=d.coherence + 1e-12, redundancy=d.redundancy - 1e-12)
        loaded = load_dictionary(path)
        assert loaded.coherence == d.coherence and loaded.redundancy == d.redundancy

    @pytest.mark.parametrize("changes,field", [
        ({"m": "8"}, "m"), ({"m": 8.7}, "m"), ({"n_atoms": True}, "n_atoms"),
        ({"m": -8, "n_atoms": -32}, "m"),  # 2 m N still matches the payload size
        ({"provenance": [["kind", "random-tight"], ["m", 8]]}, "provenance"),
    ], ids=["string-m", "fractional-m", "bool-n-atoms", "negative-shape", "provenance-pairs"])
    def test_rejects_mistyped_shape_or_provenance(self, saved_frame, changes, field):
        _, path = saved_frame
        tamper(path, **changes)
        with pytest.raises(DictionaryError, match=f"metadata field '{field}'"):
            load_dictionary(path)

    def test_rejects_other_format_version(self, saved_frame):
        _, path = saved_frame
        tamper(path, format="sgdict-2")
        with pytest.raises(DictionaryError, match="unsupported dictionary format 'sgdict-2'"):
            load_dictionary(path)

    @pytest.mark.parametrize("cut", [lambda b: b[:-16], lambda b: b + b"\0", lambda b: b[:-1]],
                             ids=["one-entry-short", "one-byte-long", "one-byte-short"])
    def test_rejects_truncated_payload(self, saved_frame, cut):
        _, path = saved_frame
        payload = path.parent / "d.sgdict.bin"
        payload.write_bytes(cut(payload.read_bytes()))
        with pytest.raises(DictionaryError, match="payload size does not match metadata"):
            load_dictionary(path)

    @pytest.mark.parametrize("index,value", [(0, math.inf), (1, -math.inf), (2, math.nan)],
                             ids=["inf-real", "minus-inf-imaginary", "nan"])
    def test_rejects_non_finite_payload(self, saved_frame, index, value):
        # rejected before the complex decode, so no RuntimeWarning (an error under this suite)
        _, path = saved_frame
        payload = path.parent / "d.sgdict.bin"
        buf = np.frombuffer(payload.read_bytes(), dtype="<f8").copy()
        buf[index] = value  # even indices are real parts, odd ones imaginary parts
        payload.write_bytes(buf.tobytes())
        with pytest.raises(DictionaryError, match="payload holds a non-finite value"):
            load_dictionary(path)
