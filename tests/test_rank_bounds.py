import math

import numpy as np
import pytest

from sparsegap.dictionary import AtomSet, build_random_unit_norm, build_spikes_sines
from sparsegap.rank_bounds import (
    DependentSetError,
    NotPsdError,
    OverlappingSetError,
    SingularBlockError,
    numerical_rank,
    rank_decompose_projected,
    rank_lb_coherence,
    rank_lb_frobenius_spectral,
    rank_lb_norm_ratio,
    rank_lb_trace_frobenius,
    rank_lb_weak,
    rank_report,
    schatten_norm,
    schur_complement,
    verify_schur_rank_identity,
)


def random_matrix(rng, rows, cols, complex_=True):
    a = rng.standard_normal((rows, cols))
    if complex_:
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


class TestSchattenNorm:
    def test_identity_p1(self):
        assert abs(schatten_norm(np.eye(5), 1) - 5) < 1e-12

    def test_identity_p2(self):
        assert abs(schatten_norm(np.eye(5), 2) - math.sqrt(5)) < 1e-12

    def test_p2_matches_entrywise(self):
        rng = np.random.default_rng(0)
        a = random_matrix(rng, 5, 7)
        entrywise = math.sqrt(np.sum(np.abs(a) ** 2))
        assert abs(schatten_norm(a, 2) - entrywise) <= 1e-10 * entrywise

    def test_p_inf_is_spectral(self):
        rng = np.random.default_rng(1)
        a = random_matrix(rng, 4, 6)
        assert abs(schatten_norm(a, math.inf) - np.linalg.norm(a, 2)) < 1e-12

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError):
            schatten_norm(np.eye(2), 0.5)


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(7)) == 7

    def test_outer_product(self):
        u = np.arange(1, 5, dtype=float)
        v = np.arange(2, 8, dtype=float)
        assert numerical_rank(np.outer(u, v)) == 1

    def test_full_spikes_sines(self):
        d = build_spikes_sines(8)
        assert numerical_rank(d.atoms) == 8


class TestNormRatioBound:
    def test_identity_tight(self):
        assert abs(rank_lb_norm_ratio(np.eye(6), 1, 2) - 6) < 1e-10

    def test_rank_one(self):
        a = np.outer([1.0, 2.0], [3.0, 4.0, 5.0])
        for p, q in [(1, 2), (1, math.inf), (2, math.inf)]:
            assert abs(rank_lb_norm_ratio(a, p, q) - 1) < 1e-10

    def test_diag_p1_qinf(self):
        assert abs(rank_lb_norm_ratio(np.diag([1.0, 0.5]), 1, math.inf) - 1.5) < 1e-12

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            rank_lb_norm_ratio(np.eye(2), 2, 2)

    def test_constant_singular_values_equality(self):
        # constant singular values make the (1, 2) ratio bound exact
        rng = np.random.default_rng(2)
        for n in (2, 5, 9):
            q, _ = np.linalg.qr(random_matrix(rng, n, n))
            assert abs(rank_lb_norm_ratio(3.7 * q, 1, 2) - n) < 1e-8


class TestCorollaryBounds:
    def test_trace_frobenius_identity(self):
        assert abs(rank_lb_trace_frobenius(np.eye(4)) - 4) < 1e-12

    def test_trace_frobenius_diag(self):
        assert abs(rank_lb_trace_frobenius(np.diag([1.0, 1.0, 0.0])) - 2.0) < 1e-12

    def test_trace_frobenius_orthonormal_gram(self):
        d = build_spikes_sines(16)
        sub = d.atoms[:, :8]
        gram = sub.conj().T @ sub
        assert abs(rank_lb_trace_frobenius(gram) - 8) < 1e-10

    def test_trace_frobenius_rejects_non_psd(self):
        with pytest.raises(NotPsdError):
            rank_lb_trace_frobenius(np.diag([1.0, -1.0]))

    def test_frobenius_spectral_identity(self):
        assert abs(rank_lb_frobenius_spectral(np.eye(4)) - 4) < 1e-12

    def test_frobenius_spectral_rank_one(self):
        assert abs(rank_lb_frobenius_spectral(np.outer([1.0, 1.0], [1.0, 2.0])) - 1) < 1e-12

    def test_frobenius_spectral_diag(self):
        assert abs(rank_lb_frobenius_spectral(np.diag([2.0, 1.0])) - 1.25) < 1e-12

    def test_frobenius_spectral_rejects_zero(self):
        with pytest.raises(ValueError):
            rank_lb_frobenius_spectral(np.zeros((2, 2)))


class TestCoherenceBound:
    def test_single_atom(self):
        assert rank_lb_coherence(1, 0.7) == 1.0

    def test_orthonormal(self):
        assert rank_lb_coherence(9, 0.0) == 9.0

    def test_spikes_sines_value(self):
        value = rank_lb_coherence(16, 0.25)
        assert abs(value - 16 / (1 + 15 / 16)) < 1e-12
        d = build_spikes_sines(16)
        rng = np.random.default_rng(3)
        for _ in range(20):
            idx = sorted(rng.choice(32, size=16, replace=False).tolist())
            assert value <= numerical_rank(d.atoms[:, idx]) + 1e-9


class TestSchurComplement:
    def test_block_diagonal(self):
        a = np.diag([2.0, 3.0])
        c = np.diag([5.0, 7.0, 11.0])
        x = np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), c]])
        assert np.allclose(schur_complement(x, 2), c)

    def test_two_by_two_closed_form(self):
        c = 0.3 + 0.4j
        x = np.array([[1.0, c], [np.conj(c), 1.0]])
        comp = schur_complement(x, 1)
        assert abs(comp[0, 0] - (1 - abs(c) ** 2)) < 1e-14

    def test_gram_rank_identity_spikes_sines(self):
        d = build_spikes_sines(4)
        sub = d.atoms[:, [0, 1, 4]]  # spike 0, spike 1, sine 0
        x = sub.conj().T @ sub
        res = verify_schur_rank_identity(x, 2)
        assert res.rank_full == 3
        assert res.rank_block + res.rank_complement == 3

    def test_singular_block_rejected(self):
        x = np.diag([0.0, 1.0, 2.0])
        with pytest.raises(SingularBlockError):
            schur_complement(x, 1)


class TestSchurRankIdentity:
    def test_identity_matrix(self):
        for k in (1, 3, 5):
            res = verify_schur_rank_identity(np.eye(6), k)
            assert res.holds and res.rank_full == 6

    def test_rank_deficient_gram(self):
        rng = np.random.default_rng(4)
        g = random_matrix(rng, 3, 5)
        x = g.conj().T @ g
        res = verify_schur_rank_identity(x, 2)
        assert (res.rank_full, res.rank_block, res.rank_complement) == (3, 2, 1)

    def test_block_diagonal_additivity(self):
        rng = np.random.default_rng(5)
        a = random_matrix(rng, 3, 3)
        c = random_matrix(rng, 2, 4)
        x = np.block([
            [a.conj().T @ a, np.zeros((3, 4))],
            [np.zeros((4, 3)), c.conj().T @ c],
        ])
        res = verify_schur_rank_identity(x, 3)
        assert res.holds

    def test_many_random_psd(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 200:
            rows = rng.integers(2, 9)
            cols = rng.integers(2, 9)
            g = random_matrix(rng, rows, cols)
            x = g.conj().T @ g
            k = int(rng.integers(1, cols))
            try:
                res = verify_schur_rank_identity(x, k)
            except SingularBlockError:
                continue
            assert res.holds
            checked += 1


class TestProjectedDecomposition:
    def test_empty_v(self):
        d = build_spikes_sines(8)
        dec = rank_decompose_projected(d, AtomSet.of([0, 1, 2]), AtomSet.of([]))
        assert dec.holds and dec.rank_union == 3

    def test_orthogonal_atoms(self):
        d = build_spikes_sines(4)
        dec = rank_decompose_projected(d, AtomSet.of([0]), AtomSet.of([1]))
        assert (dec.s_size, dec.projected_rank, dec.rank_union) == (1, 1, 2)

    def test_spikes_and_sines_split(self):
        d = build_spikes_sines(16)
        rng = np.random.default_rng(7)
        spikes = AtomSet.of(sorted(rng.choice(16, 8, replace=False).tolist()))
        sines = AtomSet.of(sorted((16 + rng.choice(16, 8, replace=False)).tolist()))
        dec = rank_decompose_projected(d, spikes, sines)
        assert dec.holds
        assert dec.rank_union <= 16

    def test_rejects_overlap(self):
        d = build_spikes_sines(4)
        with pytest.raises(OverlappingSetError):
            rank_decompose_projected(d, AtomSet.of([0, 1]), AtomSet.of([1, 2]))

    def test_rejects_dependent_s(self):
        d = build_spikes_sines(4)
        # 5 atoms in C^4 are always dependent
        with pytest.raises(DependentSetError):
            rank_decompose_projected(d, AtomSet.of([0, 1, 2, 3, 4]), AtomSet.of([6]))

    def test_many_random_instances(self):
        rng = np.random.default_rng(8)
        d = build_random_unit_norm(8, 24, seed=11)
        for _ in range(200):
            s = int(rng.integers(1, 7))
            v = int(rng.integers(0, 8))
            idx = rng.choice(24, size=s + v, replace=False)
            s_set = AtomSet.of(sorted(int(i) for i in idx[:s]))
            v_set = AtomSet.of(sorted(int(i) for i in idx[s:]))
            dec = rank_decompose_projected(d, s_set, v_set)
            assert dec.holds


class TestWeakRankBound:
    def test_orthonormal_tight(self):
        d = build_spikes_sines(8)
        # S and V inside the spike block: cross terms to sines are 1/sqrt(8)
        s_set = AtomSet.of([0, 1])
        v_set = AtomSet.of([2, 3])
        bound = rank_lb_weak(d, s_set, v_set)
        dec = rank_decompose_projected(d, s_set, v_set)
        assert bound <= dec.projected_rank + 1e-9

    def test_empty_v_zero(self):
        d = build_spikes_sines(8)
        assert rank_lb_weak(d, AtomSet.of([0, 1]), AtomSet.of([])) == 0.0

    def test_spikes_sines_closed_form(self):
        d = build_spikes_sines(16)
        s_set = AtomSet.of([0, 1, 2, 3])
        v_set = AtomSet.of([16 + i for i in range(8)])
        bound = rank_lb_weak(d, s_set, v_set)
        assert abs(bound - 3.0) < 1e-9
        dec = rank_decompose_projected(d, s_set, v_set)
        assert dec.projected_rank == 8 >= bound


class TestRankReport:
    def test_bounds_dominated_by_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = random_matrix(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)))
            rep = rank_report(a)
            assert rep.lb_trace_frobenius <= rep.exact_rank + 1e-9
            assert rep.lb_frobenius_spectral <= rep.exact_rank + 1e-9
            assert rep.lb_norm_ratio <= rep.exact_rank + 1e-9
            # computed from the report's own singular values, bit for bit
            assert rep.lb_norm_ratio == rank_lb_norm_ratio(a, 1, 2)

    def test_one_svd(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        rank_report(np.arange(12.0).reshape(3, 4), mu=0.5)
        assert len(calls) == 1
        schatten_norm(np.eye(3), 2)  # entrywise Frobenius, no SVD
        assert len(calls) == 1

    def test_singular_values_sorted(self):
        rng = np.random.default_rng(10)
        rep = rank_report(random_matrix(rng, 5, 8))
        sv = np.array(rep.singular_values)
        assert np.all(np.diff(sv) <= 0) and np.all(sv >= 0)

    def test_json_round_trip(self):
        import json
        rep = rank_report(np.eye(3))
        data = json.loads(rep.to_json())
        assert data["exact_rank"] == 3
