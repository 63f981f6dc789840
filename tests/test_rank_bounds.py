import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import gram_coherence
from sparsegap.dictionary import (
    AtomSet,
    Dictionary,
    build_random_tight_frame,
    build_random_unit_norm,
    build_spikes_sines,
)
from sparsegap.rank_bounds import (
    DependentSetError,
    NotPsdError,
    OverlappingSetError,
    SingularBlockError,
    default_rank_tolerance,
    numerical_rank,
    rank_decompose_projected,
    rank_lb_coherence,
    rank_lb_frobenius_spectral,
    rank_lb_norm_ratio,
    rank_lb_trace_frobenius,
    rank_lb_weak,
    verify_schur_rank_identity,
)


def random_matrix(rng, rows, cols, complex_=True):
    a = rng.standard_normal((rows, cols))
    if complex_:
        a = a + 1j * rng.standard_normal((rows, cols))
    return a


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

    def test_rejects_p_below_one(self):
        with pytest.raises(ValueError, match="Schatten norm requires p >= 1"):
            rank_lb_norm_ratio(np.eye(2), 0.5, 2)

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

    def test_repeated_atom_coherence_rounding_above_one(self):
        v = np.array([0.1 + 0.1j, 0.1 - 0.7j])
        atoms = np.stack([v, v], axis=1) / np.linalg.norm(v)
        mu = gram_coherence(atoms)
        assert mu > 1.0  # rounding: 1 + 2.2e-16
        assert rank_lb_coherence(2, mu) <= numerical_rank(atoms) == 1
        with pytest.raises(ValueError):
            rank_lb_coherence(2, 1.01)

    def test_spikes_sines_value(self):
        value = rank_lb_coherence(16, 0.25)
        assert abs(value - 16 / (1 + 15 / 16)) < 1e-12
        d = build_spikes_sines(16)
        rng = np.random.default_rng(3)
        for _ in range(20):
            idx = sorted(rng.choice(32, size=16, replace=False).tolist())
            assert value <= numerical_rank(d.atoms[:, idx]) + 1e-9


class TestSchurComplement:
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
            verify_schur_rank_identity(x, 1)


class TestSchurRankIdentity:
    def test_identity_matrix(self):
        for k in (1, 3, 5):
            res = verify_schur_rank_identity(np.eye(6), k)
            assert res.holds and res.rank_full == 6

    def test_rank_deficient_gram(self, linalg_calls):
        rng = np.random.default_rng(4)
        g = random_matrix(rng, 3, 5)
        x = g.conj().T @ g
        res = verify_schur_rank_identity(x, 2)
        assert (res.rank_full, res.rank_block, res.rank_complement) == (3, 2, 1)
        assert linalg_calls["svd"] == 1  # the complement; X and A are ranked from their eigenvalues
        assert linalg_calls["eigvalsh"] == 2  # the psd check of X and the leading block, once

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

    def test_orthogonal_atoms(self, linalg_calls):
        d = build_spikes_sines(4)
        linalg_calls.clear()
        dec = rank_decompose_projected(d, AtomSet.of([0]), AtomSet.of([1]))
        assert (dec.s_size, dec.projected_rank, dec.rank_union) == (1, 1, 2)
        # one SVD each for Phi_S, the union and the projected block
        assert linalg_calls == {"svd": 3}

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

    def test_empty_s_is_v_over_rho(self):
        d = build_spikes_sines(8)
        assert rank_lb_weak(d, AtomSet.of([]), AtomSet.of([2, 3, 9])) == 3 / d.redundancy

    def test_spikes_sines_closed_form(self, linalg_calls):
        d = build_spikes_sines(16)
        s_set = AtomSet.of([0, 1, 2, 3])
        v_set = AtomSet.of([16 + i for i in range(8)])
        linalg_calls.clear()
        bound = rank_lb_weak(d, s_set, v_set)
        assert linalg_calls == {"svd": 1}  # Phi_S certifies S and gives sigma_min
        assert abs(bound - 3.0) < 1e-9
        dec = rank_decompose_projected(d, s_set, v_set)
        assert dec.projected_rank == 8 >= bound


class TestRankLowerBounds:
    """The spectral rank bounds, each from its public rank_lb_* function."""

    def test_bounds_dominated_by_rank(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = random_matrix(rng, int(rng.integers(2, 12)), int(rng.integers(2, 12)))
            rank = numerical_rank(a)
            assert rank_lb_trace_frobenius(a.conj().T @ a) <= rank + 1e-9
            assert rank_lb_frobenius_spectral(a) <= rank + 1e-9
            assert rank_lb_norm_ratio(a, 1, 2) <= rank + 1e-9

    def test_one_svd(self, linalg_calls):
        a = np.arange(12.0).reshape(3, 4)
        for bound in (lambda: rank_lb_norm_ratio(a, 1, 2), lambda: rank_lb_frobenius_spectral(a),
                      lambda: rank_lb_trace_frobenius(a.T @ a)):
            linalg_calls.clear()
            bound()
            assert sum(linalg_calls.values()) == 1  # one svd, or the psd gate's one eigvalsh
        linalg_calls.clear()
        rank_lb_coherence(4, 0.5)
        assert linalg_calls == {}

    def test_extreme_scales(self):
        # the bounds are scale-free; squares and fourth powers of these values would overflow or vanish
        for scale in (1e-200, 1e-90, 1e80, 1e200):
            a = np.eye(3) * scale
            bounds = [rank_lb_trace_frobenius(a), rank_lb_frobenius_spectral(a),
                      rank_lb_norm_ratio(a, 1, 2), rank_lb_norm_ratio(a, 2, 4)]
            assert numerical_rank(a) == 3
            assert all(abs(b - 3) < 1e-12 for b in bounds), (scale, bounds)


@st.composite
def low_rank_products(draw):
    """(B C, r) with B m x r and C r x n complex Gaussian, so rank r <= min(m, n)."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    r = draw(st.integers(1, min(m, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_matrix(rng, m, r) @ random_matrix(rng, r, n), r


@st.composite
def badly_scaled(draw):
    """(A 10^k, rank A) for a Gaussian or low-rank A and k in [-8, 8]."""
    if draw(st.booleans()):
        a, rank = draw(low_rank_products())
    else:
        m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        a = random_matrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), m, n)
        rank = min(m, n)
    return a * 10.0 ** draw(st.integers(-8, 8)), rank


@st.composite
def near_duplicate_atoms(draw):
    """Unit-norm columns a + eps e_j around one atom a, eps = 10^k, k in [-16, -2]."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    eps = 10.0 ** draw(st.integers(-16, -2))
    atoms = random_matrix(rng, m, 1) + eps * random_matrix(rng, m, n)
    return atoms / np.linalg.norm(atoms, axis=0)


def assert_bounds_below_numerical_rank(a, mu=None):
    rank = numerical_rank(a)
    # trace/Frobenius on the Gram matrix A*A: psd, with the rank of A
    bounds = [rank_lb_trace_frobenius(a.conj().T @ a), rank_lb_frobenius_spectral(a),
              rank_lb_norm_ratio(a, 1, 2)]
    bounds += [rank_lb_coherence(a.shape[1], mu)] if mu is not None else []
    for bound in bounds:
        # the bounds are ratios of rounded sums over every singular value,
        # including those below the rank cutoff; both add well under 1e-9
        assert bound <= rank + 1e-9


PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestRankLowerBoundProperties:
    """Inputs where the scale-aware rank tolerance decides the answer, for every rank_lb_* bound."""

    @PROPERTY_SETTINGS
    @given(low_rank_products())
    def test_low_rank_products(self, case):
        a, rank = case
        assert numerical_rank(a) == rank  # the cutoff drops the rounding-level values
        assert_bounds_below_numerical_rank(a)

    @PROPERTY_SETTINGS
    @given(badly_scaled())
    def test_badly_scaled(self, case):
        a, rank = case
        assert numerical_rank(a) == rank  # the cutoff scales with the matrix
        assert_bounds_below_numerical_rank(a)

    @PROPERTY_SETTINGS
    @given(near_duplicate_atoms())
    def test_near_duplicate_atoms(self, atoms):
        assert_bounds_below_numerical_rank(atoms, mu=gram_coherence(atoms))


def as_dictionary(atoms):
    """Columns as a Dictionary, unvalidated: they need not be unit-norm or span C^m."""
    return Dictionary(atoms=atoms, coherence=0.0, redundancy=1.0)


def assert_projected_decomposition(atoms, s):
    """The split at column s: S = the first s columns, V = the rest."""
    n = atoms.shape[1]
    dec = rank_decompose_projected(as_dictionary(atoms), AtomSet(tuple(range(s))),
                                   AtomSet(tuple(range(s, n))))
    assert dec.holds
    assert dec.rank_union == numerical_rank(atoms)
    return dec


@st.composite
def v_inside_range_of_s(draw):
    """(Phi, s, fresh): s Gaussian columns, combinations of them, then `fresh` Gaussian columns."""
    m = draw(st.integers(2, 12))
    s = draw(st.integers(1, m - 1))
    fresh = draw(st.integers(0, m - s))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi_s = random_matrix(rng, m, s)
    inside = phi_s @ random_matrix(rng, s, draw(st.integers(1, 6)))
    return np.hstack([phi_s, inside, random_matrix(rng, m, fresh)]), s, fresh


@st.composite
def low_rank_grams(draw):
    """(A* A 10^k, split, r) for a rank-r product A, a split at most r and k in [-8, 8]."""
    a, r = draw(low_rank_products())
    assume(a.shape[1] >= 2)
    split = draw(st.integers(1, min(r, a.shape[1] - 1)))
    return a.conj().T @ a * 10.0 ** draw(st.integers(-8, 8)), split, r


class TestProjectedDecompositionProperties:
    """The projection Phi_V - Q (Q* Phi_V) where the union's cutoff decides the rank."""

    @PROPERTY_SETTINGS
    @given(v_inside_range_of_s())
    def test_v_inside_range_of_s(self, case):
        atoms, s, fresh = case
        dec = assert_projected_decomposition(atoms, s)
        assert dec.projected_rank == fresh  # the combinations project to roundoff

    @PROPERTY_SETTINGS
    @given(badly_scaled(), st.integers(1, 12))
    def test_badly_scaled(self, case, s):
        a, rank = case
        assume(a.shape[1] >= 2)
        s = min(s, rank, a.shape[1] - 1)  # any `rank` columns of these matrices are independent
        dec = assert_projected_decomposition(a, s)
        assert dec.rank_union == rank

    @PROPERTY_SETTINGS
    @given(near_duplicate_atoms(), st.integers(1, 11))
    def test_near_duplicate_atoms(self, atoms, s):
        s = min(s, atoms.shape[1] - 1)
        assume(numerical_rank(atoms[:, :s]) == s)
        # A numerical rank is well defined only with a gap around the cutoff.
        # When a singular value of the union lies within a factor 10 of it,
        # the union's and the projected block's singular values (different
        # quantities) can fall on opposite sides, and the counts need not add
        # up: near-duplicates at eps 1e-15..1e-13 do this in about 2% of draws.
        sv = np.linalg.svd(atoms, compute_uv=False)
        tol = default_rank_tolerance(sv, atoms.shape)
        assume(not np.any((sv > tol / 10) & (sv < tol * 10)))
        assert_projected_decomposition(atoms, s)


class TestSchurRankIdentityProperties:
    @PROPERTY_SETTINGS
    @given(low_rank_grams())
    def test_low_rank_grams(self, case):
        x, split, r = case
        try:
            res = verify_schur_rank_identity(x, split)
        except SingularBlockError:
            assume(False)  # a leading block the solve cannot trust
        assert res.holds
        assert res.rank_full == r
        # ranks read off eigenvalues agree with the SVD reference
        assert res.rank_full == numerical_rank(x)
        assert res.rank_block == numerical_rank(x[:split, :split])


def old_rank_lb_weak(d, s_set, v_set):
    """rank_lb_weak with the cross term from Phi_S* Phi_rest, the formula before the Gram path."""
    phi_s = d.subdictionary(s_set)
    cross = phi_s.conj().T @ d.atoms[:, d.complement(s_set)]
    max_cross_sq = float(np.max(np.sum(np.abs(cross) ** 2, axis=0)))
    pinv_norm_sq = 1.0 / float(np.linalg.svd(phi_s, compute_uv=False)[-1]) ** 2 if len(s_set) else 0.0
    return len(v_set) / d.redundancy * (1.0 - pinv_norm_sq * max_cross_sq), pinv_norm_sq * max_cross_sq


@st.composite
def weak_bound_cases(draw):
    """(dictionary, S, V): a random tight frame or unit-norm dictionary, S of s <= m, V disjoint."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(m + 1, 4 * m))
    build = draw(st.sampled_from([build_random_tight_frame, build_random_unit_norm]))
    d = build(m, n, draw(st.integers(0, 2**32 - 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = rng.permutation(n)
    s = draw(st.integers(0, m))
    v = draw(st.integers(0, n - s))
    return d, AtomSet.of(order[:s]), AtomSet.of(order[s:s + v])


class TestWeakRankBoundProperties:
    @PROPERTY_SETTINGS
    @given(weak_bound_cases())
    def test_matches_the_cross_product_formula(self, case):
        d, s_set, v_set = case
        try:
            bound = rank_lb_weak(d, s_set, v_set)
        except DependentSetError:
            assume(False)
        if not len(v_set):
            assert bound == 0.0
            return
        unclamped, penalty = old_rank_lb_weak(d, s_set, v_set)
        # 1e-13 relative to the larger of the bound's two terms, |V|/rho and its penalty
        assert abs(bound - max(unclamped, 0.0)) <= 1e-13 * len(v_set) / d.redundancy * max(1.0, penalty)
