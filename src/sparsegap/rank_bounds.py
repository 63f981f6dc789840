"""Exact numerical rank and the analytic lower bounds that sandwich it.

All bounds are certified against :func:`numerical_rank`, the SVD-based ground truth.  The Schatten norm-ratio
family works for any matrix; the trace/Frobenius form needs a psd input; the coherence form applies to
subdictionaries of unit-norm atoms.  The Schur rank identity and the projected-block decomposition split a rank
into the ranks of its parts.  An input outside a function's hypotheses (not psd, overlapping sets, a dependent S)
raises ValueError; a numerically singular leading block of a Schur split raises its subclass SingularBlockError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dictionary import AtomSet, Dictionary, check_coherence, default_rank_tolerance, rank_of_singular_values

HERMITIAN_TOL = 1e-10
PSD_REL_TOL = 1e-8
BLOCK_SINGULARITY_REL_TOL = 1e-10


class SingularBlockError(ValueError):
    """Leading block of a Schur split is numerically singular."""


def numerical_rank(a: np.ndarray, tol: Optional[float] = None) -> int:
    """Count of singular values above the cutoff (scale-aware default)."""
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("empty matrix has no rank")
    return rank_of_singular_values(np.linalg.svd(a, compute_uv=False), a.shape, tol)


def rank_lb_norm_ratio(a: np.ndarray, p, q) -> float:
    """rank(A) >= (||A||_Sp / ||A||_Sq)^(pq/(q-p)) for p < q.

    For q = inf the exponent is the analytic limit p.
    """
    return _norm_ratio_bound(np.linalg.svd(np.asarray(a), compute_uv=False), p, q)


def _norm_ratio_bound(sv: np.ndarray, p, q) -> float:
    """(||sv||_p / ||sv||_q)^(pq/(q-p)) of descending nonnegative values; exponent p at q = inf."""
    if not (p < q):
        raise ValueError("requires p < q")
    if p < 1:
        raise ValueError("Schatten norm requires p >= 1")
    if not np.any(sv):
        raise ValueError("zero matrix")
    sv = sv / sv[0]  # the bound is scale-free; scaled, no power of sv under- or overflows
    exponent = p if q == math.inf else p * q / (q - p)
    norm_q = 1.0 if q == math.inf else np.sum(sv**q) ** (1.0 / q)  # ||sv||_inf = sv[0] = 1
    return float((np.sum(sv**p) ** (1.0 / p) / norm_q) ** exponent)


def _eigvalsh_checked(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian psd matrix; ValueError for any other input."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("input must be square")
    herm_dev = float(np.abs(a - a.conj().T).max())
    scale = float(np.abs(a).max()) or 1.0
    if herm_dev > HERMITIAN_TOL * max(1.0, scale):
        raise ValueError(f"input deviates from Hermitian by {herm_dev:.3e}")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    smax = float(np.abs(w).max()) if w.size else 0.0
    if smax and float(w.min()) < -PSD_REL_TOL * smax:
        raise ValueError(f"most negative eigenvalue {float(w.min()):.3e}")
    return w


def rank_lb_trace_frobenius(a: np.ndarray) -> float:
    """rank(A) >= trace(A)^2 / ||A||_F^2 for Hermitian psd A: the (1, 2) norm ratio of its eigenvalues."""
    return _norm_ratio_bound(np.sort(np.abs(_eigvalsh_checked(a)))[::-1], 1, 2)


def rank_lb_frobenius_spectral(a: np.ndarray) -> float:
    """rank(A) >= ||A||_F^2 / ||A||^2 for any nonzero matrix: the (2, inf) norm ratio."""
    return rank_lb_norm_ratio(a, 2, math.inf)


def rank_lb_coherence(r: int, mu: float) -> float:
    """rank(Phi_R) >= r / (1 + (r-1) mu^2) for any r unit-norm atoms.

    mu may exceed 1 by COHERENCE_TOL, as the computed coherence of a
    repeated atom can; that only lowers the bound.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    check_coherence(mu)
    return r / (1.0 + (r - 1) * mu**2)


@dataclass(frozen=True)
class SchurRankIdentity:
    rank_full: int
    rank_block: int
    rank_complement: int

    @property
    def holds(self) -> bool:
        return self.rank_full == self.rank_block + self.rank_complement


def verify_schur_rank_identity(x: np.ndarray, split: int) -> SchurRankIdentity:
    """Check rank(X) = rank(A) + rank(X/A) as an exact integer identity.

    The complement's rank cutoff is anchored to the scale of X and the
    conditioning of the leading block: a complement that is exactly zero
    in exact arithmetic carries roundoff of order eps * ||X||^2 / sigma_min(A),
    which its own norm-relative cutoff would miscount as rank.  X and A are
    Hermitian psd, so their eigenvalue magnitudes are their singular values.
    """
    x = np.asarray(x)
    w_x = _eigvalsh_checked(x)
    if not (0 < split < x.shape[0]):
        raise ValueError("split must satisfy 0 < k < n")
    smax = float(np.abs(w_x).max())
    a = x[:split, :split]
    b = x[:split, split:]
    c = x[split:, split:]
    w_a = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w_a[0] <= BLOCK_SINGULARITY_REL_TOL * smax:
        raise SingularBlockError(f"leading block is numerically singular (smallest eigenvalue {w_a[0]:.3e})")
    comp = c - b.conj().T @ np.linalg.solve(a, b)
    sv_x, sv_a = (np.sort(np.abs(w))[::-1] for w in (w_x, w_a))
    tol_comp = max(sv_x[0], sv_x[0]**2 / w_a[0]) * x.shape[0] * np.finfo(float).eps * 10
    return SchurRankIdentity(
        rank_full=rank_of_singular_values(sv_x, x.shape),
        rank_block=rank_of_singular_values(sv_a, (split, split)),
        rank_complement=numerical_rank((comp + comp.conj().T) / 2, tol=tol_comp),
    )


def range_basis(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal basis of range(A), with numerical_rank(A) columns, and A's singular values."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :rank_of_singular_values(sv, a.shape)], sv


def _check_disjoint_independent(d: Dictionary, s_set: AtomSet, v_set: AtomSet):
    """range_basis(Phi_S) for V disjoint from S and within d, and S linearly independent (or empty)."""
    if s_set.overlap(v_set):
        raise ValueError("V must be disjoint from S")
    d.indices_of(v_set)
    basis, sv = range_basis(d.subdictionary(s_set))
    if basis.shape[1] < len(s_set):
        raise ValueError("S is not linearly independent")
    return basis, sv


@dataclass(frozen=True)
class ProjectedRankDecomposition:
    """rank(Phi_{S u V}) split into |S| plus the projected-block rank."""

    s_size: int
    projected_rank: int
    rank_union: int

    @property
    def holds(self) -> bool:
        return self.rank_union == self.s_size + self.projected_rank


def rank_decompose_projected(d: Dictionary, s_set: AtomSet, v_set: AtomSet) -> ProjectedRankDecomposition:
    """rank(Phi_R) = |S| + rank((I - P_S) Phi_V) for disjoint V, independent S."""
    basis, _ = _check_disjoint_independent(d, s_set, v_set)
    if len(v_set) == 0:  # S is independent, so its rank is |S|
        return ProjectedRankDecomposition(len(s_set), 0, len(s_set))
    union = d.subdictionary(s_set.union(v_set))
    phi_v = d.subdictionary(v_set)
    projected = phi_v - basis @ (basis.conj().T @ phi_v)
    # cutoff anchored to the union's scale: a column of V lying in
    # range(Phi_S) projects to pure roundoff, which must not count
    sv_union = np.linalg.svd(union, compute_uv=False)
    tol = default_rank_tolerance(sv_union, union.shape)
    return ProjectedRankDecomposition(len(s_set), numerical_rank(projected, tol=tol),
                                      rank_of_singular_values(sv_union, union.shape, tol))


def rank_lb_weak(d: Dictionary, s_set: AtomSet, v_set: AtomSet) -> float:
    """Projected-block rank bound from redundancy and cross-correlation.

    rank((I - P_S) Phi_V) >= |V| / rho * (1 - ||Phi_S^+||^2 * max_{v not in S} ||Phi_S* phi_v||^2),
    clamped below at zero.
    """
    _, sv = _check_disjoint_independent(d, s_set, v_set)
    if len(v_set) == 0:
        return 0.0
    max_cross_sq = d.max_cross_sq(s_set)  # 0 for empty S
    pinv_norm_sq = 1.0 / float(sv[-1]) ** 2 if len(s_set) else 0.0
    bound = len(v_set) / d.redundancy * (1.0 - pinv_norm_sq * max_cross_sq)
    return max(bound, 0.0)
