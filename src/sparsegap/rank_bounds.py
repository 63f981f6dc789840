"""Exact numerical rank and the analytic lower bounds that sandwich it.

All bounds are certified against :func:`numerical_rank`, the SVD-based
ground truth.  The norm-ratio family works for any matrix; the
trace/Frobenius form needs a psd input; the coherence form applies to
subdictionaries of unit-norm atoms.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from .dictionary import AtomSet, Dictionary

HERMITIAN_TOL = 1e-10
PSD_REL_TOL = 1e-8
BLOCK_SINGULARITY_REL_TOL = 1e-10


class NotPsdError(ValueError):
    """Input fails the Hermitian positive-semidefinite gate."""


class SingularBlockError(ValueError):
    """Leading block of a Schur split is numerically singular."""

    def __init__(self, smallest_eigenvalue: float):
        self.smallest_eigenvalue = smallest_eigenvalue
        super().__init__(
            f"leading block is numerically singular (smallest eigenvalue {smallest_eigenvalue:.3e})"
        )


class DependentSetError(ValueError):
    """An atom set required to be linearly independent is not."""


def _schatten(a: np.ndarray, sv: Optional[np.ndarray], p) -> float:
    """Schatten p-norm of A given its singular values (unused for p = 2)."""
    if p == 2:
        # entrywise Frobenius formula, exact for S2
        return float(np.linalg.norm(a))
    if p == math.inf:
        return float(sv[0]) if sv.size else 0.0
    return float(np.sum(sv**p) ** (1.0 / p))


def schatten_norm(a: np.ndarray, p) -> float:
    """lp norm of the singular value vector; p in [1, inf]."""
    a = np.asarray(a)
    if p != math.inf and p < 1:
        raise ValueError("Schatten norm requires p >= 1")
    return _schatten(a, None if p == 2 else np.linalg.svd(a, compute_uv=False), p)


def default_rank_tolerance(singular_values: np.ndarray, shape) -> float:
    if singular_values.size == 0:
        return 0.0
    return float(singular_values[0]) * max(shape) * np.finfo(float).eps


def numerical_rank(a: np.ndarray, tol: Optional[float] = None) -> int:
    """Count of singular values above the cutoff (scale-aware default)."""
    a = np.asarray(a)
    if a.size == 0:
        raise ValueError("empty matrix has no rank")
    sv = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = default_rank_tolerance(sv, a.shape)
    return int(np.sum(sv > tol))


def _norm_ratio_bound(a: np.ndarray, sv: np.ndarray, p, q) -> float:
    """rank_lb_norm_ratio(a, p, q) given the singular values of A."""
    if p != math.inf and p < 1:
        raise ValueError("requires p >= 1")
    if not (p < q):
        raise ValueError("requires p < q")
    np_norm = _schatten(a, sv, p)
    nq_norm = _schatten(a, sv, q)
    if nq_norm == 0.0:
        raise ValueError("zero matrix")
    exponent = p if q == math.inf else p * q / (q - p)
    return float((np_norm / nq_norm) ** exponent)


def rank_lb_norm_ratio(a: np.ndarray, p, q) -> float:
    """rank(A) >= (||A||_Sp / ||A||_Sq)^(pq/(q-p)) for p < q.

    For q = inf the exponent is the analytic limit p.
    """
    a = np.asarray(a)
    return _norm_ratio_bound(a, np.linalg.svd(a, compute_uv=False), p, q)


def _eigvalsh_checked(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPsdError("input must be square")
    herm_dev = float(np.abs(a - a.conj().T).max())
    scale = float(np.abs(a).max()) or 1.0
    if herm_dev > HERMITIAN_TOL * max(1.0, scale):
        raise NotPsdError(f"input deviates from Hermitian by {herm_dev:.3e}")
    return np.linalg.eigvalsh((a + a.conj().T) / 2)


def rank_lb_trace_frobenius(a: np.ndarray) -> float:
    """rank(A) >= trace(A)^2 / ||A||_F^2 for Hermitian psd A."""
    w = _eigvalsh_checked(a)
    smax = float(np.abs(w).max()) if w.size else 0.0
    if smax and float(w.min()) < -PSD_REL_TOL * smax:
        raise NotPsdError(f"most negative eigenvalue {float(w.min()):.3e}")
    fro_sq = float(np.linalg.norm(a)) ** 2
    if fro_sq == 0.0:
        raise ValueError("zero matrix")
    return float(np.real(np.trace(a))) ** 2 / fro_sq


def rank_lb_frobenius_spectral(a: np.ndarray) -> float:
    """rank(A) >= ||A||_F^2 / ||A||^2 for any nonzero matrix."""
    a = np.asarray(a)
    spec = schatten_norm(a, math.inf)
    if spec == 0.0:
        raise ValueError("zero matrix")
    return float(np.linalg.norm(a)) ** 2 / spec**2


def rank_lb_coherence(r: int, mu: float) -> float:
    """rank(Phi_R) >= r / (1 + (r-1) mu^2) for any r unit-norm atoms."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if not (0.0 <= mu <= 1.0):
        raise ValueError("mu must lie in [0, 1]")
    return r / (1.0 + (r - 1) * mu**2)


@dataclass(frozen=True)
class RankReport:
    """Exact rank of one matrix next to every applicable analytic bound."""

    exact_rank: int
    tolerance_used: float
    lb_trace_frobenius: float
    lb_frobenius_spectral: float
    singular_values: tuple[float, ...]
    lb_norm_ratio: Optional[float] = None
    norm_ratio_pq: Optional[tuple[float, float]] = None
    lb_coherence: Optional[float] = None

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def rank_report(
    a: np.ndarray,
    tol: Optional[float] = None,
    norm_ratio_pq: Optional[tuple] = (1, 2),
    mu: Optional[float] = None,
) -> RankReport:
    """Assemble a RankReport for an arbitrary matrix A.

    The trace/Frobenius bound is evaluated on the Gram matrix A*A (same
    rank as A, always psd).  When ``mu`` is given, A is interpreted as a
    subdictionary of unit-norm atoms and the coherence bound is added.
    """
    a = np.asarray(a)
    sv = np.linalg.svd(a, compute_uv=False)
    if tol is None:
        tol = default_rank_tolerance(sv, a.shape)
    exact = int(np.sum(sv > tol))
    sq = sv**2
    fro4 = float(np.sum(sq**2))
    lb_tf = float(np.sum(sq)) ** 2 / fro4 if fro4 > 0 else 0.0
    lb_fs = float(np.sum(sq)) / float(sq[0]) if sq.size and sq[0] > 0 else 0.0
    lb_nr = pq = None
    if norm_ratio_pq is not None and sv.size and sv[0] > 0:
        p, q = norm_ratio_pq
        lb_nr = _norm_ratio_bound(a, sv, p, q)
        pq = (float(p), float(q))
    lb_co = None
    if mu is not None:
        lb_co = rank_lb_coherence(a.shape[1], mu)
    return RankReport(
        exact_rank=exact,
        tolerance_used=float(tol),
        lb_trace_frobenius=lb_tf,
        lb_frobenius_spectral=lb_fs,
        singular_values=tuple(float(s) for s in sv),
        lb_norm_ratio=lb_nr,
        norm_ratio_pq=pq,
        lb_coherence=lb_co,
    )


def schur_complement(x: np.ndarray, split: int) -> np.ndarray:
    """Schur complement of the leading k x k block of a Hermitian psd matrix.

    Computed via a solve against the leading block.  Raises
    SingularBlockError when the block's smallest eigenvalue is below
    1e-10 times the spectral norm of X.
    """
    w = _eigvalsh_checked(x)
    smax = float(np.abs(w).max()) if w.size else 0.0
    if smax and float(w.min()) < -PSD_REL_TOL * smax:
        raise NotPsdError(f"most negative eigenvalue {float(w.min()):.3e}")
    n = x.shape[0]
    if not (0 < split < n):
        raise ValueError("split must satisfy 0 < k < n")
    a = x[:split, :split]
    b = x[:split, split:]
    c = x[split:, split:]
    wa = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if float(wa.min()) <= BLOCK_SINGULARITY_REL_TOL * smax:
        raise SingularBlockError(float(wa.min()))
    comp = c - b.conj().T @ np.linalg.solve(a, b)
    return (comp + comp.conj().T) / 2


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
    which its own norm-relative cutoff would miscount as rank.
    """
    x = np.asarray(x)
    comp = schur_complement(x, split)
    a = x[:split, :split]
    smax = float(np.linalg.svd(x, compute_uv=False)[0])
    amin = float(np.linalg.eigvalsh((a + a.conj().T) / 2).min())
    tol_comp = max(smax, smax**2 / amin) * x.shape[0] * np.finfo(float).eps * 10
    return SchurRankIdentity(
        rank_full=numerical_rank(x),
        rank_block=numerical_rank(a),
        rank_complement=numerical_rank(comp, tol=tol_comp),
    )


class OverlappingSetError(ValueError):
    """Sets required to be disjoint overlap."""


def _check_disjoint_independent(d: Dictionary, s_set: AtomSet, v_set: AtomSet):
    if s_set.overlap(v_set):
        raise OverlappingSetError("V must be disjoint from S")
    phi_s = d.subdictionary(s_set)
    if len(s_set) > 0 and numerical_rank(phi_s) < len(s_set):
        raise DependentSetError("S is not linearly independent")
    return phi_s


def projector_onto_range(a: np.ndarray, tol: Optional[float] = None) -> np.ndarray:
    """Orthogonal projector onto range(A), via an SVD basis."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    if tol is None:
        tol = default_rank_tolerance(sv, a.shape)
    basis = u[:, sv > tol]
    return basis @ basis.conj().T


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
    phi_s = _check_disjoint_independent(d, s_set, v_set)
    union = d.subdictionary(s_set.union(v_set))
    rank_union = numerical_rank(union) if len(s_set) + len(v_set) else 0
    if len(v_set) == 0:
        return ProjectedRankDecomposition(len(s_set), 0, rank_union)
    phi_v = d.subdictionary(v_set)
    if len(s_set) == 0:
        projected = phi_v
    else:
        p_s = projector_onto_range(phi_s)
        projected = phi_v - p_s @ phi_v
    # cutoff anchored to the union's scale: a column of V lying in
    # range(Phi_S) projects to pure roundoff, which must not count
    sv_union = np.linalg.svd(union, compute_uv=False)
    tol = default_rank_tolerance(sv_union, union.shape)
    return ProjectedRankDecomposition(len(s_set), numerical_rank(projected, tol=tol), rank_union)


def rank_lb_weak(d: Dictionary, s_set: AtomSet, v_set: AtomSet) -> float:
    """Projected-block rank bound from redundancy and cross-correlation.

    rank((I - P_S) Phi_V) >= |V| / rho * (1 - ||Phi_S^+||^2 * max_{v not in S} ||Phi_S* phi_v||^2),
    clamped below at zero.
    """
    phi_s = _check_disjoint_independent(d, s_set, v_set)
    if len(v_set) == 0:
        return 0.0
    if len(s_set) == 0:
        return len(v_set) / d.redundancy
    outside = d.complement(s_set)
    cross = phi_s.conj().T @ d.subdictionary(outside)
    max_cross_sq = float(np.max(np.sum(np.abs(cross) ** 2, axis=0)))
    sigma_min = np.linalg.svd(phi_s, compute_uv=False)[-1]
    pinv_norm_sq = 1.0 / float(sigma_min) ** 2
    bound = len(v_set) / d.redundancy * (1.0 - pinv_norm_sq * max_cross_sq)
    return max(bound, 0.0)
