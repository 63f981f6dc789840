"""Dictionaries of unit-norm atoms and their geometric metrics.

A dictionary is an m x N complex matrix whose columns (atoms) have unit
Euclidean norm and span the ambient space.  Two scalar quantities drive
everything downstream:

* redundancy  rho = ||Phi||^2   (squared spectral norm, >= N/m)
* coherence   mu  = max_{j != k} |<phi_j, phi_k>|

Constructors return immutable :class:`Dictionary` instances with both
metrics, the Gram matrix Phi* Phi (mu is read off it) and the spectrum of
Phi Phi* (rho is its largest eigenvalue) cached, and all structural
invariants checked.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

TIGHTNESS_TOL = 1e-8
TIGHT_FRAME_MAX_ITERATIONS = 10_000
COHERENCE_TOL = 1e-12   # rounding slack above 1 for the coherence of unit-norm atoms
METADATA_TOL = 1e-9    # stored vs recomputed coherence/redundancy in sgdict-1 files
GRAM_EIG_FLOOR = 1e-2  # lambda_min of a Gram block, or of Phi Phi* over its lambda_max, that certifies without an SVD

FORMAT_VERSION = "sgdict-1"


class DictionaryError(ValueError):
    """Invalid dictionary construction parameters or violated invariants."""


class TightFrameConvergenceError(RuntimeError):
    """Alternating projections failed to reach the requested tolerances."""

    def __init__(self, iterations: int, rho_residual: float, norm_residual: float):
        self.iterations = iterations
        self.rho_residual = rho_residual
        self.norm_residual = norm_residual
        super().__init__(
            f"tight-frame construction did not converge in {iterations} iterations "
            f"(rho residual {rho_residual:.3e}, column-norm residual {norm_residual:.3e})"
        )


@dataclass(frozen=True)
class AtomSet:
    """An ordered set of column indices into a dictionary."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = self.indices
        if any(i < 0 for i in idx):
            raise ValueError("atom indices must be nonnegative")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ValueError("atom indices must be strictly increasing")

    @classmethod
    def of(cls, indices: Iterable[int]) -> "AtomSet":
        """Build from any iterable; duplicates are rejected, order is fixed."""
        idx = sorted(int(i) for i in indices)
        if len(set(idx)) != len(idx):
            raise ValueError("duplicate atom indices")
        return cls(tuple(idx))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def union(self, other: "AtomSet") -> "AtomSet":
        return AtomSet.of(set(self.indices) | set(other.indices))

    def overlap(self, other: "AtomSet") -> int:
        """Cardinality of the intersection (the overlap delta)."""
        return len(set(self.indices) & set(other.indices))


@dataclass(frozen=True)
class Dictionary:
    """Immutable m x N dictionary with cached coherence and redundancy."""

    atoms: np.ndarray
    coherence: float
    redundancy: float
    provenance: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return self.atoms.shape[0]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[1]

    def subdictionary(self, atom_set: AtomSet) -> np.ndarray:
        """Column submatrix Phi_S for the given atom set (IndexError past the last atom)."""
        return self.atoms[:, list(atom_set.indices)]

    def complement(self, atom_set: AtomSet) -> np.ndarray:
        """Sorted index array of the atoms not in ``atom_set``."""
        keep = np.ones(self.n_atoms, dtype=bool)
        keep[list(atom_set.indices)] = False
        return np.flatnonzero(keep)

    @functools.cached_property
    def gram(self) -> np.ndarray:
        """Read-only N x N Gram matrix Phi* Phi; set by the constructors, else formed on first use."""
        return _gram(self.atoms)

    @functools.cached_property
    def frame_spectrum(self) -> np.ndarray:
        """Read-only ascending eigenvalues of Phi Phi*; set by the constructors, else computed on first use."""
        return _frame_spectrum(self.atoms)

    def gram_blocks(self, rows) -> np.ndarray:
        """(k, r, r) stack of the principal blocks G[i, i] for k index rows i of length r, bit for bit k gathers."""
        idx = np.array(rows, dtype=np.intp)
        return self.gram[idx[:, :, None], idx[:, None, :]]

    def max_cross_sq(self, atom_set: AtomSet) -> float:
        """max_{v not in S} ||Phi_S* phi_v||^2 (0 if there is no v), from column sums of |G[S, :]|^2."""
        idx = list(atom_set.indices)
        rows = self.gram[idx]
        col = np.sum(rows.real**2 + rows.imag**2, axis=0)
        col[idx] = 0.0  # sums are >= 0, so this drops S and gives 0 for an empty complement
        return float(col.max())


def certify_gram_floor(g: np.ndarray) -> np.ndarray:
    """Per block of the (k, r, r) stack g: lambda_min >= GRAM_EIG_FLOOR (sigma_min >= 0.1), certified by a Cholesky
    factor of g - floor * I.  A 0 x 0 block passes; only a block within rounding, r eps ||g||, of the floor can err."""
    try:
        np.linalg.cholesky(g - GRAM_EIG_FLOOR * np.eye(g.shape[-1]))
        return np.ones(len(g), dtype=bool)
    except np.linalg.LinAlgError:  # numpy fails the whole stack: retry block by block, unless it is one block
        return np.array([len(g) > 1 and certify_gram_floor(b[None])[0] for b in g])


def _gram(atoms: np.ndarray) -> np.ndarray:
    g = atoms.conj().T @ atoms
    g.flags.writeable = False
    return g


def _frame_spectrum(atoms: np.ndarray) -> np.ndarray:
    w = np.linalg.eigvalsh(atoms @ atoms.conj().T)
    w.flags.writeable = False
    return w


def _max_off_diagonal(gram: np.ndarray) -> float:
    off = np.abs(gram)
    np.fill_diagonal(off, 0.0)
    return float(off.max())


def default_rank_tolerance(singular_values: np.ndarray, shape) -> float:
    """Rank cutoff sigma_max * max(shape) * eps for the given singular values."""
    if singular_values.size == 0:
        return 0.0
    return float(singular_values[0]) * max(shape) * np.finfo(float).eps


def rank_of_singular_values(singular_values: np.ndarray, shape, tol: Optional[float] = None) -> int:
    """Count of descending singular values above tol (default: default_rank_tolerance)."""
    if tol is None:
        tol = default_rank_tolerance(singular_values, shape)
    return int(np.count_nonzero(singular_values > tol))


def check_coherence(mu: float) -> None:
    """DictionaryError (a ValueError) unless 0 <= mu <= 1 + COHERENCE_TOL, as unit-norm atoms give."""
    if not (0.0 <= mu <= 1.0 + COHERENCE_TOL):  # the slack is rounding, e.g. of a repeated atom
        raise DictionaryError(f"coherence mu = {mu!r} outside [0, 1 + {COHERENCE_TOL:g}]")


def welch_lower_bound(m: int, n_atoms: int) -> float:
    """Grassmannian lower bound on coherence; 0 when N <= m."""
    if m < 1:
        raise ValueError("m must be positive")
    if n_atoms <= m:
        return 0.0
    return math.sqrt((n_atoms - m) / (m * (n_atoms - 1)))


def _finalize(atoms: np.ndarray, provenance: dict) -> Dictionary:
    """Validate structural invariants; cache the metrics, the Gram matrix and the spectrum of Phi Phi*.

    Checks unit norms, span and mu, not rho >= N/m or the Welch bound (unit norms imply them only to TIGHTNESS_TOL);
    the spectrum certifies the span at lambda_min >= GRAM_EIG_FLOOR * lambda_max, else an SVD of Phi runs for that."""
    atoms = np.ascontiguousarray(atoms, dtype=np.complex128)
    norms = np.linalg.norm(atoms, axis=0)
    worst = float(np.abs(norms - 1.0).max())
    if not worst <= TIGHTNESS_TOL:  # a non-finite atom has a NaN or infinite norm
        raise DictionaryError(f"atom norms deviate from 1 by {worst:.3e}")
    w = _frame_spectrum(atoms)  # rho = lambda_max, accurate to rounding of lambda_max however conditioned
    if w[0] < GRAM_EIG_FLOOR * w[-1]:  # above the floor sigma_min >= 0.1 sigma_max, far above the rank cutoff
        sv = np.linalg.svd(atoms, compute_uv=False)
        if rank_of_singular_values(sv, atoms.shape) < atoms.shape[0]:
            raise DictionaryError("atoms do not span the ambient space")
    gram = _gram(atoms)
    mu = _max_off_diagonal(gram)  # 0 for a single atom
    check_coherence(mu)
    d = Dictionary(atoms=atoms, coherence=mu, redundancy=float(w[-1]), provenance=provenance)
    vars(d).update(gram=gram, frame_spectrum=w)  # the cached properties' slots: each is formed once per dictionary
    return d


def build_spikes_sines(m: int) -> Dictionary:
    """Union of the standard basis with the unitary DFT basis (N = 2m).

    DFT convention: entry (j, k) is exp(-2*pi*i*j*k/m) / sqrt(m).  The
    result is a tight frame with rho = 2 and coherence 1/sqrt(m).
    """
    if m < 2:
        raise DictionaryError("spikes-and-sines needs m >= 2")
    j, k = np.meshgrid(np.arange(m), np.arange(m), indexing="ij")
    dft = np.exp(-2j * np.pi * j * k / m) / math.sqrt(m)
    atoms = np.hstack([np.eye(m, dtype=np.complex128), dft])
    return _finalize(atoms, {"kind": "spikes-sines", "m": m})


def build_random_unit_norm(m: int, n_atoms: int, seed: int) -> Dictionary:
    """Independent uniform draws from the complex unit sphere in C^m."""
    if m < 1 or n_atoms < m:
        raise DictionaryError("need n_atoms >= m >= 1")
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((m, n_atoms)) + 1j * rng.standard_normal((m, n_atoms))
    atoms /= np.linalg.norm(atoms, axis=0)
    return _finalize(atoms, {"kind": "random-unit", "m": m, "n_atoms": n_atoms, "seed": seed})


def build_random_tight_frame(m: int, n_atoms: int, seed: int) -> Dictionary:
    """Random unit-norm tight frame via alternating projections.

    Iterates two steps: project onto scaled co-isometries (Phi Phi* =
    (N/m) I) and renormalize columns, until the tightness residual
    max_i |w_i - N/m| over the eigenvalues w of the renormalized frame's
    Phi Phi* falls below TIGHTNESS_TOL, so it is tight in every direction.
    One Hermitian eigendecomposition Phi Phi* = V diag(w) V* per iterate
    serves both steps: it gives the residual and the
    projection sqrt(N/m) (Phi Phi*)^(-1/2) Phi, the scaled polar factor of
    Phi.  Raises TightFrameConvergenceError, with the projection's worst
    column-norm deviation |norm - 1| before renormalization, after
    TIGHT_FRAME_MAX_ITERATIONS iterations or at a rank-deficient iterate.
    """
    if m < 1 or n_atoms <= m:
        raise DictionaryError("a redundant tight frame needs n_atoms > m >= 1")
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((m, n_atoms)) + 1j * rng.standard_normal((m, n_atoms))
    atoms /= np.linalg.norm(atoms, axis=0)
    target = n_atoms / m
    norm_res = float(np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max())
    for iteration in range(TIGHT_FRAME_MAX_ITERATIONS + 1):
        w, v = np.linalg.eigh(atoms @ atoms.conj().T)
        rho_res = float(np.abs(w - target).max())
        if iteration and rho_res <= TIGHTNESS_TOL:  # the starting frame is projected at least once
            return _finalize(
                atoms,
                {"kind": "random-tight", "m": m, "n_atoms": n_atoms, "seed": seed},
            )
        if iteration == TIGHT_FRAME_MAX_ITERATIONS or not w[0] > 0:  # no (Phi Phi*)^(-1/2); NaN fails too
            raise TightFrameConvergenceError(iteration, rho_res, norm_res)
        atoms = (v * np.sqrt(target / w)) @ (v.conj().T @ atoms)
        norms = np.linalg.norm(atoms, axis=0)
        norm_res = float(np.abs(norms - 1.0).max())
        atoms /= norms


@dataclass(frozen=True)
class WeakIncoherenceCheck:
    """Outcome of the weakly-incoherent-tight-frame test with margins."""

    tight: bool
    tight_margin: float          # tightness_margin(d); >= 0 iff tight
    coherent: bool
    coherence_margin: float      # c/log N - mu; >= 0 iff coherent enough

    @property
    def passed(self) -> bool:
        return self.tight and self.coherent


def tightness_margin(d: Dictionary) -> float:
    """TIGHTNESS_TOL - max_i |lambda_i(Phi Phi*) - N/m|: ``d`` is a tight frame iff this is >= 0."""
    return TIGHTNESS_TOL - float(np.abs(d.frame_spectrum - d.n_atoms / d.m).max())


def is_weakly_incoherent(d: Dictionary, c: float) -> WeakIncoherenceCheck:
    """Check Phi Phi* = (N/m) I (every eigenvalue within 1e-8) and mu <= c / log N."""
    if not c > 0:  # NaN fails too
        raise ValueError("c must be positive")
    if d.n_atoms < 2:
        raise DictionaryError("need at least two atoms")
    tight_margin = tightness_margin(d)
    bound = c / math.log(d.n_atoms)
    return WeakIncoherenceCheck(
        tight=tight_margin >= 0,
        tight_margin=tight_margin,
        coherent=d.coherence <= bound,
        coherence_margin=bound - d.coherence,
    )


def save_dictionary(d: Dictionary, path) -> None:
    """Write metadata JSON at ``path`` and the matrix payload at ``path + '.bin'``.

    Payload layout: the atoms as little-endian complex128 in column-major
    order, so each entry is its real then its imaginary part as
    little-endian float64.  A failed metadata write removes the payload again.
    """
    path = Path(path)
    payload = path.parent / (path.name + ".bin")
    payload.write_bytes(d.atoms.astype("<c16").tobytes(order="F"))
    meta = {
        "format": FORMAT_VERSION,
        "m": d.m,
        "n_atoms": d.n_atoms,
        "provenance": d.provenance,
        "coherence": d.coherence,
        "redundancy": d.redundancy,
        "payload": payload.name,
    }
    try:
        path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    except OSError:
        payload.unlink()
        raise


def load_dictionary(path) -> Dictionary:
    """Read a dictionary written by :func:`save_dictionary`, revalidating it.

    The payload must be a plain file name in the metadata's directory, and
    the stored coherence and redundancy must match the recomputed ones
    within METADATA_TOL.  Unreadable files and missing or mistyped metadata
    (m and n_atoms must be positive integers, provenance an object) raise
    DictionaryError too.
    """
    try:
        path = Path(path)
        meta = json.loads(path.read_text())
        if meta.get("format") != FORMAT_VERSION:
            raise DictionaryError(f"unsupported dictionary format {meta.get('format')!r}")
        payload = meta.get("payload")
        if (not isinstance(payload, str) or payload in ("", ".", "..")
                or any(sep in payload for sep in "/\\")):
            raise DictionaryError(f"payload {payload!r} is not a file name beside the metadata")
        m, n, provenance = meta["m"], meta["n_atoms"], meta["provenance"]
        for name, value in (("m", m), ("n_atoms", n)):
            if type(value) is not int or value < 1:
                raise DictionaryError(f"metadata field {name!r} must be a positive integer, not {value!r}")
        if not isinstance(provenance, dict):
            raise DictionaryError(f"metadata field 'provenance' must be an object, not {provenance!r}")
        raw = (path.parent / payload).read_bytes()
    except (OSError, KeyError, TypeError, AttributeError) as exc:
        raise DictionaryError(f"cannot read dictionary {path}: {type(exc).__name__}: {exc}") from exc
    if len(raw) != 16 * m * n:  # two little-endian float64 per entry
        raise DictionaryError("payload size does not match metadata")
    buf = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(buf).all():  # named here, before _finalize reports it as a nan or inf norm
        raise DictionaryError("payload holds a non-finite value")
    d = _finalize(buf.view("<c16").reshape((m, n), order="F"), provenance)
    for name in ("coherence", "redundancy"):
        stored, actual = meta.get(name), getattr(d, name)
        if not isinstance(stored, (int, float)) or not abs(stored - actual) <= METADATA_TOL:
            raise DictionaryError(f"stored {name} {stored!r} differs from recomputed {actual!r}")
    return d
