"""Dictionaries of unit-norm atoms and their geometric metrics.

A dictionary is an m x N complex matrix whose columns (atoms) have unit
Euclidean norm and span the ambient space.  Two scalar quantities drive
everything downstream:

* redundancy  rho = ||Phi||^2   (squared spectral norm, >= N/m)
* coherence   mu  = max_{j != k} |<phi_j, phi_k>|

Constructors return immutable :class:`Dictionary` instances with both
metrics cached and all structural invariants checked.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

COLUMN_NORM_TOL = 1e-12
TIGHTNESS_TOL = 1e-8

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

    def __iter__(self):
        return iter(self.indices)

    def __contains__(self, i) -> bool:
        return i in self.indices

    def union(self, other: "AtomSet") -> "AtomSet":
        return AtomSet.of(set(self.indices) | set(other.indices))

    def intersection(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(tuple(sorted(set(self.indices) & set(other.indices))))

    def difference(self, other: "AtomSet") -> "AtomSet":
        return AtomSet(tuple(sorted(set(self.indices) - set(other.indices))))

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
        """Column submatrix Phi_S for the given atom set."""
        if atom_set.indices and atom_set.indices[-1] >= self.n_atoms:
            raise IndexError("atom index out of range")
        return self.atoms[:, list(atom_set.indices)]

    def complement(self, atom_set: AtomSet) -> AtomSet:
        taken = set(atom_set.indices)
        return AtomSet(tuple(i for i in range(self.n_atoms) if i not in taken))


def coherence(atoms_or_dict) -> float:
    """Maximum off-diagonal Gram magnitude, computed exactly.

    Accepts a Dictionary or a raw (m, N) array with N >= 2 unit-norm columns.
    """
    atoms = atoms_or_dict.atoms if isinstance(atoms_or_dict, Dictionary) else np.asarray(atoms_or_dict)
    if atoms.shape[1] < 2:
        raise DictionaryError("coherence needs at least two atoms")
    gram = atoms.conj().T @ atoms
    off = np.abs(gram - np.diag(np.diag(gram)))
    return float(off.max())


def redundancy(atoms_or_dict) -> float:
    """Squared spectral norm of the dictionary matrix."""
    atoms = atoms_or_dict.atoms if isinstance(atoms_or_dict, Dictionary) else np.asarray(atoms_or_dict)
    smax = np.linalg.svd(atoms, compute_uv=False)[0]
    return float(smax**2)


def welch_lower_bound(m: int, n_atoms: int) -> float:
    """Grassmannian lower bound on coherence; 0 when N <= m."""
    if m < 1:
        raise ValueError("m must be positive")
    if n_atoms <= m:
        return 0.0
    return math.sqrt((n_atoms - m) / (m * (n_atoms - 1)))


def _finalize(atoms: np.ndarray, provenance: dict) -> Dictionary:
    """Validate structural invariants and cache the metrics."""
    atoms = np.ascontiguousarray(atoms, dtype=np.complex128)
    m, n = atoms.shape
    norms = np.linalg.norm(atoms, axis=0)
    worst = float(np.abs(norms - 1.0).max())
    if worst > max(COLUMN_NORM_TOL, TIGHTNESS_TOL):
        raise DictionaryError(f"atom norms deviate from 1 by {worst:.3e}")
    sv = np.linalg.svd(atoms, compute_uv=False)
    if int(np.sum(sv > sv[0] * max(m, n) * np.finfo(float).eps)) < m:
        raise DictionaryError("atoms do not span the ambient space")
    rho = float(sv[0] ** 2)
    if rho < n / m - 1e-10:
        raise DictionaryError(f"redundancy {rho} below N/m = {n / m}")
    mu = coherence(atoms) if n >= 2 else 0.0
    if not (0.0 <= mu <= 1.0 + 1e-12):
        raise DictionaryError(f"coherence {mu} outside [0, 1]")
    if n > m and mu < welch_lower_bound(m, n) - 1e-10:
        raise DictionaryError("coherence below the Grassmannian bound")
    return Dictionary(atoms=atoms, coherence=mu, redundancy=rho, provenance=provenance)


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


def build_random_tight_frame(
    m: int,
    n_atoms: int,
    seed: int,
    max_iterations: int = 10_000,
    tol: float = TIGHTNESS_TOL,
) -> Dictionary:
    """Random unit-norm tight frame via alternating projections.

    Iterates two steps: project onto scaled co-isometries (Phi Phi* =
    (N/m) I, via SVD) and renormalize columns, until both the tightness
    residual |rho - N/m| and the worst column-norm deviation fall below
    ``tol``.  Raises TightFrameConvergenceError when the cap is hit.
    """
    if n_atoms <= m:
        raise DictionaryError("a redundant tight frame needs n_atoms > m")
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((m, n_atoms)) + 1j * rng.standard_normal((m, n_atoms))
    atoms /= np.linalg.norm(atoms, axis=0)
    target = n_atoms / m
    rho_res = norm_res = math.inf
    for _ in range(max_iterations):
        u, _, vh = np.linalg.svd(atoms, full_matrices=False)
        atoms = math.sqrt(target) * (u @ vh)
        atoms /= np.linalg.norm(atoms, axis=0)
        sv = np.linalg.svd(atoms, compute_uv=False)
        rho_res = abs(float(sv[0] ** 2) - target)
        norm_res = float(np.abs(np.linalg.norm(atoms, axis=0) - 1.0).max())
        if rho_res <= tol and norm_res <= tol:
            return _finalize(
                atoms,
                {"kind": "random-tight", "m": m, "n_atoms": n_atoms, "seed": seed},
            )
    raise TightFrameConvergenceError(max_iterations, rho_res, norm_res)


@dataclass(frozen=True)
class WeakIncoherenceCheck:
    """Outcome of the weakly-incoherent-tight-frame test with margins."""

    tight: bool
    tight_margin: float          # tolerance - |rho - N/m|; >= 0 iff tight
    coherent: bool
    coherence_margin: float      # c/log N - mu; >= 0 iff coherent enough
    c: float

    @property
    def passed(self) -> bool:
        return self.tight and self.coherent


def is_weakly_incoherent(d: Dictionary, c: float) -> WeakIncoherenceCheck:
    """Check rho = N/m (tolerance 1e-8) and mu <= c / log N."""
    if c <= 0:
        raise ValueError("c must be positive")
    if d.n_atoms < 2:
        raise DictionaryError("need at least two atoms")
    tight_residual = abs(d.redundancy - d.n_atoms / d.m)
    bound = c / math.log(d.n_atoms)
    return WeakIncoherenceCheck(
        tight=tight_residual <= TIGHTNESS_TOL,
        tight_margin=TIGHTNESS_TOL - tight_residual,
        coherent=d.coherence <= bound,
        coherence_margin=bound - d.coherence,
        c=c,
    )


def save_dictionary(d: Dictionary, path) -> None:
    """Write metadata JSON at ``path`` and the matrix payload at ``path + '.bin'``.

    Payload layout: for each column, for each row, the real then the
    imaginary part as little-endian float64 (column-major, interleaved).
    """
    path = Path(path)
    payload_name = path.name + ".bin"
    flat = d.atoms.flatten(order="F")
    buf = np.empty(2 * flat.size, dtype="<f8")
    buf[0::2] = flat.real
    buf[1::2] = flat.imag
    (path.parent / payload_name).write_bytes(buf.tobytes())
    meta = {
        "format": FORMAT_VERSION,
        "m": d.m,
        "n_atoms": d.n_atoms,
        "provenance": d.provenance,
        "coherence": d.coherence,
        "redundancy": d.redundancy,
        "payload": payload_name,
    }
    path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_dictionary(path) -> Dictionary:
    """Read a dictionary written by :func:`save_dictionary`, revalidating it."""
    path = Path(path)
    meta = json.loads(path.read_text())
    if meta.get("format") != FORMAT_VERSION:
        raise DictionaryError(f"unsupported dictionary format {meta.get('format')!r}")
    m, n = int(meta["m"]), int(meta["n_atoms"])
    buf = np.frombuffer((path.parent / meta["payload"]).read_bytes(), dtype="<f8")
    if buf.size != 2 * m * n:
        raise DictionaryError("payload size does not match metadata")
    flat = buf[0::2] + 1j * buf[1::2]
    atoms = flat.reshape((m, n), order="F")
    return _finalize(atoms, dict(meta["provenance"]))
