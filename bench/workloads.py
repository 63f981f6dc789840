"""Benchmark workloads: the inputs each one feeds to ``sparsegap experiment``.

Every input is a function of the workload name and the benchmark seed.
The program sees only what :func:`prepare` writes: a config JSON and, for
``gap-pairs-file``, an ``sgdict-1`` dictionary file holding a frame made
by the benchmark's own tight-frame code, so that the program's dictionary
builder plays no part in that workload.  The file is written with the
program's ``save_dictionary``, so ``sparsegap`` must be importable.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# Index of each workload in the seed derivation; fixed so that adding a
# workload never changes the inputs of another.
WORKLOADS = {
    "gap-trials": {
        "index": 0,
        "config": {"experiment": "gap", "dictionary": {"kind": "spikes-sines", "m": 64},
                   "s": 16, "t": 16, "delta": 0, "pairs": 10, "trials_per_pair": 100},
    },
    "gap-pairs-file": {
        "index": 1,
        "config": {"experiment": "gap", "dictionary": {"path": "frame.sgdict"},
                   "s": 16, "t": 24, "delta": 8, "pairs": 250, "trials_per_pair": 2},
        "frame": (128, 512),
    },
    "sweep-build": {
        "index": 2,
        "config": {"experiment": "stats-sweep",
                   "dictionary": {"kind": "random-tight", "m": 128, "n_atoms": 512},
                   "s_values": [4, 8, 16, 24], "trials_per_s": 50},
    },
}

FRAME_TOL = 1e-11
FRAME_MAX_ITERATIONS = 1000


def derive_seeds(name: str, seed: int) -> tuple[int, int]:
    """(experiment seed, dictionary seed) for one workload and benchmark seed."""
    state = np.random.SeedSequence([seed, WORKLOADS[name]["index"]]).generate_state(2)
    return int(state[0]), int(state[1])


def tightness_error(atoms: np.ndarray) -> float:
    """Largest entry of |Phi Phi* - (N/m) I|."""
    m, n = atoms.shape
    return float(np.abs(atoms @ atoms.conj().T - (n / m) * np.eye(m)).max())


def gram_coherence(atoms: np.ndarray) -> float:
    """Largest off-diagonal magnitude of the Gram matrix Phi* Phi."""
    gram = np.abs(atoms.conj().T @ atoms)
    np.fill_diagonal(gram, 0.0)
    return float(gram.max())


def tight_frame(m: int, n: int, seed: int) -> np.ndarray:
    """Unit-norm tight frame by alternating projections, tight to FRAME_TOL."""
    rng = np.random.default_rng(seed)
    atoms = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    atoms /= np.linalg.norm(atoms, axis=0)
    scale = math.sqrt(n / m)
    for _ in range(FRAME_MAX_ITERATIONS):
        u, _, vh = np.linalg.svd(atoms, full_matrices=False)
        atoms = scale * (u @ vh)
        atoms /= np.linalg.norm(atoms, axis=0)
        if tightness_error(atoms) <= FRAME_TOL:
            return atoms
    raise RuntimeError(f"benchmark frame {m}x{n} (seed {seed}) did not reach {FRAME_TOL}")


def write_sgdict(atoms: np.ndarray, path: Path, provenance: dict) -> float:
    """Write ``atoms`` with the program's sgdict-1 writer; returns the stored coherence.

    The stored coherence and redundancy are the benchmark's own values, not
    ones the program computes.
    """
    from sparsegap.dictionary import Dictionary, save_dictionary

    mu = gram_coherence(atoms)
    save_dictionary(Dictionary(atoms=atoms, coherence=mu, provenance=provenance,
                               redundancy=float(np.linalg.norm(atoms, 2) ** 2)), path)
    return mu


def prepare(name: str, seed: int, work: Path) -> dict:
    """Write the inputs of one workload into ``work``; returns the run spec.

    The spec holds the config as written plus what the checks compare
    against (for ``gap-pairs-file``, the frame and its stored coherence).
    """
    spec = WORKLOADS[name]
    exp_seed, dict_seed = derive_seeds(name, seed)
    config = json.loads(json.dumps(spec["config"]))
    config["seed"] = exp_seed
    out = {"config": config}
    if config["dictionary"].get("kind") == "random-tight":
        config["dictionary"]["seed"] = dict_seed
    if "frame" in spec:
        m, n = spec["frame"]
        atoms = tight_frame(m, n, dict_seed)
        provenance = {"kind": "random-tight", "m": m, "n_atoms": n, "seed": dict_seed}
        out["frame"] = atoms
        out["stored_coherence"] = write_sgdict(atoms, work / config["dictionary"]["path"], provenance)
    (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
    return out
