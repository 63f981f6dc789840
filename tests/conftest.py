import collections
import math

import numpy as np
import numpy.linalg._linalg as _linalg
import pytest

from sparsegap.dictionary import _finalize, build_random_tight_frame

# LAPACK factorisation entry points of numpy.linalg.  Each calls LAPACK
# directly, so counting them counts factorisations once; norm(x, 2),
# pinv and matrix_rank reach svd through the _linalg module namespace.
FACTORIZATIONS = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky")


def gram_coherence(atoms):
    """max |G - diag(diag(G))|: the reference coherence of any atom array, valid dictionary or not."""
    gram = atoms.conj().T @ atoms
    return float(np.abs(gram - np.diag(np.diag(gram))).max())


class LinalgCounts(collections.Counter):
    """Matrices factorised, by entry point name: a stacked call counts each matrix of its stack.

    ``calls`` counts the calls themselves.
    """

    def __init__(self):
        super().__init__()
        self.calls = collections.Counter()

    def clear(self):
        super().clear()
        self.calls.clear()


@pytest.fixture
def linalg_calls(monkeypatch):
    """LinalgCounts of numpy.linalg factorisations by name, from here on."""
    counts = LinalgCounts()

    def counting(name, fn):
        def wrapper(a, *args, **kwargs):
            counts[name] += math.prod(np.shape(a)[:-2])  # the leading batch dimensions
            counts.calls[name] += 1
            return fn(a, *args, **kwargs)
        return wrapper

    for name in FACTORIZATIONS:
        wrapped = counting(name, getattr(_linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setattr(_linalg, name, wrapped)
    return counts


@pytest.fixture(scope="module")
def near_duplicates_6_16():
    """The 8 atoms of a tight frame in C^6, each next to a copy moved by about 1e-15.

    A set holding a copy and its original is numerically dependent, and the
    validated coherence rounds to just above 1.
    """
    base = build_random_tight_frame(6, 8, seed=5).atoms
    twins = base + 1e-15 * np.random.default_rng(0).standard_normal(base.shape)
    atoms = np.hstack([base, twins / np.linalg.norm(twins, axis=0)])
    return _finalize(atoms, {"kind": "near-duplicates", "m": 6, "n_atoms": 16})
