import collections

import numpy as np
import numpy.linalg._linalg as _linalg
import pytest

from sparsegap.dictionary import _finalize, build_random_tight_frame

# LAPACK factorisation entry points of numpy.linalg.  Each calls LAPACK
# directly, so counting them counts factorisations once; norm(x, 2),
# pinv and matrix_rank reach svd through the _linalg module namespace.
FACTORIZATIONS = ("svd", "eig", "eigh", "eigvals", "eigvalsh", "qr", "cholesky")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of numpy.linalg factorisation calls by name, from here on."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in FACTORIZATIONS:
        wrapped = counting(name, getattr(_linalg, name))
        monkeypatch.setattr(np.linalg, name, wrapped)
        monkeypatch.setattr(_linalg, name, wrapped)
    return calls


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
