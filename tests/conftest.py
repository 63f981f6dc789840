import collections

import numpy as np
import numpy.linalg._linalg as _linalg
import pytest

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
