"""Input guards that no other test reaches: one row per guard, each failing once its guard is deleted.

Without its guard, each call below either returns a value or fails later with another exception or message
(numpy's own, a ZeroDivisionError, an IndexError), so the exact type and message pin the guard itself.
``signals._trial_residuals``' zero-signal guard has no row: Gaussian draws over an independent S never
give the zero signal.
"""

import re

import numpy as np
import pytest

from sparsegap.dictionary import AtomSet, build_spikes_sines, welch_lower_bound
from sparsegap.random_subsets import statistics_sweep, subset_statistics
from sparsegap.rank_bounds import (
    _eigvalsh_checked,
    numerical_rank,
    rank_lb_coherence,
    rank_lb_weak,
    verify_schur_rank_identity,
)
from sparsegap.signals import gap_experiment, make_signal, rank_condition, residual_over
from sparsegap.thresholds import generic_up_threshold, strong_gap_threshold

SPIKES_4 = build_spikes_sines(4)  # m = 4, N = 8


def guard(case_id, call, error, message):
    return pytest.param(call, error, message, id=case_id)


GUARDS = [
    guard("atom-set-negative-index", lambda: AtomSet((-1, 2)), ValueError, "atom indices must be nonnegative"),
    *(guard(f"{case}-index-past-n", call, ValueError, "atom indices must be below the 8 atoms of the dictionary")
      for case, call in (
          ("subdictionary", lambda: SPIKES_4.subdictionary(AtomSet.of([99]))),
          ("max-cross", lambda: SPIKES_4.max_cross_sq(AtomSet.of([1, 99]))),
          ("residual-over", lambda: residual_over(SPIKES_4, AtomSet.of([99]), np.ones(4))),
          ("rank-condition", lambda: rank_condition(SPIKES_4, AtomSet.of([0]), AtomSet.of([99]))),
          ("subset-statistics", lambda: subset_statistics(SPIKES_4, AtomSet.of([1, 99]))),
          ("rank-lb-weak", lambda: rank_lb_weak(SPIKES_4, AtomSet.of([0]), AtomSet.of([99]))),
      )),
    guard("welch-m-0", lambda: welch_lower_bound(0, 4), ValueError, "m must be positive"),
    guard("rank-of-empty-matrix", lambda: numerical_rank(np.zeros((0, 3))), ValueError, "empty matrix has no rank"),
    guard("psd-not-square", lambda: _eigvalsh_checked(np.ones((2, 3))), ValueError, "input must be square"),
    guard("psd-not-hermitian", lambda: _eigvalsh_checked(np.array([[1.0, 1.0], [0.0, 1.0]])), ValueError,
          "input deviates from Hermitian by 1.000e+00"),
    guard("rank-lb-coherence-r-0", lambda: rank_lb_coherence(0, 0.1), ValueError, "r must be >= 1"),
    *(guard(f"schur-split-{split}", lambda split=split: verify_schur_rank_identity(np.eye(3), split), ValueError,
            "split must satisfy 0 < k < n") for split in (0, 3)),
    guard("signal-length-mismatch", lambda: make_signal(SPIKES_4, AtomSet.of([0, 1]), [1.0]), ValueError,
          "coefficient length must match the support size"),
    guard("gap-delta-above-min-s-t", lambda: gap_experiment(SPIKES_4, 2, 2, 3, pairs=1, trials_per_pair=1),
          ValueError, "need s >= 1 and 0 <= delta <= min(s, t)"),
    guard("gap-union-above-n", lambda: gap_experiment(SPIKES_4, 4, 5, 0, pairs=1, trials_per_pair=1), ValueError,
          "s + t - delta exceeds the number of atoms"),
    guard("subset-statistics-empty-s", lambda: subset_statistics(SPIKES_4, AtomSet(())), ValueError,
          "S must be nonempty"),
    guard("sweep-no-trials", lambda: statistics_sweep(SPIKES_4, [1], 0), ValueError,
          "trials_per_s must be positive"),
    guard("strong-gap-s-0", lambda: strong_gap_threshold(0, 0.1), ValueError, "s must be >= 1"),
    guard("generic-up-delta-above-s", lambda: generic_up_threshold(2, 3, 0.1), ValueError,
          "need 1 <= s and 0 <= delta <= s"),
]


@pytest.mark.parametrize("call,error,message", GUARDS)
def test_input_guard(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error
