import decimal
import math

import numpy as np
import pytest

from sparsegap.rank_bounds import rank_lb_coherence
from sparsegap.thresholds import (
    BOUNDS_COLUMNS,
    donoho_elad_threshold,
    evaluate_thresholds,
    generic_up_threshold,
    overlap_condition,
    strong_gap_threshold,
    t_threshold_given_overlap,
    weak_gap_simplified,
    weak_gap_threshold,
)


class TestDonohoElad:
    def test_reciprocal(self):
        assert donoho_elad_threshold(0.25) == 4.0

    def test_mu_one(self):
        assert donoho_elad_threshold(1.0) == 1.0

    def test_orthonormal_no_finite_threshold(self):
        assert donoho_elad_threshold(0.0) == math.inf

    def test_dirac_comb_consistent(self):
        # two size-4 representations in spikes_sines(16): 8 > 1/mu = 4
        assert 4 + 4 > donoho_elad_threshold(0.25)


class TestStrongGap:
    def test_s_one_matches_donoho_elad(self):
        assert strong_gap_threshold(1, 0.25) == donoho_elad_threshold(0.25)

    def test_acceptance_point(self):
        assert abs(strong_gap_threshold(16, 0.125) - 32.0) < 1e-12

    def test_mu_one(self):
        assert abs(strong_gap_threshold(4, 1.0) - 2.0) < 1e-12


class TestOverlapCondition:
    def test_orthonormal_limit(self):
        dec = overlap_condition(5, 3, 2, 0.0)
        assert dec.rhs == 5.0 and dec.holds

    def test_half_s_remark(self):
        for m in (36, 64, 144):
            s = m // 3
            dec = overlap_condition(s, s, 0, m**-0.5)
            assert dec.rhs >= s / 2 - 1e-9

    def test_numeric_example(self):
        dec = overlap_condition(4, 4, 0, 0.1)
        assert abs(dec.rhs - 3.875) < 1e-12
        assert dec.holds

    def test_vacuous_regime(self):
        dec = overlap_condition(4, 4, 0, 0.6)  # t mu^2 = 1.44
        assert dec.vacuous and not dec.holds and dec.rhs is None


class TestTThreshold:
    def test_numeric_example(self):
        value = t_threshold_given_overlap(2, 0, 0.1)
        assert abs(value - (math.sqrt(200.25) - 1)) < 1e-12

    def test_leading_factor_one(self):
        s, delta, mu = 7, 5, 0.2
        expected = math.sqrt(2 * mu**-2 + 0.25) - 1
        assert abs(t_threshold_given_overlap(s, delta, mu) - expected) < 1e-12

    def test_inapplicable(self):
        assert t_threshold_given_overlap(3, 2, 0.1) is None  # s - delta < 2
        assert t_threshold_given_overlap(4, 0, 0.0) is None  # needs mu > 0

    @pytest.mark.parametrize("mu", [1e-300, 1e-160, 1.5e-154, 1e-8, 0.01, 0.1, 0.3, 0.5, 0.9, 1.0, 1 + 1e-12])
    def test_matches_decimal_reference(self, mu):
        # k (sqrt((1 + 1/k) mu^-2 / k + 1/4) - 1), k = s - delta - 1, to 60 digits; mu^-2 overflows a float below
        # mu ~ 1.5e-154, the threshold only below mu ~ 1e-308.  Near its root the threshold is a difference of two
        # terms of size about k, so it is checked to 1e-14 of k + |threshold|, not of the threshold alone.
        with decimal.localcontext(decimal.Context(prec=60)):
            for s in (2, 3, 5, 17, 60, 1000):
                for delta in sorted({0, (s - 2) // 2, s - 2}):
                    k, m = decimal.Decimal(s - delta - 1), decimal.Decimal(mu)
                    reference = k * (((1 + 1 / k) / (m * m) / k + decimal.Decimal("0.25")).sqrt() - 1)
                    value = t_threshold_given_overlap(s, delta, mu)
                    assert math.isfinite(value)
                    assert abs(decimal.Decimal(value) - reference) <= decimal.Decimal(1e-14) * (k + abs(reference))

    def test_subnormal_mu_gives_an_infinite_threshold(self):
        assert t_threshold_given_overlap(3, 0, 5e-324) == math.inf

    def test_reversion_soundness(self):
        # any integer t strictly below the threshold satisfies the quadratic
        rng = np.random.default_rng(0)
        for _ in range(500):
            s = int(rng.integers(2, 40))
            delta = int(rng.integers(0, s - 1))
            mu = float(rng.uniform(0.01, 0.5))
            thr = t_threshold_given_overlap(s, delta, mu)
            t = int(math.floor(thr - 1e-9))
            if t < max(1, delta):
                continue
            dec = overlap_condition(s, t, min(delta, t), mu)
            assert not dec.vacuous and dec.holds


class TestGenericUp:
    def test_reduces_to_strong_gap(self):
        assert generic_up_threshold(9, 0, 0.2) == strong_gap_threshold(9, 0.2)

    def test_delta_equals_s(self):
        assert generic_up_threshold(6, 6, 0.3) == 6.0

    def test_numeric_example(self):
        value = generic_up_threshold(16, 4, 0.125)
        assert abs(value - (4 + 8 * math.sqrt(12))) < 1e-12


class TestWeakGap:
    def test_quarter_redundancy(self):
        assert abs(weak_gap_threshold(5, 0, 8, 32) - 10.0) < 1e-12

    def test_delta_equals_s_cancels(self):
        assert abs(weak_gap_threshold(6, 6, 8, 32) - 6.0) < 1e-12

    def test_hypothesis_gate(self):
        assert weak_gap_threshold(4, 0, 16, 32) is None

    @pytest.mark.parametrize("fn", [weak_gap_threshold, weak_gap_simplified])
    @pytest.mark.parametrize("m,n_atoms", [(4, 8), (4, 7)], ids=["n-2m", "n-below-2m"])
    def test_none_unless_n_above_2m(self, fn, m, n_atoms):
        assert fn(1, 0, m, n_atoms) is None

    @pytest.mark.parametrize("fn", [weak_gap_threshold, weak_gap_simplified])
    @pytest.mark.parametrize("m,n_atoms", [(0, 12), (-1, 12), (4, 3), (4, -5), (1, 0)])
    def test_no_dictionary_has_this_m_and_n(self, fn, m, n_atoms):
        with pytest.raises(ValueError, match=r"need 1 <= m"):
            fn(3, 1, m, n_atoms)

    def test_simplified_examples(self):
        assert weak_gap_simplified(6, 6, 8, 32) == 6.0
        assert abs(weak_gap_simplified(4, 0, 8, 32) - 6.0) < 1e-12  # (1 + 2/rho) s
        assert abs(weak_gap_simplified(20, 5, 32, 128) - 27.5) < 1e-12

    def test_simplified_implies_main_condition(self):
        # strict implication holds away from the delta = s boundary,
        # where both conditions degenerate to t compared against s
        for ratio_m, ratio_n in [(2, 5), (1, 3), (1, 4), (1, 8)]:
            for s in range(1, 65, 7):
                for delta in range(0, s + 1):
                    m, n = 8 * ratio_m, 8 * ratio_n
                    simpl = weak_gap_simplified(s, delta, m, n)
                    main = weak_gap_threshold(s, delta, m, n)
                    if delta < s:
                        assert simpl < main
                    else:
                        assert abs(simpl - main) < 1e-12


class TestInvariants:
    def test_reduction_chain_grid(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            s = int(rng.integers(1, 100))
            mu = float(rng.uniform(0.001, 1.0))
            assert generic_up_threshold(s, 0, mu) == strong_gap_threshold(s, mu)
        for mu in np.linspace(0.001, 1.0, 100):
            assert generic_up_threshold(1, 0, float(mu)) == donoho_elad_threshold(float(mu))

    def test_monotone_in_delta(self):
        # nonincreasing in delta throughout the incoherent regime mu <= 1/(2 sqrt s)
        for s in (4, 9, 25, 64):
            mu = 1 / (2 * math.sqrt(s))
            values = [generic_up_threshold(s, d, mu) for d in range(s + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
            weak = [weak_gap_threshold(s, d, 8, 32) for d in range(s + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(weak, weak[1:]))
            simpl = [weak_gap_simplified(s, d, 8, 32) for d in range(s + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(simpl, simpl[1:]))


class TestEvaluateThresholds:
    def test_fields_populated(self):
        row = evaluate_thresholds(8, 8, 2, 0.1, 16, 64)
        assert tuple(row) == BOUNDS_COLUMNS
        assert row["donoho_elad_lhs"] == 16.0
        assert row["overlap_rhs"] is not None
        assert row["weak_gap_rhs"] is not None
        assert row["s"] == 8 and row["generic_up_rhs"] == generic_up_threshold(8, 2, 0.1)
        assert row["error"] is None

    def test_inapplicable_entries_none(self):
        row = evaluate_thresholds(2, 2, 1, 0.9, 16, 32)  # N = 2m, s - delta < 2
        assert row["weak_gap_rhs"] is None
        assert row["t_threshold"] is None
        assert row["overlap_vacuous"]  # t mu^2 = 1.62
        assert evaluate_thresholds(4, 4, 0, 0.0, 8, 32)["t_threshold"] is None  # needs mu > 0

    @pytest.mark.parametrize("m,n_atoms", [(0, 12), (4, 3), (4, -5)])
    def test_no_row_for_an_m_and_n_no_dictionary_has(self, m, n_atoms):
        with pytest.raises(ValueError, match=r"need 1 <= m"):
            evaluate_thresholds(1, 1, 0, 0.3, m, n_atoms)


MU_FUNCTIONS = {
    "donoho_elad": donoho_elad_threshold,
    "strong_gap": lambda mu: strong_gap_threshold(4, mu),
    "overlap": lambda mu: overlap_condition(4, 4, 1, mu),
    "t_threshold": lambda mu: t_threshold_given_overlap(6, 1, mu),
    "generic_up": lambda mu: generic_up_threshold(4, 1, mu),
    "evaluate": lambda mu: evaluate_thresholds(6, 4, 1, mu, 8, 32),
    "rank_lb_coherence": lambda mu: rank_lb_coherence(4, mu),
}


class TestCoherenceRange:
    """Every function of mu accepts the rounding above 1 that the dictionary constructors accept."""

    @pytest.mark.parametrize("fn", MU_FUNCTIONS.values(), ids=MU_FUNCTIONS.keys())
    def test_rounding_above_one_accepted(self, fn):
        fn(1.0 + 1e-13)

    @pytest.mark.parametrize("fn", MU_FUNCTIONS.values(), ids=MU_FUNCTIONS.keys())
    @pytest.mark.parametrize("mu", [1.0 + 1e-11, -1e-13, math.nan])
    def test_outside_range_rejected(self, fn, mu):
        with pytest.raises(ValueError):
            fn(mu)
