"""Closed-form uncertainty-principle thresholds.

Pure formula objects in the parameters (s, t, delta, mu, m, N); nothing here touches a concrete dictionary.
Each formula in mu accepts mu up to 1 + COHERENCE_TOL (``dictionary.check_coherence``), the rounded coherence
of a repeated atom.  Each docstring states whether the comparison it encodes is strict or weak, matching the
inequality in the underlying statement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .dictionary import check_coherence


class HypothesisViolatedError(ValueError):
    """The formula's standing hypothesis (e.g. N > 2m) does not hold."""


class FormulaInapplicableError(ValueError):
    """Parameters leave the formula with a nonpositive leading factor."""


def donoho_elad_threshold(mu: float) -> float:
    """1/mu; infinite (no finite threshold) for an orthonormal dictionary."""
    return strong_gap_threshold(1, mu)


def strong_gap_threshold(s: int, mu: float) -> float:
    """sqrt(s)/mu: any disjoint second representation needs |S|+|T| above this."""
    if s < 1:
        raise ValueError("s must be >= 1")
    check_coherence(mu)
    if mu == 0.0:
        return math.inf
    return math.sqrt(s) / mu


@dataclass(frozen=True)
class OverlapDecision:
    """Outcome of the quadratic overlap condition (strict in delta)."""

    rhs: Optional[float]
    holds: bool
    vacuous: bool


def overlap_condition(s: int, t: int, delta: int, mu: float) -> OverlapDecision:
    """delta < s * [1 - ((t-1)/s) * (t mu^2 / (1 - t mu^2))].

    Vacuous (no guarantee) when t * mu^2 >= 1: the denominator is
    nonpositive and the bound says nothing.
    """
    if not (0 <= delta <= min(s, t)) or s < 1 or t < 1:
        raise ValueError("need 1 <= s, 1 <= t, 0 <= delta <= min(s, t)")
    check_coherence(mu)
    tm2 = t * mu**2
    if tm2 >= 1.0:
        return OverlapDecision(rhs=None, holds=False, vacuous=True)
    rhs = s * (1.0 - ((t - 1) / s) * (tm2 / (1.0 - tm2)))
    return OverlapDecision(rhs=rhs, holds=delta < rhs, vacuous=False)


def t_threshold_given_overlap(s: int, delta: int, mu: float) -> float:
    """Reverted quadratic: a t strictly below this satisfies the overlap bound."""
    check_coherence(mu)
    if mu == 0.0:
        raise ValueError("the t threshold needs mu > 0")
    k = s - delta - 1
    if k < 1:
        raise FormulaInapplicableError("requires s - delta >= 2")
    return k * (math.sqrt((1.0 + 1.0 / k) * (mu**-2) / k + 0.25) - 1.0)


def generic_up_threshold(s: int, delta: int, mu: float) -> float:
    """delta + sqrt(s - delta)/mu: the generic-signal uncertainty principle."""
    if not (0 <= delta <= s) or s < 1:
        raise ValueError("need 1 <= s and 0 <= delta <= s")
    check_coherence(mu)
    if delta == s:
        return float(s)
    if mu == 0.0:
        return math.inf
    return delta + math.sqrt(s - delta) / mu


def weak_gap_threshold(s: int, delta: int, m: int, n_atoms: int) -> float:
    """(s - 2 delta m / N) / (1 - 2 m / N); needs N > 2m."""
    if n_atoms <= 2 * m:
        raise HypothesisViolatedError("requires N > 2m")
    if not (0 <= delta <= s) or s < 1:
        raise ValueError("need 1 <= s and 0 <= delta <= s")
    ratio = 2.0 * m / n_atoms
    return (s - delta * ratio) / (1.0 - ratio)


def weak_gap_simplified(s: int, delta: int, m: int, n_atoms: int) -> float:
    """s + 2 (s - delta) m / N: the simplified sufficient condition (weak in t)."""
    if n_atoms <= 2 * m:
        raise HypothesisViolatedError("requires N > 2m")
    if not (0 <= delta <= s) or s < 1:
        raise ValueError("need 1 <= s and 0 <= delta <= s")
    return s + 2.0 * (s - delta) * m / n_atoms


BOUNDS_COLUMNS = ("s", "t", "delta", "mu", "m", "n_atoms", "donoho_elad_lhs", "donoho_elad_rhs",
                  "strong_gap_rhs", "overlap_rhs", "overlap_vacuous", "t_threshold", "generic_up_rhs",
                  "weak_gap_rhs", "weak_gap_simplified_rhs", "error")


def evaluate_thresholds(s: int, t: int, delta: int, mu: float, m: int, n_atoms: int) -> dict:
    """One ``bounds`` row over BOUNDS_COLUMNS: the whole threshold family, inapplicable entries None.

    A delta above min(s, t) evaluates nothing: the row holds the parameters and its ``error``.
    """
    check_coherence(mu)  # whatever delta is, so an invalid mu is an error and never a row
    row = dict.fromkeys(BOUNDS_COLUMNS)
    row.update(s=s, t=t, delta=delta, mu=mu, m=m, n_atoms=n_atoms)
    if delta > min(s, t) >= 1:  # s or t below 1 is an error whatever delta is: overlap_condition raises it
        return {**row, "error": "delta exceeds min(s, t)"}
    decision = overlap_condition(s, t, delta, mu)  # checks s, t and delta for the calls below
    row.update(donoho_elad_lhs=float(s + t), donoho_elad_rhs=donoho_elad_threshold(mu),
               strong_gap_rhs=strong_gap_threshold(s, mu), overlap_rhs=decision.rhs,
               overlap_vacuous=decision.vacuous, generic_up_rhs=generic_up_threshold(s, delta, mu))
    try:
        row["t_threshold"] = t_threshold_given_overlap(s, delta, mu)
    except ValueError:  # mu = 0, or FormulaInapplicableError
        pass
    try:
        row.update(weak_gap_rhs=weak_gap_threshold(s, delta, m, n_atoms),
                   weak_gap_simplified_rhs=weak_gap_simplified(s, delta, m, n_atoms))
    except HypothesisViolatedError:
        pass
    return row
