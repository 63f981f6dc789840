"""Closed-form uncertainty-principle thresholds.

Pure formula objects in the parameters (s, t, delta, mu, m, N); nothing
here touches a concrete dictionary.  Each decision record states whether
the comparison it encodes is strict or weak, matching the inequality in
the underlying statement.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Optional


class HypothesisViolatedError(ValueError):
    """The formula's standing hypothesis (e.g. N > 2m) does not hold."""


class FormulaInapplicableError(ValueError):
    """Parameters leave the formula with a nonpositive leading factor."""


def donoho_elad_threshold(mu: float) -> float:
    """1/mu; infinite (no finite threshold) for an orthonormal dictionary."""
    if not (0.0 <= mu <= 1.0):
        raise ValueError("mu must lie in [0, 1]")
    if mu == 0.0:
        return math.inf
    return 1.0 / mu


def strong_gap_threshold(s: int, mu: float) -> float:
    """sqrt(s)/mu: any disjoint second representation needs |S|+|T| above this."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if not (0.0 <= mu <= 1.0):
        raise ValueError("mu must lie in [0, 1]")
    if mu == 0.0:
        return math.inf
    return math.sqrt(s) / mu


@dataclass(frozen=True)
class OverlapDecision:
    """Outcome of the quadratic overlap condition (strict in delta)."""

    rhs: Optional[float]
    delta: int
    holds: bool
    vacuous: bool
    comparison: str = "delta < rhs (strict)"


def overlap_condition(s: int, t: int, delta: int, mu: float) -> OverlapDecision:
    """delta < s * [1 - ((t-1)/s) * (t mu^2 / (1 - t mu^2))].

    Vacuous (no guarantee) when t * mu^2 >= 1: the denominator is
    nonpositive and the bound says nothing.
    """
    if not (0 <= delta <= min(s, t)) or s < 1 or t < 1:
        raise ValueError("need 1 <= s, 1 <= t, 0 <= delta <= min(s, t)")
    if not (0.0 <= mu <= 1.0):
        raise ValueError("mu must lie in [0, 1]")
    tm2 = t * mu**2
    if tm2 >= 1.0:
        return OverlapDecision(rhs=None, delta=delta, holds=False, vacuous=True)
    rhs = s * (1.0 - ((t - 1) / s) * (tm2 / (1.0 - tm2)))
    return OverlapDecision(rhs=rhs, delta=delta, holds=delta < rhs, vacuous=False)


def t_threshold_given_overlap(s: int, delta: int, mu: float) -> float:
    """Reverted quadratic: a t strictly below this satisfies the overlap bound."""
    if mu <= 0.0 or mu > 1.0:
        raise ValueError("mu must lie in (0, 1]")
    k = s - delta - 1
    if k < 1:
        raise FormulaInapplicableError("requires s - delta >= 2")
    return k * (math.sqrt((1.0 + 1.0 / k) * (mu**-2) / k + 0.25) - 1.0)


def generic_up_threshold(s: int, delta: int, mu: float) -> float:
    """delta + sqrt(s - delta)/mu: the generic-signal uncertainty principle."""
    if not (0 <= delta <= s) or s < 1:
        raise ValueError("need 1 <= s and 0 <= delta <= s")
    if not (0.0 <= mu <= 1.0):
        raise ValueError("mu must lie in [0, 1]")
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


@dataclass(frozen=True)
class GapThresholds:
    """Every threshold evaluated at one parameter point."""

    s: int
    t: int
    delta: int
    mu: float
    m: int
    n_atoms: int
    donoho_elad_lhs: float
    donoho_elad_rhs: float
    strong_gap_rhs: float
    overlap_rhs: Optional[float]
    overlap_vacuous: bool
    t_threshold: Optional[float]
    generic_up_rhs: float
    weak_gap_rhs: Optional[float]
    weak_gap_simplified_rhs: Optional[float]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def evaluate_thresholds(s: int, t: int, delta: int, mu: float, m: int, n_atoms: int) -> GapThresholds:
    """Evaluate the whole threshold family; inapplicable entries become None."""
    decision = overlap_condition(s, t, delta, mu)
    try:
        t_thr = t_threshold_given_overlap(s, delta, mu)
    except (FormulaInapplicableError, ValueError):
        t_thr = None
    try:
        weak = weak_gap_threshold(s, delta, m, n_atoms)
        weak_simpl = weak_gap_simplified(s, delta, m, n_atoms)
    except HypothesisViolatedError:
        weak = weak_simpl = None
    return GapThresholds(
        s=s,
        t=t,
        delta=delta,
        mu=mu,
        m=m,
        n_atoms=n_atoms,
        donoho_elad_lhs=float(s + t),
        donoho_elad_rhs=donoho_elad_threshold(mu),
        strong_gap_rhs=strong_gap_threshold(s, mu),
        overlap_rhs=decision.rhs,
        overlap_vacuous=decision.vacuous,
        t_threshold=t_thr,
        generic_up_rhs=generic_up_threshold(s, delta, mu),
        weak_gap_rhs=weak,
        weak_gap_simplified_rhs=weak_simpl,
    )
