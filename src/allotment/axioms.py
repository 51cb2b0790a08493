"""Executable checkers for the allotment-rule axioms.

Each checker is a sampled refuter: a `violation` function that inspects one
economy and returns a `Witness` that replays deterministically, or None;
`report._scan` scans the cases for every checker, `check_nom` (imported
from `manipulation`) too. `AXIOMS` is the one table of every axiom `check`
takes and of what each reads: peaks, endowments, a grid, economies or cases.
Indifference is exact disutility equality; there is no tolerance anywhere.

Efficiency, edg, endowments-guarantee and peak-responsiveness decide on
integers: the allotment's amounts over its denominator (`Allotment._common`,
`_numerators`) against the economy's integer profile
(`Economy._integer_profile`), which the rules have already read. They
build a Fraction only to write a witness's text. Symmetry skips on those
integers every pair with unequal effective peaks or equal amounts, and
compares disutilities only for the identical agents that remain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .economy import Economy, _split_scaled
from .manipulation import check_nom
from .preferences import SinglePeaked
from .rational import format_rational as fr
from .report import FAIL, NO_CASES, PASS_ON_SAMPLE, AxiomReport, Witness, _scan
from .rules import DOMAIN_SP_ENDOWMENTS, Rule
from .sampling import SLOPE_CATALOGUE, _check_grid_step, _grid_prefs


def check_same_sided(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Same-sidedness, equivalent to efficiency on the single-peaked domain:
    nobody exceeds their peak under excess demand, nobody falls short of it
    under excess supply (both constraints bind in the balanced case).
    Decided on integers: peak p over D against amount a over U as a·D
    against p·U."""

    def violation(econ: Economy) -> Optional[Witness]:
        peaks = econ.peaks()
        x = rule(econ)
        common, ints, total, _ = econ._integer_profile()
        unit, amounts = x._common, x._numerators
        z = sum(ints) - total
        for i, p in enumerate(ints):
            a, p = amounts[i] * common, p * unit
            if z >= 0 and a > p:
                return Witness(
                    econ,
                    (i,),
                    f"excess demand but agent {i + 1} gets "
                    f"{fr(x[i])} above peak {fr(peaks[i])}",
                )
            if z <= 0 and a < p:
                return Witness(
                    econ,
                    (i,),
                    f"excess supply but agent {i + 1} gets "
                    f"{fr(x[i])} below peak {fr(peaks[i])}",
                )
        return None

    return _scan("efficiency", rule, econs, violation)


def check_own_peak_only(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Replace each agent's slopes (peak fixed) by the SLOPE_CATALOGUE
    alternatives; any change in that agent's amount is a violation. The
    amounts are compared on the `Allotment`s' integers, so the rule must
    return an `Allotment`, as `Rule` is typed to."""

    def violation(econ: Economy) -> Optional[Witness]:
        peaks = econ.peaks()
        x = rule(econ)
        for i, pref in enumerate(econ.prefs):
            own = (pref.left_slope, pref.right_slope)
            amount = x._numerators[i]  # over x._common
            for left, right in SLOPE_CATALOGUE:
                if (left, right) == own:
                    continue
                variant = econ.replace_pref(i, SinglePeaked(peaks[i], left, right))
                y = rule(variant)
                if y._numerators[i] * x._common != amount * y._common:
                    return Witness(
                        econ,
                        (i,),
                        f"agent {i + 1} moves from {fr(x[i])} to "
                        f"{fr(y[i])} when slopes change to "
                        f"({fr(left)},{fr(right)}) with the same peak",
                        perturbed=variant,
                    )
        return None

    return _scan("own-peak-only", rule, econs, violation)


def check_symmetry(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Agents with identical preferences (the same plateau ends and slopes:
    a peak is a plateau of width zero) must be indifferent between their
    amounts (exact disutility equality, not equality of amounts). A pair
    whose effective peaks differ (the integer profile's) is skipped first:
    identical preferences always have equal effective peaks. So is a pair
    of identical agents with equal amounts."""
    shape = attrgetter("plateau_lo", "plateau_hi", "left_slope", "right_slope")

    def violation(econ: Economy) -> Optional[Witness]:
        x = rule(econ)
        _, peaks, _, _ = econ._integer_profile()
        prefs, amounts = econ.prefs, x._numerators
        for i, j in itertools.combinations(range(econ.n), 2):
            if peaks[i] != peaks[j] or amounts[i] == amounts[j]:
                continue
            pref = prefs[i]
            if shape(pref) != shape(prefs[j]):
                continue
            if pref.disutility(x[i]) != pref.disutility(x[j]):
                return Witness(
                    econ,
                    (i, j),
                    f"identical agents {i + 1},{j + 1} get {fr(x[i])} vs "
                    f"{fr(x[j])} with disutilities "
                    f"{fr(pref.disutility(x[i]))} vs "
                    f"{fr(pref.disutility(x[j]))}",
                )
        return None

    return _scan("symmetry", rule, econs, violation)


def _reference_guarantee(
    axiom: str, rule: Rule, econs: Iterable[Economy], endowed: bool
) -> AxiomReport:
    """An agent whose peak is exactly their reference point (omega/n, or
    their own endowment) must end up indifferent to it: with slopes
    positive, get exactly their peak. Decided on integers: the peak p
    over D is omega/n when p·n equals omega's integer, the endowment when
    it equals the endowment's; the amount a over U is p when a·D = p·U."""
    fact = "owns their peak {}" if endowed else "has peak {} = equal division"

    def violation(econ: Economy) -> Optional[Witness]:
        if endowed and econ.endowments is None:
            raise ValueError("endowments-guarantee needs endowed economies")
        econ.peaks()  # refuses plateaus before the rule runs
        x = rule(econ)
        common, peaks, total, endowments = econ._integer_profile()
        unit, amounts, n = x._common, x._numerators, econ.n
        for i, p in enumerate(peaks):
            if (p != endowments[i]) if endowed else (p * n != total):
                continue
            if amounts[i] * common != p * unit:
                reference = econ.endowments[i] if endowed else econ.equal_share
                return Witness(
                    econ,
                    (i,),
                    f"agent {i + 1} {fact.format(fr(reference))} "
                    f"but gets {fr(x[i])}",
                )
        return None

    return _scan(axiom, rule, econs, violation)


def check_edg(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Equal division guarantee: an agent whose peak is exactly omega/n
    must end up indifferent to omega/n."""
    return _reference_guarantee("edg", rule, econs, endowed=False)


def check_endowments_guarantee(
    rule: Rule, econs: Iterable[Economy]
) -> AxiomReport:
    """An agent whose peak equals their endowment must be indifferent to it."""
    return _reference_guarantee("endowments-guarantee", rule, econs, endowed=True)


def check_peak_responsive(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Weakly larger peaks must receive weakly larger amounts, compared on
    the integers: the peaks share D and the amounts share U."""

    def violation(econ: Economy) -> Optional[Witness]:
        peaks = econ.peaks()
        x = rule(econ)
        _, ints, _, _ = econ._integer_profile()
        amounts = x._numerators
        for i, j in itertools.permutations(range(econ.n), 2):
            if ints[i] <= ints[j] and amounts[i] > amounts[j]:
                return Witness(
                    econ,
                    (i, j),
                    f"peaks {fr(peaks[i])} <= {fr(peaks[j])} but amounts "
                    f"{fr(x[i])} > {fr(x[j])}",
                )
        return None

    return _scan("peak-responsive", rule, econs, violation)


def check_envy_free(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """No agent strictly prefers another agent's amount to their own."""

    def violation(econ: Economy) -> Optional[Witness]:
        x = rule(econ)
        for i, j in itertools.permutations(range(econ.n), 2):
            pref = econ.prefs[i]
            if pref.disutility(x[j]) < pref.disutility(x[i]):
                return Witness(
                    econ,
                    (i, j),
                    f"agent {i + 1} envies agent {j + 1}: "
                    f"d({fr(x[j])})={fr(pref.disutility(x[j]))} < "
                    f"d({fr(x[i])})={fr(pref.disutility(x[i]))}",
                )
        return None

    return _scan("envy-free", rule, econs, violation)


def check_edlb(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Equal division lower bound: everyone weakly prefers their amount
    to omega/n."""

    def violation(econ: Economy) -> Optional[Witness]:
        x = rule(econ)
        share = econ.equal_share
        for i, pref in enumerate(econ.prefs):
            if pref.disutility(x[i]) > pref.disutility(share):
                return Witness(
                    econ,
                    (i,),
                    f"agent {i + 1} gets {fr(x[i])} with disutility "
                    f"{fr(pref.disutility(x[i]))} worse than equal "
                    f"division {fr(share)} at {fr(pref.disutility(share))}",
                )
        return None

    return _scan("edlb", rule, econs, violation)


def check_betweenness(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Exact membership test for the simple family: simple agents receive
    their peak and everyone else lands between their reference point and
    their peak. The reference point is the rule's own: equal division, or
    the agent's endowment under a reallocation rule."""
    endowed = rule.domain == DOMAIN_SP_ENDOWMENTS

    def violation(econ: Economy) -> Optional[Witness]:
        peaks = econ.peaks()
        x = rule(econ)
        *profile, endowments = econ._integer_profile()
        *_, plus, minus = _split_scaled(*profile, endowments if endowed else None)
        reference = econ.endowments if endowed else (econ.equal_share,) * econ.n
        for i in plus:
            if x[i] != peaks[i]:
                return Witness(
                    econ,
                    (i,),
                    f"simple agent {i + 1} gets {fr(x[i])} instead of "
                    f"peak {fr(peaks[i])}",
                )
        for i in minus:
            r = reference[i]
            lo, hi = min(r, peaks[i]), max(r, peaks[i])
            if not lo <= x[i] <= hi:
                return Witness(
                    econ,
                    (i,),
                    f"non-simple agent {i + 1} gets {fr(x[i])} outside "
                    f"[{fr(lo)}, {fr(hi)}]",
                )
        return None

    return _scan("betweenness", rule, econs, violation)


def check_strategy_proofness(
    rule: Rule, econs: Iterable[Economy], grid_step: int = 60
) -> AxiomReport:
    """Sampled refutation of strategy-proofness: search every agent and
    every unit-slope misreport of `_grid_prefs(omega, grid_step)`, a bad
    step refused first, for a strictly profitable deviation. A FAIL
    witness is a manipulation, not necessarily an obvious one."""
    _check_grid_step(grid_step)

    def violation(econ: Economy) -> Optional[Witness]:
        peaks = econ.peaks()
        x = rule(econ)
        misreports = _grid_prefs(econ.omega, grid_step)
        for i, pref in enumerate(econ.prefs):
            truth_d = pref.disutility(x[i])
            for misreport in misreports:
                if misreport.peak == peaks[i]:
                    continue
                variant = econ.replace_pref(i, misreport)
                y = rule(variant)
                if pref.disutility(y[i]) < truth_d:
                    return Witness(
                        econ,
                        (i,),
                        f"agent {i + 1} misreports peak "
                        f"{fr(misreport.peak)} and gets {fr(y[i])} "
                        f"(disutility {fr(pref.disutility(y[i]))}) "
                        f"instead of {fr(x[i])} "
                        f"(disutility {fr(truth_d)})",
                        perturbed=variant,
                    )
        return None

    return _scan("sp", rule, econs, violation)


@dataclass(frozen=True)
class Axiom:
    """An axiom's checker and what it reads, so that a caller refuses or
    draws before the first case: `peaks` (so single-peaked economies only;
    the default), `endowments`, `grid` (the checker takes `grid_step`) and
    `economies` (False for a checker of `NomCase`s, which `check` draws)."""

    check: Callable[..., AxiomReport]
    peaks: bool = True
    endowments: bool = False
    grid: bool = False
    economies: bool = True


AXIOMS = {
    "efficiency": Axiom(check_same_sided),
    "own-peak-only": Axiom(check_own_peak_only),
    "symmetry": Axiom(check_symmetry, peaks=False),
    "edg": Axiom(check_edg),
    "endowments-guarantee": Axiom(check_endowments_guarantee, endowments=True),
    "peak-responsive": Axiom(check_peak_responsive),
    "envy-free": Axiom(check_envy_free, peaks=False),
    "edlb": Axiom(check_edlb, peaks=False),
    "betweenness": Axiom(check_betweenness),
    "sp": Axiom(check_strategy_proofness, grid=True),
    "nom": Axiom(check_nom, grid=True, economies=False),
}
