"""Executable checkers for the allotment-rule axioms.

Each checker is a sampled refuter: it scans economies in the order given
and reports the first violation with a witness that replays
deterministically. PASS_ON_SAMPLE is evidence, not proof. Indifference is
exact disutility equality; there is no tolerance anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple

from .economy import Allotment, Economy, partition
from .preferences import SinglePeaked
from .rational import format_rational as fr
from .rules import Rule
from .sampling import SLOPE_CATALOGUE, grid

PASS_ON_SAMPLE = "PASS_ON_SAMPLE"
FAIL = "FAIL"


@dataclass(frozen=True)
class Witness:
    """A reproducible violation: economy, agents involved, exact details.

    The economy is None only for exact-interval manipulation certificates,
    whose full payload lives in `detail`.
    """

    economy: Optional[Economy]
    agents: Tuple[int, ...]
    description: str
    perturbed: Optional[Economy] = None
    detail: object = None


@dataclass(frozen=True)
class AxiomReport:
    axiom: str
    verdict: str
    checked: int
    witness: Optional[Witness] = None

    @property
    def failed(self) -> bool:
        return self.verdict == FAIL

    def line(self) -> str:
        text = f"{self.axiom}: {self.verdict}"
        if self.witness is not None:
            text += f" ({self.witness.description})"
        return text


def _report(axiom: str, checked: int, witness: Optional[Witness]) -> AxiomReport:
    verdict = FAIL if witness is not None else PASS_ON_SAMPLE
    return AxiomReport(axiom=axiom, verdict=verdict, checked=checked, witness=witness)


def _eligible(rule: Rule, econs: Iterable[Economy]) -> Iterable[Economy]:
    """Drop economies the rule rejects by size (e.g. the n >= 3 gallery rules)."""
    return (econ for econ in econs if econ.n >= rule.min_agents)


def check_same_sided(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Same-sidedness, equivalent to efficiency on the single-peaked domain:
    nobody exceeds their peak under excess demand, nobody falls short of it
    under excess supply (both constraints bind in the balanced case)."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        x = rule(econ)
        peaks = econ.peaks()
        z = sum(peaks) - econ.omega
        for i in range(econ.n):
            if z >= 0 and x[i] > peaks[i]:
                return _report(
                    "efficiency",
                    checked,
                    Witness(
                        econ,
                        (i,),
                        f"excess demand but agent {i + 1} gets "
                        f"{fr(x[i])} above peak {fr(peaks[i])}",
                    ),
                )
            if z <= 0 and x[i] < peaks[i]:
                return _report(
                    "efficiency",
                    checked,
                    Witness(
                        econ,
                        (i,),
                        f"excess supply but agent {i + 1} gets "
                        f"{fr(x[i])} below peak {fr(peaks[i])}",
                    ),
                )
    return _report("efficiency", checked, None)


def check_own_peak_only(
    rule: Rule,
    econs: Iterable[Economy],
    slope_perturbations: Sequence[Tuple[Fraction, Fraction]] = SLOPE_CATALOGUE,
) -> AxiomReport:
    """Replace each agent's slopes (peak fixed) by catalogue alternatives;
    any change in that agent's amount is a violation."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        peaks = econ.peaks()
        x = rule(econ)
        for i, pref in enumerate(econ.prefs):
            for left, right in slope_perturbations:
                if (left, right) == (pref.left_slope, pref.right_slope):
                    continue
                variant = econ.replace_pref(
                    i, SinglePeaked(peaks[i], left, right)
                )
                y = rule(variant)
                if y[i] != x[i]:
                    return _report(
                        "own-peak-only",
                        checked,
                        Witness(
                            econ,
                            (i,),
                            f"agent {i + 1} moves from {fr(x[i])} to "
                            f"{fr(y[i])} when slopes change to "
                            f"({fr(left)},{fr(right)}) with the same peak",
                            perturbed=variant,
                        ),
                    )
    return _report("own-peak-only", checked, None)


def check_symmetry(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Agents with identical preferences must be indifferent between their
    amounts (exact disutility equality, not equality of amounts)."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        x = rule(econ)
        for i, j in itertools.combinations(range(econ.n), 2):
            if econ.prefs[i] != econ.prefs[j]:
                continue
            pref = econ.prefs[i]
            if pref.disutility(x[i]) != pref.disutility(x[j]):
                return _report(
                    "symmetry",
                    checked,
                    Witness(
                        econ,
                        (i, j),
                        f"identical agents {i + 1},{j + 1} get {fr(x[i])} vs "
                        f"{fr(x[j])} with disutilities "
                        f"{fr(pref.disutility(x[i]))} vs "
                        f"{fr(pref.disutility(x[j]))}",
                    ),
                )
    return _report("symmetry", checked, None)


def _reference_guarantee(
    axiom: str, rule: Rule, econs: Iterable[Economy], endowed: bool
) -> AxiomReport:
    """An agent whose peak is exactly their reference point (omega/n, or
    their own endowment) must end up indifferent to it."""
    fact = "owns their peak {}" if endowed else "has peak {} = equal division"
    checked = 0
    for econ in _eligible(rule, econs):
        if endowed and econ.endowments is None:
            raise ValueError("endowments-guarantee needs endowed economies")
        checked += 1
        peaks = econ.peaks()
        x = rule(econ)
        reference = econ.endowments if endowed else (econ.equal_share,) * econ.n
        for i, pref in enumerate(econ.prefs):
            if peaks[i] != reference[i]:
                continue
            if pref.disutility(x[i]) != pref.disutility(reference[i]):
                return _report(
                    axiom,
                    checked,
                    Witness(
                        econ,
                        (i,),
                        f"agent {i + 1} {fact.format(fr(reference[i]))} "
                        f"but gets {fr(x[i])}",
                    ),
                )
    return _report(axiom, checked, None)


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
    """Weakly larger peaks must receive weakly larger amounts."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        x = rule(econ)
        peaks = econ.peaks()
        for i, j in itertools.permutations(range(econ.n), 2):
            if peaks[i] <= peaks[j] and x[i] > x[j]:
                return _report(
                    "peak-responsive",
                    checked,
                    Witness(
                        econ,
                        (i, j),
                        f"peaks {fr(peaks[i])} <= {fr(peaks[j])} but amounts "
                        f"{fr(x[i])} > {fr(x[j])}",
                    ),
                )
    return _report("peak-responsive", checked, None)


def check_envy_free(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """No agent strictly prefers another agent's amount to their own."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        x = rule(econ)
        for i, j in itertools.permutations(range(econ.n), 2):
            pref = econ.prefs[i]
            if pref.disutility(x[j]) < pref.disutility(x[i]):
                return _report(
                    "envy-free",
                    checked,
                    Witness(
                        econ,
                        (i, j),
                        f"agent {i + 1} envies agent {j + 1}: "
                        f"d({fr(x[j])})={fr(pref.disutility(x[j]))} < "
                        f"d({fr(x[i])})={fr(pref.disutility(x[i]))}",
                    ),
                )
    return _report("envy-free", checked, None)


def check_edlb(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Equal division lower bound: everyone weakly prefers their amount
    to omega/n."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        x = rule(econ)
        share = econ.equal_share
        for i, pref in enumerate(econ.prefs):
            if pref.disutility(x[i]) > pref.disutility(share):
                return _report(
                    "edlb",
                    checked,
                    Witness(
                        econ,
                        (i,),
                        f"agent {i + 1} gets {fr(x[i])} with disutility "
                        f"{fr(pref.disutility(x[i]))} worse than equal "
                        f"division {fr(share)} at {fr(pref.disutility(share))}",
                    ),
                )
    return _report("edlb", checked, None)


def check_betweenness(rule: Rule, econs: Iterable[Economy]) -> AxiomReport:
    """Exact membership test for the simple family: simple agents receive
    their peak and everyone else lands between equal division and their peak."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        x = rule(econ)
        part = partition(econ)
        peaks = econ.peaks()
        share = econ.equal_share
        for i in sorted(part.plus):
            if x[i] != peaks[i]:
                return _report(
                    "betweenness",
                    checked,
                    Witness(
                        econ,
                        (i,),
                        f"simple agent {i + 1} gets {fr(x[i])} instead of "
                        f"peak {fr(peaks[i])}",
                    ),
                )
        for i in sorted(part.minus):
            lo, hi = min(share, peaks[i]), max(share, peaks[i])
            if not lo <= x[i] <= hi:
                return _report(
                    "betweenness",
                    checked,
                    Witness(
                        econ,
                        (i,),
                        f"non-simple agent {i + 1} gets {fr(x[i])} outside "
                        f"[{fr(lo)}, {fr(hi)}]",
                    ),
                )
    return _report("betweenness", checked, None)


def check_strategy_proofness(
    rule: Rule,
    econs: Iterable[Economy],
    misreport_grid: Optional[Sequence[Fraction]] = None,
    misreport_slopes: Sequence[Tuple[Fraction, Fraction]] = (
        (Fraction(1), Fraction(1)),
    ),
    grid_step: int = 60,
) -> AxiomReport:
    """Sampled refutation of strategy-proofness: search every agent and
    every grid misreport for a strictly profitable deviation. A FAIL
    witness is a manipulation, not necessarily an obvious one."""
    checked = 0
    for econ in _eligible(rule, econs):
        checked += 1
        peaks = econ.peaks()
        x = rule(econ)
        peaks_grid = (
            misreport_grid if misreport_grid is not None else grid(econ.omega, grid_step)
        )
        for i, pref in enumerate(econ.prefs):
            truth_d = pref.disutility(x[i])
            for fake_peak in peaks_grid:
                if fake_peak == peaks[i]:
                    continue
                for left, right in misreport_slopes:
                    variant = econ.replace_pref(
                        i, SinglePeaked(fake_peak, left, right)
                    )
                    y = rule(variant)
                    if pref.disutility(y[i]) < truth_d:
                        return _report(
                            "sp",
                            checked,
                            Witness(
                                econ,
                                (i,),
                                f"agent {i + 1} misreports peak "
                                f"{fr(fake_peak)} and gets {fr(y[i])} "
                                f"(disutility {fr(pref.disutility(y[i]))}) "
                                f"instead of {fr(x[i])} "
                                f"(disutility {fr(truth_d)})",
                                perturbed=variant,
                            ),
                        )
    return _report("sp", checked, None)


# ---------------------------------------------------------------------------
# brute-force efficiency oracle (the efficiency <=> same-sidedness check)


def pareto_improvement_on_grid(
    econ: Economy, allotment: Allotment, step: int = 60
) -> Optional[Tuple[Fraction, ...]]:
    """Search a feasibility grid (step omega/step) for a Pareto improvement.

    Only n=2 and n=3 are supported; the grid is the independent oracle the
    same-sidedness checker is validated against.
    """
    omega = econ.omega
    points = [k * omega / step for k in range(step + 1)]
    base = [pref.disutility(allotment[i]) for i, pref in enumerate(econ.prefs)]

    def improves(candidate: Sequence[Fraction]) -> bool:
        ds = [
            pref.disutility(candidate[i]) for i, pref in enumerate(econ.prefs)
        ]
        return all(d <= b for d, b in zip(ds, base)) and any(
            d < b for d, b in zip(ds, base)
        )

    if econ.n == 2:
        for a in points:
            candidate = (a, omega - a)
            if improves(candidate):
                return candidate
        return None
    if econ.n == 3:
        for a in points:
            for b in points:
                if a + b > omega:
                    break
                candidate = (a, b, omega - a - b)
                if improves(candidate):
                    return candidate
        return None
    raise ValueError("grid search supports n=2 and n=3 only")


AXIOM_CHECKERS = {
    "efficiency": check_same_sided,
    "own-peak-only": check_own_peak_only,
    "symmetry": check_symmetry,
    "edg": check_edg,
    "endowments-guarantee": check_endowments_guarantee,
    "peak-responsive": check_peak_responsive,
    "envy-free": check_envy_free,
    "edlb": check_edlb,
    "betweenness": check_betweenness,
    "sp": check_strategy_proofness,
}
