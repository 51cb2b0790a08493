"""Option sets, obvious-manipulation detection, and NOM verification.

For registered simple rules the option set of an agent is the exact closed
interval between a reference point r (equal division, or the agent's own
endowment on the reallocation domain) and the (feasibility-capped) peak;
`option_set_simple` builds it for either reference point, so NOM verdicts
are exact. A single-peaked disutility is worst on an interval
at one of its two ends, so each exact verdict compares endpoint
disutilities only: since r lies in every option set, misreport q is obvious
exactly when max(d(r), d(min(q, omega))) is below the disutility of the
worse truthful end. For arbitrary rules option sets are sampled: outcomes
are produced by real rule runs over deterministic opponent-profile families
and every outcome carries the economy that achieves it, so certificates
replay exactly. Sampled PASS verdicts are sample-relative; sampled FAIL
certificates use only exhibited outcomes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .axioms import FAIL, PASS_ON_SAMPLE, AxiomReport, Witness
from .economy import Economy
from .preferences import SinglePeaked, worst
from .rational import format_rational as fr
from .rules import DOMAIN_SP_ENDOWMENTS, Rule
from .sampling import SLOPE_CATALOGUE, grid as peak_grid

EXACT = "EXACT"
SAMPLED = "SAMPLED"

NEUTRAL_SLOPES = ((Fraction(1), Fraction(1)),)


@dataclass(frozen=True)
class OptionSetInterval:
    """A closed interval of reachable amounts (exact, simple rules only)."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError("interval needs lo <= hi")

    def __contains__(self, x) -> bool:
        return self.lo <= Fraction(x) <= self.hi

    def __str__(self) -> str:
        return f"[{fr(self.lo)}, {fr(self.hi)}]"


@dataclass
class SampledOptionSet:
    """Finite set of reachable amounts with replayable witness economies."""

    rule: Rule
    agent: int
    pref: SinglePeaked
    omega: Fraction
    n: int
    outcomes: Tuple[Fraction, ...]
    witnesses: Dict[Fraction, Economy]
    grid_spec: str

    def replay(self, outcome: Fraction) -> bool:
        """Re-run the rule on the stored witness; must reproduce the outcome."""
        econ = self.witnesses[outcome]
        return self.rule(econ)[self.agent] == outcome


@dataclass(frozen=True)
class ManipulationVerdict:
    """Worst-case evidence for one (truth, misreport) option-set pair.

    For SAMPLED exactness both flags are relative to the sampled sets. The
    Definition-1 evaluation (every misreport outcome beats some truthful
    outcome) and the worst-case evaluation always agree; both are computed
    and their agreement is recorded.
    """

    is_manipulation: bool
    is_obvious: bool
    w_truth: Fraction
    w_misreport: Fraction
    d_w_truth: Fraction
    d_w_misreport: Fraction
    exactness: str
    definition_agrees: bool = True

    def __post_init__(self):
        if self.is_obvious and not self.is_manipulation:
            raise ValueError("an obvious manipulation is a manipulation")


def option_set_simple(
    peak: Fraction, omega: Fraction, n: int, endowment: Optional[Fraction] = None
) -> OptionSetInterval:
    """Exact option set of any simple rule: the interval between the agent's
    reference point and the peak capped at omega (no outcome can exceed the
    endowment by feasibility). The reference point is equal division, or
    the agent's own `endowment` under a reallocation rule."""
    peak, omega = Fraction(peak), Fraction(omega)
    if n < 2:
        raise ValueError("option sets need n >= 2")
    reference = omega / n if endowment is None else Fraction(endowment)
    reachable_peak = min(peak, omega)
    return OptionSetInterval(
        min(reference, reachable_peak), max(reference, reachable_peak)
    )


def _opponent_profiles(
    pref: SinglePeaked,
    omega: Fraction,
    n: int,
    grid_step: int,
    opponent_slopes: Sequence[Tuple[Fraction, Fraction]],
) -> List[Tuple[SinglePeaked, ...]]:
    """Deterministic opponent families, deduped in generation order:

    identical      all opponents share one grid peak;
    witness        all opponents at (omega - x)/(n - 1) for each target x
                   between equal division and the capped peak (this is the
                   profile that forces a simple rule to hand the agent x);
    complementary  opponents alternate q and omega - q, exercising branches
                   keyed to peak sums.
    """
    points = peak_grid(omega, grid_step)
    share = omega / n
    profiles: List[Tuple[SinglePeaked, ...]] = []
    seen = set()

    def add(profile: Tuple[SinglePeaked, ...]) -> None:
        if profile not in seen:
            seen.add(profile)
            profiles.append(profile)

    for q in points:
        for left, right in opponent_slopes:
            add(tuple(SinglePeaked(q, left, right) for _ in range(n - 1)))

    interval = option_set_simple(pref.peak, omega, n)
    targets = sorted(
        {interval.lo, interval.hi}
        | {g for g in points if interval.lo <= g <= interval.hi}
    )
    for x in targets:
        q = (omega - x) / (n - 1)
        add(tuple(SinglePeaked(q) for _ in range(n - 1)))

    if n >= 3:
        for q in points:
            if q > omega:
                continue
            add(
                tuple(
                    SinglePeaked(q if j % 2 == 0 else omega - q)
                    for j in range(n - 1)
                )
            )
    return profiles


def option_set_sampled(
    rule: Rule,
    agent: int,
    pref: SinglePeaked,
    omega: Fraction,
    n: int,
    grid_step: int = 60,
    opponent_slopes: Sequence[Tuple[Fraction, Fraction]] = NEUTRAL_SLOPES,
    extra_profiles: Iterable[Tuple[SinglePeaked, ...]] = (),
) -> SampledOptionSet:
    """Sampled option set: exact amounts the rule hands `agent` across the
    opponent-profile families, with the achieving economy kept per outcome
    (first in generation order)."""
    omega = Fraction(omega)
    if not 0 <= agent < n:
        raise ValueError(f"agent index {agent} out of range for n={n}")
    if pref.is_infinite:
        raise ValueError(
            "no registered rule tolerates INF peaks inside economies"
        )
    witnesses: Dict[Fraction, Economy] = {}
    profiles = _opponent_profiles(pref, omega, n, grid_step, opponent_slopes)
    profiles.extend(extra_profiles)
    for opponents in profiles:
        prefs = list(opponents[:agent]) + [pref] + list(opponents[agent:])
        econ = Economy(tuple(prefs), omega)
        outcome = rule(econ)[agent]
        if outcome not in witnesses:
            witnesses[outcome] = econ
    return SampledOptionSet(
        rule=rule,
        agent=agent,
        pref=pref,
        omega=omega,
        n=n,
        outcomes=tuple(sorted(witnesses)),
        witnesses=witnesses,
        grid_spec=(
            f"opponent peaks at multiples of {fr(omega)}/{grid_step} on "
            f"[0, {fr(2 * omega)}]; identical, witness, and complementary "
            "families"
        ),
    )


def _worst_of(pref: SinglePeaked, oset) -> Fraction:
    if isinstance(oset, OptionSetInterval):
        # piecewise-linear disutility attains its interval maximum at an end
        return worst(pref, (oset.lo, oset.hi))
    return worst(pref, oset.outcomes)


def demonstrate_manipulation(
    pref_true: SinglePeaked, oset_misreport: SampledOptionSet
) -> Optional[Economy]:
    """Find a single opponent profile where the misreport strictly beats
    truth-telling, by replaying the misreport witnesses honestly.

    Such a profile certifies that the misreport is a manipulation in the
    plain (not necessarily obvious) sense.
    """
    for outcome in oset_misreport.outcomes:
        econ = oset_misreport.witnesses[outcome]
        truthful = econ.replace_pref(oset_misreport.agent, pref_true)
        honest = oset_misreport.rule(truthful)[oset_misreport.agent]
        if pref_true.disutility(outcome) < pref_true.disutility(honest):
            return econ
    return None


def is_obvious_manipulation(
    pref_true: SinglePeaked, oset_true, oset_misreport, demonstrate: bool = False
) -> ManipulationVerdict:
    """Decide obviousness from the two option sets.

    Uses the worst-case form (the misreport's worst outcome strictly beats
    the truthful worst outcome) and the direct every-outcome form; they are
    equivalent whenever worsts exist and both are recorded. Both sets must
    share an exactness level. With `demonstrate` set, a non-obvious sampled
    pair is additionally scanned for a same-profile improvement that would
    certify a plain manipulation.
    """
    exact = isinstance(oset_true, OptionSetInterval)
    if exact != isinstance(oset_misreport, OptionSetInterval):
        raise ValueError("option sets must share an exactness level")

    w_truth = _worst_of(pref_true, oset_true)
    w_mis = _worst_of(pref_true, oset_misreport)
    d_truth = pref_true.disutility(w_truth)
    d_mis = pref_true.disutility(w_mis)
    worst_case_form = d_mis < d_truth

    if exact:
        # on intervals both forms reduce to the same endpoint comparison
        definition_form = worst_case_form
    else:
        definition_form = all(
            any(
                pref_true.disutility(x_mis) < pref_true.disutility(x)
                for x in oset_true.outcomes
            )
            for x_mis in oset_misreport.outcomes
        )

    is_obvious = worst_case_form
    is_manipulation = is_obvious
    if demonstrate and not exact and not is_manipulation:
        is_manipulation = (
            demonstrate_manipulation(pref_true, oset_misreport) is not None
        )
    return ManipulationVerdict(
        is_manipulation=is_manipulation,
        is_obvious=is_obvious,
        w_truth=w_truth,
        w_misreport=w_mis,
        d_w_truth=d_truth,
        d_w_misreport=d_mis,
        exactness=EXACT if exact else SAMPLED,
        definition_agrees=definition_form == worst_case_form,
    )


@dataclass
class ObviousManipulation:
    """A full certificate: who, with what true preference, misreporting what,
    with both option sets and the worst-case pair."""

    rule_name: str
    agent: int
    pref_true: SinglePeaked
    misreport: SinglePeaked
    omega: Fraction
    n: int
    oset_true: object
    oset_misreport: object
    verdict: ManipulationVerdict

    def describe(self) -> str:
        return (
            f"{self.rule_name}: agent {self.agent + 1} with peak "
            f"{fr(self.pref_true.peak)} misreports peak "
            f"{fr(self.misreport.peak)}; worst truthful outcome "
            f"{fr(self.verdict.w_truth)} (disutility "
            f"{fr(self.verdict.d_w_truth)}) vs worst misreport outcome "
            f"{fr(self.verdict.w_misreport)} (disutility "
            f"{fr(self.verdict.d_w_misreport)}) [{self.verdict.exactness}]"
        )


def find_obvious_manipulation(
    rule: Rule,
    agent: int,
    pref_true: SinglePeaked,
    omega: Fraction,
    n: int,
    misreport_peaks: Optional[Sequence[Fraction]] = None,
    misreport_slopes: Sequence[Tuple[Fraction, Fraction]] = NEUTRAL_SLOPES,
    grid_step: int = 60,
    option_grid_step: Optional[int] = None,
    endowment: Optional[Fraction] = None,
    force_sampled: bool = False,
) -> Optional[ObviousManipulation]:
    """Search the misreport grid for an obvious manipulation at
    (pref_true, omega) and return the first certificate, or None.

    Registered simple rules are checked against exact option intervals
    (anchored at the agent's endowment on the reallocation domain);
    everything else uses sampled option sets.

    On the exact path every option set is the interval between the
    reference point r (omega/n, or the agent's own endowment) and the
    capped peak min(peak, omega). A single-peaked disutility is worst on
    an interval at one of its ends, so misreport q is obvious exactly when
    max(d(r), d(min(q, omega))) < d_truth, where d_truth is the true
    disutility of the worse end of the truthful interval. Each misreport
    therefore costs one disutility; the certificate, when one exists, is
    built from the option sets by `is_obvious_manipulation`.
    """
    if not isinstance(pref_true, SinglePeaked):
        raise ValueError(
            "obvious manipulation is defined for single-peaked true "
            f"preferences, got {type(pref_true).__name__}"
        )
    if n < rule.min_agents:
        raise ValueError(
            f"rule {rule.name} needs at least {rule.min_agents} agents, got {n}"
        )
    omega = Fraction(omega)
    peaks = (
        list(misreport_peaks)
        if misreport_peaks is not None
        else peak_grid(omega, grid_step)
    )
    if rule.domain == DOMAIN_SP_ENDOWMENTS and force_sampled:
        raise ValueError(
            "sampled option sets are not defined on the reallocation domain"
        )
    if rule.simple and not force_sampled:
        return _find_exact(
            rule, agent, pref_true, omega, n, peaks, misreport_slopes, endowment
        )

    step = grid_step if option_grid_step is None else option_grid_step
    oset_true = option_set_sampled(rule, agent, pref_true, omega, n, grid_step=step)
    for fake_peak in peaks:
        if fake_peak == pref_true.peak:
            continue
        for left, right in misreport_slopes:
            misreport = SinglePeaked(fake_peak, left, right)
            oset_mis = option_set_sampled(
                rule, agent, misreport, omega, n, grid_step=step
            )
            verdict = is_obvious_manipulation(pref_true, oset_true, oset_mis)
            if verdict.is_obvious:
                return ObviousManipulation(
                    rule_name=rule.name,
                    agent=agent,
                    pref_true=pref_true,
                    misreport=misreport,
                    omega=omega,
                    n=n,
                    oset_true=oset_true,
                    oset_misreport=oset_mis,
                    verdict=verdict,
                )
    return None


def _find_exact(
    rule: Rule,
    agent: int,
    pref_true: SinglePeaked,
    omega: Fraction,
    n: int,
    peaks: Sequence[Fraction],
    misreport_slopes: Sequence[Tuple[Fraction, Fraction]],
    endowment: Optional[Fraction],
) -> Optional[ObviousManipulation]:
    """The exact-interval search of `find_obvious_manipulation`, decided
    from the two endpoint disutilities of each misreport's interval."""
    if rule.domain != DOMAIN_SP_ENDOWMENTS:
        endowment = None
    elif endowment is None:
        raise ValueError("reallocation rules need the agent's own endowment")
    oset_true = option_set_simple(pref_true.peak, omega, n, endowment)
    reference = omega / n if endowment is None else Fraction(endowment)
    d_ref = pref_true.disutility(reference)
    d_truth = pref_true.disutility(_worst_of(pref_true, oset_true))
    for fake_peak in peaks:
        if fake_peak == pref_true.peak:
            continue
        if max(d_ref, pref_true.disutility(min(fake_peak, omega))) < d_truth:
            # slopes never enter an exact-interval verdict; the first pair
            # names the misreport
            oset_mis = option_set_simple(fake_peak, omega, n, endowment)
            return ObviousManipulation(
                rule_name=rule.name,
                agent=agent,
                pref_true=pref_true,
                misreport=SinglePeaked(fake_peak, *misreport_slopes[0]),
                omega=omega,
                n=n,
                oset_true=oset_true,
                oset_misreport=oset_mis,
                verdict=is_obvious_manipulation(pref_true, oset_true, oset_mis),
            )
    return None


# ---------------------------------------------------------------------------
# NOM sweeps


@dataclass(frozen=True)
class NomCase:
    """One (preference, omega, n, agent) situation to probe for obvious
    manipulations; `endowment` is the agent's own share on the reallocation
    domain."""

    pref: SinglePeaked
    omega: Fraction
    n: int
    agent: int = 0
    endowment: Optional[Fraction] = None


def nom_sweep(
    seed: int,
    count: int,
    n_values: Sequence[int] = (2, 3),
    with_endowments: bool = False,
    include_witnesses: bool = True,
) -> List[NomCase]:
    """Seeded sweep of NOM cases; the known two-agent manipulation
    witnesses come first."""
    rng = random.Random(seed)
    cases: List[NomCase] = []
    if include_witnesses and not with_endowments:
        witnesses = [
            NomCase(
                SinglePeaked(Fraction(1, 3), Fraction(1), Fraction(3)),
                Fraction(1),
                2,
            ),
            NomCase(SinglePeaked(Fraction(0)), Fraction(1), 2),
            NomCase(
                SinglePeaked(Fraction(1, 3), Fraction(1), Fraction(3)),
                Fraction(1),
                3,
            ),
            NomCase(SinglePeaked(Fraction(0)), Fraction(1), 3),
        ]
        cases.extend(c for c in witnesses if c.n in n_values)
    while len(cases) < count:
        omega = Fraction(rng.randint(1, 5))
        n = rng.choice(list(n_values))
        den = rng.randint(1, 60)
        peak = Fraction(rng.randint(0, 2 * omega.numerator * den), den)
        left, right = rng.choice(SLOPE_CATALOGUE)
        endowment = None
        if with_endowments:
            wden = rng.randint(1, 60)
            endowment = Fraction(rng.randint(0, omega.numerator * wden), wden)
        cases.append(
            NomCase(
                SinglePeaked(peak, left, right),
                omega,
                n,
                agent=rng.randrange(n),
                endowment=endowment,
            )
        )
    return cases


def check_nom(
    rule: Rule,
    cases: Sequence[NomCase],
    grid_step: int = 60,
    option_grid_step: Optional[int] = None,
    force_sampled: bool = False,
) -> AxiomReport:
    """Run the obvious-manipulation search over a sweep of cases.

    FAIL carries the full certificate (misreport, both option sets with
    witnesses, the worst-case pair); PASS is relative to the sweep and grids.
    """
    checked = 0
    for case in cases:
        if case.n < rule.min_agents:
            continue
        checked += 1
        certificate = find_obvious_manipulation(
            rule,
            case.agent,
            case.pref,
            case.omega,
            case.n,
            grid_step=grid_step,
            option_grid_step=option_grid_step,
            endowment=case.endowment,
            force_sampled=force_sampled,
        )
        if certificate is not None:
            witness_econ = None
            if isinstance(certificate.oset_misreport, SampledOptionSet):
                witness_econ = certificate.oset_misreport.witnesses[
                    certificate.verdict.w_misreport
                ]
            return AxiomReport(
                axiom="nom",
                verdict=FAIL,
                checked=checked,
                witness=Witness(
                    economy=witness_econ,
                    agents=(case.agent,),
                    description=certificate.describe(),
                    detail=certificate,
                ),
            )
    return AxiomReport(axiom="nom", verdict=PASS_ON_SAMPLE, checked=checked)
