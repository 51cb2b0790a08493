"""Option sets, obvious-manipulation detection, and NOM verification.

For a simple rule the option set of an agent is the exact closed
interval between a reference point r (equal division, or the agent's own
endowment on the reallocation domain) and the (feasibility-capped) peak;
`option_set_simple` returns its ends (lo, hi) around equal division.
`Rule.simple` is derived from how the rule was built, not promised by a
caller, so NOM is a lemma, not a search: r lies in every option set and
is the truthful end farther from the peak, so it is the truthful worst,
and no misreport's worst outcome can beat it (NOM as the worst-case
comparison of Troyan and Morrill, "Obvious manipulations", JET 2020).
The search checks its inputs and returns None. For every other rule
option sets are sampled into a `SampledOptionSet`, the one option-set
type that verdicts and certificates read: outcomes come from real rule
runs over deterministic opponent-profile families, each with the first
economy that achieves it, so certificates replay exactly. Sampled PASS
verdicts are sample-relative; FAIL certificates use only exhibited
outcomes. NOM compares worst cases only, so a misreport's set stops at
its first outcome no better, under the true preference, than the
truthful worst: only an obvious misreport's set is built whole.

An opponent profile is what a rule's kernel reads: the n - 1 opponents'
peaks as integers over one denominator D per report, generated from the
grid's spacing over D (`_opponent_profiles`). D is the least common
denominator of the grid's spacing, of equal division and of the report's
peak, times n - 1, so that both ends of the report's option set, the
grid points between them and each such target's witness peak are
integers too. Preferences are built only at the two edges, by one
helper of the sampler: a rule without a kernel (a wrapper included) is
called on each profile's economy, built by the public constructor, and
keeps it as the witness of a new outcome; a kernel rule keeps the
profile, whose economy `SampledOptionSet.witnesses` builds on first
read. There an opponent on the grid is the grid's shared unit-slope
preference (`sampling._grid_prefs`, every search's misreports), and one
off it a unit-slope preference at its peak.

Both doors, `option_set_sampled` and `find_obvious_manipulation`,
refuse bad inputs once, before any profile is built, in one set of texts
(a report that is not single-peaked, the rule's minimum agent count, the
economy's size and endowment, the agent index). Each then builds one
`_sampler`, which looks up the grid, takes its denominator and, for a
rule with a declared kernel (`Rule.kernel`; every registered rule but
gallery:underline, which reads a slope, has one), runs the domain check
once, so each misreport pays only its runs. The kernel runs on the
integers of every profile, so a kernel rule builds no economy but the
domain check's while it samples. Feasibility is checked on every run.
"""

from __future__ import annotations

import math
import random
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .economy import Economy, _check_feasible, _checked_size
from .preferences import SinglePeaked, worst
from .rational import _scaled, format_rational as fr, parse_rational
from .report import AxiomReport, Witness, _scan
from .rules import DOMAIN_SP_ENDOWMENTS, Rule
from .sampling import PEAK_BOX, _check_count, _check_grid_step, _grid_prefs
from .sampling import random_preference, random_rational, two_agent_om_economy


class _Witnesses(Mapping):
    """The read-only {outcome: first witness economy} of a sampled option
    set, in generation order. `found` maps each outcome's reduced
    (numerator, denominator) to [outcome, witness]; a kernel run's witness
    is held as its opponent profile until its first read builds and keeps
    `economy(profile)`. Equality and repr are the dict's, so they read
    every witness."""

    def __init__(self, economy: Callable, found: Dict[Tuple[int, int], list]):
        self._economy = economy
        self._found = found

    def __getitem__(self, outcome) -> Economy:
        try:
            entry = self._found[outcome.numerator, outcome.denominator]
        except (AttributeError, KeyError):
            raise KeyError(outcome) from None
        if isinstance(entry[1], tuple):
            entry[1] = self._economy(entry[1])
        return entry[1]

    def __iter__(self) -> Iterator[Fraction]:
        return (outcome for outcome, _ in self._found.values())

    def __len__(self) -> int:
        return len(self._found)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


@dataclass
class SampledOptionSet:
    """Finite set of reachable amounts with replayable witness economies,
    each built when it is first read."""

    rule: Rule
    agent: int
    outcomes: Tuple[Fraction, ...]
    witnesses: Mapping[Fraction, Economy]
    grid_spec: str

    def replay(self, outcome: Fraction) -> bool:
        """Re-run the rule on the stored witness; must reproduce the outcome."""
        econ = self.witnesses[outcome]
        return self.rule(econ)[self.agent] == outcome


@dataclass(frozen=True)
class ManipulationVerdict:
    """Worst-case evidence for one (truth, misreport) pair of sampled
    option sets, relative to those sets. The Definition-1 evaluation
    (every misreport outcome beats some truthful outcome, each outcome's
    disutility computed once) and the worst-case evaluation always agree;
    both are computed and their agreement is recorded.
    """

    is_obvious: bool
    w_truth: Fraction
    w_misreport: Fraction
    d_w_truth: Fraction
    d_w_misreport: Fraction
    definition_agrees: bool = True


def option_set_simple(
    peak: Fraction, omega: Fraction, n: int
) -> Tuple[Fraction, Fraction]:
    """Exact option set (lo, hi) of any simple rule on the single-peaked
    domain: the closed interval between equal division and the peak capped
    at omega (no outcome can exceed the endowment by feasibility)."""
    peak = parse_rational(peak)
    omega = _checked_size(n, omega)
    if peak.numerator < 0:
        raise ValueError(f"peak must be nonnegative, got {peak}")
    reference = omega / n
    reachable_peak = min(peak, omega)
    return min(reference, reachable_peak), max(reference, reachable_peak)


def _opponent_profiles(
    total: int, mine: int, n: int, grid_step: int
) -> Iterator[Tuple[int, ...]]:
    """The deterministic opponent profiles of a report, in generation
    order, each the n - 1 opponents' peaks as numerators over the report's
    D, of which omega is `total` and the report's peak `mine`:

    identical      all opponents share one grid peak;
    witness        all opponents at (omega - x)/(n - 1) for each target x
                   between equal division and the capped peak, in
                   increasing order (this is the profile that forces a
                   simple rule to hand the agent x);
    complementary  opponents alternate q and omega - q, for each grid peak
                   q in [0, omega] but omega/2, exercising branches keyed
                   to peak sums.

    D is n - 1 times a common multiple of the denominators of the grid's
    spacing omega/grid_step, of equal division and of the peak, so both
    ends of the option set, the grid points between them (the targets) and
    each target's witness peak are integers over it. A witness profile is
    constant, so it repeats an identical profile exactly when its peak is
    on the grid, and such a target is skipped; an end off the grid has its
    peak off the grid too. Profiles are generated lazily, so a consumer
    that stops early builds no more of them than it reads.
    """
    step = total // grid_step  # the grid's spacing over D
    for x in range(0, PEAK_BOX * total + 1, step):
        yield (x,) * (n - 1)
    lo, hi = sorted((total // n, min(mine, total)))
    for x in sorted({lo, hi, *range(lo + -lo % step, hi + 1, step)}):
        w = (total - x) // (n - 1)  # the witness peak of target x
        if w % step:
            yield (w,) * (n - 1)
    if n >= 3:  # at n = 2 a complementary profile is an identical one
        for q in range(0, total + 1, step):
            if 2 * q != total:  # the identical family holds omega/2
                yield tuple(total - q if j % 2 else q for j in range(n - 1))


def _sampler(
    rule: Rule, agent: int, pref: SinglePeaked, omega: Fraction, n: int, grid_step: int
) -> Callable:
    """The sampler of one search, set up once: it looks up the grid's
    shared preferences (refusing a bad grid step), runs a `kernel` rule's
    one domain check on the true report `pref` (the check reads the
    preference kind, the endowments and n, which no report changes), and
    takes the least common denominator of the grid's spacing and of equal
    division. `sample(report, stop)` is the sampled option set of `agent`
    reporting `report`, one run per profile of `_opponent_profiles` in
    generation order, or None at the first new outcome, a reduced (a, q),
    for which `stop(a, q)` holds. The report's D is that denominator,
    refined by its peak, times n - 1. A kernel runs on every profile's
    numerators, the report's inserted; a rule without a kernel is called
    on the profile's economy, built by `economy`, the one place where
    opponents become preferences. Feasibility is checked on every run; a
    new outcome's witness is kept as its economy, or a kernel run's
    profile, whose economy `SampledOptionSet.witnesses` builds on first
    read. Callers run `_checked_omega` first, so no economy fails its
    checks."""
    grid, kernel = _grid_prefs(omega, grid_step), rule.kernel
    if kernel is not None:
        rule.check_domain(Economy((pref,) * n, omega))
    base = math.lcm((omega / grid_step).denominator, (omega / n).denominator)
    grid_spec = (
        f"opponent peaks at multiples of {fr(omega)}/{grid_step} on [0, "
        f"{fr(PEAK_BOX * omega)}]; identical, witness, and complementary families"
    )

    def sample(report: SinglePeaked, stop: Optional[Callable] = None):
        common = math.lcm(base, report.peak.denominator) * (n - 1)
        total, mine = _scaled((omega, report.peak), common)[1]
        step = total // grid_step  # the grid's spacing over D

        def economy(profile: Tuple[int, ...]) -> Economy:
            """`report` among the opponents of `profile`: a grid peak is the
            grid's shared preference, and each distinct peak off the grid
            one unit-slope preference."""
            prefs = {
                x: SinglePeaked(Fraction(x, common)) if x % step else grid[x // step]
                for x in set(profile)
            }
            opponents = [prefs[x] for x in profile]
            opponents.insert(agent, report)
            return Economy(tuple(opponents), omega)

        # {reduced outcome: [outcome, its profile or economy, then economy]}
        found: Dict[Tuple[int, int], list] = {}
        for profile in _opponent_profiles(total, mine, n, grid_step):
            if kernel is None:
                witness = economy(profile)
                allotment = rule(witness)
                unit, amounts = allotment._common, allotment._numerators
            else:
                witness = profile
                peaks = list(profile)
                peaks.insert(agent, mine)
                unit, amounts = kernel(common, peaks, total, None)
            _check_feasible(unit, amounts, omega)
            g = math.gcd(amounts[agent], unit)
            key = (amounts[agent] // g, unit // g)
            if key in found:
                continue
            if stop is not None and stop(*key):
                return None
            found[key] = [Fraction(*key), witness]
        # sorted on exact integers: p / q as p * (L // q), L the lcm of the q's
        lcm = math.lcm(*{q for _, q in found})
        ordered = sorted(found, key=lambda key: key[0] * (lcm // key[1]))
        return SampledOptionSet(
            rule=rule,
            agent=agent,
            outcomes=tuple(found[key][0] for key in ordered),
            witnesses=_Witnesses(economy, found),
            grid_spec=grid_spec,
        )

    return sample


def option_set_sampled(
    rule: Rule,
    agent: int,
    pref: SinglePeaked,
    omega: Fraction,
    n: int,
    grid_step: int = 60,
) -> SampledOptionSet:
    """Sampled option set: exact amounts the rule hands `agent` across the
    opponent-profile families, with the achieving economy kept per outcome
    (first in generation order). The inputs are checked once, before any
    profile is built, by `_checked_omega`: `pref` is single-peaked, n is
    an int of at least 2 and the rule's minimum, omega is positive and the
    agent index is an int in range."""
    omega = _checked_omega(rule, agent, pref, n, omega)
    return _sampler(rule, agent, pref, omega, n, grid_step)(pref)


def _checked_omega(rule: Rule, agent: int, pref, n: int, omega) -> Fraction:
    """omega parsed, after refusing a report that is not single-peaked, n
    below the rule's minimum, the economy's size and endowment as
    `Economy` does (`_checked_size`), and an agent index that is not an
    int in [0, n). `find_obvious_manipulation` calls it first too."""
    if not isinstance(pref, SinglePeaked):
        raise ValueError(
            "sampled option sets need a single-peaked report, got "
            f"{type(pref).__name__}"
        )
    rule._check_agents(n)
    omega = _checked_size(n, omega)
    if type(agent) is not int:  # a bool is refused too
        raise ValueError(f"agent index must be an int, got {agent!r}")
    if not 0 <= agent < n:
        raise ValueError(f"agent index {agent} out of range for n={n}")
    return omega


def is_obvious_manipulation(
    pref_true: SinglePeaked,
    oset_true: SampledOptionSet,
    oset_misreport: SampledOptionSet,
) -> ManipulationVerdict:
    """Decide obviousness from two sampled option sets.

    Uses the worst-case form (the misreport's worst outcome strictly beats
    the truthful worst outcome) and the direct every-outcome form, which
    asks each outcome's disutility once and shares nothing with `worst`;
    they are equivalent whenever worsts exist and both are recorded.
    """
    w_truth = worst(pref_true, oset_true.outcomes)
    w_mis = worst(pref_true, oset_misreport.outcomes)
    d_truth = pref_true.disutility(w_truth)
    d_mis = pref_true.disutility(w_mis)
    worst_case_form = d_mis < d_truth
    truthful = [pref_true.disutility(x) for x in oset_true.outcomes]
    definition_form = all(
        any(d < d_x for d_x in truthful)
        for d in map(pref_true.disutility, oset_misreport.outcomes)
    )
    return ManipulationVerdict(
        is_obvious=worst_case_form,
        w_truth=w_truth,
        w_misreport=w_mis,
        d_w_truth=d_truth,
        d_w_misreport=d_mis,
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
    oset_true: SampledOptionSet
    oset_misreport: SampledOptionSet
    verdict: ManipulationVerdict

    def describe(self) -> str:
        return (
            f"{self.rule_name}: agent {self.agent + 1} with peak "
            f"{fr(self.pref_true.peak)} misreports peak "
            f"{fr(self.misreport.peak)}; worst truthful outcome "
            f"{fr(self.verdict.w_truth)} (disutility "
            f"{fr(self.verdict.d_w_truth)}) vs worst misreport outcome "
            f"{fr(self.verdict.w_misreport)} (disutility "
            f"{fr(self.verdict.d_w_misreport)}) [SAMPLED]"
        )


def _no_better(pref: SinglePeaked, d_truth: Fraction) -> Callable:
    """The search's stop test `pref.disutility(x / q) >= d_truth` (for
    d_truth >= 0) on ints: x / q lies at or below peak - d_truth / left
    slope or at or above peak + d_truth / right slope, each computed once."""
    a, b = (pref.peak - d_truth / pref.left_slope).as_integer_ratio()
    c, d = (pref.peak + d_truth / pref.right_slope).as_integer_ratio()
    return lambda x, q: x * b <= a * q or x * d >= c * q


def find_obvious_manipulation(
    rule: Rule,
    agent: int,
    pref_true: SinglePeaked,
    omega: Fraction,
    n: int,
    grid_step: int = 60,
    option_grid_step: Optional[int] = None,
    endowment: Optional[Fraction] = None,
) -> Optional[ObviousManipulation]:
    """Search the misreport grid for an obvious manipulation at
    (pref_true, omega) and return the first certificate, or None. The
    misreports are the preferences of `sampling._grid_prefs(omega,
    grid_step)` but the one at the true peak, at least two; to test one
    misreport, pass `option_set_sampled` of the truth and of it to
    `is_obvious_manipulation`.

    The inputs are checked on every rule before any search: the true
    preference is single-peaked, n meets the rule's minimum and is an int
    of at least 2, omega is positive and the agent index is an int in
    range (`_checked_omega`, in `option_set_sampled`'s texts); both grids
    (of grid_step, and of option_grid_step, or grid_step when None) are
    not empty, and `endowment`, the agent's own share, lies in [0, omega].
    Only a reallocation rule reads an endowment, so any other rule
    refuses one, and a simple reallocation rule needs one.

    A simple rule (`Rule.simple`, derived from how the rule was built)
    then returns None without a search: its option sets are intervals
    between the reference point r (omega/n, or the endowment) and the
    capped peak, so r lies in every option set, and r is the end of the
    truthful interval farther from the peak, the truthful worst. No
    misreport's worst outcome beats d(r), so none is obvious.

    Every other rule is searched on sampled option sets, all built by one
    `_sampler`, set up once per search. d_truth is the true disutility of
    the worst outcome in the full sampled truthful set. A misreport is
    obvious only if all its outcomes have true disutility below d_truth,
    so its set stops at the first outcome that `_no_better` finds with
    disutility >= d_truth, whatever the unsampled rest. A set that never
    stops is whole, so certificates match a search that samples every set
    in full; the verdict is `is_obvious_manipulation` of the two sets.
    """
    omega = _checked_omega(rule, agent, pref_true, n, omega)
    step = grid_step if option_grid_step is None else option_grid_step
    if step != grid_step:  # else the one check below covers both grids
        _check_grid_step(grid_step)
    _check_grid_step(step)  # refuses an empty option grid
    if endowment is not None:
        endowment = parse_rational(endowment)
        if not 0 <= endowment <= omega:
            raise ValueError(
                f"endowment {fr(endowment)} lies outside [0, {fr(omega)}]"
            )
        if rule.domain != DOMAIN_SP_ENDOWMENTS:
            raise ValueError(
                f"rule {rule.name} reads no endowment: only reallocation "
                "rules take one"
            )
    if rule.simple:
        if endowment is None and rule.domain == DOMAIN_SP_ENDOWMENTS:
            raise ValueError("reallocation rules need the agent's own endowment")
        return None

    sample = _sampler(rule, agent, pref_true, omega, n, step)
    oset_true = sample(pref_true)
    d_truth = pref_true.disutility(worst(pref_true, oset_true.outcomes))
    no_better = _no_better(pref_true, d_truth)
    for misreport in _grid_prefs(omega, grid_step):
        if misreport.peak == pref_true.peak:
            continue
        oset_mis = sample(misreport, no_better)
        if oset_mis is not None:
            return ObviousManipulation(
                rule_name=rule.name,
                agent=agent,
                pref_true=pref_true,
                misreport=misreport,
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
) -> List[NomCase]:
    """Seeded sweep of NOM cases: without endowments the witness cases
    (the two preferences of `sampling.two_agent_om_economy` at each n of 2
    and 3 in n_values) first, then draws up to `count` in all; with
    endowments, `count` draws (a count that is not an int is refused). A
    draw takes an integer omega in 1..5, an n from n_values, a preference
    by `sampling.random_preference`, on the reallocation domain an
    endowment in [0, omega] by `sampling.random_rational`, then the agent."""
    if not n_values or any(not isinstance(n, int) or n < 2 for n in n_values):
        raise ValueError(
            f"n_values must be nonempty, each n >= 2 an int: {n_values!r}"
        )
    _check_count(count)
    rng = random.Random(seed)
    cases: List[NomCase] = []
    if not with_endowments:
        om = two_agent_om_economy()
        ns = [n for n in (2, 3) if n in n_values]
        cases = [NomCase(pref, om.omega, n) for n in ns for pref in om.prefs]
    while len(cases) < count:
        omega = Fraction(rng.randint(1, 5))
        n = rng.choice(list(n_values))
        pref = random_preference(rng, omega)
        endowment = random_rational(rng, omega) if with_endowments else None
        cases.append(NomCase(pref, omega, n, rng.randrange(n), endowment))
    return cases


def check_nom(
    rule: Rule,
    cases: Sequence[NomCase],
    grid_step: int = 60,
    option_grid_step: Optional[int] = None,
) -> AxiomReport:
    """Run the obvious-manipulation search over a sweep of cases.

    FAIL carries the full certificate (misreport, both option sets with
    witnesses, the worst-case pair); PASS is relative to the sweep and grids.
    NO_CASES means no case had enough agents for the rule. Each search
    refuses a bad grid step before its first rule run, so a scan that
    inspected no case refuses one (both grids, as `find_obvious_manipulation`
    does) before it answers NO_CASES.
    """

    def violation(case: NomCase) -> Optional[Witness]:
        certificate = find_obvious_manipulation(
            rule,
            case.agent,
            case.pref,
            case.omega,
            case.n,
            grid_step=grid_step,
            option_grid_step=option_grid_step,
            endowment=case.endowment,
        )
        if certificate is None:
            return None
        return Witness(
            economy=certificate.oset_misreport.witnesses[
                certificate.verdict.w_misreport
            ],
            agents=(case.agent,),
            description=certificate.describe(),
            detail=certificate,
        )

    report = _scan("nom", rule, cases, violation)
    if not report.checked:
        _check_grid_step(grid_step)
        if option_grid_step is not None:
            _check_grid_step(option_grid_step)
    return report
