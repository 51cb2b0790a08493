"""Shared test oracles, independent of the library's solver paths."""

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import attrgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from allotment.axioms import FAIL, NO_CASES, PASS_ON_SAMPLE, AxiomReport, Witness
from allotment.claims import ClaimsProblem, ClaimsRule
from allotment.economy import Allotment, Economy
from allotment.manipulation import (
    is_obvious_manipulation,
    option_set_sampled,
    option_set_simple,
)
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rational import format_rational as fr
from allotment.sampling import grid as peak_grid, random_rational


@st.composite
def economies(draw, endowed=False, plateaued=False):
    """Hypothesis economies of 2 to 6 agents with rational omega, peaks (or
    plateaus) in [0, 2 omega] and positive slopes that are often not 1.
    Endowed economies get nonnegative endowments summing to omega."""

    def rational(lo, hi, max_den):
        # two integer draws generate about four times faster than st.fractions
        den = draw(st.integers(1, max_den))
        top = draw(st.integers(math.ceil(lo * den), math.floor(hi * den)))
        return Fraction(top, den)

    omega = rational(Fraction(1, 6), 5, 6)
    n = draw(st.integers(2, 6))
    prefs = []
    for _ in range(n):
        left, right = (rational(Fraction(1, 10), 10, 10) for _ in range(2))
        if plateaued:
            lo, hi = sorted(rational(0, 2 * omega, 12) for _ in range(2))
            prefs.append(SinglePlateaued(lo, hi, left, right))
        else:
            prefs.append(SinglePeaked(rational(0, 2 * omega, 12), left, right))
    endowments = None
    if endowed:
        weights = draw(
            st.lists(st.integers(0, 12), min_size=n, max_size=n).filter(any)
        )
        endowments = tuple(omega * w / sum(weights) for w in weights)
    return Economy(tuple(prefs), omega, endowments)


# denominators up to 10**6, so the terms rarely share one and the common
# denominator of 40 terms runs to hundreds of digits
LARGE = st.builds(Fraction, st.integers(0, 10**6), st.integers(1, 10**6))
TERMS = st.lists(LARGE, max_size=40)


def end_or_inside(draw, low, high):
    """low, high, or a point strictly between them with a large denominator."""
    end = draw(st.sampled_from(["low", "high", "inside"]))
    if end == "low" or low == high:
        return low
    if end == "high":
        return high
    return low + (high - low) * draw(LARGE.filter(lambda x: 0 < x < 1))


def random_claims_problem(rng: random.Random) -> ClaimsProblem:
    """One seeded claims problem: 1 to 6 claims in [0, 5], a pair of them
    equal in about a quarter of the draws, and an endowment in [0, total]."""
    n = rng.randint(1, 6)
    claims = [random_rational(rng, Fraction(5)) for _ in range(n)]
    if rng.random() < 1 / 4 and n >= 2:
        src, dst = rng.sample(range(n), 2)
        claims[dst] = claims[src]  # duplicate claims exercise symmetry
    total = sum(claims)
    endowment = random_rational(rng, total) if total > 0 else Fraction(0)
    return ClaimsProblem(tuple(claims), endowment)


def bisect_increasing(func, target, lo, hi, iterations=60):
    """Bracket the level where an increasing func crosses target.

    Exact Fraction halving; returns (lo, hi) with func(lo) <= target <= func(hi)
    and width (hi - lo) / 2**iterations of the initial bracket.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    assert func(lo) <= target <= func(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_decreasing(func, target, lo, hi, iterations=60):
    """Bracket the level where a decreasing func crosses target."""
    lo, hi = Fraction(lo), Fraction(hi)
    assert func(lo) >= target >= func(hi)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if func(mid) > target:
            lo = mid
        else:
            hi = mid
    return lo, hi


def min_level_oracle(caps, target):
    """Reference min level: the library's former scan on Fractions, kept as
    the oracle for the integer scan `allotment.levels._min_level`."""
    caps = [Fraction(c) for c in caps]
    target = Fraction(target)
    if target < 0 or target > sum(caps):
        raise ValueError("target outside [0, sum of caps]")
    if not caps:
        return Fraction(0)
    ordered = sorted(caps)
    k = len(ordered)
    consumed = Fraction(0)
    for j, cap in enumerate(ordered):
        if consumed + cap * (k - j) >= target:
            return (target - consumed) / (k - j)
        consumed += cap
    return ordered[-1]


def cea_oracle(claims, endowment):
    """Reference constrained equal awards: the library's former Fraction
    formula min(c, lam), kept as the oracle for the integer awards of
    `allotment.claims.cea`."""
    lam = min_level_oracle(claims, endowment)
    return tuple(min(Fraction(c), lam) for c in claims)


def cel_oracle(claims, endowment):
    """Reference constrained equal losses: max(0, c - lam), where the
    losses min(c, lam) total sum(claims) - E."""
    lam = min_level_oracle(claims, sum(claims, Fraction(0)) - endowment)
    return tuple(max(Fraction(0), c - lam) for c in claims)


def pro_oracle(claims, endowment):
    """Reference proportional division: c / sum(claims) * E, zeros when
    every claim is 0."""
    total = sum(claims, Fraction(0))
    if total == 0:
        return (Fraction(0),) * len(claims)
    return tuple(Fraction(c) / total * endowment for c in claims)


CLAIMS_ORACLES = {"cea": cea_oracle, "cel": cel_oracle, "pro": pro_oracle}


def max_level_oracle(floors, target):
    """Reference max level: the library's former scan on Fractions, the
    level of `uniform_oracle` under excess supply."""
    floors = [Fraction(f) for f in floors]
    target = Fraction(target)
    total = sum(floors)
    if target < total:
        raise ValueError("target below the sum of floors")
    if not floors:
        if target != 0:
            raise ValueError("target must be 0 when there are no floors")
        return Fraction(0)
    ordered = sorted(floors)
    k = len(ordered)
    prefix = Fraction(0)
    for j in range(1, k + 1):
        prefix += ordered[j - 1]
        lam = (target - (total - prefix)) / j
        if lam >= ordered[j - 1] and (j == k or lam <= ordered[j]):
            return lam
    raise AssertionError("unreachable: max-level scan must bracket the target")


def uniform_oracle(econ: Economy):
    """Reference uniform rule: the library's former Fraction formula,
    min(p, lam) under excess demand and max(p, lam) under excess supply,
    with the level where the amounts total omega. Independent of the
    simple-rule builder that `allotment.rules.uniform` runs through."""
    peaks, omega = econ.peaks(), econ.omega
    if sum(peaks) >= omega:
        lam = min_level_oracle(peaks, omega)
        return tuple(min(p, lam) for p in peaks)
    lam = max_level_oracle(peaks, omega)
    return tuple(max(p, lam) for p in peaks)


def ced_oracle(econ: Economy):
    """Reference constrained equal distance: the library's former Fraction
    formula. Under excess demand each peak is cut by min(p, d), the cuts
    totalling sum(peaks) - omega; under excess supply each peak is raised
    by (omega - sum(peaks)) / n."""
    peaks, omega = econ.peaks(), econ.omega
    total = sum(peaks, Fraction(0))
    if total >= omega:
        d = min_level_oracle(peaks, total - omega)
        return tuple(max(Fraction(0), p - d) for p in peaks)
    d = (omega - total) / econ.n
    return tuple(p + d for p in peaks)


def proportional_oracle(econ: Economy):
    """Reference proportional rule: p / sum(peaks) * omega, equal division
    when every peak is 0."""
    peaks, omega = econ.peaks(), econ.omega
    total = sum(peaks, Fraction(0))
    if total == 0:
        return (omega / econ.n,) * econ.n
    return tuple(p / total * omega for p in peaks)


def equal_division_oracle(econ: Economy):
    """Reference gallery:equal_division: omega/n each."""
    return (econ.equal_share,) * econ.n


def star_oracle(econ: Economy):
    """Reference gallery:star, the library's former Fraction body: the
    first two agents absorb omega when their peaks split it exactly and
    every other peak differs from both; uniform otherwise."""
    peaks = econ.peaks()
    if peaks[0] + peaks[1] == econ.omega and all(
        peaks[j] not in (peaks[0], peaks[1]) for j in range(2, econ.n)
    ):
        return (peaks[0], peaks[1]) + (Fraction(0),) * (econ.n - 2)
    return uniform_oracle(econ)


def bar_oracle(econ: Economy):
    """Reference gallery:bar, the library's former Fraction body: omega/3
    and 2 omega/3 to the first two agents when both peak at omega and every
    other peak is 0; uniform otherwise."""
    peaks = econ.peaks()
    if (
        peaks[0] == econ.omega
        and peaks[1] == econ.omega
        and all(peaks[j] == 0 for j in range(2, econ.n))
    ):
        return (econ.omega / 3, 2 * econ.omega / 3) + (Fraction(0),) * (econ.n - 2)
    return uniform_oracle(econ)


def hat_oracle(econ: Economy):
    """Reference gallery:hat, the library's former Fraction body: under
    excess supply the minimum-peak agents share what the others leave;
    uniform otherwise."""
    peaks = econ.peaks()
    if sum(peaks) >= econ.omega:
        return uniform_oracle(econ)
    low = min(peaks)
    hatted = frozenset(i for i, p in enumerate(peaks) if p == low)
    lam = (
        econ.omega - sum(p for i, p in enumerate(peaks) if i not in hatted)
    ) / len(hatted)
    return tuple(lam if i in hatted else peaks[i] for i in range(econ.n))


def underline_oracle(econ: Economy):
    """Reference gallery:underline, the library's former Fraction body:
    uniform with agent 1's peak replaced by 0 when the others' peaks total
    at least omega, agent 1 strictly prefers 0 to equal division and has
    the strictly lowest peak; uniform otherwise."""
    peaks = econ.peaks()
    first = econ.prefs[0]
    prefers_zero = first.disutility(0) < first.disutility(econ.equal_share)
    strictly_lowest = all(peaks[0] < peaks[j] for j in range(1, econ.n))
    if sum(peaks[1:]) >= econ.omega and prefers_zero and strictly_lowest:
        econ = econ.replace_pref(
            0, SinglePeaked(Fraction(0), first.left_slope, first.right_slope)
        )
    return uniform_oracle(econ)


GALLERY_ORACLES = {
    "equal_division": equal_division_oracle,
    "star": star_oracle,
    "bar": bar_oracle,
    "hat": hat_oracle,
    "underline": underline_oracle,
}


def clamp_level_oracle(lows, highs, target):
    """Reference clamp level: re-sums every interval at every breakpoint.

    The library's former quadratic scan over Fractions, kept as the oracle
    for the integer sweep `allotment.levels._clamp_level` (read back as a
    Fraction through the `clamp_level` adapter in `test_levels.py`) and for
    the straddling branch of a simple rule on single-plateaued economies.
    """
    lows = [Fraction(x) for x in lows]
    highs = [Fraction(x) for x in highs]
    target = Fraction(target)
    if len(lows) != len(highs):
        raise ValueError("lows and highs must have the same length")
    if any(h < l for l, h in zip(lows, highs)):
        raise ValueError("each interval needs low <= high")
    if not (sum(lows) <= target <= sum(highs)):
        raise ValueError("target outside [sum of lows, sum of highs]")

    def total_at(lam):
        return sum(min(h, max(l, lam)) for l, h in zip(lows, highs))

    points = sorted(set(lows) | set(highs))
    previous = points[0]
    if total_at(previous) >= target:
        return previous
    for point in points[1:]:
        value = total_at(point)
        if value >= target:
            # slope over (previous, point) is the number of active intervals
            active = sum(1 for l, h in zip(lows, highs) if l <= previous and h >= point)
            if active == 0:
                return point
            return previous + (target - total_at(previous)) / active
        previous = point
    return points[-1]


def spl_extension_oracle(base, econ: Economy):
    """Reference allotment of a simple rule around equal division on a
    single-plateaued economy, through a single-peaked one. The rule runs
    on a single-peaked economy of the left ends when they sum to at least
    omega, of the right ends when they sum to at most omega; otherwise
    every agent gets the level clamped into its plateau
    (`clamp_level_oracle`)."""
    lows = [p.plateau_lo for p in econ.prefs]
    highs = [p.plateau_hi for p in econ.prefs]
    if sum(lows) >= econ.omega or sum(highs) <= econ.omega:
        ends = lows if sum(lows) >= econ.omega else highs
        reduced = Economy(
            tuple(
                SinglePeaked(end, p.left_slope, p.right_slope)
                for end, p in zip(ends, econ.prefs)
            ),
            econ.omega,
        )
        return tuple(base(reduced))
    level = clamp_level_oracle(lows, highs, econ.omega)
    return tuple(min(h, max(l, level)) for l, h in zip(lows, highs))


def split_oracle(econ: Economy, reference: Sequence[Fraction]):
    """Reference simple/non-simple split on Fractions around one reference
    point per agent: (z, E, plus, minus), with plus and minus ascending
    agent lists. Kept as the oracle for the integer split
    `allotment.economy._split_scaled`."""
    peaks, omega = econ.peaks(), econ.omega
    z = sum(peaks) - omega
    demand = z >= 0
    plus = [
        i
        for i, (p, r) in enumerate(zip(peaks, reference))
        if (p < r if demand else p > r)
    ]
    minus = [i for i in range(econ.n) if i not in plus]
    E = abs(omega - sum(peaks[i] for i in plus) - sum(reference[i] for i in minus))
    return z, E, plus, minus


def simple_rule_oracle(econ: Economy, reference: Sequence[Fraction], claims_oracle):
    """Reference simple rule on Fractions: the plus agents of `split_oracle`
    keep their peak, and each minus agent moves from its reference point
    toward its peak by its award in the residual claims problem (upward
    under excess demand, downward under excess supply)."""
    peaks = econ.peaks()
    z, E, plus, minus = split_oracle(econ, reference)
    awards = claims_oracle([abs(peaks[i] - reference[i]) for i in minus], E)
    amounts = list(peaks)
    for nu, i in zip(awards, minus):
        amounts[i] = reference[i] + nu if z >= 0 else reference[i] - nu
    return tuple(amounts)


def sequential_allotment_oracle(econ: Economy, selector, order=None):
    """Reference sequential construction: the library's former window loop
    on Fractions, around the split of `split_oracle`. Kept as the oracle
    for the integer window, now the claims rule `allotment.rules._sequential`
    that `sequential_rule` runs through the simple-rule builder;
    `selector` maps a window's ends (lo, hi) to the award, and `order` is
    an explicit sequence of the non-simple agents, ascending when None."""
    peaks, omega, n = econ.peaks(), econ.omega, econ.n
    share = omega / n
    z, room, plus, minus = split_oracle(econ, (share,) * n)
    demand = z >= 0
    amounts = [peaks[i] if i in plus else share for i in range(n)]
    order = minus if order is None else order
    slack = -abs(z)
    for agent in order[:-1]:
        gap = peaks[agent] - share if demand else share - peaks[agent]
        floor = gap + slack
        lo, hi = max(Fraction(0), floor), min(gap, room)
        assert lo <= hi
        lam = selector(lo, hi)
        if not lo <= lam <= hi:
            raise ValueError("selector left the admissible window")
        amounts[agent] = share + lam if demand else share - lam
        room -= lam
        slack = floor - lam
    last = order[-1]
    amounts[last] = omega - sum(a for i, a in enumerate(amounts) if i != last)
    return tuple(amounts)


def opponent_profiles_oracle(
    pref: SinglePeaked,
    omega: Fraction,
    n: int,
    grid_step: int,
) -> Iterator[Tuple[SinglePeaked, ...]]:
    """Reference opponent profiles: every family rebuilt on every call, one
    preference per slot, deduped on whole preference tuples.

    The library's former generator, kept as the oracle for
    `allotment.manipulation._opponent_profiles`, which generates each
    profile as the opponents' peak numerators over the report's D.
    """
    points = peak_grid(omega, grid_step)
    identical = (tuple(SinglePeaked(q) for _ in range(n - 1)) for q in points)

    def witness() -> Iterator[Tuple[SinglePeaked, ...]]:
        lo, hi = option_set_simple(pref.peak, omega, n)
        targets = sorted({lo, hi} | {g for g in points if lo <= g <= hi})
        for x in targets:
            yield tuple(SinglePeaked((omega - x) / (n - 1)) for _ in range(n - 1))

    complementary = (
        tuple(SinglePeaked(q if j % 2 == 0 else omega - q) for j in range(n - 1))
        for q in points
        if n >= 3 and q <= omega
    )
    seen = set()
    for profile in itertools.chain(identical, witness(), complementary):
        if profile not in seen:
            seen.add(profile)
            yield profile


def sorted_targets_profiles_oracle(
    pref: SinglePeaked,
    omega: Fraction,
    n: int,
    grid_step: int,
) -> Iterator[Tuple[SinglePeaked, ...]]:
    """Reference opponent profiles in generation order, with the witness
    targets found on Fractions: the grid points inside the option set are
    found by bisecting the grid, joined to its two ends and sorted, and a
    witness profile is dropped when bisecting the grid finds its peak.

    The library's former generator, kept as the oracle for the order of
    `allotment.manipulation._opponent_profiles`, which finds the witness
    targets on integers over the report's D.
    """
    keys = peak_grid(omega, grid_step)
    for q in keys:
        yield (SinglePeaked(q),) * (n - 1)
    lo, hi = option_set_simple(pref.peak, omega, n)
    targets = sorted(
        {lo, hi}.union(keys[bisect_left(keys, lo) : bisect_right(keys, hi)])
    )
    for x in targets:
        peak = (omega - x) / (n - 1)
        at = bisect_left(keys, peak)
        if at == len(keys) or keys[at] != peak:
            yield (SinglePeaked(peak),) * (n - 1)
    for q in keys:
        if n >= 3 and q <= omega and q != omega - q:
            yield tuple(
                SinglePeaked(q if j % 2 == 0 else omega - q) for j in range(n - 1)
            )


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


@dataclass(frozen=True)
class ClaimsRuleReport:
    """Sampled symmetry/responsiveness verdicts for a claims rule."""

    symmetric: bool
    responsive: bool
    symmetry_witness: Optional[Tuple[ClaimsProblem, int, int]] = None
    responsiveness_witness: Optional[Tuple[ClaimsProblem, int, int]] = None


def check_claims_rule_properties(
    rule: ClaimsRule, problems: Sequence[ClaimsProblem]
) -> ClaimsRuleReport:
    """Evaluate symmetry (equal claims -> equal awards) and responsiveness
    (weakly larger claims -> weakly larger awards) on the given problems.

    Returns the first counterexample of each kind, if any.
    """
    symmetric = True
    responsive = True
    sym_witness = None
    resp_witness = None
    for cp in problems:
        awards = rule(cp)
        for i in range(len(cp.claims)):
            for j in range(i + 1, len(cp.claims)):
                if symmetric and cp.claims[i] == cp.claims[j]:
                    if awards[i] != awards[j]:
                        symmetric = False
                        sym_witness = (cp, i, j)
                if responsive and cp.claims[i] <= cp.claims[j]:
                    if awards[i] > awards[j]:
                        responsive = False
                        resp_witness = (cp, i, j)
                if responsive and cp.claims[j] <= cp.claims[i]:
                    if awards[j] > awards[i]:
                        responsive = False
                        resp_witness = (cp, j, i)
        if not symmetric and not responsive:
            break
    return ClaimsRuleReport(
        symmetric=symmetric,
        responsive=responsive,
        symmetry_witness=sym_witness,
        responsiveness_witness=resp_witness,
    )


def brute_force_worst(pref, amounts):
    """Reference worst: scan all disutilities, ties to the smaller amount."""
    best = None
    best_d = None
    for a in sorted(Fraction(x) for x in amounts):
        d = pref.disutility(a)
        if best_d is None or d > best_d:
            best, best_d = a, d
    return best


def sampled_nom_oracle(rule, agent, pref_true, omega, n, peaks, grid_step):
    """Reference sampled NOM search: the full sampled option set and its
    verdict for every misreport peak, in grid order.

    Returns (misreport, truthful set, misreport set, verdict) for the first
    obvious misreport, or None.
    """
    oset_true = option_set_sampled(
        rule, agent, pref_true, omega, n, grid_step=grid_step
    )
    for peak in peaks:
        if peak == pref_true.peak:
            continue
        misreport = SinglePeaked(peak)
        oset_mis = option_set_sampled(
            rule, agent, misreport, omega, n, grid_step=grid_step
        )
        verdict = is_obvious_manipulation(pref_true, oset_true, oset_mis)
        if verdict.is_obvious:
            return misreport, oset_true, oset_mis, verdict
    return None


@dataclass(frozen=True)
class CountingPeaked(SinglePeaked):
    """A genuine single-peaked preference that records the amount of every
    disutility call in `calls`."""

    calls: List[Fraction] = field(default_factory=list, compare=False, repr=False)

    def disutility(self, x):
        self.calls.append(x)
        return super().disutility(x)


# -- the Fraction forms of the axiom checkers that decide on integers ---------


def _same_sided_fraction(econ, x):
    peaks = econ.peaks()
    z = sum(peaks) - econ.omega
    for i in range(econ.n):
        if z >= 0 and x[i] > peaks[i]:
            return Witness(
                econ,
                (i,),
                f"excess demand but agent {i + 1} gets "
                f"{fr(x[i])} above peak {fr(peaks[i])}",
            )
        if z <= 0 and x[i] < peaks[i]:
            return Witness(
                econ,
                (i,),
                f"excess supply but agent {i + 1} gets "
                f"{fr(x[i])} below peak {fr(peaks[i])}",
            )
    return None


def _symmetry_fraction(econ, x):
    shape = attrgetter("plateau_lo", "plateau_hi", "left_slope", "right_slope")
    kinds = list(map(shape, econ.prefs))
    for i, j in itertools.combinations(range(econ.n), 2):
        if kinds[i] != kinds[j]:
            continue
        pref = econ.prefs[i]
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


def _reference_fraction(endowed):
    fact = "owns their peak {}" if endowed else "has peak {} = equal division"

    def violation(econ, x):
        peaks = econ.peaks()
        reference = econ.endowments if endowed else (econ.equal_share,) * econ.n
        for i, pref in enumerate(econ.prefs):
            if peaks[i] != reference[i]:
                continue
            if pref.disutility(x[i]) != pref.disutility(reference[i]):
                return Witness(
                    econ,
                    (i,),
                    f"agent {i + 1} {fact.format(fr(reference[i]))} "
                    f"but gets {fr(x[i])}",
                )
        return None

    return violation


def _peak_responsive_fraction(econ, x):
    peaks = econ.peaks()
    for i, j in itertools.permutations(range(econ.n), 2):
        if peaks[i] <= peaks[j] and x[i] > x[j]:
            return Witness(
                econ,
                (i, j),
                f"peaks {fr(peaks[i])} <= {fr(peaks[j])} but amounts "
                f"{fr(x[i])} > {fr(x[j])}",
            )
    return None


# axiom -> violation(econ, allotment) on Fractions: the amounts, peaks,
# omega/n and endowments compared as Fractions, indifference as equal
# disutilities; a reference for the checkers that decide on integers
FRACTION_VIOLATIONS = {
    "efficiency": _same_sided_fraction,
    "symmetry": _symmetry_fraction,
    "edg": _reference_fraction(endowed=False),
    "endowments-guarantee": _reference_fraction(endowed=True),
    "peak-responsive": _peak_responsive_fraction,
}


def fraction_check(axiom, rule, econs):
    """The report of `axiom`'s Fraction form: each economy of at least
    `rule.min_agents` agents counted in order, up to the first witness."""
    checked = 0
    for econ in econs:
        if econ.n < rule.min_agents:
            continue
        checked += 1
        witness = FRACTION_VIOLATIONS[axiom](econ, rule(econ))
        if witness is not None:
            return AxiomReport(axiom, FAIL, checked, witness)
    return AxiomReport(axiom, PASS_ON_SAMPLE if checked else NO_CASES, checked)
