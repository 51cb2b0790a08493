"""Allotment rules: the three classical rules, the simple-rule constructor
over claims rules, the sequential-adjustment algorithm, reallocation and
single-plateaued variants, and the five independence-gallery rules.

A simple rule has one reference point per agent: equal division omega/n,
or the agent's own endowment for the reallocation rules. Agents on the
near side of it get their peak and a claims problem divides the rest;
excess supply mirrors excess demand through comparisons only, so both
cases share one code path.

Every rule takes full preferences (own-peak-onliness is a property to be
checked, not a structural guarantee) and returns an exactly feasible
allotment on its declared domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Sequence, Tuple

from .claims import CLAIMS_RULES, ClaimsRule
from .economy import Allotment, Economy, claims_of_minus, make_allotment, partition
from .levels import (
    solve_clamp_level,
    solve_loss_level,
    solve_max_level,
    solve_min_level,
)
from .preferences import SinglePeaked

DOMAIN_SP = "SP"
DOMAIN_SPL = "SPL"
DOMAIN_SP_ENDOWMENTS = "SP-with-endowments"


@dataclass(frozen=True)
class Rule:
    """A named, deterministic map from economies to feasible allotments.

    `simple` marks registered members of the simple family, for which the
    manipulation machinery may use exact closed-form option sets.
    `min_agents` lets samplers and checkers skip economies a rule rejects.
    """

    name: str
    allocate: Callable[[Economy], Allotment] = field(compare=False)
    domain: str = DOMAIN_SP
    simple: bool = False
    min_agents: int = 2

    def __call__(self, econ: Economy) -> Allotment:
        self.check_domain(econ)
        return self.allocate(econ)

    def check_domain(self, econ: Economy) -> None:
        if self.domain == DOMAIN_SP and not econ.is_single_peaked:
            raise ValueError(f"rule {self.name} needs single-peaked preferences")
        if self.domain == DOMAIN_SPL and not econ.is_single_plateaued:
            raise ValueError(
                f"rule {self.name} needs single-plateaued preferences"
            )
        if self.domain == DOMAIN_SP_ENDOWMENTS:
            if not econ.is_single_peaked:
                raise ValueError(
                    f"rule {self.name} needs single-peaked preferences"
                )
            if econ.endowments is None:
                raise ValueError(
                    f"rule {self.name} needs individual endowments"
                )


# ---------------------------------------------------------------------------
# three classical rules


def _uniform_amounts(econ: Economy) -> Tuple[Fraction, ...]:
    peaks = econ.peaks()
    if sum(peaks) >= econ.omega:
        lam = solve_min_level(peaks, econ.omega)
        return tuple(min(p, lam) for p in peaks)
    lam = solve_max_level(peaks, econ.omega)
    return tuple(max(p, lam) for p in peaks)


def _uniform(econ: Economy) -> Allotment:
    return make_allotment(econ, _uniform_amounts(econ))


def _ced(econ: Economy) -> Allotment:
    peaks = econ.peaks()
    if sum(peaks) >= econ.omega:
        d = solve_loss_level(peaks, econ.omega)
        amounts = [max(Fraction(0), p - d) for p in peaks]
    else:
        d = (econ.omega - sum(peaks)) / econ.n
        amounts = [p + d for p in peaks]
    return make_allotment(econ, amounts)


def _proportional(econ: Economy) -> Allotment:
    peaks = econ.peaks()
    total = sum(peaks)
    if total == 0:
        return make_allotment(econ, [econ.equal_share] * econ.n)
    return make_allotment(econ, [p / total * econ.omega for p in peaks])


uniform = Rule("uniform", _uniform, simple=True)
ced = Rule("ced", _ced)
proportional = Rule("proportional", _proportional)


# ---------------------------------------------------------------------------
# simple rules from claims rules


def _simple_rule(claims_rule: ClaimsRule, name: str, domain: str) -> Rule:
    """The simple rule driven by `claims_rule` around a reference point:
    omega/n, or each agent's own endowment on the reallocation domain.

    Simple agents receive their peak; each non-simple agent moves from the
    reference point toward their peak by their award in the residual claims
    problem (upward under excess demand, downward under excess supply).
    """
    endowed = domain == DOMAIN_SP_ENDOWMENTS

    def allocate(econ: Economy) -> Allotment:
        part = partition(econ, econ.endowments if endowed else None)
        awards = claims_rule(claims_of_minus(part, econ))
        demand = part.z >= 0
        amounts = list(econ.peaks())  # plus agents keep their peak
        for nu, i in zip(awards, sorted(part.minus)):
            r = part.reference[i]
            amounts[i] = r + nu if demand else r - nu
        return make_allotment(econ, amounts)

    return Rule(name, allocate, domain=domain, simple=True)


def simple_from_claims(
    claims_rule: ClaimsRule, name: Optional[str] = None
) -> Rule:
    """The simple rule driven by the given claims rule, around equal
    division omega/n."""
    rule_name = name or f"simple:{getattr(claims_rule, '__name__', 'custom')}"
    return _simple_rule(claims_rule, rule_name, DOMAIN_SP)


def simple_reallocation_from_claims(
    claims_rule: ClaimsRule, name: Optional[str] = None
) -> Rule:
    """Reallocation variant: each agent's endowment replaces equal division
    as the reference point, and the claims are |peak - endowment|."""
    rule_name = name or f"realloc:{getattr(claims_rule, '__name__', 'custom')}"
    return _simple_rule(claims_rule, rule_name, DOMAIN_SP_ENDOWMENTS)


# ---------------------------------------------------------------------------
# sequential-adjustment construction (a simple rule without a claims rule)

LambdaSelector = Callable[[Fraction, Fraction], Fraction]


def select_lo(lo: Fraction, hi: Fraction) -> Fraction:
    return lo


def select_hi(lo: Fraction, hi: Fraction) -> Fraction:
    return hi


def select_mid(lo: Fraction, hi: Fraction) -> Fraction:
    return (lo + hi) / 2


def select_quarter(lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) / 4


SELECTORS: Dict[str, LambdaSelector] = {
    "lo": select_lo,
    "hi": select_hi,
    "mid": select_mid,
    "quarter": select_quarter,
}


class BoundsViolation(AssertionError):
    """An empty adjustment window; must not happen on valid economies."""


def sequential_allotment(
    econ: Economy,
    order=None,
    selector: LambdaSelector = select_lo,
) -> Allotment:
    """Sequential construction of a simple-rule outcome.

    Simple agents start at their peak and the rest at equal division; the
    non-simple agents are then visited in `order` and adjusted by a surplus
    chosen by `selector` within the window that keeps every later step
    feasible. The last visited agent's amount is pinned by feasibility.
    `order` is an explicit agent sequence or one of the policies
    "ascending" (default) and "descending".
    """
    part = partition(econ)
    peaks = econ.peaks()
    share = econ.equal_share
    minus = sorted(part.minus)
    if order is None or order == "ascending":
        order = minus
    elif order == "descending":
        order = minus[::-1]
    else:
        order = list(order)
        if sorted(order) != minus:
            raise ValueError(
                f"order must enumerate the non-simple agents {minus}"
            )

    # every step reads the window in the direction of the case: gap is how
    # far the agent's peak lies beyond equal division, room what is left of
    # the residual, and slack (never positive) is what keeps each later
    # window nonempty
    demand = part.z >= 0
    amounts = [peaks[i] if i in part.plus else share for i in range(econ.n)]
    room = part.E
    slack = -abs(part.z)
    for t, agent in enumerate(order[:-1]):
        assert slack <= 0
        gap = peaks[agent] - share if demand else share - peaks[agent]
        lo = max(Fraction(0), gap + slack)
        hi = min(gap, room)
        if lo > hi:
            raise BoundsViolation(f"empty window [{lo}, {hi}] at step {t + 1}")
        lam = selector(lo, hi)
        if not lo <= lam <= hi:
            raise ValueError("selector left the admissible window")
        amounts[agent] = share + lam if demand else share - lam
        room -= lam
        slack += gap - lam
    last = order[-1]
    amounts[last] = econ.omega - sum(a for i, a in enumerate(amounts) if i != last)
    return make_allotment(econ, amounts)


def sequential_rule(
    selector: str = "lo",
    order=None,
    name: Optional[str] = None,
) -> Rule:
    """Package the sequential construction as a named simple rule.

    `order` is an ordering policy ("ascending"/"descending") or, for
    single-economy use, an explicit agent sequence.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    pick = SELECTORS[selector]
    if name is None:
        tag = selector
        if isinstance(order, str):
            tag += f",{order}"
        elif order is not None:
            tag += ",order=" + ",".join(str(i + 1) for i in order)
        name = f"simple:appendix-b[{tag}]"

    def allocate(econ: Economy) -> Allotment:
        return sequential_allotment(econ, order=order, selector=pick)

    return Rule(name, allocate, simple=True)


# ---------------------------------------------------------------------------
# single-plateaued extension


def spl_extension(base: Rule, name: Optional[str] = None) -> Rule:
    """Extend a simple rule to single-plateaued preferences.

    With z computed at the left endpoints (z_lo) and right endpoints (z_hi):
    z_lo >= 0 applies the base rule to the left-endpoint profile, z_hi <= 0
    to the right-endpoint profile. In between (z_lo < 0 < z_hi) every
    plateau straddles the solution, and the unique level clamped into each
    plateau is feasible, lies inside every plateau, and reduces to equal
    division whenever all plateaus contain omega/n.
    """
    if not base.simple:
        raise ValueError("spl_extension needs a simple base rule")

    def allocate(econ: Economy) -> Allotment:
        lows = [p.plateau_lo for p in econ.prefs]
        highs = [p.plateau_hi for p in econ.prefs]
        z_lo = sum(lows) - econ.omega
        z_hi = sum(highs) - econ.omega
        if z_lo >= 0 or z_hi <= 0:
            ends = lows if z_lo >= 0 else highs
            reduced = Economy(
                tuple(
                    SinglePeaked(end, p.left_slope, p.right_slope)
                    for end, p in zip(ends, econ.prefs)
                ),
                econ.omega,
            )
            return make_allotment(econ, base(reduced).amounts)
        lam = solve_clamp_level(lows, highs, econ.omega)
        return make_allotment(
            econ, [min(h, max(l, lam)) for l, h in zip(lows, highs)]
        )

    return Rule(name or f"spl[{base.name}]", allocate, domain=DOMAIN_SPL)


# ---------------------------------------------------------------------------
# independence gallery: each rule fails exactly one axiom


def _equal_division(econ: Economy) -> Allotment:
    return make_allotment(econ, [econ.equal_share] * econ.n)


def _star(econ: Economy) -> Allotment:
    # first two agents absorb omega when their peaks split it exactly and
    # every other peak differs from both
    if econ.n < 3:
        raise ValueError("gallery:star needs at least three agents")
    peaks = econ.peaks()
    if peaks[0] + peaks[1] == econ.omega and all(
        peaks[j] not in (peaks[0], peaks[1]) for j in range(2, econ.n)
    ):
        amounts = [peaks[0], peaks[1]] + [Fraction(0)] * (econ.n - 2)
        return make_allotment(econ, amounts)
    return _uniform(econ)


def _bar(econ: Economy) -> Allotment:
    # asymmetric split at one profile: both leading peaks at omega, rest at 0
    if econ.n < 3:
        raise ValueError("gallery:bar needs at least three agents")
    peaks = econ.peaks()
    if (
        peaks[0] == econ.omega
        and peaks[1] == econ.omega
        and all(peaks[j] == 0 for j in range(2, econ.n))
    ):
        amounts = [econ.omega / 3, 2 * econ.omega / 3] + [Fraction(0)] * (
            econ.n - 2
        )
        return make_allotment(econ, amounts)
    return _uniform(econ)


def _hat(econ: Economy) -> Allotment:
    # under excess supply the minimum-peak agents soak up the whole residual,
    # which may leave them beyond equal division (no clamping)
    peaks = econ.peaks()
    if sum(peaks) - econ.omega >= 0:
        return _uniform(econ)
    low = min(peaks)
    hatted = frozenset(i for i, p in enumerate(peaks) if p == low)
    lam = (
        econ.omega - sum(p for i, p in enumerate(peaks) if i not in hatted)
    ) / len(hatted)
    amounts = [lam if i in hatted else peaks[i] for i in range(econ.n)]
    return make_allotment(econ, amounts)


def _underline(econ: Economy) -> Allotment:
    # consults agent 1's full preference: the 0-versus-equal-division
    # comparison, not just the peak
    peaks = econ.peaks()
    first = econ.prefs[0]
    rest_excess = sum(peaks[1:]) - econ.omega
    prefers_zero = first.disutility(0) < first.disutility(econ.equal_share)
    strictly_lowest = all(peaks[0] < peaks[j] for j in range(1, econ.n))
    if rest_excess >= 0 and prefers_zero and strictly_lowest:
        replaced = econ.replace_pref(
            0, SinglePeaked(Fraction(0), first.left_slope, first.right_slope)
        )
        return make_allotment(econ, _uniform(replaced).amounts)
    return _uniform(econ)


GALLERY_BUILDERS = {
    "equal_division": _equal_division,
    "star": _star,
    "bar": _bar,
    "hat": _hat,
    "underline": _underline,
}

# bar is simple at its special profile (amounts stay between omega/n and the
# peaks for n >= 3), so it keeps the exact option-set machinery
_GALLERY_SIMPLE = {"bar"}


def gallery(name: str) -> Rule:
    """One of the five axiom-independence rules by name."""
    if name not in GALLERY_BUILDERS:
        raise ValueError(
            f"unknown gallery rule {name!r}; choose from "
            + ", ".join(sorted(GALLERY_BUILDERS))
        )
    return Rule(
        f"gallery:{name}",
        GALLERY_BUILDERS[name],
        simple=name in _GALLERY_SIMPLE,
        min_agents=3 if name in ("star", "bar") else 2,
    )


# ---------------------------------------------------------------------------
# name-based registry (CLI entry point)


def get_rule(
    name: str,
    order: Optional[Sequence[int]] = None,
    selector: str = "lo",
) -> Rule:
    """Resolve a namespaced rule name like "simple:cea" or "gallery:bar".

    `order` and `selector` only apply to simple:appendix-b.
    """
    if name == "uniform":
        return uniform
    if name == "ced":
        return ced
    if name == "proportional":
        return proportional
    if ":" in name:
        prefix, _, rest = name.partition(":")
        if prefix == "simple":
            if rest == "appendix-b":
                return sequential_rule(selector=selector, order=order)
            if rest in CLAIMS_RULES:
                return simple_from_claims(CLAIMS_RULES[rest], name=name)
        if prefix == "realloc" and rest in CLAIMS_RULES:
            return simple_reallocation_from_claims(CLAIMS_RULES[rest], name=name)
        if prefix == "spl" and rest in CLAIMS_RULES:
            return spl_extension(
                simple_from_claims(CLAIMS_RULES[rest]), name=name
            )
        if prefix == "gallery":
            return gallery(rest)
    raise ValueError(f"unknown rule {name!r}")


RULE_NAMES = (
    ["uniform", "ced", "proportional"]
    + [f"simple:{r}" for r in sorted(CLAIMS_RULES)]
    + ["simple:appendix-b"]
    + [f"realloc:{r}" for r in sorted(CLAIMS_RULES)]
    + [f"spl:{r}" for r in sorted(CLAIMS_RULES)]
    + [f"gallery:{g}" for g in sorted(GALLERY_BUILDERS)]
)
