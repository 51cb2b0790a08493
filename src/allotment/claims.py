"""Claims problems and the three division rules used by simple allotment rules.

A claims problem divides an endowment E among claimants whose claims sum to
at least E. Awards stay between zero and the claim and exhaust E exactly.
The water-filling levels are found by exact breakpoint scans (levels module),
never by floating bisection.

The rules run on integers. cea, cel and pro each have a private core
(claims, E, D) -> (awards, scale), claims and E over a denominator D and
awards over D*scale: min(c*k, p) and max(c*k - p, 0) at the level p / (D*k)
of the levels module's integer scan, and c*E over D times the total. Each
ignores any further argument. `_core` is the one integer entry of any claims
rule, with its name: cea, cel or pro and its core, found by identity, or
"custom" and an adapter that runs any other rule on a `ClaimsProblem`.
`_check_awards` refuses awards off [0, claim] or off E, once per public call
and per distinct consecutive profile of a simple rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .levels import _min_level
from .rational import _scaled, parse_rational


@dataclass(frozen=True)
class ClaimsProblem:
    """Nonnegative claims and an endowment with 0 <= E <= sum of claims
    (`total`). The claims and E are scaled once, at construction, to
    integers over their least common denominator (`_common`, `_claims`,
    `_endowment`), from which the checks, `total` and the rules read."""

    claims: Tuple[Fraction, ...]
    endowment: Fraction
    total: Fraction = field(init=False, repr=False, compare=False)
    _common: int = field(init=False, repr=False, compare=False)
    _claims: Tuple[int, ...] = field(init=False, repr=False, compare=False)
    _endowment: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        claims = tuple(parse_rational(c) for c in self.claims)
        endowment = parse_rational(self.endowment)
        common, scaled = _scaled([*claims, endowment])
        scaled_endowment = scaled.pop()
        total = sum(scaled)
        object.__setattr__(self, "claims", claims)
        object.__setattr__(self, "endowment", endowment)
        object.__setattr__(self, "total", Fraction(total, common))
        object.__setattr__(self, "_common", common)
        object.__setattr__(self, "_claims", tuple(scaled))
        object.__setattr__(self, "_endowment", scaled_endowment)
        if any(c < 0 for c in scaled):
            raise ValueError("claims must be nonnegative")
        if scaled_endowment < 0 or scaled_endowment > total:
            raise ValueError(f"endowment {endowment} outside [0, {self.total}]")


@dataclass(frozen=True)
class Awards:
    """Award vector: 0 <= award_i <= claim_i and awards sum to E exactly."""

    amounts: Tuple[Fraction, ...]

    def __getitem__(self, i: int) -> Fraction:
        return self.amounts[i]

    def __iter__(self):
        return iter(self.amounts)

    def __len__(self) -> int:
        return len(self.amounts)


ClaimsRule = Callable[[ClaimsProblem], Awards]

# (claims, E, D, *ignored) -> (awards, scale): claims, E over D, awards over D*scale
ClaimsCore = Callable[..., Tuple[List[int], int]]


def _check_awards(claims, endowment, common, awards, scale) -> None:
    """Refuse awards, integers over common * scale, for claims and E
    integers over common: one award per claim, each in [0, claim], and
    exactly E in all."""
    if len(awards) != len(claims):
        raise AssertionError(f"{len(awards)} awards for {len(claims)} claims")
    for award, claim in zip(awards, claims):
        if award < 0 or award > claim * scale:
            raise AssertionError(
                f"award {Fraction(award, common * scale)} outside"
                f" [0, {Fraction(claim, common)}]"
            )
    if sum(awards) != endowment * scale:
        raise AssertionError("awards do not exhaust the endowment")


def _awards(cp: ClaimsProblem, awards: Sequence[int], scale: int) -> Awards:
    """The checked Awards of integer awards over cp._common * scale."""
    _check_awards(cp._claims, cp._endowment, cp._common, awards, scale)
    unit = cp._common * scale
    return Awards(tuple(Fraction(a, unit) for a in awards))


def _cea(claims, endowment, common, *_):
    p, k = _min_level(claims, endowment)  # lam = p / (D*k)
    return [min(c * k, p) for c in claims], k


def _cel(claims, endowment, common, *_):
    p, k = _min_level(claims, sum(claims) - endowment)
    return [max(c * k - p, 0) for c in claims], k


def _pro(claims, endowment, common, *_):
    # with no claims in all E is 0 too, and every award is 0 over scale 1
    total = sum(claims)
    return [c * endowment for c in claims], total or 1


def cea(cp: ClaimsProblem) -> Awards:
    """Constrained equal awards: award_i = min(claim_i, lam)."""
    return _awards(cp, *_cea(cp._claims, cp._endowment, cp._common))


def cel(cp: ClaimsProblem) -> Awards:
    """Constrained equal losses: award_i = max(0, claim_i - lam), where the
    losses min(claim_i, lam) total sum(claims) - E."""
    return _awards(cp, *_cel(cp._claims, cp._endowment, cp._common))


def pro(cp: ClaimsProblem) -> Awards:
    """Proportional: award_i = claim_i / sum(claims) * E (zeros when all claims are 0)."""
    return _awards(cp, *_pro(cp._claims, cp._endowment, cp._common))


# the name and integer core of each built-in rule, found by identity in `_core`
_CORES = (("cea", cea, _cea), ("cel", cel, _cel), ("pro", pro, _pro))


def _core(rule: ClaimsRule) -> Tuple[str, ClaimsCore]:
    """The name and integer entry of a claims rule: cea, cel or pro and its
    core for that very function (not its `__name__`, which a wrapper copies),
    or "custom" and an adapter that builds the ClaimsProblem, calls the rule
    and reads its awards back over a multiple of D."""

    def adapter(claims, endowment, common, *_):
        cp = ClaimsProblem(
            tuple(Fraction(c, common) for c in claims), Fraction(endowment, common)
        )
        unit, awards = _scaled(map(parse_rational, rule(cp)), common)
        return awards, unit // common

    return next(((n, core) for n, r, core in _CORES if r is rule), ("custom", adapter))


CLAIMS_RULES = {name: rule for name, rule, _ in _CORES}
