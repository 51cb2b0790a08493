"""Claims problems and the three division rules used by simple allotment rules.

A claims problem divides an endowment E among claimants whose claims sum to
at least E. Awards stay between zero and the claim and exhaust E exactly.
The water-filling levels are found by exact breakpoint scans (levels module),
never by floating bisection.

The rules run on integers: a problem holds its claims and E as integers
over their least common denominator D, cea and cel read the level
p / (D*k) from the integer scan of the levels module and award
min(c*k, p) and max(c*k - p, 0) over D*k, pro awards c*E over D times the
total, and one integer check (`_check_awards`) refuses any award outside
[0, claim] or a vector that does not exhaust E before `Awards` builds its
Fractions. The simple rules run the same check on any claims rule's
awards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Tuple

from .levels import _min_level
from .rational import ZERO, _scaled, parse_rational


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


def _check_awards(cp: ClaimsProblem, awards: Sequence[int], scale: int) -> None:
    """Refuse an award vector of `cp` given as integers over
    cp._common * scale: one award per claim, each in [0, claim], and
    exactly E in all."""
    if len(awards) != len(cp._claims):
        raise AssertionError(f"{len(awards)} awards for {len(cp._claims)} claims")
    for award, claim in zip(awards, cp._claims):
        if award < 0 or award > claim * scale:
            raise AssertionError(
                f"award {Fraction(award, cp._common * scale)} outside"
                f" [0, {Fraction(claim, cp._common)}]"
            )
    if sum(awards) != cp._endowment * scale:
        raise AssertionError("awards do not exhaust the endowment")


def _awards(cp: ClaimsProblem, awards: Sequence[int], scale: int) -> Awards:
    """The checked Awards of integer awards over cp._common * scale."""
    _check_awards(cp, awards, scale)
    unit = cp._common * scale
    return Awards(tuple(Fraction(a, unit) for a in awards))


def cea(cp: ClaimsProblem) -> Awards:
    """Constrained equal awards: award_i = min(claim_i, lam)."""
    p, k = _min_level(cp._claims, cp._endowment)  # lam = p / (D*k)
    return _awards(cp, [min(c * k, p) for c in cp._claims], k)


def cel(cp: ClaimsProblem) -> Awards:
    """Constrained equal losses: award_i = max(0, claim_i - lam), where the
    losses min(claim_i, lam) total sum(claims) - E."""
    p, k = _min_level(cp._claims, sum(cp._claims) - cp._endowment)
    return _awards(cp, [max(c * k - p, 0) for c in cp._claims], k)


def pro(cp: ClaimsProblem) -> Awards:
    """Proportional: award_i = claim_i / sum(claims) * E (zeros when all claims are 0)."""
    total = sum(cp._claims)
    if total == 0:
        # endowment is forced to 0 by the problem invariant
        return Awards((ZERO,) * len(cp.claims))
    return _awards(cp, [c * cp._endowment for c in cp._claims], total)


CLAIMS_RULES = {"cea": cea, "cel": cel, "pro": pro}
