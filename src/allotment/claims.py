"""Claims problems and the three division rules used by simple allotment rules.

A claims problem divides an endowment E among claimants whose claims sum to
at least E. Awards stay between zero and the claim and exhaust E exactly.
The water-filling levels are found by exact breakpoint scans (levels module),
never by floating bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence, Tuple

from .levels import solve_min_level
from .rational import ZERO, exact_sum, parse_rational


@dataclass(frozen=True)
class ClaimsProblem:
    """Nonnegative claims and an endowment with 0 <= E <= sum of claims
    (`total`, summed once at construction)."""

    claims: Tuple[Fraction, ...]
    endowment: Fraction
    total: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        claims = tuple(parse_rational(c) for c in self.claims)
        object.__setattr__(self, "claims", claims)
        object.__setattr__(self, "endowment", parse_rational(self.endowment))
        total = exact_sum(claims)
        object.__setattr__(self, "total", total)
        if any(c.numerator < 0 for c in claims):
            raise ValueError("claims must be nonnegative")
        if self.endowment.numerator < 0 or self.endowment > total:
            raise ValueError(f"endowment {self.endowment} outside [0, {total}]")


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


def _check_awards(cp: ClaimsProblem, amounts: Sequence[Fraction]) -> Awards:
    # the three rules build every award from Fractions, so none is re-wrapped
    amounts = tuple(amounts)
    for award, claim in zip(amounts, cp.claims):
        if award.numerator < 0 or award > claim:
            raise AssertionError(f"award {award} outside [0, {claim}]")
    if exact_sum(amounts) != cp.endowment:
        raise AssertionError("awards do not exhaust the endowment")
    return Awards(amounts)


def cea(cp: ClaimsProblem) -> Awards:
    """Constrained equal awards: award_i = min(claim_i, lam)."""
    lam = solve_min_level(cp.claims, cp.endowment)
    return _check_awards(cp, [min(c, lam) for c in cp.claims])


def cel(cp: ClaimsProblem) -> Awards:
    """Constrained equal losses: award_i = max(0, claim_i - lam), where the
    losses min(claim_i, lam) total sum(claims) - E."""
    lam = solve_min_level(cp.claims, cp.total - cp.endowment)
    excess = [c - lam for c in cp.claims]
    return _check_awards(cp, [x if x.numerator > 0 else ZERO for x in excess])


def pro(cp: ClaimsProblem) -> Awards:
    """Proportional: award_i = claim_i / sum(claims) * E (zeros when all claims are 0)."""
    total = cp.total
    if total == 0:
        # endowment is forced to 0 by the problem invariant
        return Awards((ZERO,) * len(cp.claims))
    return _check_awards(cp, [c / total * cp.endowment for c in cp.claims])


CLAIMS_RULES = {"cea": cea, "cel": cel, "pro": pro}
