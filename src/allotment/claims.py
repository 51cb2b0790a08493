"""Claims problems and the three division rules used by simple allotment rules.

A claims problem divides an endowment E among claimants whose claims sum to
at least E. Awards stay between zero and the claim and exhaust E exactly.
The water-filling levels are found by exact breakpoint scans (levels module),
never by floating bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

from .levels import solve_min_level


@dataclass(frozen=True)
class ClaimsProblem:
    """Nonnegative claims and an endowment with 0 <= E <= sum of claims."""

    claims: Tuple[Fraction, ...]
    endowment: Fraction

    def __post_init__(self):
        claims = tuple(Fraction(c) for c in self.claims)
        object.__setattr__(self, "claims", claims)
        object.__setattr__(self, "endowment", Fraction(self.endowment))
        if any(c < 0 for c in claims):
            raise ValueError("claims must be nonnegative")
        if self.endowment < 0 or self.endowment > sum(claims):
            raise ValueError(
                f"endowment {self.endowment} outside [0, {sum(claims)}]"
            )

    @property
    def total(self) -> Fraction:
        return sum(self.claims, Fraction(0))


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
    amounts = tuple(Fraction(a) for a in amounts)
    for award, claim in zip(amounts, cp.claims):
        if award < 0 or award > claim:
            raise AssertionError(f"award {award} outside [0, {claim}]")
    if sum(amounts, Fraction(0)) != cp.endowment:
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
    return _check_awards(cp, [max(Fraction(0), c - lam) for c in cp.claims])


def pro(cp: ClaimsProblem) -> Awards:
    """Proportional: award_i = claim_i / sum(claims) * E (zeros when all claims are 0)."""
    total = cp.total
    if total == 0:
        # endowment is forced to 0 by the problem invariant
        return Awards(tuple(Fraction(0) for _ in cp.claims))
    return _check_awards(cp, [c / total * cp.endowment for c in cp.claims])


CLAIMS_RULES = {"cea": cea, "cel": cel, "pro": pro}
