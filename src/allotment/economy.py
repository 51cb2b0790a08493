"""Economies, allotments, and the excess-demand bookkeeping behind simple rules.

An economy is a profile of preferences plus a social endowment omega
(optionally split into individual endowments summing to omega exactly).
The partition machinery classifies agents as simple/non-simple relative to
one reference point per agent -- equal division omega/n, or the agent's
own endowment for the reallocation rules -- and computes the residual
that the second-step claims problem divides.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .claims import ClaimsProblem
from .preferences import Preference, SinglePeaked, SinglePlateaued


@dataclass(frozen=True)
class Economy:
    """A profile of n >= 2 preferences and a positive social endowment.

    Endowments, when present, must sum to omega exactly. INF peaks are
    rejected here so no rule can ever receive one.
    """

    prefs: Tuple[Preference, ...]
    omega: Fraction
    endowments: Optional[Tuple[Fraction, ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "prefs", tuple(self.prefs))
        object.__setattr__(self, "omega", Fraction(self.omega))
        if len(self.prefs) < 2:
            raise ValueError("an economy needs at least two agents")
        if self.omega <= 0:
            raise ValueError("the social endowment must be positive")
        for pref in self.prefs:
            if pref.is_infinite:
                raise ValueError("INF peaks are not allowed inside economies")
        if self.endowments is not None:
            endowments = tuple(Fraction(w) for w in self.endowments)
            object.__setattr__(self, "endowments", endowments)
            if len(endowments) != len(self.prefs):
                raise ValueError("one endowment per agent required")
            if any(w < 0 for w in endowments):
                raise ValueError("endowments must be nonnegative")
            if sum(endowments) != self.omega:
                raise ValueError("endowments must sum to omega exactly")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def equal_share(self) -> Fraction:
        return self.omega / self.n

    @property
    def is_single_peaked(self) -> bool:
        return all(isinstance(p, SinglePeaked) for p in self.prefs)

    @property
    def is_single_plateaued(self) -> bool:
        return all(isinstance(p, SinglePlateaued) for p in self.prefs)

    def peaks(self) -> Tuple[Fraction, ...]:
        if not self.is_single_peaked:
            raise ValueError("peaks() requires single-peaked preferences")
        return tuple(p.peak for p in self.prefs)

    def replace_pref(self, agent: int, pref: Preference) -> "Economy":
        prefs = list(self.prefs)
        prefs[agent] = pref
        return Economy(tuple(prefs), self.omega, self.endowments)


@dataclass(frozen=True)
class Allotment:
    """Nonnegative amounts summing to omega exactly."""

    amounts: Tuple[Fraction, ...]
    omega: Fraction

    def __post_init__(self):
        amounts = tuple(Fraction(a) for a in self.amounts)
        object.__setattr__(self, "amounts", amounts)
        object.__setattr__(self, "omega", Fraction(self.omega))
        if any(a < 0 for a in amounts):
            raise ValueError("allotments must be nonnegative")
        if sum(amounts) != self.omega:
            raise ValueError(
                f"infeasible allotment: sum {sum(amounts)} != omega {self.omega}"
            )

    def __getitem__(self, i: int) -> Fraction:
        return self.amounts[i]

    def __iter__(self):
        return iter(self.amounts)

    def __len__(self) -> int:
        return len(self.amounts)


@dataclass(frozen=True)
class SimplePartition:
    """Simple/non-simple split of an economy plus the second-step residual.

    reference holds each agent's reference point r_i; plus holds the simple
    agents (served their peak), minus the rest; z is the excess demand and
    E the amount the claims problem must distribute.
    """

    plus: frozenset
    minus: frozenset
    z: Fraction
    E: Fraction
    reference: Tuple[Fraction, ...]


def excess(econ: Economy) -> Fraction:
    """Excess demand z = sum of peaks - omega (>= 0 counts as excess demand)."""
    return sum(econ.peaks()) - econ.omega


def partition(
    econ: Economy, reference: Optional[Sequence[Fraction]] = None
) -> SimplePartition:
    """Classify agents as simple (plus) or non-simple (minus) around one
    reference point per agent: omega/n by default, or the individual
    endowments for the reallocation rules.

    Under excess demand (z >= 0, the balanced case included) the simple
    agents are those demanding strictly less than their reference point;
    under excess supply those demanding strictly more.
    """
    peaks = econ.peaks()
    if reference is None:
        reference = (econ.equal_share,) * econ.n
    elif len(reference) != econ.n:
        raise ValueError("one reference point per agent required")
    z = sum(peaks) - econ.omega
    demand = z >= 0
    plus, minus = [], []
    residual = econ.omega  # less the plus peaks and the minus references
    for i, p in enumerate(peaks):
        r = reference[i]
        if p < r if demand else p > r:
            plus.append(i)
            residual -= p
        else:
            minus.append(i)
            residual -= r
    return SimplePartition(
        plus=frozenset(plus),
        minus=frozenset(minus),
        z=z,
        E=abs(residual),
        reference=tuple(reference),
    )


def claims_of_minus(part: SimplePartition, econ: Economy) -> ClaimsProblem:
    """The claims problem the non-simple agents solve.

    Claims are |peak - reference point| taken over minus agents in
    increasing index order (the same order the rules module uses to map
    awards back).
    """
    peaks = econ.peaks()
    claims = tuple(abs(peaks[i] - part.reference[i]) for i in sorted(part.minus))
    return ClaimsProblem(claims=claims, endowment=part.E)


def make_allotment(econ: Economy, amounts: Sequence) -> Allotment:
    return Allotment(tuple(Fraction(a) for a in amounts), econ.omega)
