"""Economies, allotments, and the split behind simple rules.

An economy is a profile of preferences plus a social endowment omega
(optionally split into individual endowments summing to omega exactly).
`_split` classifies agents as simple/non-simple relative to one reference
point per agent -- equal division omega/n, or the agent's own endowment
for the reallocation rules -- and computes the excess demand and the
residual that the second step divides. The one simple-rule builder
(`rules._simple_rule`) and `axioms.check_betweenness` read it.

Feasibility (nonnegative amounts summing to omega) is checked on integers
over one denominator (`_check_feasible`): by the `Allotment` constructor
after scaling its amounts, and by `Allotment._of_scaled`, through which
the simple-rule builder, ced and proportional build their allotments from
the integers they hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .preferences import Preference, SinglePeaked, SinglePlateaued
from .rational import _scaled, exact_sum, parse_rational


@dataclass(frozen=True)
class Economy:
    """A profile of n >= 2 preferences and a positive social endowment.

    Endowments, when present, must sum to omega exactly. The peak profile
    (None unless every preference is single-peaked) and equal division are
    computed once, at construction.
    """

    prefs: Tuple[Preference, ...]
    omega: Fraction
    endowments: Optional[Tuple[Fraction, ...]] = None
    equal_share: Fraction = field(init=False, repr=False, compare=False)
    _peaks: Optional[Tuple[Fraction, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        prefs = tuple(self.prefs)
        object.__setattr__(self, "prefs", prefs)
        object.__setattr__(self, "omega", parse_rational(self.omega))
        if len(prefs) < 2:
            raise ValueError("an economy needs at least two agents")
        if self.omega.numerator <= 0:
            raise ValueError("the social endowment must be positive")
        object.__setattr__(self, "equal_share", self.omega / len(prefs))
        object.__setattr__(
            self,
            "_peaks",
            tuple(p.peak for p in prefs)
            if all(isinstance(p, SinglePeaked) for p in prefs)
            else None,
        )
        if self.endowments is not None:
            endowments = tuple(parse_rational(w) for w in self.endowments)
            object.__setattr__(self, "endowments", endowments)
            if len(endowments) != len(self.prefs):
                raise ValueError("one endowment per agent required")
            if any(w.numerator < 0 for w in endowments):
                raise ValueError("endowments must be nonnegative")
            if exact_sum(endowments) != self.omega:
                raise ValueError("endowments must sum to omega exactly")

    @property
    def n(self) -> int:
        return len(self.prefs)

    @property
    def is_single_peaked(self) -> bool:
        return self._peaks is not None

    @property
    def is_single_plateaued(self) -> bool:
        return all(isinstance(p, SinglePlateaued) for p in self.prefs)

    def peaks(self) -> Tuple[Fraction, ...]:
        if self._peaks is None:
            raise ValueError("peaks() requires single-peaked preferences")
        return self._peaks

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
        amounts = tuple(parse_rational(a) for a in self.amounts)
        object.__setattr__(self, "amounts", amounts)
        object.__setattr__(self, "omega", parse_rational(self.omega))
        _check_feasible(*_scaled(amounts), self.omega)

    @classmethod
    def _of_scaled(
        cls, common: int, amounts: Sequence[int], omega: Fraction
    ) -> "Allotment":
        """The allotment of integer amounts over `common`, through the
        same check as the constructor, which is not run a second time."""
        _check_feasible(common, amounts, omega)
        allotment = object.__new__(cls)
        object.__setattr__(
            allotment, "amounts", tuple(Fraction(a, common) for a in amounts)
        )
        object.__setattr__(allotment, "omega", omega)
        return allotment

    def __getitem__(self, i: int) -> Fraction:
        return self.amounts[i]

    def __iter__(self):
        return iter(self.amounts)

    def __len__(self) -> int:
        return len(self.amounts)


def _check_feasible(common: int, amounts: Sequence[int], omega: Fraction) -> None:
    """Refuse amounts, integers over `common`, that are negative or do not
    sum to omega exactly."""
    if any(a < 0 for a in amounts):
        raise ValueError("allotments must be nonnegative")
    total = sum(amounts)
    if total * omega.denominator != omega.numerator * common:
        raise ValueError(
            f"infeasible allotment: sum {Fraction(total, common)} != omega {omega}"
        )


def _split(econ: Economy, reference: Sequence[Fraction]):
    """Classify agents as simple (plus) or non-simple (minus) around one
    reference point per agent: omega/n, or the individual endowments for
    the reallocation rules. Under excess demand (z >= 0, the balanced case
    included) the simple agents are those demanding strictly less than
    their reference point; under excess supply those demanding strictly
    more.

    Runs on integers: returns (D, peaks, references, z, left, plus, minus),
    where D is the common denominator of the peaks, the reference points
    and omega (`rational._scaled`), each amount is a numerator over D,
    plus and minus are ascending agent lists, and left is omega less the
    plus peaks and the minus references, so the non-simple agents divide
    E = |left| / D."""
    n = econ.n
    common, scaled = _scaled([*econ.peaks(), *reference, econ.omega])
    peaks, reference = scaled[:n], scaled[n:-1]
    z = sum(peaks) - scaled[-1]
    demand = z >= 0
    plus, minus = [], []
    left = scaled[-1]
    for i, p in enumerate(peaks):
        r = reference[i]
        if p < r if demand else p > r:
            plus.append(i)
            left -= p
        else:
            minus.append(i)
            left -= r
    return common, peaks, reference, z, left, plus, minus


def make_allotment(econ: Economy, amounts: Sequence) -> Allotment:
    return Allotment(tuple(amounts), econ.omega)
