"""Economies, allotments, and the split behind simple rules.

An economy is a profile of preferences plus a social endowment omega
(optionally split into individual endowments summing to omega exactly).

An economy stores only its preferences, omega and endowments; whether it
is single-peaked, and its peaks, are read off the preferences on every
read. Its integer profile -- the peaks (effective peaks once any agent
has a plateau), omega and the endowments (None when there are none) as
numerators over one denominator D -- is computed the first time it is
read (`Economy._integer_profile`), or inherited from the economy it was
made from when `Economy.replace_pref` keeps the replaced agent's plateau
ends, and kept outside equality, hashing and repr.
`_split_scaled` classifies agents on it as simple/non-simple relative to
one reference point per agent -- equal division omega/n, or the agent's
own endowment for the reallocation rules -- and computes the excess
demand and the residual that the second step divides. The simple rules
(`rules._simple_rule`) and `axioms.check_betweenness` read it, and every
rule's integer kernel (`Rule.kernel`) runs on the whole profile. The
sampled option sets run a kernel on the integers of every opponent
profile, so a kernel rule's samples build no economy but a domain check's,
and build every economy they keep through the constructor.

Feasibility (nonnegative amounts summing to omega) is checked on integers
over one denominator (`_check_feasible`): by the `Allotment` constructor
after scaling its amounts, by `Allotment._of_scaled`, through which the
rules build their allotments from the integers they hold, and on every
kernel run of a sampled option set. Every allotment keeps those integers,
and builds an amount's Fraction only when it is read.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .levels import _clamp_level
from .preferences import Preference, SinglePeaked
from .rational import _scaled, exact_sum, parse_rational


@dataclass(frozen=True)
class Economy:
    """A profile of n >= 2 preferences and a positive social endowment.

    Endowments, when present, must sum to omega exactly. The integer
    profile is computed on first read, unless `replace_pref` hands it down;
    equal division, single-peakedness and the peaks on every read.
    """

    prefs: Tuple[Preference, ...]
    omega: Fraction
    endowments: Optional[Tuple[Fraction, ...]] = None
    _integers: Optional[tuple] = field(
        init=False, default=None, repr=False, compare=False
    )

    def __post_init__(self):
        prefs = tuple(self.prefs)
        object.__setattr__(self, "prefs", prefs)
        object.__setattr__(self, "omega", _checked_size(len(prefs), self.omega))
        if self.endowments is not None:
            endowments = tuple(
                w if type(w) is Fraction else parse_rational(w) for w in self.endowments
            )
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
    def equal_share(self) -> Fraction:
        return self.omega / len(self.prefs)

    @property
    def is_single_peaked(self) -> bool:
        return all(isinstance(p, SinglePeaked) for p in self.prefs)

    def peaks(self) -> Tuple[Fraction, ...]:
        if not self.is_single_peaked:
            raise ValueError("peaks() requires single-peaked preferences")
        return tuple(p.peak for p in self.prefs)

    def _integer_profile(self) -> tuple:
        """(D, peaks, omega, endowments): the peaks, omega and the
        endowments (None when there are none) as integers over their least
        common denominator D (`rational._scaled`), computed on first read
        and kept. Unless all agents are single-peaked, each reads as a plateau
        (a peak as one of width zero), and the effective peaks are the low
        ends if they sum to at least omega, the high ends if at most omega,
        otherwise each plateau clamped at one level (`levels._clamp_level`),
        over D * k. These sum to omega, so a simple rule's non-simple agents
        divide E = the sum of their claims, `claims._check_awards` makes
        every award its claim, and the rule returns the peaks unchanged:
        so every simple rule around equal division takes plateaus."""
        if self._integers is None:
            n, endowments, prefs = self.n, self.endowments, self.prefs
            plateaus = not self.is_single_peaked
            lows = [p.plateau_lo if plateaus else p.peak for p in prefs]
            highs = [p.plateau_hi for p in prefs] if plateaus else ()
            common, scaled = _scaled([*lows, *highs, self.omega, *(endowments or ())])
            m = n + len(highs)
            peaks, hi, omega, rest = scaled[:n], scaled[n:m], scaled[m], scaled[m + 1 :]
            if plateaus and sum(hi) <= omega:
                peaks = hi
            elif plateaus and sum(peaks) < omega:  # omega between the ends' sums
                level, k = _clamp_level(peaks, hi, omega)
                common, omega, rest = common * k, omega * k, [w * k for w in rest]
                peaks = [min(h * k, max(l * k, level)) for l, h in zip(peaks, hi)]
            rest = None if endowments is None else tuple(rest)
            object.__setattr__(self, "_integers", (common, tuple(peaks), omega, rest))
        return self._integers

    def replace_pref(self, agent: int, pref: Preference) -> "Economy":
        """This economy with `agent`'s preference replaced by `pref`. It is
        built without the constructor, from this economy's already-checked
        omega and endowments: n, omega and the endowments are unchanged,
        and the constructor checks nothing about a preference, so the
        result equals the economy `Economy(prefs, omega, endowments)`
        builds and nothing goes unchecked. It inherits this economy's
        integer profile when that profile has been read and `pref` has the
        replaced agent's plateau ends (a peak's are the peak twice): the
        profile is a function of the plateau ends, omega and the endowments
        alone, and none of them changed. Otherwise the new economy computes
        its own profile on first read."""
        prefs = list(self.prefs)
        old, prefs[agent] = prefs[agent], pref
        econ = object.__new__(Economy)
        _set(econ, "prefs", tuple(prefs))
        _set(econ, "omega", self.omega)
        _set(econ, "endowments", self.endowments)
        ends = (pref.plateau_lo, pref.plateau_hi)
        if self._integers is not None and ends == (old.plateau_lo, old.plateau_hi):
            _set(econ, "_integers", self._integers)
        return econ


_set = object.__setattr__


def _checked_size(n: int, omega) -> Fraction:
    """omega parsed, after `Economy`'s refusals of an agent count n that
    is not an int of at least 2, then of an omega that is not positive."""
    omega = parse_rational(omega)
    if type(n) is not int:  # a bool is refused too
        raise ValueError(f"an economy needs a whole number of agents, got {n!r}")
    if n < 2:
        raise ValueError("an economy needs at least two agents")
    if omega.numerator <= 0:
        raise ValueError("the social endowment must be positive")
    return omega


class Allotment:
    """Nonnegative amounts summing to omega exactly.

    Held as integers over one denominator (`_common`, `_numerators`), the
    form in which `_check_feasible` checked it and the CLI's allocate
    writes it. Reading one amount by index builds only that Fraction; the
    tuple `amounts` is built on first access and kept.
    Equality, hashing, repr and immutability are those of a frozen
    dataclass of (amounts, omega).
    """

    __slots__ = ("omega", "_common", "_numerators", "_amounts")

    def __init__(self, amounts: Sequence, omega: Fraction):
        _set(self, "_amounts", amounts)
        _set(self, "omega", omega)
        self.__post_init__()

    def __post_init__(self):
        amounts = tuple(parse_rational(a) for a in self._amounts)
        omega = parse_rational(self.omega)
        common, numerators = _scaled(amounts)
        _check_feasible(common, numerators, omega)
        _set(self, "_amounts", amounts)
        _set(self, "omega", omega)
        _set(self, "_common", common)
        _set(self, "_numerators", numerators)

    @classmethod
    def _of_scaled(
        cls, common: int, amounts: Sequence[int], omega: Fraction
    ) -> "Allotment":
        """The allotment of integer amounts over `common`, through the
        same check as the constructor, which is not run a second time. It
        keeps the integers and builds no amount until one is read."""
        _check_feasible(common, amounts, omega)
        allotment = object.__new__(cls)
        _set(allotment, "omega", omega)
        _set(allotment, "_common", common)
        _set(allotment, "_numerators", amounts)
        _set(allotment, "_amounts", None)
        return allotment

    @property
    def amounts(self) -> Tuple[Fraction, ...]:
        if self._amounts is None:
            common = self._common
            _set(
                self,
                "_amounts",
                tuple(Fraction(a, common) for a in self._numerators),
            )
        return self._amounts

    def __getitem__(self, i):
        if self._amounts is None and type(i) is int:
            return Fraction(self._numerators[i], self._common)
        return self.amounts[i]

    def __iter__(self):
        return iter(self.amounts)

    def __len__(self) -> int:
        return len(self._numerators)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.amounts, self.omega) == (other.amounts, other.omega)

    def __hash__(self):
        return hash((self.amounts, self.omega))

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(amounts={self.amounts!r},"
            f" omega={self.omega!r})"
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.amounts, self.omega)


def _check_feasible(common: int, amounts: Sequence[int], omega: Fraction) -> None:
    """Refuse amounts, integers over `common`, that are negative or do not
    sum to omega exactly (refused in that order). One combined test on
    omega's integer pair; the refusal is told apart only when it fails."""
    numerator, denominator = omega.as_integer_ratio()
    total = sum(amounts)
    if total * denominator != numerator * common or min(amounts, default=0) < 0:
        if min(amounts, default=0) < 0:
            raise ValueError("allotments must be nonnegative")
        raise ValueError(
            f"infeasible allotment: sum {Fraction(total, common)} != omega {omega}"
        )


def _split_scaled(
    common: int,
    peaks: Sequence[int],
    omega: int,
    reference: Optional[Sequence[int]] = None,
):
    """Classify agents as simple (plus) or non-simple (minus) around one
    reference point per agent: omega/n when `reference` is None, or the
    given points (the individual endowments for the reallocation rules).
    Under excess demand (z >= 0, the balanced case included) the simple
    agents are those demanding strictly less than their reference point;
    under excess supply those demanding strictly more.

    Every amount is an integer over D, as in an economy's integer profile.
    Returns (D, peaks, references, z, left, plus, minus), plus and minus
    ascending agent lists and left omega less the plus peaks and the minus
    references, so the non-simple agents divide E = |left| / D. Around
    equal division the split is over D * n, so omega/n is omega's
    numerator and nothing is rescaled."""
    if reference is None:
        n = len(peaks)
        common, peaks, reference = common * n, [p * n for p in peaks], [omega] * n
        omega *= n
    z = sum(peaks) - omega
    demand = z >= 0
    plus, minus = [], []
    left = omega
    for i, p in enumerate(peaks):
        r = reference[i]
        if p < r if demand else p > r:
            plus.append(i)
            left -= p
        else:
            minus.append(i)
            left -= r
    return common, peaks, reference, z, left, plus, minus
