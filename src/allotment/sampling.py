"""Seeded generation of rational economies and grids, and the grid's
shared unit-slope preferences (`_grid_prefs`): the one misreport source
of both manipulation searches, and the on-grid opponents of the sampled
option sets' witness economies.

Every seeded draw in the package is written here (`manipulation.nom_sweep`
composes these draws), driven by an explicit `random.Random`, so any
report or test that names its seed is reproducible byte for byte. Peaks
are rationals with denominator at most 60, so every witness value the
library cares about (thirds, halves, quarters) is expressible, and the
named witness economies are injected at the front of each suite.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from typing import List, Sequence, Tuple

from .economy import Economy
from .preferences import SinglePeaked, SinglePlateaued
from .rational import parse_rational

# slope pairs used for preference perturbations; enough to flip every
# ordinal comparison the gallery rules consult (a >= 3b flips 0-vs-omega/n
# for peaks near omega/4, and symmetrically)
SLOPE_CATALOGUE: Tuple[Tuple[Fraction, Fraction], ...] = tuple(
    (Fraction(a), Fraction(b))
    for a, b in ((1, 1), (1, 3), (3, 1), (1, 10), (10, 1))
)

MAX_DENOMINATOR = 60
PEAK_BOX = 2  # peaks, drawn and on the grid, lie in [0, PEAK_BOX * omega]


def random_rational(rng: random.Random, hi: Fraction) -> Fraction:
    """A rational in [0, hi], denominator at most MAX_DENOMINATOR; `hi`
    goes through `parse_rational`, so a float bound is refused."""
    hi = parse_rational(hi)
    den = rng.randint(1, MAX_DENOMINATOR)
    top = int(hi * den)
    return Fraction(rng.randint(0, top), den)


def random_preference(rng: random.Random, omega: Fraction) -> SinglePeaked:
    peak = random_rational(rng, PEAK_BOX * parse_rational(omega))
    left, right = rng.choice(SLOPE_CATALOGUE)
    return SinglePeaked(peak, left, right)


def random_economy(rng: random.Random, with_endowments: bool = False) -> Economy:
    """One seeded economy of 2 to 6 agents.

    A third of the draws plant a peak exactly at equal division (exercises
    the equal division guarantee) and a third duplicate one preference
    (exercises symmetry); the two tweaks can coincide.
    """
    n = rng.randint(2, 6)
    omega = Fraction(rng.randint(1, 5))
    prefs = [random_preference(rng, omega) for _ in range(n)]
    if rng.random() < 1 / 3:
        at = rng.randrange(n)
        left, right = rng.choice(SLOPE_CATALOGUE)
        prefs[at] = SinglePeaked(omega / n, left, right)
    if rng.random() < 1 / 3:
        src, dst = rng.sample(range(n), 2)
        prefs[dst] = prefs[src]
    endowments = None
    if with_endowments:
        endowments = random_endowments(rng, omega, prefs)
    return Economy(tuple(prefs), omega, endowments)


def random_endowments(
    rng: random.Random, omega: Fraction, prefs: Sequence[SinglePeaked]
) -> Tuple[Fraction, ...]:
    """Nonnegative endowments summing to omega exactly.

    A third of the draws pin one agent's endowment at their peak (when the
    peak fits inside omega), exercising the endowments guarantee.
    """
    n = len(prefs)
    weights = [Fraction(rng.randint(0, MAX_DENOMINATOR)) for _ in range(n)]
    if sum(weights) == 0:
        weights[rng.randrange(n)] = Fraction(1)
    total = sum(weights)
    endowments = [omega * w / total for w in weights]
    if rng.random() < 1 / 3:
        at = rng.randrange(n)
        peak = prefs[at].peak
        if peak <= omega:
            spare = omega - peak
            others = [i for i in range(n) if i != at]
            rest_total = sum(endowments[i] for i in others)
            for i in others:
                share = (
                    endowments[i] / rest_total
                    if rest_total > 0
                    else Fraction(1, len(others))
                )
                endowments[i] = spare * share
            endowments[at] = peak
    return tuple(endowments)


def random_plateaued_economy(rng: random.Random) -> Economy:
    """One seeded economy of 2 to 6 single-plateaued agents."""
    n = rng.randint(2, 6)
    omega = Fraction(rng.randint(1, 5))
    prefs = []
    for _ in range(n):
        a = random_rational(rng, PEAK_BOX * omega)
        b = random_rational(rng, PEAK_BOX * omega)
        lo, hi = min(a, b), max(a, b)
        if rng.random() < 1 / 4:
            hi = lo  # degenerate plateau, behaves single-peaked
        left, right = rng.choice(SLOPE_CATALOGUE)
        prefs.append(SinglePlateaued(lo, hi, left, right))
    return Economy(tuple(prefs), omega)


# ---------------------------------------------------------------------------
# named witness economies exercising every special branch


def two_agent_om_economy() -> Economy:
    """n=2, omega=1: peak 1/3 with a steep right slope against peak 0.

    The economy where the equal-distance and proportional rules admit an
    obvious manipulation (misreporting a zero peak).
    """
    return Economy(
        (
            SinglePeaked(Fraction(1, 3), Fraction(1), Fraction(3)),
            SinglePeaked(Fraction(0)),
        ),
        Fraction(1),
    )


def asymmetric_split_economy() -> Economy:
    """Two identical peak-omega agents against a zero peak (bar witness)."""
    top = SinglePeaked(Fraction(3))
    return Economy((top, top, SinglePeaked(Fraction(0))), Fraction(3))


def guarantee_gap_economy() -> Economy:
    """Peaks 1/4 + 3/4 split omega while agent 3 sits at equal division.

    The star rule's special branch zeroes out agent 3 here, violating the
    equal division guarantee.
    """
    return Economy(
        (
            SinglePeaked(Fraction(1, 4)),
            SinglePeaked(Fraction(3, 4)),
            SinglePeaked(Fraction(1, 3)),
        ),
        Fraction(1),
    )


def residual_sponge_economy() -> Economy:
    """Excess supply with a unique minimum peak (hat's special branch)."""
    return Economy(
        (
            SinglePeaked(Fraction(0)),
            SinglePeaked(Fraction(1)),
            SinglePeaked(Fraction(1)),
        ),
        Fraction(3),
    )


def lowest_peak_economy() -> Economy:
    """Agent 1 lowest with a left-steep preference (underline's branch)."""
    two = SinglePeaked(Fraction(2))
    return Economy(
        (SinglePeaked(Fraction(1, 4), Fraction(1), Fraction(10)), two, two, two),
        Fraction(4),
    )


def exaggeration_economy() -> Economy:
    """Excess demand where overreporting pays under the equal-losses rule."""
    return Economy(
        (
            SinglePeaked(Fraction(2)),
            SinglePeaked(Fraction(3)),
            SinglePeaked(Fraction(0)),
        ),
        Fraction(3),
    )


def balanced_economy() -> Economy:
    return Economy(
        (SinglePeaked(Fraction(1, 2)), SinglePeaked(Fraction(1, 2))),
        Fraction(1),
    )


def boundary_claims_economy() -> Economy:
    """z = 0 with the claims total exactly equal to the residual."""
    return Economy(
        (
            SinglePeaked(Fraction(0)),
            SinglePeaked(Fraction(0)),
            SinglePeaked(Fraction(3)),
        ),
        Fraction(3),
    )


def witness_economies() -> List[Economy]:
    return [
        two_agent_om_economy(),
        asymmetric_split_economy(),
        guarantee_gap_economy(),
        residual_sponge_economy(),
        lowest_peak_economy(),
        exaggeration_economy(),
        balanced_economy(),
        boundary_claims_economy(),
    ]


def standard_suite(
    seed: int,
    count: int,
    with_endowments: bool = False,
) -> List[Economy]:
    """The seeded economy suite the axiom checkers run on: `count` random
    economies with endowments; without, the 8 witness economies first, so
    every known violation is found deterministically, then random draws
    up to `count` in all (none when `count` is 8 or less). A count that
    is not an int is refused.
    """
    _check_count(count)
    rng = random.Random(seed)
    suite: List[Economy] = [] if with_endowments else witness_economies()
    while len(suite) < count:
        suite.append(random_economy(rng, with_endowments=with_endowments))
    return suite


def grid(omega: Fraction, step_denominator: int = 60) -> List[Fraction]:
    """Peak grid: multiples of omega/step covering [0, PEAK_BOX*omega];
    omega is an exact rational (a float is refused).

    A denominator below 1 is refused: 0 divides by zero and a negative one
    gives an empty grid, over which every searched verdict holds vacuously.
    """
    _check_grid_step(step_denominator)
    step = parse_rational(omega) / step_denominator
    return [k * step for k in range(PEAK_BOX * step_denominator + 1)]


@functools.lru_cache(maxsize=32, typed=True)
def _grid_prefs(omega: Fraction, step_denominator: int) -> Tuple[SinglePeaked, ...]:
    """`SinglePeaked(q)` at each point q of `grid(omega, step_denominator)`,
    shared by every misreport search and sampled witness economy. c04,
    gallery_matrix and the sp suites read at most 5 omegas per step, so 32
    entries hold every key; a refused step raises on every call, as the
    cache keeps no exceptions."""
    return tuple(map(SinglePeaked, grid(omega, step_denominator)))


def _check_grid_step(step_denominator: int) -> None:
    """Refuse a grid step denominator that is not an int (a bool
    included) or is below 1 (see `grid`)."""
    if type(step_denominator) is not int:
        raise ValueError(
            "grid step denominator must be a whole number of at least 1,"
            f" got {step_denominator!r}"
        )
    if step_denominator < 1:
        raise ValueError(
            f"grid step denominator must be at least 1, got {step_denominator}"
        )


def _check_count(count: int) -> None:
    """Refuse a number of draws that is not an int (a bool included)."""
    if type(count) is not int:
        raise ValueError(f"count must be a whole number, got {count!r}")
