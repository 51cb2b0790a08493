"""Simple rules of divisions that read more of the split than the claims.

`rules._simple_rule` calls its division as (claims, E, D, split), with the
whole split of `economy._split_scaled`: (D, peaks, references, z, left,
plus, minus). A claims-rule core reads only the first three. The families
below read the rest too: a priority by agent index, mixture weights that
depend on n, and divisions that read the simple agents' peaks. Each is a
valid division (awards in [0, claim] summing to E), so its simple rule must
pass the axioms every simple rule passes.
"""

from fractions import Fraction as F

import pytest

from allotment.axioms import (
    PASS_ON_SAMPLE,
    check_betweenness,
    check_edg,
    check_own_peak_only,
    check_same_sided,
)
from allotment.claims import _cea, _cel, _pro
from allotment.economy import Economy
from allotment.preferences import SinglePeaked
from allotment.rules import _simple_rule
from allotment.sampling import standard_suite


def econ(peaks, omega):
    return Economy(tuple(SinglePeaked(F(p)) for p in peaks), F(omega))


def priority(key):
    """Claimants served in full, in the order of key(agent, n), until E
    runs out: the order reads agent indices, which no claims core sees."""

    def divide(claims, endowment, common, split):
        minus, n = split[-1], len(split[1])
        awards = [0] * len(claims)
        for k in sorted(range(len(minus)), key=lambda k: key(minus[k], n)):
            awards[k] = min(claims[k], endowment)
            endowment -= awards[k]
        return awards, 1

    return divide


def mixture(first, second, weights):
    """(a * first + b * second) / (a + b) of two claims cores, for the
    nonnegative weights (a, b) = weights(split), not both 0."""

    def divide(claims, endowment, common, split):
        a, b = weights(split)
        x, k = first(claims, endowment, common)
        y, m = second(claims, endowment, common)
        return [a * u * m + b * v * k for u, v in zip(x, y)], (a + b) * k * m

    return divide


def n(split):
    return len(split[1])


def simple_peaks(split):
    """The simple agents' peaks and reference points, over the split's D."""
    _, peaks, reference, _, _, plus, _ = split
    return [peaks[i] for i in plus], [reference[i] for i in plus]


def peak_share(split):
    # the simple agents' peaks against their reference points
    peaks, reference = simple_peaks(split)
    return (sum(peaks), sum(reference)) if peaks else (1, 1)


def some_low_peak(split):
    # cea when some simple agent's peak is below half its reference point
    peaks, reference = simple_peaks(split)
    return (1, 0) if any(2 * p < r for p, r in zip(peaks, reference)) else (0, 1)


def zero_peaks(split):
    # cel gains weight with each simple agent whose peak is 0
    return 1 + simple_peaks(split)[0].count(0), 1


FAMILIES = {
    # a priority monotone in the index would be one over claim positions,
    # which a claims core can follow; none of these is
    "index": {
        "even-first": priority(lambda i, n: (i % 2, i)),
        "odd-first": priority(lambda i, n: (1 - i % 2, i)),
        "from-middle": priority(lambda i, n: (i - n // 2) % n),
        "last-first": priority(lambda i, n: (i != n - 1, i)),
    },
    "n": {
        "cea-cel-1-n": mixture(_cea, _cel, lambda s: (1, n(s))),
        "cea-pro-n-1": mixture(_cea, _pro, lambda s: (n(s), 1)),
        "cel-pro-n-2": mixture(_cel, _pro, lambda s: (n(s) - 2, 2)),
        "cea-cel-parity": mixture(_cea, _cel, lambda s: (n(s) % 2, 1)),
    },
    "simple-peaks": {
        "cea-cel-share": mixture(_cea, _cel, peak_share),
        "cea-pro-low": mixture(_cea, _pro, some_low_peak),
        "cel-pro-zeros": mixture(_cel, _pro, zero_peaks),
    },
}
RULES = [
    _simple_rule(division, f"division:{family}:{name}")
    for family, divisions in FAMILIES.items()
    for name, division in divisions.items()
]
SUITE = [e for e in standard_suite(5, 60) if e.n >= 3]
CHECKS = (check_same_sided, check_own_peak_only, check_edg, check_betweenness)


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_generated_division_passes_the_simple_axioms(rule):
    assert rule.simple
    assert len(SUITE) >= 30
    for check in CHECKS:
        report = check(rule, SUITE)
        assert report.verdict == PASS_ON_SAMPLE, report.line()


# two economies whose non-simple agents 1 and 2 face the same claims (2/3,
# 1/3) and E = 1/3, apart from the one thing each family reads
SAME_CLAIMS = {
    # agents 1, 2 against 2, 3: the index decides who goes first
    "index": (econ([1, F(2, 3), 0], 1), econ([0, 1, F(2, 3)], 1)),
    # n = 3 against n = 4
    "n": (econ([1, F(2, 3), 0], 1), econ([F(5, 6), F(1, 2), 0, 0], F(2, 3))),
    # simple peaks 0, 0 against 1/6, 1/6
    "simple-peaks": (
        econ([F(5, 6), F(1, 2), 0, 0], F(2, 3)),
        econ([1, F(2, 3), F(1, 6), F(1, 6)], F(4, 3)),
    ),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_each_family_reads_more_than_the_claims(family):
    # the same claims problem, in Fractions, gets different awards: no
    # claims core gives any of these rules
    def awards(division, e):
        seen = []

        def recording(claims, endowment, common, split):
            awards, scale = division(claims, endowment, common, split)
            problem = [F(c, common) for c in claims], F(endowment, common)
            seen.append((problem, [F(a, common * scale) for a in awards]))
            return awards, scale

        _simple_rule(recording, "recording")(e)
        (record,) = seen
        return record

    for name, division in FAMILIES[family].items():
        (problem, first), (other, second) = (
            awards(division, e) for e in SAME_CLAIMS[family]
        )
        assert problem == other == ([F(2, 3), F(1, 3)], F(1, 3)), name
        assert first != second, name
