"""Pinned rule outputs: sha256 digests of exact allotments and sampled
option sets on seeded inputs.

A change that only makes rule calls cheaper must leave both digests as
they are; a digest that moves means some rule now hands out different
amounts on these inputs.
"""

import hashlib
import random
from fractions import Fraction as F

from allotment.manipulation import option_set_sampled
from allotment.preferences import SinglePeaked
from allotment.rational import format_rational
from allotment.rules import (
    RULE_NAMES,
    ced,
    get_rule,
    proportional,
    sequential_rule,
)
from allotment.sampling import random_plateaued_economy, standard_suite

RULE_OUTPUTS_SHA256 = (
    "ce1df974e5fa9bfda3af882f592a46f2722d13ea776427551c963858b99b6150"
)
OPTION_SETS_SHA256 = (
    "544294aea8104400c16e3ad99a353dd69930fcda73591fca2983931f53edaee9"
)


def _suite(name):
    """The seeded economies a rule runs on: endowed for the reallocation
    rules, single-plateaued for the spl extensions, the standard suite
    (witness economies first) for everything else."""
    if name.startswith("realloc:"):
        return standard_suite(11, 40, with_endowments=True)
    if name.startswith("spl:"):
        rng = random.Random(12)
        return [random_plateaued_economy(rng) for _ in range(40)]
    return standard_suite(10, 48)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_rule_outputs_pinned():
    lines = []
    for name in RULE_NAMES:
        rule = get_rule(name)
        for k, econ in enumerate(_suite(name)):
            if econ.n < rule.min_agents:
                continue
            amounts = ", ".join(map(format_rational, rule(econ)))
            lines.append(f"{name} {k}: {amounts}")
    assert len(lines) == 800
    assert _digest(lines) == RULE_OUTPUTS_SHA256


def test_sampled_option_sets_pinned():
    # c04's ten rules: the simple family, ced and proportional
    rules = [
        get_rule("simple:cea"),
        get_rule("simple:cel"),
        get_rule("simple:pro"),
        sequential_rule("lo"),
        sequential_rule("hi"),
        sequential_rule("mid"),
        sequential_rule("quarter"),
        sequential_rule("lo", order="descending"),
        ced,
        proportional,
    ]
    rng = random.Random(13)
    cases = []
    for n in (2, 3, 4):
        omega = F(rng.randint(1, 5))
        den = rng.randint(1, 60)
        cases.append((F(rng.randint(0, 2 * omega.numerator * den), den), omega, n))
    lines = []
    for rule in rules:
        for peak, omega, n in cases:
            oset = option_set_sampled(rule, 0, SinglePeaked(peak), omega, n)
            outcomes = ", ".join(map(format_rational, oset.outcomes))
            lines.append(f"{rule.name} {format_rational(peak)} {n}: {outcomes}")
    assert _digest(lines) == OPTION_SETS_SHA256
