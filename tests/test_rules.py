import functools
import random
import re
from dataclasses import replace
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import given, settings

import allotment.rules as rules_module
from allotment.axioms import (
    NO_CASES,
    check_betweenness,
    check_own_peak_only,
    check_symmetry,
)
from allotment.claims import Awards, _awards, _cea, cea, cel, pro
from allotment.economy import Allotment, Economy, _split_scaled
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rules import (
    DOMAIN_SP,
    DOMAIN_SP_ENDOWMENTS,
    ORDER_POLICIES,
    RULE_NAMES,
    SELECTORS,
    Rule,
    _sequential,
    ced,
    gallery,
    get_rule,
    proportional,
    sequential_rule,
    simple_from_claims,
    simple_reallocation_from_claims,
    uniform,
)
from allotment.sampling import (
    SLOPE_CATALOGUE,
    random_economy,
    random_plateaued_economy,
    standard_suite,
    two_agent_om_economy,
    witness_economies,
)
from helpers import (
    CLAIMS_ORACLES,
    GALLERY_ORACLES,
    bisect_increasing,
    ced_oracle,
    economies,
    max_level_oracle,
    min_level_oracle,
    pareto_improvement_on_grid,
    proportional_oracle,
    random_claims_problem,
    sequential_allotment_oracle,
    simple_rule_oracle,
    spl_extension_oracle,
    split_oracle,
    uniform_oracle,
)


def econ(peaks, omega, endowments=None):
    return Economy(
        tuple(SinglePeaked(F(p)) for p in peaks), F(omega), endowments
    )


THREE_AGENT = econ([F(1, 2), F(3, 2), F(5, 2)], 3)


# -- uniform ----------------------------------------------------------------


def test_uniform_demand_example():
    e = econ([F(1, 2), F(2, 5), F(3, 10)], 1)
    assert tuple(uniform(e)) == (F(7, 20), F(7, 20), F(3, 10))


def test_uniform_demand_level_matches_bisection():
    e = econ([F(1, 2), F(2, 5), F(3, 10)], 1)
    lo, hi = bisect_increasing(
        lambda lam: sum(min(p, lam) for p in e.peaks()), e.omega, 0, max(e.peaks())
    )
    assert lo <= F(7, 20) <= hi


def test_uniform_balanced_gives_peaks():
    e = econ([F(1, 3), F(2, 3)], 1)
    assert tuple(uniform(e)) == e.peaks()


def test_uniform_three_agent_example():
    assert tuple(uniform(THREE_AGENT)) == (F(1, 2), F(5, 4), F(5, 4))


def test_uniform_supply_level_solver():
    # supply branch: raise everyone to a common floor, here 1/2
    e = econ([F(1, 3), 0], 1)
    assert tuple(uniform(e)) == uniform_oracle(e) == (F(1, 2), F(1, 2))


def test_uniform_branch_split_irrelevant_when_balanced():
    # at sum(peaks) == omega both branch formulas yield the peak profile,
    # so the printed >= / < split cannot be observed
    rng = random.Random(83)
    for _ in range(100):
        e = random_economy(rng)
        peaks = list(e.peaks())
        omega = sum(peaks)
        if omega == 0:
            continue
        balanced = econ(peaks, omega)
        lam_demand = min_level_oracle(peaks, omega)
        demand = [min(p, lam_demand) for p in peaks]
        lam_supply = max_level_oracle(peaks, omega)
        supply = [max(p, lam_supply) for p in peaks]
        assert demand == supply == peaks
        assert tuple(uniform(balanced)) == tuple(peaks)


# -- constrained equal distance ----------------------------------------------


def test_ced_supply_example():
    assert tuple(ced(two_agent_om_economy())) == (F(2, 3), F(1, 3))


def test_ced_zero_peaks_split_equally():
    assert tuple(ced(econ([0, 0], 1))) == (F(1, 2), F(1, 2))


def test_ced_balanced_gives_peaks():
    e = econ([F(2, 5), F(3, 5)], 1)
    assert tuple(ced(e)) == e.peaks()


# -- proportional --------------------------------------------------------------


def test_proportional_supply_example():
    assert tuple(proportional(two_agent_om_economy())) == (F(1), F(0))


def test_proportional_zero_peaks_branch():
    assert tuple(proportional(econ([0, 0], 1))) == (F(1, 2), F(1, 2))


def test_proportional_symmetric_peaks():
    assert tuple(proportional(econ([1, 1], 1))) == (F(1, 2), F(1, 2))


# -- the classical rules against their Fraction formulas ------------------------

CLASSICAL_ORACLES = (
    (uniform, uniform_oracle),
    (ced, ced_oracle),
    (proportional, proportional_oracle),
)


def assert_classical_rules_match_oracle(e):
    for rule, oracle in CLASSICAL_ORACLES:
        assert tuple(rule(e)) == oracle(e), rule.name


def test_classical_rules_match_fraction_oracle_on_standard_suite():
    for e in standard_suite(11, 1000):
        assert_classical_rules_match_oracle(e)


@pytest.mark.parametrize(
    "peaks, omega",
    [
        ([0, 0], 1),
        ([0, 0, 0], F(5, 2)),
        ([F(1, 3), F(2, 3)], 1),
        ([0, F(1, 2), F(3, 2)], 2),
    ],
    ids=["zero-2", "zero-3", "balanced-2", "balanced-3"],
)
def test_classical_rules_match_fraction_oracle_at_zero_and_balanced_peaks(
    peaks, omega
):
    e = econ(peaks, omega)
    assert_classical_rules_match_oracle(e)
    if sum(peaks) == omega:
        for rule, _ in CLASSICAL_ORACLES:
            assert tuple(rule(e)) == e.peaks(), rule.name


@pytest.mark.parametrize("n", [250, 1000])
def test_classical_rules_match_fraction_oracle_at_large_n(n):
    # peaks average omega/n times `spread`: excess supply, then excess demand
    rng = random.Random(n)
    for spread in (F(4, 5), F(5, 4)):
        omega = F(rng.randint(1, 5), rng.randint(1, 3))
        peaks = []
        for _ in range(n):
            den = rng.randint(1, 60)
            peaks.append(F(rng.randint(0, 2 * den), den) * omega * spread / n)
        assert (sum(peaks) > omega) == (spread > 1)
        assert_classical_rules_match_oracle(econ(peaks, omega))


# -- simple rules from claims rules -------------------------------------------


def test_simple_cea_equals_uniform_on_worked_example():
    # Sprumont's uniform rule, as its Fraction formula, is the simple rule
    # of constrained equal awards
    assert tuple(simple_from_claims(cea)(THREE_AGENT)) == uniform_oracle(
        THREE_AGENT
    )


def test_simple_cel_worked_example():
    assert tuple(simple_from_claims(cel)(THREE_AGENT)) == (F(1, 2), F(1), F(3, 2))


def test_simple_pro_worked_example():
    assert tuple(simple_from_claims(pro)(THREE_AGENT)) == (
        F(1, 2),
        F(9, 8),
        F(11, 8),
    )


def test_simple_cea_equals_uniform_on_random_economies():
    rng = random.Random(41)
    rule = simple_from_claims(cea)
    for _ in range(300):
        e = random_economy(rng)
        assert tuple(rule(e)) == uniform_oracle(e)


def test_simple_rules_respect_betweenness():
    rng = random.Random(43)
    rules = [simple_from_claims(r) for r in (cea, cel, pro)]
    for _ in range(200):
        e = random_economy(rng)
        share = e.equal_share
        _, _, plus, minus = split_oracle(e, (share,) * e.n)
        for rule in rules:
            x = rule(e)
            for i in plus:
                assert x[i] == e.prefs[i].peak
            for i in minus:
                peak = e.prefs[i].peak
                assert min(share, peak) <= x[i] <= max(share, peak)


SIMPLE_FAMILY = (
    [uniform]
    + [get_rule(f"simple:{name}") for name in ("cea", "cel", "pro")]
    + [
        sequential_rule(selector, order)
        for selector in SELECTORS
        for order in ("ascending", "descending")
    ]
)


def assert_feasible(x, econ):
    assert sum(x) == econ.omega
    assert all(a >= 0 for a in x)


@settings(max_examples=150, deadline=None)
@given(economies())
def test_simple_family_feasible_and_between_property(e):
    for rule in SIMPLE_FAMILY:
        assert_feasible(rule(e), e)
        assert not check_betweenness(rule, [e]).failed, rule.name


@settings(max_examples=150, deadline=None)
@given(economies(endowed=True))
def test_reallocation_rules_feasible_and_between_property(e):
    # betweenness around each agent's own endowment, the reference point of
    # the reallocation rules: by check_betweenness and by hand
    _, _, plus, minus = split_oracle(e, e.endowments)
    for name in ("cea", "cel", "pro"):
        rule = get_rule(f"realloc:{name}")
        x = rule(e)
        assert_feasible(x, e)
        assert not check_betweenness(rule, [e]).failed, rule.name
        for i in plus:
            assert x[i] == e.prefs[i].peak
        for i in minus:
            w, peak = e.endowments[i], e.prefs[i].peak
            assert min(w, peak) <= x[i] <= max(w, peak)


def assert_claims_rules_match_oracle(e):
    """simple:cea|cel|pro, and realloc:cea|cel|pro when e has endowments,
    equal the Fraction oracle built on `split_oracle`."""
    references = [("simple", (e.equal_share,) * e.n)]
    if e.endowments is not None:
        references.append(("realloc", e.endowments))
    for prefix, reference in references:
        for name, oracle in CLAIMS_ORACLES.items():
            x = get_rule(f"{prefix}:{name}")(e)
            assert tuple(x) == simple_rule_oracle(e, reference, oracle), name


@settings(max_examples=150, deadline=None)
@given(economies())
def test_simple_claims_rules_match_fraction_oracle(e):
    assert_claims_rules_match_oracle(e)


@settings(max_examples=150, deadline=None)
@given(economies(endowed=True))
def test_reallocation_claims_rules_match_fraction_oracle(e):
    assert_claims_rules_match_oracle(e)


def test_claims_rules_match_fraction_oracle_at_n_1000():
    # peaks average omega/n times `spread`, so the spreads below give excess
    # supply and excess demand at n = 1000
    rng = random.Random(83)
    n = 1000
    sides = set()
    for spread in (F(4, 5), F(5, 4), F(9, 10), F(11, 10)):
        omega = F(rng.randint(1, 5), rng.randint(1, 3))
        peaks = []
        for _ in range(n):
            den = rng.randint(1, 60)
            peaks.append(F(rng.randint(0, 2 * den), den) * omega * spread / n)
        weights = [rng.randint(0, 12) for _ in range(n)]
        endowments = tuple(omega * w / sum(weights) for w in weights)
        e = econ(peaks, omega, endowments)
        sides.add(sum(peaks) > omega)
        assert_claims_rules_match_oracle(e)
    assert sides == {False, True}


def test_claims_rule_awards_are_checked():
    # omega 2, peaks (1/2, 1, 1): agent 1 keeps its peak, agents 2 and 3
    # claim 1/3 each and divide E = 1/6
    e = econ([F(1, 2), 1, 1], 2)

    def overpays(cp):
        # would give agent 2 the amount 11/10, beyond its peak, and agent 3
        # the amount 2/5, below equal division
        first = cp.claims[0] + F(1, 10)
        rest = (F(0),) * (len(cp.claims) - 2)
        return Awards((first, cp.endowment - first) + rest)

    def short(cp):
        return Awards(cea(cp).amounts[:-1])

    def wasteful(cp):
        return Awards((F(0),) * len(cp.claims))

    with pytest.raises(AssertionError, match=r"award 13/30 outside \[0, 1/3\]"):
        simple_from_claims(overpays)(e)
    with pytest.raises(AssertionError, match="1 awards for 2 claims"):
        simple_from_claims(short)(e)
    with pytest.raises(AssertionError, match="exhaust"):
        simple_from_claims(wasteful)(e)


# -- one builder, two doors: the integer entry and the ClaimsRule adapter --------

SEQUENTIAL_VARIANTS = [
    ("lo", None),
    ("hi", None),
    ("mid", None),
    ("quarter", None),
    ("lo", "descending"),
]


def sequential_claims_rule(selector, order):
    """The sequential construction as a public-style ClaimsRule, which
    simple rules reach through the adapter of `claims._core`."""
    core = _sequential(SELECTORS[selector], order)

    def rule(cp):
        return _awards(cp, *core(cp._claims, cp._endowment, cp._common))

    return rule


def two_doors():
    """(simple rule, reallocation rule, claims rule) for cea, cel, pro and
    c04's five sequential variants. No reallocation rule is registered for
    the sequential variants, so theirs is built from the claims rule."""
    for rule in (cea, cel, pro):
        name = rule.__name__
        yield get_rule(f"simple:{name}"), get_rule(f"realloc:{name}"), rule
    for selector, order in SEQUENTIAL_VARIANTS:
        rule = sequential_claims_rule(selector, order)
        realloc = simple_reallocation_from_claims(rule)
        yield sequential_rule(selector, order), realloc, rule


def test_hidden_integer_entry_gives_the_same_allotments():
    # the two-step claim: each simple rule is the simple rule of a claims
    # rule, and the ClaimsRule door (a lambda hides the integer entry)
    # gives the registered rule's allotments exactly
    plain = standard_suite(10, 48)
    endowed = standard_suite(11, 40, with_endowments=True)
    for registered, registered_endowed, rule in two_doors():
        hidden = simple_from_claims(lambda cp: rule(cp))
        hidden_endowed = simple_reallocation_from_claims(lambda cp: rule(cp))
        for e in plain:
            assert tuple(hidden(e)) == tuple(registered(e)), registered.name
        for e in endowed:
            assert tuple(hidden_endowed(e)) == tuple(registered_endowed(e))


def test_a_wrapper_of_a_claims_rule_is_run_not_its_namesake():
    # functools.wraps copies cea's attributes onto a rule that calls cel,
    # yet its simple rule allocates as simple:cel (uniform gives 1/2, 3/4,
    # 3/4 on the first economy, whose endowments the simple rule ignores),
    # and its reallocation rule as realloc:cel
    fake = functools.wraps(cea)(lambda cp: cel(cp))
    rule, endowed = simple_from_claims(fake), simple_reallocation_from_claims(fake)
    for endowments in (None, (F(1), F(1, 2), F(1, 2))):
        three = econ([F(1, 2), F(1), F(3, 2)], 2, endowments)
        assert list(rule(three)) == [F(1, 2), F(2, 3), F(5, 6)]
    twin, endowed_twin = get_rule("simple:cel"), get_rule("realloc:cel")
    for e in standard_suite(10, 48):
        assert tuple(rule(e)) == tuple(twin(e))
    for e in standard_suite(11, 40, with_endowments=True):
        assert tuple(endowed(e)) == tuple(endowed_twin(e))


def test_an_unnamed_rule_is_named_by_identity():
    # cea, cel and pro keep their names; any other callable, a wrapper that
    # copies cea's __name__ included, is custom unless it is given a name
    for name, rule in (("cea", cea), ("cel", cel), ("pro", pro)):
        assert simple_from_claims(rule).name == f"simple:{name}"
        assert simple_reallocation_from_claims(rule).name == f"realloc:{name}"
    fake = functools.wraps(cea)(lambda cp: cel(cp))
    for other in (fake, lambda cp: cea(cp)):
        assert simple_from_claims(other).name == "simple:custom"
        assert simple_reallocation_from_claims(other).name == "realloc:custom"
    assert simple_from_claims(fake, name="mine").name == "mine"
    assert simple_reallocation_from_claims(fake, name="ours").name == "ours"


def test_sequential_claims_rules_are_claims_rules():
    rng = random.Random(89)
    rules = [sequential_claims_rule(*variant) for variant in SEQUENTIAL_VARIANTS]
    for _ in range(300):
        cp = random_claims_problem(rng)
        for rule in rules:
            awards = rule(cp)
            assert len(awards) == len(cp.claims)
            assert all(0 <= a <= c for a, c in zip(awards, cp.claims))
            assert sum(awards) == cp.endowment


@pytest.mark.parametrize(
    "order", [[], [1, 1], [-1, 0], [0, 1.0], [True, 0], ["1", "2"]]
)
def test_explicit_order_refused_at_build_time(order):
    # no economy accepts an order that is not distinct indices from 0
    with pytest.raises(ValueError, match="^an explicit order must list distinct"):
        sequential_rule("lo", order=order)


def test_explicit_order_numbers_agents_from_1():
    with pytest.raises(ValueError, match=r"\(numbered from 1\), got \[0, 1\]$"):
        sequential_rule("lo", order=[-1, 0])
    assert sequential_rule("lo", order=(5, 1)).name == "simple:appendix-b[lo,order=6,2]"


def test_each_simple_rule_call_splits_once(monkeypatch):
    # one integer split per call: the kernel of a rule around equal
    # division and a reallocation rule each run `_split_scaled` on the
    # economy's integer profile
    calls = []

    def counted(*args):
        calls.append(args)
        return _split_scaled(*args)

    monkeypatch.setattr(rules_module, "_split_scaled", counted)
    e = econ([F(1, 2), 1, F(3, 2)], 2, (F(1), F(1, 2), F(1, 2)))
    simple = [get_rule(name) for name in RULE_NAMES if name.startswith("simple:")]
    explicit = sequential_rule("hi", order=[2, 1])
    for rule in simple + [explicit, get_rule("realloc:cel")]:
        calls.clear()
        rule(e)
        assert len(calls) == 1, rule.name


# -- reallocation variant -------------------------------------------------------


def test_reallocation_with_equal_endowments_matches_simple():
    rng = random.Random(47)
    plain = simple_from_claims(cea)
    endowed = simple_reallocation_from_claims(cea)
    for _ in range(200):
        e = random_economy(rng)
        eq = Economy(e.prefs, e.omega, (e.equal_share,) * e.n)
        assert tuple(endowed(eq)) == tuple(plain(e))


def test_reallocation_forced_by_boundary_claims():
    e = econ([0, 2], 2, (F(1), F(1)))
    for claims_rule in (cea, cel, pro):
        assert tuple(simple_reallocation_from_claims(claims_rule)(e)) == (
            F(0),
            F(2),
        )


def test_reallocation_hand_evaluated_partition():
    e = econ([1, 1], 2, (F(1, 2), F(3, 2)))
    assert tuple(simple_reallocation_from_claims(cea)(e)) == (F(1), F(1))


def test_reallocation_rejects_missing_endowments():
    rule = simple_reallocation_from_claims(cea)
    # refused by the rule's domain check, and by its allocate called alone
    for run in (rule, rule.allocate):
        with pytest.raises(ValueError, match="^rule realloc:cea needs individual"):
            run(econ([1, 1], 2))


def test_reallocation_between_endowment_and_peak():
    rng = random.Random(53)
    rules = [simple_reallocation_from_claims(r) for r in (cea, cel, pro)]
    for _ in range(200):
        e = random_economy(rng, with_endowments=True)
        for rule in rules:
            x = rule(e)
            for i, pref in enumerate(e.prefs):
                lo = min(pref.peak, e.endowments[i])
                hi = max(pref.peak, e.endowments[i])
                assert lo <= x[i] <= hi


# -- sequential construction ---------------------------------------------------


def test_sequential_always_lo_trace():
    x = sequential_rule("lo", order=[1, 2])(THREE_AGENT)
    assert tuple(x) == (F(1, 2), F(1), F(3, 2))


def test_sequential_always_hi_trace():
    x = sequential_rule("hi", order=[1, 2])(THREE_AGENT)
    assert tuple(x) == (F(1, 2), F(3, 2), F(1))


def test_sequential_balanced_returns_peaks():
    e = econ([F(1, 3), F(2, 3)], 1)
    for name in SELECTORS:
        assert tuple(sequential_rule(name)(e)) == e.peaks()


def test_sequential_rejects_bad_order():
    with pytest.raises(ValueError):
        sequential_rule("lo", order=[0, 1])(THREE_AGENT)


def test_sequential_refuses_unknown_order_policy():
    # refused when the rule is built, naming the policy, not at every call
    with pytest.raises(ValueError, match="unknown order policy 'sideways'"):
        sequential_rule("lo", order="sideways")
    message = "unknown selector 'middle'; choose from lo, hi, mid, quarter"
    with pytest.raises(ValueError, match=f"^{message}$"):
        sequential_rule("middle")


def test_sequential_windows_nonempty_and_output_simple():
    rng = random.Random(59)
    for _ in range(300):
        e = random_economy(rng)
        _, _, plus, minus = split_oracle(e, (e.equal_share,) * e.n)
        order = minus[:]
        rng.shuffle(order)
        for name in SELECTORS:
            x = sequential_rule(name, order)(e)
            share = e.equal_share
            for i in plus:
                assert x[i] == e.prefs[i].peak
            for i in minus:
                peak = e.prefs[i].peak
                assert min(share, peak) <= x[i] <= max(share, peak)


@pytest.mark.parametrize("name", ["mid", "quarter"])
def test_sequential_window_follows_selectors_off_the_economy_grid(name):
    # six agents whose peaks, omega and omega/6 often have odd denominators,
    # so half or a quarter of a window may lie off their common grid; the
    # oracle runs the window on Fractions, at the selector's share of it
    num, den = SELECTORS[name]

    def selector(lo, hi):
        return lo + (hi - lo) * F(num, den)

    rng = random.Random(83)
    off_grid, supply = 0, 0
    for _ in range(150):
        omega = F(rng.randint(1, 5))
        # peaks up to omega/3 give excess supply about two times in three
        top = omega * rng.choice([F(1, 3), F(2)])
        dens = [rng.choice([1, 2, 3, 4, 5, 6, 8, 9, 10, 12]) for _ in range(6)]
        e = econ([F(rng.randint(0, int(top * d)), d) for d in dens], omega)
        grid = lcm(*dens, e.equal_share.denominator)
        z, _, _, minus = split_oracle(e, (e.equal_share,) * e.n)
        supply += z < 0
        for order in (minus, minus[::-1]):
            x = sequential_rule(name, order)(e)
            assert tuple(x) == sequential_allotment_oracle(e, selector, order)
            assert all(type(a) is F for a in x)
            off_grid += any(grid % a.denominator for a in x)
    assert off_grid > 0 and 0 < supply < 150


# -- single-plateaued economies --------------------------------------------------


# every simple rule around equal division, each a kernel: uniform, the
# claims rules and the four selectors in both orders, and gallery:bar
SPL_BASES = [
    uniform,
    *(simple_from_claims(c) for c in (cea, cel, pro)),
    *(sequential_rule(s, order) for s in SELECTORS for order in ORDER_POLICIES),
    gallery("bar"),
]


@pytest.mark.parametrize("base", SPL_BASES, ids=lambda base: base.name)
def test_spl_degenerate_plateaus_reproduce_base(base):
    rng = random.Random(61)
    for _ in range(200):
        e = random_economy(rng)
        if e.n < base.min_agents:
            continue
        flat = Economy(
            tuple(
                SinglePlateaued(p.peak, p.peak, p.left_slope, p.right_slope)
                for p in e.prefs
            ),
            e.omega,
        )
        assert tuple(base(flat)) == tuple(base(e))


def test_spl_straddling_plateaus_use_clamp_level():
    e = Economy(
        (SinglePlateaued(F(0), F(2)), SinglePlateaued(F(0), F(2))), F(2)
    )
    assert tuple(uniform(e)) == (F(1), F(1))


def test_spl_demand_side_dispatch():
    e = Economy(
        (SinglePlateaued(F(2), F(3)), SinglePlateaued(F(2), F(3))), F(2)
    )
    # left endpoints already exhaust omega, so the rule reads peaks (2, 2)
    assert tuple(uniform(e)) == (F(1), F(1))


def test_spl_dispatch_and_feasibility_on_random_economies():
    rng = random.Random(67)
    rule = simple_from_claims(cea)
    for _ in range(300):
        e = random_plateaued_economy(rng)
        lows = [p.plateau_lo for p in e.prefs]
        highs = [p.plateau_hi for p in e.prefs]
        x = rule(e)
        if sum(lows) - e.omega < 0 < sum(highs) - e.omega:
            for xi, lo, hi in zip(x, lows, highs):
                assert lo <= xi <= hi


@pytest.mark.parametrize("base", SPL_BASES, ids=lambda base: base.name)
def test_plateaus_match_the_reduced_economy_route(base):
    rng = random.Random(89)
    for _ in range(300):
        e = random_plateaued_economy(rng)
        if e.n >= base.min_agents:
            assert tuple(base(e)) == spl_extension_oracle(base, e)


def test_a_peak_is_a_plateau_of_width_zero():
    # each zero-width plateau drawn becomes the peak it stands for: the
    # result is a mix of peaks and plateaus, or all peaks, which reads its
    # integer profile from the peaks alone
    rng = random.Random(89)
    mixed = peaked = 0
    for _ in range(300):
        e = random_plateaued_economy(rng)
        swapped = Economy(
            tuple(
                SinglePeaked(p.plateau_lo, p.left_slope, p.right_slope)
                if p.plateau_lo == p.plateau_hi
                else p
                for p in e.prefs
            ),
            e.omega,
        )
        if swapped == e:
            continue
        mixed += not swapped.is_single_peaked
        peaked += swapped.is_single_peaked
        for base in SPL_BASES:
            if e.n >= base.min_agents:
                x = tuple(base(swapped))
                assert x == tuple(base(e)) == spl_extension_oracle(base, swapped)
        if e.n <= 3:
            assert pareto_improvement_on_grid(swapped, uniform(swapped), 24) is None
    assert mixed > 0 and peaked > 0


def test_bar_on_plateaus_needs_three_agents():
    bar = gallery("bar")
    assert bar.min_agents == 3
    # the left ends sum to omega, so the kernel would run at n = 2
    two = Economy((SinglePlateaued(F(1), F(2)), SinglePlateaued(F(1), F(3))), F(2))
    report = check_symmetry(bar, [two])
    assert (report.verdict, report.checked) == (NO_CASES, 0)


@pytest.mark.parametrize(
    "plateaus",
    [((0, 2), (0, 2)), ((1, 2), (1, 3))],
    ids=["straddling", "left ends"],
)
def test_bar_refuses_two_plateau_agents_on_each_branch(plateaus):
    two = Economy(tuple(SinglePlateaued(F(lo), F(hi)) for lo, hi in plateaus), F(2))
    message = "rule gallery:bar needs at least 3 agents, got 2"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        gallery("bar")(two)


@pytest.mark.parametrize("claims", ["cea", "cel", "pro"])
def test_spl_rules_allocate_as_their_simple_twins(claims):
    spl, twin = get_rule(f"spl:{claims}"), get_rule(f"simple:{claims}")
    assert spl.simple
    rng = random.Random(97)
    plateaus = [random_plateaued_economy(rng) for _ in range(100)]
    for e in standard_suite(10, 48) + plateaus:
        assert tuple(spl(e)) == tuple(twin(e))


@pytest.mark.parametrize(
    "rule",
    [
        ced,
        proportional,
        *(gallery(g) for g in ("equal_division", "star", "hat", "underline")),
        *(get_rule(f"realloc:{r}") for r in ("cea", "cel", "pro")),
        Rule("w", lambda e: uniform.allocate(e)),  # no kernel, not simple
    ],
    ids=lambda rule: rule.name,
)
def test_rules_outside_the_simple_family_refuse_plateaus(rule):
    e = Economy(
        (
            SinglePlateaued(F(0), F(1)),
            SinglePlateaued(F(1, 2), F(2)),
            SinglePlateaued(F(1), F(1)),
        ),
        F(2),
        (F(1), F(1, 2), F(1, 2)),
    )
    message = f"rule {rule.name} needs single-peaked preferences"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rule(e)


def test_every_simple_rule_has_a_kernel():
    # the invariant through which `Rule.check_domain` lets the rules simple
    # around equal division take plateaus, each reading them as its integer
    # profile's peaks; a reallocation kernel refuses a profile without
    # endowments, in its rule's text
    rules = [get_rule(name) for name in RULE_NAMES]
    rules += [sequential_rule(s, o) for s in SELECTORS for o in ORDER_POLICIES]
    for rule in rules:
        if rule.simple:
            assert callable(rule.kernel), rule.name
    reallocation = [r for r in rules if r.domain == DOMAIN_SP_ENDOWMENTS]
    assert {r.name for r in reallocation} >= {"realloc:cea", "realloc:cel"}
    for rule in reallocation:
        assert rule.simple
        message = f"rule {rule.name} needs individual endowments"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            rule.kernel(1, (1, 2, 3), 6, None)


def test_a_kernel_runs_once_per_integer_profile():
    # own-peak-only's slope variants inherit their base economy's integer
    # profile, so the kernel runs once per economy checked; the kept run
    # is the last one only, so e1, e2, e1 runs it three times
    runs = []
    kernel = uniform.kernel

    def counted(*profile):
        runs.append(profile)
        return kernel(*profile)

    rule = rules_module._kernel_rule("counted", counted)
    assert rule.kernel is counted
    report = check_own_peak_only(rule, standard_suite(0, 200)[:40])
    assert report.checked == 40 and not report.failed
    assert len(runs) == report.checked
    runs.clear()
    for e in (THREE_AGENT, econ([1, 2, 3], 3), THREE_AGENT):
        assert tuple(rule(e)) == tuple(uniform(e))
    assert len(runs) == 3


@pytest.mark.parametrize(
    "name, runs_expected",
    [("gallery:equal_division", 1), ("uniform", 1), ("realloc:cea", 2)],
)
def test_an_endowment_only_change_reruns_only_a_reallocation_kernel(
    name, runs_expected
):
    # equal peaks and omega, the endowments rotated over one denominator: a
    # rule around equal division reads no endowments, so its kept run holds
    rule = get_rule(name)
    runs = []

    def counted(*profile):
        runs.append(profile)
        return rule.kernel(*profile)

    probe = rules_module._kernel_rule(name, counted, rule.domain)
    first = econ([F(1, 2), F(3, 2), F(5, 2)], 3, (F(1), F(1, 2), F(3, 2)))
    second = econ([F(1, 2), F(3, 2), F(5, 2)], 3, (F(1, 2), F(3, 2), F(1)))
    assert first._integer_profile()[0] == second._integer_profile()[0]
    for e in (first, second):
        assert probe(e) == rule(e)
    assert len(runs) == runs_expected


def test_a_kernel_rule_returns_no_stale_allotment():
    # base economy, a slope variant with its profile, on endowed economies
    # the base with other endowments, then the next economy and the base
    # again: each call equals a fresh run of the raw kernel on the whole
    # integer profile, endowments included
    rules = [get_rule(name) for name in RULE_NAMES]
    rules += [sequential_rule(s, o) for s in SELECTORS for o in ORDER_POLICIES]
    rules = [r for r in rules if r.kernel is not None]
    kernels = {"ced", "proportional", "gallery:bar", "gallery:equal_division"}
    kernels |= {"gallery:hat", "gallery:star", "uniform", "simple:appendix-b[lo]"}
    kernels |= {"realloc:cea", "realloc:cel", "realloc:pro"}
    assert kernels <= {r.name for r in rules}
    for endowed in (False, True):
        suite = standard_suite(10, 48, with_endowments=endowed)
        for rule in rules:
            if rule.domain == DOMAIN_SP_ENDOWMENTS and not endowed:
                continue
            kernel = rule.kernel
            econs = [e for e in suite if e.n >= rule.min_agents]
            for e, following in zip(econs, econs[1:]):
                own = (e.prefs[0].left_slope, e.prefs[0].right_slope)
                slopes = next(s for s in SLOPE_CATALOGUE if s != own)
                variant = e.replace_pref(0, SinglePeaked(e.prefs[0].peak, *slopes))
                sequence = [e, variant]
                if endowed:  # same peaks and omega, the endowments rotated
                    w = e.endowments
                    sequence.append(Economy(e.prefs, e.omega, w[1:] + w[:1]))
                for x in (*sequence, following, e):
                    fresh = Allotment._of_scaled(
                        *kernel(*x._integer_profile()), x.omega
                    )
                    assert rule(x) == fresh, rule.name


@pytest.mark.parametrize("domain", ["sp", "SPL", "", None])
def test_rule_refuses_an_unknown_domain(domain):
    # an unknown domain would skip every preference check
    message = f"unknown domain {domain!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Rule("typo", ced.allocate, domain=domain)


# -- gallery -------------------------------------------------------------------


def assert_gallery_matches_oracle(e):
    for name, oracle in GALLERY_ORACLES.items():
        rule = gallery(name)
        if e.n >= rule.min_agents:
            assert tuple(rule(e)) == oracle(e), name


def test_gallery_matches_fraction_oracle_on_standard_suite():
    for e in standard_suite(10, 200):
        assert_gallery_matches_oracle(e)


def test_gallery_special_cases_match_fraction_oracle_on_witness_economies():
    # between them the witness economies reach every special case
    for e in witness_economies():
        assert_gallery_matches_oracle(e)
    for name in ("equal_division", "star", "bar", "hat", "underline"):
        rule = gallery(name)
        assert any(
            rule(e) != uniform(e) for e in witness_economies() if e.n >= rule.min_agents
        ), name


def test_gallery_matches_fraction_oracle_at_n_1000():
    # peaks average omega/n times `spread`: excess supply, then excess demand
    rng = random.Random(1000)
    n = 1000
    for spread in (F(4, 5), F(5, 4)):
        omega = F(rng.randint(1, 5), rng.randint(1, 3))
        peaks = []
        for _ in range(n):
            den = rng.randint(1, 60)
            peaks.append(F(rng.randint(0, 2 * den), den) * omega * spread / n)
        assert (sum(peaks) > omega) == (spread > 1)
        assert_gallery_matches_oracle(econ(peaks, omega))


def test_equal_division_rule():
    assert tuple(gallery("equal_division")(THREE_AGENT)) == (F(1), F(1), F(1))


def test_star_special_branch():
    e = econ([F(1, 4), F(3, 4), F(1, 3)], 1)
    assert tuple(gallery("star")(e)) == (F(1, 4), F(3, 4), F(0))


def test_star_falls_back_to_uniform():
    e = econ([F(1, 4), F(3, 4), F(1, 4)], 1)  # peak collision disables the branch
    assert tuple(gallery("star")(e)) == tuple(uniform(e))


def test_bar_special_branch():
    e = econ([3, 3, 0], 3)
    assert tuple(gallery("bar")(e)) == (F(1), F(2), F(0))


def test_bar_allocate_is_checked_below_three_agents():
    # bar's allocate under a rule that takes two agents is not simple, and
    # the award check on every call refuses it at the trigger, where agent
    # 1's omega/3 lies below omega/2
    bar2 = Rule("bar2", gallery("bar").allocate)
    assert not bar2.simple and bar2.min_agents == 2
    with pytest.raises(AssertionError, match=re.escape("award -1/6 outside [0, 1/2]")):
        bar2(econ([1, 1], 1))
    assert tuple(bar2(econ([1, 0], 1))) == (F(1), F(0))


def test_a_division_below_the_reference_point_is_refused_on_every_call():
    # a bar-like division that hands agents 1 and 2 omega/5 and 4 omega/5
    # at bar's trigger: agent 1's award is negative at n = 4
    def fifths(claims, endowment, common, split):
        _, peaks, reference, _, _, _, _ = split
        omega = reference[0] * len(peaks)
        if peaks[0] == peaks[1] == omega and not any(peaks[2:]):
            return [omega - 5 * reference[0], 4 * omega - 5 * reference[1]], 5
        return _cea(claims, endowment, common)

    rule = rules_module._simple_rule(fifths, "fifths")
    assert rule.simple
    for omega in (1, 2, F(7, 3), 4):
        for _ in range(2):
            with pytest.raises(AssertionError, match=r"^award -\S+ outside"):
                rule(econ([omega, omega, 0, 0], omega))
    assert tuple(rule(econ([2, 2, 0, 0], 1))) == tuple(uniform(econ([2, 2, 0, 0], 1)))


def test_hat_supply_branch():
    e = econ([0, 1, 1], 3)
    assert tuple(gallery("hat")(e)) == (F(1), F(1), F(1))


def test_hat_demand_side_is_uniform():
    e = econ([1, 2, 3], 3)
    assert tuple(gallery("hat")(e)) == tuple(uniform(e))


def test_underline_special_branch_zeroes_agent_one():
    e = Economy(
        (
            SinglePeaked(F(1, 4), F(1), F(10)),
            SinglePeaked(F(2)),
            SinglePeaked(F(2)),
            SinglePeaked(F(2)),
        ),
        F(4),
    )
    x = gallery("underline")(e)
    assert x[0] == 0


def test_underline_flat_preference_uses_reported_peak():
    # steep left slope makes equal division better than zero: no substitution
    e = Economy(
        (
            SinglePeaked(F(1, 4), F(10), F(1)),
            SinglePeaked(F(2)),
            SinglePeaked(F(2)),
            SinglePeaked(F(2)),
        ),
        F(4),
    )
    x = gallery("underline")(e)
    assert x[0] == F(1, 4)


def test_small_galleries_reject_two_agents():
    with pytest.raises(ValueError):
        gallery("star")(econ([1, 1], 2))
    with pytest.raises(ValueError):
        gallery("bar")(econ([1, 1], 2))


def test_gallery_unknown_name():
    with pytest.raises(ValueError):
        gallery("nope")


# -- cross-cutting ----------------------------------------------------------------


def all_sp_rules():
    rules = [
        uniform,
        ced,
        proportional,
        simple_from_claims(cea),
        simple_from_claims(cel),
        simple_from_claims(pro),
        sequential_rule("lo"),
        sequential_rule("mid"),
    ]
    rules += [gallery(name) for name in
              ("equal_division", "star", "bar", "hat", "underline")]
    return rules


def test_every_rule_output_is_feasible():
    rng = random.Random(71)
    rules = all_sp_rules()
    for _ in range(150):
        e = random_economy(rng)
        for rule in rules:
            if e.n < rule.min_agents:
                continue
            x = rule(e)
            assert sum(x) == e.omega
            assert all(a >= 0 for a in x)


def test_rules_are_same_sided_except_equal_division():
    rng = random.Random(73)
    rules = [r for r in all_sp_rules() if r.name != "gallery:equal_division"]
    for _ in range(150):
        e = random_economy(rng)
        z = sum(e.peaks()) - e.omega
        for rule in rules:
            if e.n < rule.min_agents:
                continue
            x = rule(e)
            for xi, p in zip(x, e.peaks()):
                if z >= 0:
                    assert xi <= p
                if z <= 0:
                    assert xi >= p


def test_rule_names_are_pinned():
    assert RULE_NAMES == [
        "uniform",
        "ced",
        "proportional",
        "simple:cea",
        "simple:cel",
        "simple:pro",
        "simple:appendix-b",
        "realloc:cea",
        "realloc:cel",
        "realloc:pro",
        "spl:cea",
        "spl:cel",
        "spl:pro",
        "gallery:bar",
        "gallery:equal_division",
        "gallery:hat",
        "gallery:star",
        "gallery:underline",
    ]


def test_registered_simple_flags_are_pinned():
    # the spl: names are the simple rules of cea, cel and pro
    assert {name: get_rule(name).simple for name in RULE_NAMES} == {
        "uniform": True,
        "ced": False,
        "proportional": False,
        "simple:cea": True,
        "simple:cel": True,
        "simple:pro": True,
        "simple:appendix-b": True,
        "realloc:cea": True,
        "realloc:cel": True,
        "realloc:pro": True,
        "spl:cea": True,
        "spl:cel": True,
        "spl:pro": True,
        "gallery:bar": True,
        "gallery:equal_division": False,
        "gallery:hat": False,
        "gallery:star": False,
        "gallery:underline": False,
    }
    # only the Rule a builder returns is simple: one rebuilt around its
    # allocate, or a replace copy, is searched
    for name in RULE_NAMES:
        rule = get_rule(name)
        if rule.simple:
            rebuilt = Rule(
                rule.name, rule.allocate, rule.domain, min_agents=rule.min_agents
            )
            assert not rebuilt.simple, name
            assert not replace(rule, name="x").simple, name


def test_simple_follows_the_builder_and_domain():
    # simple belongs to the built Rule, never to its allocate function
    assert not Rule("alias", uniform.allocate).simple
    assert not Rule("wrapper", lambda e: uniform.allocate(e)).simple
    assert not Rule("endowed", uniform.allocate, DOMAIN_SP_ENDOWMENTS).simple
    assert not Rule("fake", proportional.allocate).simple


def test_a_reallocation_rule_refuses_plateaus():
    # simple on its own domain, but its reference points are endowments,
    # which a plateau economy's effective peaks are not split around
    e = Economy(
        (SinglePlateaued(F(0), F(1)), SinglePlateaued(F(1, 2), F(2))),
        F(2),
        (F(1), F(1)),
    )
    message = "rule realloc:cea needs single-peaked preferences"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        get_rule("realloc:cea")(e)


def test_each_registered_rule_carries_its_name():
    # simple:appendix-b's name tags the selector
    for name in RULE_NAMES:
        if name == "simple:appendix-b":
            assert get_rule(name).name == "simple:appendix-b[lo]"
        else:
            assert get_rule(name).name == name


def test_gallery_names_the_registered_rules():
    # one table of built Rules: gallery() and the registry hand out the same
    # objects, and star and bar take three agents
    for name in ("bar", "equal_division", "hat", "star", "underline"):
        assert gallery(name) is get_rule(f"gallery:{name}")
        assert gallery(name).min_agents == (3 if name in ("bar", "star") else 2)


def test_get_rule_registry():
    assert get_rule("uniform") is uniform
    assert get_rule("simple:cea").simple
    assert get_rule("gallery:hat").name == "gallery:hat"
    assert get_rule("realloc:pro").domain == "SP-with-endowments"
    assert get_rule("spl:cel").domain == "SP"
    assert get_rule("spl:cel").simple
    with pytest.raises(ValueError):
        get_rule("simple:unknown")
    with pytest.raises(ValueError, match="^unknown rule None; choose from uniform, "):
        get_rule(None)


def test_get_rule_returns_one_rule_per_name():
    # every registered name, simple:appendix-b included, is one registered
    # Rule, so every lookup shares its kept last run; another selector or
    # an order builds a new Rule per call
    for name in RULE_NAMES:
        assert get_rule(name) is get_rule(name)
    default = get_rule("simple:appendix-b")
    for tag in ("hi", "lo,ascending", "lo,order=1,2"):
        built = get_rule(f"simple:appendix-b[{tag}]")
        assert built is not get_rule(f"simple:appendix-b[{tag}]")
        assert built is not default


def test_get_rule_reads_back_every_printed_name():
    # the name a rule prints is the one way to spell it: each registered
    # rule and each selector with no order, either policy or an explicit
    # order resolves from its name to a rule of that name that allocates
    # the same
    e = econ([F(1, 2), F(3, 2), F(5, 2)], 3, (F(1), F(1, 2), F(3, 2)))
    rules = [get_rule(name) for name in RULE_NAMES] + [
        sequential_rule(selector, order)
        for selector in SELECTORS
        for order in (None, *ORDER_POLICIES, [2, 1])
    ]
    assert len(rules) == len(RULE_NAMES) + 16
    for rule in rules:
        resolved = get_rule(rule.name)
        assert resolved.name == rule.name
        assert tuple(resolved(e)) == tuple(rule(e))
    assert get_rule("simple:appendix-b[lo]") is get_rule("simple:appendix-b")


def test_domain_mismatch_rejected():
    mixed = Economy((SinglePeaked(F(1)), SinglePlateaued(F(0), F(1))), F(1))
    # a mix of peaks and plateaus is in the domain: the low ends sum to omega
    assert tuple(get_rule("spl:cea")(mixed)) == (F(1), F(0))
    with pytest.raises(ValueError):
        get_rule("realloc:cea")(THREE_AGENT)
