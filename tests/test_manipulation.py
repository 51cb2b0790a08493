import contextlib
import copy
import functools
import io
import math
import os
import pickle
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allotment import NO_CASES
import allotment.manipulation as manipulation_module
import allotment.rules as rules_module
from allotment.claims import Awards, _cea, cea, cel
from allotment.economy import Allotment, Economy, _checked_size
from allotment.manipulation import (
    _no_better,
    _opponent_profiles,
    check_nom,
    find_obvious_manipulation,
    is_obvious_manipulation,
    NomCase,
    nom_sweep,
    option_set_sampled,
    option_set_simple,
)
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rational import RationalParseError
from allotment.rules import (
    DOMAIN_SP,
    DOMAIN_SP_ENDOWMENTS,
    GALLERY,
    RULE_NAMES,
    Rule,
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
    _check_grid_step,
    _grid_prefs,
    grid,
    random_preference,
    random_rational,
    standard_suite,
    two_agent_om_economy,
)
from helpers import (
    CountingPeaked,
    opponent_profiles_oracle,
    sampled_nom_oracle,
    sorted_targets_profiles_oracle,
)

OM_PREF = SinglePeaked(F(1, 3), F(1), F(3))


def wrapped(rule):
    """`rule` behind a wrapper: the same allotments, but not built by a
    simple-rule builder, so the search samples it."""
    return Rule(
        rule.name, lambda e: rule.allocate(e), rule.domain, min_agents=rule.min_agents
    )


# -- exact option sets -------------------------------------------------------


def test_option_set_below_equal_division():
    assert option_set_simple(F(1, 3), F(1), 2) == (F(1, 3), F(1, 2))


def test_option_set_degenerate_at_equal_division():
    assert option_set_simple(F(1, 2), F(1), 2) == (F(1, 2), F(1, 2))


def test_option_set_above_equal_division():
    assert option_set_simple(F(3, 4), F(1), 2) == (F(1, 2), F(3, 4))


def test_option_set_caps_peak_at_omega():
    # feasibility truncates unattainably large peaks
    assert option_set_simple(F(3), F(1), 2) == (F(1, 2), F(1))


@pytest.mark.parametrize(
    "args, message",
    [
        ((-1, 1, 2), "^peak must be nonnegative, got -1$"),
        ((F(-1, 3), 1, 3), "^peak must be nonnegative, got -1/3$"),
        ((1, -1, 3), "^the social endowment must be positive$"),
        ((1, 0, 3), "^the social endowment must be positive$"),
    ],
)
def test_option_set_refuses_negative_peak_and_nonpositive_omega(args, message):
    # the messages of `SinglePeaked` and `Economy`, which refuse the same
    with pytest.raises(ValueError, match=message):
        option_set_simple(*args)


# -- sampled option sets -------------------------------------------------------


def test_sampled_ced_covers_reachable_range():
    s = option_set_sampled(ced, 0, OM_PREF, F(1), 2)
    assert min(s.outcomes) == 0
    assert max(s.outcomes) == F(2, 3)
    assert all(0 <= x <= F(2, 3) for x in s.outcomes)


def test_sampled_simple_rule_inside_exact_interval():
    rule = simple_from_claims(cel)
    for peak in (F(1, 3), F(3, 4), F(1, 2), F(7, 5)):
        s = option_set_sampled(rule, 0, SinglePeaked(peak), F(1), 2)
        lo, hi = option_set_simple(peak, F(1), 2)
        assert all(lo <= x <= hi for x in s.outcomes)
        assert lo in s.outcomes
        assert hi in s.outcomes


def test_sampled_ced_peak_zero_capped_at_half():
    s = option_set_sampled(ced, 0, SinglePeaked(F(0)), F(1), 2)
    assert max(s.outcomes) == F(1, 2)
    witness = s.witnesses[F(1, 2)]
    assert witness.prefs[1].peak == 0


def test_sampled_outcomes_replay_exactly():
    s = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=20)
    for outcome in s.outcomes:
        assert s.replay(outcome)


def peaks_and_slopes(profiles):
    return [
        tuple((p.peak, p.left_slope, p.right_slope) for p in profile)
        for profile in profiles
    ]


def integer_profiles(peak, omega, n, grid_step=60):
    """(D, profiles): the report's D, the least common multiple of the
    denominators of the grid's spacing, equal division and the peak, times
    n - 1, and `_opponent_profiles` of the report over it."""
    dens = (omega / grid_step, omega / n, peak)
    common = math.lcm(*(x.denominator for x in dens)) * (n - 1)
    total, mine = omega * common, peak * common
    assert total.denominator == mine.denominator == 1
    profiles = _opponent_profiles(int(total), int(mine), n, grid_step)
    return common, list(profiles)


def opponents(common, profile):
    """The unit-slope opponents whose peaks are `profile` over `common`."""
    return tuple(SinglePeaked(F(x, common)) for x in profile)


# omega/2 lies off an odd grid and on an even one
@pytest.mark.parametrize("grid_step", [5, 6, 12])
def test_opponent_profiles_match_oracle(grid_step):
    for n in range(2, 8):
        for omega in (F(1), F(2), F(7, 3)):
            # agent peaks on the grid, halfway between grid points and just
            # past those by 1/(7 * grid_step), which refines the grid's D,
            # so witness targets and the witness opponents' peaks fall both
            # on and off the grid
            for k in range(4 * grid_step + 1):
                for off in (0, F(1, 7 * grid_step)):
                    pref = SinglePeaked(k * omega / (2 * grid_step) + off)
                    args = (omega, n, grid_step)
                    expected = opponent_profiles_oracle(pref, *args)
                    expected = peaks_and_slopes(expected)
                    # each profile is the opponents' peak numerators over
                    # the report's D, which holds its peak and omega
                    common, profiles = integer_profiles(pref.peak, *args)
                    got = [opponents(common, profile) for profile in profiles]
                    assert peaks_and_slopes(got) == expected, (pref.peak, omega, n)
                    assert all(len(profile) == n - 1 for profile in profiles)


def recording_rule(seen):
    """A rule that is not simple, records every economy it runs on and
    hands out equal division."""
    divide = gallery("equal_division").allocate

    def allocate(econ):
        seen.append(econ)
        return divide(econ)

    return Rule("recorder", allocate)


@pytest.mark.parametrize("omega", [F(3), F(5, 3)], ids=["3", "5/3"])
@pytest.mark.parametrize("grid_step", [1, 7, 20, 60])
def test_sampled_economies_follow_the_sorted_targets_order(omega, grid_step):
    # the witness targets are found on integers over the report's D; the
    # sampler must still run the rule on the profiles of the former
    # generator (sorted Fraction targets, bisected grid), in its order
    step = omega / grid_step
    for n in range(2, 7):
        peaks = {
            F(0),
            omega / n,
            3 * step,  # on the grid
            step / 2,  # off the grid, below equal division
            omega - step / 3,  # off the grid, above equal division
            omega,
            3 * omega / 2,  # above omega: capped
        }
        for peak in sorted(peaks):
            pref = SinglePeaked(peak, F(1), F(3))
            expected = list(sorted_targets_profiles_oracle(pref, omega, n, grid_step))
            for agent in sorted({0, n // 2, n - 1}):
                seen = []
                option_set_sampled(recording_rule(seen), agent, pref, omega, n, grid_step)
                got = [
                    tuple(p for i, p in enumerate(e.prefs) if i != agent)
                    for e in seen
                ]
                assert [e.prefs[agent] for e in seen] == [pref] * len(seen)
                assert peaks_and_slopes(got) == peaks_and_slopes(expected), (
                    n, peak, agent
                )


@pytest.mark.parametrize(
    "call",
    [
        lambda: option_set_simple(F(1, 3), 0.1, 2),
        lambda: option_set_simple(0.5, F(1), 2),
        lambda: option_set_sampled(ced, 0, OM_PREF, 0.5, 2),
        lambda: find_obvious_manipulation(ced, 0, OM_PREF, 0.1, 2, grid_step=6),
        lambda: find_obvious_manipulation(
            simple_reallocation_from_claims(cea), 0, OM_PREF, F(1), 2,
            endowment=0.5,
        ),
    ],
)
def test_float_arguments_rejected(call):
    with pytest.raises(ValueError, match="decimal"):
        call()


# -- obviousness verdicts -------------------------------------------------------


def test_om_economy_verdict_exact_values():
    truth = option_set_sampled(ced, 0, OM_PREF, F(1), 2)
    misreport = option_set_sampled(ced, 0, SinglePeaked(F(0)), F(1), 2)
    verdict = is_obvious_manipulation(OM_PREF, truth, misreport)
    assert verdict.is_obvious
    assert verdict.w_truth == F(2, 3)
    assert verdict.w_misreport == F(1, 2)
    assert verdict.d_w_truth == 1
    assert verdict.d_w_misreport == F(1, 2)
    assert verdict.definition_agrees


def test_identical_option_sets_not_obvious():
    for rule in (ced, simple_from_claims(cel)):
        oset = option_set_sampled(rule, 0, OM_PREF, F(1), 2, grid_step=12)
        verdict = is_obvious_manipulation(OM_PREF, oset, oset)
        assert not verdict.is_obvious
        assert verdict.w_misreport == verdict.w_truth


def test_misreport_containing_equal_division_never_obvious():
    # every simple-rule option set contains omega/n, and every truthful
    # outcome is at least as good as omega/n, so nothing is obvious
    for rule in (simple_from_claims(cea), simple_from_claims(cel)):
        truth = option_set_sampled(rule, 0, OM_PREF, F(1), 2, grid_step=12)
        assert truth.outcomes[-1] == F(1, 2)
        for fake in (F(0), F(1, 4), F(3, 4), F(1)):
            misreport = option_set_sampled(
                rule, 0, SinglePeaked(fake), F(1), 2, grid_step=12
            )
            assert F(1, 2) in misreport.outcomes
            verdict = is_obvious_manipulation(OM_PREF, truth, misreport)
            assert not verdict.is_obvious
            assert verdict.w_truth == F(1, 2)


# -- search ---------------------------------------------------------------------


def test_find_manipulation_of_ced():
    cert = find_obvious_manipulation(ced, 0, OM_PREF, F(1), 2)
    assert cert is not None
    assert cert.misreport.peak == 0
    assert cert.verdict.w_truth == F(2, 3)
    assert cert.verdict.w_misreport == F(1, 2)


def test_find_manipulation_of_proportional():
    cert = find_obvious_manipulation(proportional, 0, OM_PREF, F(1), 2)
    assert cert is not None
    assert cert.misreport.peak == 0
    assert cert.verdict.d_w_truth == 2  # truthful worst is the whole endowment


def test_uniform_admits_no_obvious_manipulation():
    assert find_obvious_manipulation(uniform, 0, OM_PREF, F(1), 2) is None
    # also behind a wrapper, which the search samples
    assert (
        find_obvious_manipulation(
            wrapped(uniform), 0, OM_PREF, F(1), 2, grid_step=12
        )
        is None
    )


@pytest.mark.parametrize(
    "rule,step",
    [(ced, 60), (proportional, 12), (gallery("hat"), 20)],
    ids=["ced", "proportional", "hat"],
)
def test_a_certificate_misreports_a_shared_grid_preference(rule, step):
    # every search misreports the peak grid's own preferences, so the
    # certificate and its misreport set's witnesses hold that very object
    cert = find_obvious_manipulation(rule, 0, OM_PREF, F(1), 2, grid_step=step)
    shared = _grid_prefs(F(1), step)
    assert any(cert.misreport is pref for pref in shared)
    for economy in cert.oset_misreport.witnesses.values():
        assert economy.prefs[0] is cert.misreport


def test_a_one_step_grid_searches_both_peaks_beside_the_truth(monkeypatch):
    # grid(1, 1) is 0, 1 and 2: a true peak at omega = 1 leaves two
    # misreports, and a search that finds nothing samples both
    reports = []
    sampler = manipulation_module._sampler

    def recording(*args):
        sample = sampler(*args)

        def recorded(report, stop=None):
            reports.append(report)
            return sample(report, stop)

        return recorded

    monkeypatch.setattr(manipulation_module, "_sampler", recording)
    pref = SinglePeaked(F(1))
    rule = wrapped(uniform)
    assert find_obvious_manipulation(rule, 0, pref, F(1), 2, grid_step=1) is None
    low, _, high = _grid_prefs(F(1), 1)
    assert [report.peak for report in reports] == [1, 0, 2]
    assert reports[0] is pref and reports[1] is low and reports[2] is high


@pytest.mark.parametrize("step", [0, -3, True, 2.5, "6"])
def test_grid_prefs_refuse_a_bad_step_on_every_call(step):
    # the cache keeps no exception, so a second call is refused again
    for _ in range(2):
        with pytest.raises(ValueError, match="grid step denominator"):
            _grid_prefs(F(1), step)


def test_certificates_survive_grid_refinement():
    # refining the option grid must not flip an exhibited FAIL
    for rule in (ced, proportional):
        coarse = find_obvious_manipulation(
            rule, 0, OM_PREF, F(1), 2, grid_step=12
        )
        fine = find_obvious_manipulation(
            rule, 0, OM_PREF, F(1), 2, grid_step=12, option_grid_step=120
        )
        assert fine is not None
        assert fine.verdict.is_obvious
        assert fine.misreport is coarse.misreport


# -- NOM sweeps --------------------------------------------------------------------


def test_simple_rules_pass_nom_sweep():
    cases = nom_sweep(2, 40)
    for rule in (simple_from_claims(cea), simple_from_claims(cel)):
        report = check_nom(rule, cases)
        assert not report.failed
        assert report.checked == 40


def test_ced_fails_nom_with_om_certificate():
    report = check_nom(ced, nom_sweep(2, 5), grid_step=20, option_grid_step=20)
    assert report.failed
    cert = report.witness.detail
    assert cert.verdict.is_obvious
    assert cert.misreport.peak == 0


def test_hat_fails_nom_by_search():
    report = check_nom(
        gallery("hat"), nom_sweep(2, 6), grid_step=20, option_grid_step=20
    )
    assert report.failed
    assert report.witness.description.endswith("[SAMPLED]")


def test_nom_witness_economy_replays():
    report = check_nom(ced, nom_sweep(2, 5), grid_step=20, option_grid_step=20)
    cert = report.witness.detail
    econ = report.witness.economy
    assert cert.oset_misreport.rule(econ)[cert.agent] == cert.verdict.w_misreport


def assert_public(econ, rule, agent, outcome):
    """A sampler's economy is the public `Economy` of its profile in every
    observable way, and replays."""
    public = Economy(econ.prefs, econ.omega)
    assert econ == public and public == econ
    assert hash(econ) == hash(public)
    assert repr(econ) == repr(public)
    assert econ.peaks() == public.peaks()
    assert econ.equal_share == public.equal_share
    # every field, the integer profile too once both have read it
    assert econ._integer_profile() == public._integer_profile()
    assert list(vars(econ).items()) == list(vars(public).items())
    back = pickle.loads(pickle.dumps(econ))
    assert back == public and repr(back) == repr(public)
    assert (back.peaks(), back.equal_share) == (public.peaks(), public.equal_share)
    assert rule(public)[agent] == rule(back)[agent] == outcome


@pytest.mark.parametrize("n_values", [(), [], (1,), (2, 1), (3, 0)])
def test_nom_sweep_refuses_empty_or_small_n_values(n_values):
    with pytest.raises(ValueError, match="n_values must be nonempty, each n >= 2"):
        nom_sweep(0, 5, n_values=n_values)


@pytest.mark.parametrize("count", [10.5, 5.0, True, "12", None])
@pytest.mark.parametrize("sweep", [nom_sweep, standard_suite])
def test_sweeps_refuse_a_count_that_is_not_an_int(sweep, count):
    # a float count drew one case too many, and True the witnesses alone
    with pytest.raises(ValueError, match=f"whole number, got {count!r}"):
        sweep(0, count)


def test_sweeps_below_the_witness_count_return_the_witnesses():
    assert len(nom_sweep(0, -1)) == len(nom_sweep(0, 0)) == 4
    assert len(standard_suite(0, -1)) == len(standard_suite(0, 0)) == 8


def test_nom_sweep_stream_is_pinned():
    # (peak, slopes, omega, n, agent[, endowment]) of seeded sweeps
    cases = nom_sweep(7, 6, n_values=(3, 4))
    assert [
        (c.pref.peak, c.pref.left_slope, c.pref.right_slope, c.omega, c.n, c.agent)
        for c in cases
    ] == [
        (F(1, 3), 1, 3, 1, 3, 0),
        (0, 1, 1, 1, 3, 0),
        (F(6, 13), 1, 1, 3, 3, 2),
        (F(7, 38), 10, 1, 1, 4, 1),
        (F(13, 14), 1, 1, 1, 3, 0),
        (F(1, 4), 1, 3, 1, 4, 0),
    ]
    cases = nom_sweep(7, 3, n_values=(2, 5), with_endowments=True)
    assert [(c.pref.peak, c.omega, c.n, c.agent, c.endowment) for c in cases] == [
        (F(6, 13), 3, 2, 0, F(137, 53)),
        (F(259, 59), 3, 2, 1, F(1, 3)),
        (F(23, 16), 4, 2, 0, F(1, 4)),
    ]


def test_sampled_and_certificate_economies_equal_public_ones():
    cases = nom_sweep(3, 12, n_values=(2, 3, 4))
    rules = [ced, proportional] + list(GALLERY.values())
    certificates = 0
    for rule in rules:
        for case in cases:
            if case.n < rule.min_agents:
                continue
            args = (rule, case.agent, case.pref, case.omega, case.n)
            sets = [option_set_sampled(*args, grid_step=12)]
            if not rule.simple:
                certificate = find_obvious_manipulation(*args, grid_step=12)
                if certificate is not None:
                    certificates += 1
                    sets += [certificate.oset_true, certificate.oset_misreport]
            for oset in sets:
                for outcome, econ in oset.witnesses.items():
                    assert oset.replay(outcome)
                    assert_public(econ, rule, case.agent, outcome)
    assert certificates > 0


# -- the kernel path of sampled option sets ----------------------------------


def c04_cases():
    """The (peak, omega, n) cases of acceptance criterion c04, whose option
    sets are sampled for agent 0 on the default grid."""
    rng = random.Random(20)
    cases = []
    while len(cases) < 100:
        omega = F(rng.randint(1, 5))
        n = rng.randint(2, 6)
        den = rng.randint(1, 60)
        cases.append((F(rng.randint(0, 2 * omega.numerator * den), den), omega, n))
    return cases


def priority_first(cp):
    """A claims rule with no integer core: claimants in index order."""
    remaining, awards = cp.endowment, []
    for claim in cp.claims:
        awards.append(min(claim, remaining))
        remaining -= awards[-1]
    return Awards(tuple(awards))


def midway(econ):
    """A custom rule, halfway between uniform and ced."""
    amounts = [(u + c) / 2 for u, c in zip(uniform(econ), ced(econ))]
    return Allotment(tuple(amounts), econ.omega)


KERNEL_PATH_RULES = [
    # every registered rule but the reallocation rules, the spl: names included
    *(rule for rule in map(get_rule, RULE_NAMES) if rule.domain == DOMAIN_SP),
    simple_from_claims(priority_first, "simple:priority"),  # kernel, adapter core
    Rule("wrapped", lambda econ: uniform.allocate(econ)),  # no kernel
    Rule("midway", midway),
]


@functools.lru_cache(maxsize=None)
def c04_public_economies():
    """Each c04 case's report and the public `Economy` of every opponent
    profile of the oracle generator, in generation order."""
    cases = []
    for peak, omega, n in c04_cases():
        pref = SinglePeaked(peak)
        profiles = opponent_profiles_oracle(pref, omega, n, 60)
        economies = [Economy((pref,) + opponents, omega) for opponents in profiles]
        cases.append((pref, omega, n, economies))
    return cases


@pytest.mark.parametrize("rule", KERNEL_PATH_RULES, ids=lambda rule: rule.name)
def test_sampled_sets_equal_a_public_loop_on_c04_cases(rule):
    # the kernel path keeps the outcomes, the first witness of each and
    # their order of a loop over public economies on every c04 case; the
    # adapter, which calls the rule on those economies, on the first 25
    kernel = rule.name in ("uniform", "ced", "proportional")
    kernel = kernel or rule.name.startswith(("simple:", "spl:", "gallery:"))
    kernel = kernel and rule.name != "gallery:underline"  # reads a slope
    assert (rule.kernel is not None) == kernel
    for pref, omega, n, economies in c04_public_economies()[: 100 if kernel else 25]:
        if n < rule.min_agents:
            continue
        expected = {}
        for econ in economies:
            expected.setdefault(rule(econ)[0], econ)
        oset = option_set_sampled(rule, 0, pref, omega, n)
        assert list(oset.witnesses.items()) == list(expected.items())
        assert oset.outcomes == tuple(sorted(expected))


@pytest.mark.parametrize(
    "name", [name for name in RULE_NAMES if name != "gallery:underline"]
)
def test_rebuilt_kernel_rules_are_sampled_through_their_own_calls(name):
    # a wrapper of a kernel rule's allocate, which functools.wraps gives
    # that allocate's attributes, and every replace copy are not the Rule
    # the builder returned, so none has a kernel; on c04's first cases the
    # sampled sets of those that call another rule are a public loop's over
    # that rule, and every outcome replays
    rule = get_rule(name)
    assert rule.kernel is not None
    other = uniform if rule is proportional else proportional
    copies = [
        Rule("x", functools.wraps(rule.allocate)(other.allocate)),
        replace(rule, allocate=other.allocate),
        replace(rule, name="x"),
        replace(rule, min_agents=rule.min_agents),
    ]
    assert [copy.kernel for copy in copies] == [None] * 4
    for copy in copies[:2]:
        if copy.domain != DOMAIN_SP:
            continue  # sampled option sets have no endowments
        for pref, omega, n, economies in c04_public_economies()[:8]:
            if n < copy.min_agents:
                continue
            expected = {}
            for econ in economies:
                expected.setdefault(other(econ)[0], econ)
            oset = option_set_sampled(copy, 0, pref, omega, n)
            assert list(oset.witnesses.items()) == list(expected.items())
            assert oset.outcomes == tuple(sorted(expected))
            assert all(oset.replay(outcome) for outcome in oset.outcomes)


def test_a_wrapped_proportional_gets_c02s_certificate():
    # the probe carries uniform's allocate attributes but calls
    # proportional, so the search runs its calls and finds proportional's
    # certificate at c02's inputs (misreport peak 0), which replays, at the
    # default grid step and at 60
    probe = Rule(
        "p-wrapped", functools.wraps(uniform.allocate)(lambda e: proportional(e))
    )
    assert probe.kernel is None
    args = (0, two_agent_om_economy().prefs[0], F(1), 2)
    for grid in ({}, {"grid_step": 60}):
        certificate = find_obvious_manipulation(probe, *args, **grid)
        expected = find_obvious_manipulation(proportional, *args, **grid)
        assert certificate is not None and certificate.verdict.is_obvious
        assert certificate.misreport.peak == 0
        assert certificate.misreport == expected.misreport
        assert certificate.verdict == expected.verdict
        assert certificate.oset_true.replay(certificate.verdict.w_truth)
        assert certificate.oset_misreport.replay(certificate.verdict.w_misreport)
        for oset in (certificate.oset_true, certificate.oset_misreport):
            assert all(oset.replay(outcome) for outcome in oset.outcomes)


# -- witness economies built when read ---------------------------------------


def counting_economies(monkeypatch):
    """Every `Economy` built from now on, in order."""
    built = []
    post_init = Economy.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(Economy, "__post_init__", counted)
    return built


@pytest.mark.parametrize("name", ["ced", "proportional", "simple:cel"])
def test_kernel_sets_build_economies_only_for_the_domain_and_read_witnesses(
    name, monkeypatch
):
    rule = get_rule(name)
    built = counting_economies(monkeypatch)
    called = counting_calls(monkeypatch)
    off_grid_ends = 0
    for peak, omega, n in c04_cases()[:20]:
        pref = SinglePeaked(peak)
        off_grid_ends += any(
            x not in grid(omega, 60) for x in option_set_simple(peak, omega, n)
        )
        built.clear()
        called.clear()
        oset = option_set_sampled(rule, 0, pref, omega, n)
        # the domain check's economy alone, off-grid ends included: the
        # kernel runs on every profile and the rule is never called
        assert [e.prefs for e in built] == [(pref,) * n]
        assert called == []
        # a witness read once builds its economy once, through the public
        # constructor; every read returns the same object
        built.clear()
        for outcome in oset.outcomes:
            first = oset.witnesses[outcome]
            assert built[-1] is first
            assert oset.witnesses[outcome] is first
            assert oset.replay(outcome)
        assert len(built) == len(oset.outcomes)
        assert oset.witnesses == dict(oset.witnesses.items())
        assert len(built) == len(oset.outcomes)
    assert off_grid_ends > 0


def counting_preferences(monkeypatch):
    """Every `SinglePeaked` built from now on, in order."""
    built = []
    post_init = SinglePeaked.__post_init__

    def counted(self):
        post_init(self)
        built.append(self)

    monkeypatch.setattr(SinglePeaked, "__post_init__", counted)
    return built


@pytest.mark.parametrize("name", ["ced", "proportional", "simple:cel"])
def test_kernel_sets_build_off_grid_opponents_only_for_read_witnesses(
    name, monkeypatch
):
    # a peak of 1/7 at grid step 6 puts both ends of the option set, and so
    # their witness opponents, off the grid: the kernel runs on integers, so
    # no opponent preference is built until its witness is read
    rule, omega, pref = get_rule(name), F(1), SinglePeaked(F(1, 7))
    grid_prefs = _grid_prefs(omega, 6)
    built = counting_preferences(monkeypatch)
    read = 0
    for n in (2, 3, 4):
        built.clear()
        oset = option_set_sampled(rule, 0, pref, omega, n, 6)
        assert built == []
        for outcome in oset.outcomes:
            oset.witnesses[outcome]
        # each off-grid opponent peak is built once per witness economy
        assert all(p.peak not in grid(omega, 6) for p in built)
        economies = [oset.witnesses[x] for x in oset.outcomes]
        off_grid = [e for e in economies if e.prefs[1] not in grid_prefs]
        assert len(built) == len(off_grid)
        assert all(e.prefs[1] is e.prefs[-1] for e in off_grid)
        read += len(built)
    assert read > 0


def test_reading_a_kernel_less_rules_witnesses_builds_no_economy(monkeypatch):
    # a rule without a kernel runs on each profile's economy and keeps the
    # first of each outcome as its witness, so reading one builds nothing
    rule = gallery("underline")
    built = counting_economies(monkeypatch)
    for peak, omega, n in c04_cases()[:10]:
        if n < rule.min_agents:
            continue
        oset = option_set_sampled(rule, 0, SinglePeaked(peak), omega, n)
        sampled = {id(e) for e in built}
        built.clear()
        witnesses = [oset.witnesses[outcome] for outcome in oset.outcomes]
        assert built == []
        assert all(id(e) in sampled for e in witnesses)
        assert all(oset.replay(outcome) for outcome in oset.outcomes)
        built.clear()


def counting_calls(monkeypatch):
    """Every economy a `Rule` is called on from now on, in order."""
    called = []
    call = Rule.__call__

    def counted(self, econ):
        called.append(econ)
        return call(self, econ)

    monkeypatch.setattr(Rule, "__call__", counted)
    return called


def c07_nom_cases():
    """The NOM cases of acceptance criterion c07: seed 1, three per n."""
    return [case for n in (2, 3) for case in nom_sweep(1, 3, n_values=(n,))]


@pytest.mark.parametrize("rule", [ced, gallery("hat")], ids=["ced", "hat"])
def test_a_search_builds_one_domain_economy(rule, monkeypatch):
    # the sampler checks the domain once per search, on the true report,
    # and runs the kernel on every profile, off-grid ends included: every
    # other economy is a witness that is read, and the rule is never called
    built = counting_economies(monkeypatch)
    called = counting_calls(monkeypatch)
    ends = certificates = 0
    for case in c07_nom_cases():
        built.clear()
        found = find_obvious_manipulation(
            rule, case.agent, case.pref, case.omega, case.n, grid_step=20
        )
        assert [e.prefs for e in built] == [(case.pref,) * case.n]
        assert called == []
        ends += any(
            x not in grid(case.omega, 20)
            for x in option_set_simple(case.pref.peak, case.omega, case.n)
        )
        if found is not None:
            certificates += 1
            built.clear()
            osets = (found.oset_true, found.oset_misreport)
            read = [oset.witnesses[x] for oset in osets for x in oset.outcomes]
            assert len(built) == len(read)
            assert all(econ is witness for econ, witness in zip(built, read))
    assert ends > 0 and certificates > 0


# sampled kernel runs of c07's NOM cases per n, and the verdicts: a cheaper
# search setup must keep the same work. Every run is a kernel run, off-grid
# ends included, so no rule is called
C07_NOM_WORK = {
    "equal_division": {2: (247, "PPP"), 3: (313, "PPP")},
    "star": {3: (334, "PPP")},
    "hat": {2: (337, "FFF"), 3: (359, "PFP")},
}


@pytest.mark.parametrize("name", sorted(C07_NOM_WORK))
def test_c07_nom_searches_make_the_same_runs(name, monkeypatch):
    rule = gallery(name)
    runs = []

    def counted(*profile):
        runs.append(profile)
        return rule.kernel(*profile)

    # a copy whose sampled runs are counted; its calls run the own kernel
    probe = copy.copy(rule)
    object.__setattr__(probe, "kernel", counted)
    called = counting_calls(monkeypatch)
    for n, (kernel_runs, verdicts) in C07_NOM_WORK[name].items():
        runs.clear()
        got = "".join(
            check_nom(probe, [case], grid_step=20, option_grid_step=20).verdict[0]
            for case in nom_sweep(1, 3, n_values=(n,))
        )
        assert (len(runs), got) == (kernel_runs, verdicts)
        assert called == []


def test_a_verdict_asks_each_outcome_disutility_once():
    # two ends and their disutilities for each worst, then each outcome
    # once; asking both disutilities of every pair took 82, 454, 22 and
    # 232 calls on these four certificates
    hat, sizes = gallery("hat"), []
    for case in c07_nom_cases():
        found = find_obvious_manipulation(
            hat,
            case.agent,
            case.pref,
            case.omega,
            case.n,
            grid_step=20,
            option_grid_step=20,
        )
        if found is None:
            continue
        p = case.pref
        pref = CountingPeaked(p.peak, p.left_slope, p.right_slope)
        truth, mis = found.oset_true, found.oset_misreport
        assert is_obvious_manipulation(pref, truth, mis) == found.verdict
        assert len(pref.calls) <= len(truth.outcomes) + len(mis.outcomes) + 6
        sizes.append((len(truth.outcomes), len(mis.outcomes)))
    assert sizes == [(8, 6), (20, 18), (4, 2), (14, 12)]


stop_slopes = st.sampled_from(SLOPE_CATALOGUE) | st.tuples(
    st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20),
    st.fractions(min_value=F(1, 20), max_value=20, max_denominator=20),
)


@settings(max_examples=300, deadline=None)
@given(
    peak=st.fractions(min_value=0, max_value=5, max_denominator=30),
    slopes=stop_slopes,
    d_truth=st.just(F(0)) | st.fractions(min_value=0, max_value=10, max_denominator=30),
    outcome=st.fractions(min_value=0, max_value=10, max_denominator=30),
    on=st.sampled_from([None, "lo", "hi"]),
)
def test_the_integer_stop_test_is_the_disutility_test(
    peak, slopes, d_truth, outcome, on
):
    pref = SinglePeaked(peak, *slopes)
    if on == "lo":  # exactly on a bound, where the test must hold
        outcome = peak - d_truth / pref.left_slope
    elif on == "hi":
        outcome = peak + d_truth / pref.right_slope
    if outcome < 0:
        return
    no_better = _no_better(pref, d_truth)
    expected = pref.disutility(outcome) >= d_truth
    assert no_better(outcome.numerator, outcome.denominator) is expected
    assert expected or on is None


@pytest.mark.parametrize(
    "rule", [gallery("underline"), wrapped(ced)], ids=["underline", "wrapped ced"]
)
def test_rules_without_a_kernel_build_one_economy_per_profile(rule, monkeypatch):
    built = counting_economies(monkeypatch)
    for peak, omega, n in c04_cases()[:10]:
        if n < rule.min_agents:
            continue
        pref = SinglePeaked(peak)
        common, profiles = integer_profiles(peak, omega, n)
        built.clear()
        oset = option_set_sampled(rule, 0, pref, omega, n)
        # the rule checks its domain on every call, so no economy is built
        # for a domain check: one per profile, in generation order
        expected = [(pref, *opponents(common, profile)) for profile in profiles]
        assert [e.prefs for e in built] == expected
        # every witness is the economy its outcome was first found on
        sampled = list(built)
        built.clear()
        for outcome in oset.outcomes:
            first = oset.witnesses[outcome]
            assert any(first is e for e in sampled)
            assert oset.witnesses[outcome] is first
        assert built == []


def test_witnesses_read_like_the_dict_they_replace():
    oset = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=6)
    plain = dict(oset.witnesses.items())
    assert oset.witnesses == plain and plain == oset.witnesses
    assert repr(oset.witnesses) == repr(plain)
    assert list(oset.witnesses) == list(plain) and len(oset.witnesses) == len(plain)
    assert F(1, 2) in oset.witnesses and F(1, 7) not in oset.witnesses
    assert oset.witnesses.get(F(1, 7)) is None
    with pytest.raises(KeyError):
        oset.witnesses[F(1, 7)]
    with pytest.raises(TypeError):
        oset.witnesses[F(1, 2)] = plain[F(1, 2)]
    other = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=6)
    assert other == oset
    assert other != option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=12)


REPR_SOURCE = """
from fractions import Fraction as F
from allotment.manipulation import option_set_sampled
from allotment.preferences import SinglePeaked
from allotment.rules import ced
pref = SinglePeaked(F(1, 3), F(1), F(3))
print(repr(option_set_sampled(ced, 0, pref, F(1), 3, grid_step=4)))
"""


def test_sampled_set_repr_is_the_same_in_every_process():
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(REPR_SOURCE, {})
    assert "0x" not in here.getvalue()
    src = str(Path(manipulation_module.__file__).parents[1])
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        there = subprocess.run(
            [sys.executable, "-c", REPR_SOURCE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert there.stdout == here.getvalue()


@pytest.mark.parametrize(
    "rule, message",
    [
        (get_rule("realloc:cea"), "rule realloc:cea needs individual endowments"),
        (
            Rule("x", uniform.allocate, domain=DOMAIN_SP_ENDOWMENTS),
            "rule x needs individual endowments",
        ),
    ],
    ids=["realloc", "kernel on endowments"],
)
def test_sampled_domain_refused_once_per_set(rule, message, monkeypatch):
    checks = []
    check_domain = Rule.check_domain

    def counted(self, econ):
        checks.append(econ)
        return check_domain(self, econ)

    monkeypatch.setattr(Rule, "check_domain", counted)
    with pytest.raises(ValueError) as refused:
        option_set_sampled(rule, 0, HALF, F(1), 3, grid_step=6)
    assert str(refused.value) == message
    assert len(checks) == 1
    # a kernel rule's accepted set checks its domain once too, an spl: rule's
    # as its simple twin's
    for accepted in (uniform, get_rule("spl:cea")):
        checks.clear()
        option_set_sampled(accepted, 0, HALF, F(1), 3, grid_step=6)
        assert len(checks) == 1


@pytest.mark.parametrize("name", ["uniform", "ced", "proportional", "simple:cel"])
def test_each_kernel_call_is_checked(name, monkeypatch):
    # every kernel run has its awards (a simple rule's) and its amounts
    # checked, once each
    awards, feasible = [], []

    def counting(calls, check):
        def counted(*args):
            calls.append(args)
            return check(*args)

        return counted

    monkeypatch.setattr(
        rules_module, "_check_awards", counting(awards, rules_module._check_awards)
    )
    monkeypatch.setattr(
        manipulation_module,
        "_check_feasible",
        counting(feasible, manipulation_module._check_feasible),
    )
    rule = get_rule(name)
    for peak, omega, n in c04_cases()[:10]:
        pref = SinglePeaked(peak)
        awards.clear()
        feasible.clear()
        option_set_sampled(rule, 0, pref, omega, n)
        profiles = len(integer_profiles(peak, omega, n)[1])
        assert len(feasible) == profiles
        assert len(awards) == (profiles if rule.simple else 0)


def test_definition_and_worst_case_forms_agree_across_grid():
    truth = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=12)
    for k in range(0, 25):
        fake = F(k, 12)
        if fake == OM_PREF.peak:
            continue
        mis = option_set_sampled(ced, 0, SinglePeaked(fake), F(1), 2, grid_step=12)
        verdict = is_obvious_manipulation(OM_PREF, truth, mis)
        assert verdict.definition_agrees
    # the every-outcome form reads no worst, so it checks the two-ends
    # worsts on every pair of two sampled rules' c07 sets at n = 3
    pairs = obvious = 0
    for rule in (gallery("hat"), gallery("star")):
        for case in nom_sweep(1, 3, n_values=(3,)):
            args = (case.omega, case.n)
            truth = option_set_sampled(rule, case.agent, case.pref, *args, 20)
            for fake in grid(case.omega, 20):
                if fake == case.pref.peak:
                    continue
                report = SinglePeaked(fake)
                mis = option_set_sampled(rule, case.agent, report, *args, 20)
                verdict = is_obvious_manipulation(case.pref, truth, mis)
                assert verdict.definition_agrees, (rule.name, case, fake)
                pairs += 1
                obvious += verdict.is_obvious
    assert (pairs, obvious) == (244, 17)


def test_endowment_cases_need_endowment():
    rule = simple_reallocation_from_claims(cea)
    with pytest.raises(ValueError):
        find_obvious_manipulation(rule, 0, OM_PREF, F(1), 2)


def test_too_few_agents_rejected():
    # a simple rule's search never runs the rule, so the size check must not
    # rely on it
    bar = gallery("bar")
    for rule in (bar, wrapped(bar)):
        with pytest.raises(ValueError, match="at least 3 agents"):
            find_obvious_manipulation(rule, 0, OM_PREF, F(1), 2, grid_step=6)
    assert find_obvious_manipulation(bar, 0, OM_PREF, F(1), 3, grid_step=6) is None


@pytest.mark.parametrize("omega", [F(0), F(-1), F(-1, 60)])
@pytest.mark.parametrize("rule", [uniform, ced], ids=["exact", "sampled"])
def test_nonpositive_omega_refused_on_both_paths(rule, omega):
    # a simple rule's search never builds an economy, so it must not pass
    # NOM vacuously on an omega that `Economy` refuses
    pref = SinglePeaked(F(1, 2))
    with pytest.raises(ValueError, match="^the social endowment must be positive$"):
        find_obvious_manipulation(rule, 0, pref, omega, 3)
    with pytest.raises(ValueError, match="^the social endowment must be positive$"):
        option_set_sampled(rule, 0, pref, omega, 3)


@pytest.mark.parametrize(
    "rule, pref, n, message",
    [
        (ced, OM_PREF, 1, "rule ced needs at least 2 agents, got 1"),
        (replace(ced, min_agents=1), OM_PREF, 1, "an economy needs at least two agents"),
        (gallery("bar"), OM_PREF, 2, "rule gallery:bar needs at least 3 agents, got 2"),
        (
            ced,
            SinglePlateaued(F(1, 4), F(1, 2)),
            2,
            "sampled option sets need a single-peaked report, got SinglePlateaued",
        ),
        (
            get_rule("spl:cea"),
            SinglePlateaued(F(1, 4), F(1, 2)),
            2,
            "sampled option sets need a single-peaked report, got SinglePlateaued",
        ),
    ],
    ids=["n=1", "n=1, min_agents=1", "below min_agents", "plateau", "plateau, spl"],
)
def test_sampled_option_set_refuses_before_building_families(rule, pref, n, message):
    # the refusal comes before the sampler looks up the grid's preferences
    _grid_prefs.cache_clear()
    with pytest.raises(ValueError) as refused:
        option_set_sampled(rule, 0, pref, F(1), n, grid_step=6)
    assert str(refused.value) == message
    assert _grid_prefs.cache_info().currsize == 0


def test_one_agent_refused_for_a_simple_rule_too():
    # a simple rule's search builds no economy, so it must not pass NOM
    # vacuously on a single agent
    lone = rules_module._simple_rule(_cea, "lone", min_agents=1)
    assert lone.simple
    with pytest.raises(ValueError, match="^an economy needs at least two agents$"):
        find_obvious_manipulation(lone, 0, OM_PREF, F(1), 1)


@pytest.mark.parametrize("rule", [uniform, ced], ids=["exact", "sampled"])
def test_agent_index_checked_on_both_paths(rule):
    for agent in (2, 5, -1):
        with pytest.raises(ValueError, match="out of range"):
            find_obvious_manipulation(rule, agent, OM_PREF, F(1), 2, grid_step=6)
    with pytest.raises(ValueError, match="out of range"):
        check_nom(rule, [NomCase(OM_PREF, F(1), 2, agent=7)], grid_step=6)


HALF = SinglePeaked(F(1, 2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: option_set_simple(F(1, 2), 1, 2.5), "whole number of agents, got 2.5"),
        (
            lambda: option_set_sampled(ced, 0, HALF, 1, 2.5),
            "whole number of agents, got 2.5",
        ),
        (
            lambda: find_obvious_manipulation(uniform, 0, HALF, 1, 2.5),
            "whole number of agents, got 2.5",
        ),
        (
            lambda: find_obvious_manipulation(ced, 0, HALF, 1, 2.5),
            "whole number of agents, got 2.5",
        ),
        (
            lambda: find_obvious_manipulation(gallery("bar"), 0, HALF, 1, "3"),
            "whole number of agents, got '3'",
        ),
        (
            lambda: find_obvious_manipulation(uniform, 0.0, HALF, 1, 2),
            "agent index must be an int, got 0.0",
        ),
        (
            lambda: option_set_sampled(ced, 0.0, HALF, 1, 2),
            "agent index must be an int, got 0.0",
        ),
        (
            lambda: nom_sweep(0, 3, n_values=(2.5,)),
            "n_values must be nonempty, each n >= 2 an int",
        ),
        # a bool is an int to Python, but no agent count or index
        (
            lambda: option_set_sampled(ced, True, HALF, 1, 2),
            "agent index must be an int, got True",
        ),
        (
            lambda: find_obvious_manipulation(ced, False, HALF, 1, 2),
            "agent index must be an int, got False",
        ),
        (
            lambda: option_set_sampled(ced, 0, HALF, 1, True),
            "whole number of agents, got True",
        ),
        (
            lambda: find_obvious_manipulation(uniform, 0, HALF, 1, True),
            "whole number of agents, got True",
        ),
        (lambda: _checked_size(True, 1), "whole number of agents, got True"),
    ],
    ids=[
        "option_set_simple n",
        "option_set_sampled n",
        "exact search n",
        "sampled search n",
        "string n",
        "exact search agent",
        "option_set_sampled agent",
        "nom_sweep n",
        "option_set_sampled bool agent",
        "sampled search bool agent",
        "option_set_sampled bool n",
        "exact search bool n",
        "economy size bool n",
    ],
)
def test_non_integer_agent_count_or_index_refused(call, message):
    # a float n would leak floats into an exact interval, or pass NOM on
    # an economy that cannot exist
    with pytest.raises(ValueError, match=message):
        call()


def test_rule_takes_no_simple_flag():
    # no caller can declare a rule simple: the flag is derived
    with pytest.raises(TypeError, match="simple"):
        Rule("fake", proportional.allocate, simple=True)
    with pytest.raises(ValueError, match="simple"):
        replace(uniform, simple=False)


def test_rule_takes_no_kernel():
    # no caller can declare a kernel: only `rules._kernel_rule` sets one
    with pytest.raises(TypeError, match="kernel"):
        Rule("fake", proportional.allocate, kernel=uniform.kernel)
    with pytest.raises(ValueError, match="kernel"):
        replace(proportional, kernel=uniform.kernel)


def test_bar_under_two_agents_is_searched_and_refused_at_its_trigger():
    # neither copy is the Rule the builder returned, so neither is simple:
    # the search runs the rule, whose award check refuses bar's trigger
    bar = gallery("bar")
    message = re.escape("award -1/6 outside [0, 1/2]")
    for rule in (Rule("bar2", bar.allocate), replace(bar, min_agents=2)):
        assert not rule.simple
        with pytest.raises(AssertionError, match=message):
            find_obvious_manipulation(rule, 0, SinglePeaked(1), 1, 2, grid_step=12)


def test_proportional_under_another_name_is_searched_and_fails_nom():
    fake = Rule("fake", proportional.allocate)
    assert not fake.simple
    report = check_nom(fake, nom_sweep(10, 20))
    assert report.failed
    certificate = report.witness.detail
    agent, verdict = certificate.agent, certificate.verdict
    assert certificate.oset_true.replay(verdict.w_truth)
    assert certificate.oset_misreport.replay(verdict.w_misreport)
    assert fake(report.witness.economy)[agent] == verdict.w_misreport
    assert report.witness.economy.prefs[agent] == certificate.misreport


@pytest.mark.parametrize("endowment", [F(5), F(-1, 3)])
def test_endowments_outside_zero_omega_refused(endowment):
    realloc = get_rule("realloc:cea")
    with pytest.raises(ValueError, match="outside"):
        find_obvious_manipulation(realloc, 0, OM_PREF, F(1), 2, endowment=endowment)
    # the ends of [0, omega] are endowments
    for edge in (F(0), F(1)):
        assert (
            find_obvious_manipulation(realloc, 0, OM_PREF, F(1), 2, endowment=edge)
            is None
        )


def test_endowment_range_checked_off_the_reallocation_domain():
    # a value outside [0, omega] is refused as such for every rule, and
    # only a reallocation rule, which reads it, takes one at all
    with pytest.raises(ValueError, match="outside"):
        find_obvious_manipulation(uniform, 0, OM_PREF, F(1), 2, endowment=F(5))
    with pytest.raises(ValueError, match="outside"):
        find_obvious_manipulation(
            ced, 0, OM_PREF, F(1), 2, grid_step=6, endowment=F(-3)
        )
    with pytest.raises(ValueError, match="only reallocation rules"):
        find_obvious_manipulation(uniform, 0, OM_PREF, F(1), 2, endowment=F(1))


def test_grid_refuses_a_float_omega():
    with pytest.raises(RationalParseError, match="decimal"):
        grid(0.1, 3)


def test_random_draws_refuse_a_float_bound():
    # a float bound used to be drawn from silently (0.1 gave 3/55 at seed 0)
    for draw in (random_rational, random_preference):
        with pytest.raises(RationalParseError, match="decimal"):
            draw(random.Random(0), 0.1)
    assert random_rational(random.Random(0), F(1, 10)) == F(3, 55)


def test_reallocation_rule_without_simple_flag_refused():
    # sampled option sets draw no endowments, so the rule refuses every
    # sampled economy instead of yielding a verdict
    rule = wrapped(get_rule("realloc:cea"))
    for endowment in (None, F(1, 2)):
        with pytest.raises(ValueError, match="needs individual endowments"):
            find_obvious_manipulation(
                rule, 0, OM_PREF, F(1), 2, grid_step=6, endowment=endowment
            )


def test_check_nom_without_eligible_cases_reports_no_cases():
    # gallery:bar needs three agents, so the two-agent case is skipped
    report = check_nom(gallery("bar"), [NomCase(OM_PREF, F(1), 2)], grid_step=6)
    assert (report.verdict, report.checked, report.failed) == (NO_CASES, 0, False)
    assert check_nom(uniform, [], grid_step=6).verdict == NO_CASES


@pytest.mark.parametrize(
    "rule,cases,steps,bad",
    [
        (uniform, [], (0, None), 0),
        (gallery("star"), [NomCase(SinglePeaked(F(1, 3)), F(1), 2)], (0, None), 0),
        (uniform, [], (6, -1), -1),
    ],
    ids=["no cases", "skipped case", "option grid"],
)
def test_check_nom_refuses_a_bad_grid_without_a_search(rule, cases, steps, bad):
    # no case is searched, so the scan itself refuses the grid a search
    # would have refused, in the same text
    with pytest.raises(ValueError) as expected:
        _check_grid_step(bad)
    with pytest.raises(ValueError) as refused:
        check_nom(rule, cases, grid_step=steps[0], option_grid_step=steps[1])
    assert str(refused.value) == str(expected.value)


def test_reallocation_rules_pass_nom_sweep():
    cases = nom_sweep(3, 40, with_endowments=True)
    rule = simple_reallocation_from_claims(cel)
    report = check_nom(rule, cases)
    assert not report.failed


def test_plateaued_true_preference_rejected():
    pref = SinglePlateaued(F(1, 4), F(1, 2))
    for rule in (uniform, ced):
        with pytest.raises(ValueError, match="single-peaked"):
            find_obvious_manipulation(rule, 0, pref, F(1), 2, grid_step=6)


@pytest.mark.parametrize("rule", [uniform, ced], ids=["simple", "sampled"])
def test_both_doors_refuse_a_plateau_report_in_one_text(rule):
    pref = SinglePlateaued(F(1, 4), F(1, 2))
    message = "sampled option sets need a single-peaked report, got SinglePlateaued"
    for door in (option_set_sampled, find_obvious_manipulation):
        with pytest.raises(ValueError) as refused:
            door(rule, 0, pref, F(1), 2, grid_step=6)
        assert str(refused.value) == message


@pytest.mark.parametrize("step", [0, -3, True, 2.5, "6"])
def test_empty_grids_rejected(step):
    with pytest.raises(ValueError, match="at least 1"):
        grid(F(1), step)
    with pytest.raises(ValueError):
        find_obvious_manipulation(uniform, 0, OM_PREF, F(1), 2, grid_step=step)
    # an explicit bad option grid is refused, not replaced by grid_step,
    # also for a simple rule, whose search is skipped
    for rule in (uniform, ced):
        with pytest.raises(ValueError, match="at least 1"):
            find_obvious_manipulation(
                rule, 0, OM_PREF, F(1), 2, grid_step=6, option_grid_step=step
            )
        # and a bad misreport grid beside a good option grid
        with pytest.raises(ValueError, match="at least 1"):
            find_obvious_manipulation(
                rule, 0, OM_PREF, F(1), 2, grid_step=step, option_grid_step=6
            )
    # and a sampled option set's grid, before any profile is built
    with pytest.raises(ValueError, match="at least 1"):
        option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=step)


# -- simple rules decided by the reference point -----------------------------


def test_simple_rule_check_builds_no_grid():
    # a simple rule's search is skipped, so only its grid steps are checked
    # and the peak grid's shared preferences are neither built nor looked up
    cases = nom_sweep(5, 8)
    before = _grid_prefs.cache_info()
    report = check_nom(get_rule("simple:cea"), cases, grid_step=7, option_grid_step=9)
    assert not report.failed
    after = _grid_prefs.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


EXACT_REGISTERED = [get_rule(name) for name in RULE_NAMES if get_rule(name).simple]


@pytest.mark.parametrize("grid_step", [60, 250], ids=["grid", "250"])
def test_exact_search_reads_no_misreport_for_genuine_preferences(grid_step):
    # the reference point is the truthful worst and lies in every option
    # set, so a simple rule's verdict reads no disutility at all
    sweeps = [
        (False, nom_sweep(21, 25, n_values=(2, 3, 4))),
        (True, nom_sweep(22, 25, n_values=(2, 3, 4), with_endowments=True)),
    ]
    searched = 0
    for rule in EXACT_REGISTERED:
        endowed = rule.domain == DOMAIN_SP_ENDOWMENTS
        for with_endowments, cases in sweeps:
            if with_endowments != endowed:
                continue
            for case in cases:
                if case.n < rule.min_agents:
                    continue
                p = case.pref
                pref = CountingPeaked(p.peak, p.left_slope, p.right_slope)
                found = find_obvious_manipulation(
                    rule,
                    case.agent,
                    pref,
                    case.omega,
                    case.n,
                    grid_step=grid_step,
                    endowment=case.endowment,
                )
                assert found is None, (rule.name, case)
                assert pref.calls == [], (rule.name, case, pref.calls)
                searched += 1
    assert searched >= 200


@settings(max_examples=300, deadline=None)
@given(
    peak=st.fractions(min_value=0, max_value=20, max_denominator=12),
    left=st.fractions(min_value=F(1, 12), max_value=100, max_denominator=12),
    right=st.fractions(min_value=F(1, 12), max_value=100, max_denominator=12),
    omega=st.fractions(min_value=F(1, 12), max_value=10, max_denominator=12),
    n=st.integers(2, 8),
    share=st.none() | st.fractions(min_value=0, max_value=1, max_denominator=12),
)
def test_reference_point_is_the_worst_truthful_outcome(
    peak, left, right, omega, n, share
):
    # the paper's NOM claim in endpoint form: r lies in every option set
    # and is no better than either truthful end, so no misreport's worst
    # outcome can beat the truthful worst
    pref = SinglePeaked(peak, left, right)
    if share is None:
        reference = omega / n
        lo, hi = option_set_simple(peak, omega, n)
    else:
        # the reallocation domain's interval, around the agent's endowment
        reference = share * omega
        capped = min(peak, omega)
        lo, hi = min(reference, capped), max(reference, capped)
    assert lo <= reference <= hi
    worst_end = max(pref.disutility(lo), pref.disutility(hi))
    assert pref.disutility(reference) >= worst_end


# -- sampled search against the full-option-set oracle ------------------------


SAMPLED_RULES = [
    gallery("equal_division"),
    gallery("star"),
    gallery("hat"),
    gallery("underline"),
    ced,
    proportional,
    wrapped(uniform),
]


def test_sampled_search_matches_oracle():
    # seed 12 past its four leading witnesses, which seed 11 already has
    cases = nom_sweep(11, 6) + nom_sweep(12, 8)[4:]
    fired = searched = 0
    for rule in SAMPLED_RULES:
        for case in cases:
            if case.n < rule.min_agents:
                continue
            searched += 1
            peaks = grid(case.omega, 20)
            found = find_obvious_manipulation(
                rule, case.agent, case.pref, case.omega, case.n, grid_step=20
            )
            expected = sampled_nom_oracle(
                rule, case.agent, case.pref, case.omega, case.n, peaks, 20
            )
            if expected is None:
                assert found is None, (rule.name, case)
                continue
            fired += 1
            misreport, oset_true, oset_mis, verdict = expected
            assert found.misreport == misreport
            assert found.oset_true.outcomes == oset_true.outcomes
            assert found.oset_true.witnesses == oset_true.witnesses
            assert found.oset_true == oset_true
            assert found.oset_misreport.outcomes == oset_mis.outcomes
            assert found.oset_misreport.witnesses == oset_mis.witnesses
            assert found.oset_misreport == oset_mis
            assert found.verdict == verdict
    # 66 searches, 18 of them certificates, at the time of writing
    assert searched >= 60
    assert fired >= 15


def counting(rule):
    calls = []

    def allocate(econ):
        calls.append(econ)
        return rule(econ)

    return Rule(rule.name, allocate, rule.domain, min_agents=rule.min_agents), calls


def test_sampled_search_stops_before_full_option_sets():
    rule, calls = counting(uniform)
    peaks = grid(F(1), 12)
    args = (rule, 0, OM_PREF, F(1), 2)
    assert find_obvious_manipulation(*args, grid_step=12) is None
    searched = len(calls)
    calls.clear()
    assert sampled_nom_oracle(*args, peaks, 12) is None
    assert searched < len(calls)


# -- metamorphic relations of the sampler, through public calls only ---------------

METAMORPHIC_RULES = [
    get_rule(name)
    for name in RULE_NAMES
    if not name.startswith(("realloc:", "spl:"))
] + [sequential_rule("mid"), sequential_rule("quarter")]
METAMORPHIC_CASES = nom_sweep(3, 30, n_values=(2, 3, 4))
SCALES = [F(7, 3), F(2, 9), F(5)]


def metamorphic_runs():
    """(rule, case) for every rule and every case it takes."""
    return [
        (rule, case)
        for rule in METAMORPHIC_RULES
        for case in METAMORPHIC_CASES
        if case.n >= rule.min_agents
    ]


def scaled_report(pref, scale):
    return SinglePeaked(scale * pref.peak, pref.left_slope, pref.right_slope)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_scaling_omega_and_the_report_scales_the_sampled_set(scale):
    for rule, case in metamorphic_runs():
        args = (rule, case.agent, case.pref, case.omega, case.n)
        outcomes = option_set_sampled(*args, grid_step=6).outcomes
        scaled = option_set_sampled(
            rule,
            case.agent,
            scaled_report(case.pref, scale),
            scale * case.omega,
            case.n,
            grid_step=6,
        )
        assert scaled.outcomes == tuple(scale * o for o in outcomes), (rule, case)


def test_a_sampled_set_is_a_subset_of_the_set_at_twice_the_grid():
    for rule, case in metamorphic_runs():
        args = (rule, case.agent, case.pref, case.omega, case.n)
        coarse = option_set_sampled(*args, grid_step=6).outcomes
        fine = option_set_sampled(*args, grid_step=12).outcomes
        assert set(coarse) <= set(fine), (rule, case)


@pytest.mark.parametrize("scale", SCALES, ids=str)
def test_a_certificate_misreport_scales_with_omega_and_the_report(scale):
    fired = 0
    for rule, case in metamorphic_runs():
        steps = {"grid_step": 6, "option_grid_step": 6}
        found = find_obvious_manipulation(
            rule, case.agent, case.pref, case.omega, case.n, **steps
        )
        scaled = find_obvious_manipulation(
            rule,
            case.agent,
            scaled_report(case.pref, scale),
            scale * case.omega,
            case.n,
            **steps,
        )
        assert (found is None) == (scaled is None), (rule, case)
        if found is not None:
            fired += 1
            assert scaled.misreport.peak == scale * found.misreport.peak
    assert fired  # some certificate was scaled
