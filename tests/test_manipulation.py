from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from allotment.claims import cea, cel, pro
from allotment.manipulation import (
    check_nom,
    demonstrate_manipulation,
    find_obvious_manipulation,
    is_obvious_manipulation,
    NomCase,
    nom_sweep,
    ObviousManipulation,
    option_set_sampled,
    option_set_simple,
    OptionSetInterval,
)
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rules import (
    ced,
    gallery,
    proportional,
    sequential_rule,
    simple_from_claims,
    simple_reallocation_from_claims,
    uniform,
)
from allotment.sampling import SLOPE_CATALOGUE, grid
from helpers import MislabelledPeak, exact_nom_oracle

OM_PREF = SinglePeaked(F(1, 3), F(1), F(3))


# -- exact option sets -------------------------------------------------------


def test_option_set_below_equal_division():
    assert option_set_simple(F(1, 3), F(1), 2) == OptionSetInterval(
        F(1, 3), F(1, 2)
    )


def test_option_set_degenerate_at_equal_division():
    assert option_set_simple(F(1, 2), F(1), 2) == OptionSetInterval(
        F(1, 2), F(1, 2)
    )


def test_option_set_above_equal_division():
    assert option_set_simple(F(3, 4), F(1), 2) == OptionSetInterval(
        F(1, 2), F(3, 4)
    )


def test_option_set_caps_peak_at_omega():
    # feasibility truncates unattainably large peaks
    assert option_set_simple(F(3), F(1), 2) == OptionSetInterval(F(1, 2), F(1))


def test_endowment_option_set():
    assert option_set_simple(F(3, 4), F(1), 2, F(1, 4)) == OptionSetInterval(
        F(1, 4), F(3, 4)
    )


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
        interval = option_set_simple(peak, F(1), 2)
        assert all(x in interval for x in s.outcomes)
        assert interval.lo in s.outcomes
        assert interval.hi in s.outcomes


def test_sampled_ced_peak_zero_capped_at_half():
    s = option_set_sampled(ced, 0, SinglePeaked(F(0)), F(1), 2)
    assert max(s.outcomes) == F(1, 2)
    witness = s.witnesses[F(1, 2)]
    assert witness.prefs[1].peak == 0


def test_sampled_outcomes_replay_exactly():
    s = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=20)
    for outcome in s.outcomes:
        assert s.replay(outcome)


def test_inf_peak_opponents_rejected():
    from allotment.preferences import INF

    with pytest.raises(ValueError):
        option_set_sampled(ced, 0, SinglePeaked(INF), F(1), 2)


# -- obviousness verdicts -------------------------------------------------------


def test_om_economy_verdict_exact_values():
    truth = option_set_sampled(ced, 0, OM_PREF, F(1), 2)
    misreport = option_set_sampled(ced, 0, SinglePeaked(F(0)), F(1), 2)
    verdict = is_obvious_manipulation(OM_PREF, truth, misreport)
    assert verdict.is_obvious
    assert verdict.is_manipulation
    assert verdict.w_truth == F(2, 3)
    assert verdict.w_misreport == F(1, 2)
    assert verdict.d_w_truth == 1
    assert verdict.d_w_misreport == F(1, 2)
    assert verdict.definition_agrees


def test_identical_option_sets_not_obvious():
    interval = option_set_simple(F(1, 3), F(1), 2)
    verdict = is_obvious_manipulation(OM_PREF, interval, interval)
    assert not verdict.is_obvious


def test_misreport_containing_equal_division_never_obvious():
    # every simple-rule option set contains omega/n, and every truthful
    # outcome is at least as good as omega/n, so nothing is obvious
    truth = option_set_simple(F(1, 3), F(1), 2)
    for fake in (F(0), F(1, 4), F(3, 4), F(1)):
        misreport = option_set_simple(fake, F(1), 2)
        verdict = is_obvious_manipulation(OM_PREF, truth, misreport)
        assert not verdict.is_obvious


def test_mixed_exactness_rejected():
    truth = option_set_simple(F(1, 3), F(1), 2)
    sampled = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=12)
    with pytest.raises(ValueError):
        is_obvious_manipulation(OM_PREF, truth, sampled)


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
    # also under forced sampling, which exercises the rule itself
    assert (
        find_obvious_manipulation(
            uniform, 0, OM_PREF, F(1), 2, grid_step=12, force_sampled=True
        )
        is None
    )


def test_certificates_survive_grid_refinement():
    # enlarging both grids must not flip an exhibited FAIL
    for rule in (ced, proportional):
        coarse = find_obvious_manipulation(
            rule, 0, OM_PREF, F(1), 2, grid_step=12
        )
        fine = find_obvious_manipulation(
            rule,
            0,
            OM_PREF,
            F(1),
            2,
            misreport_peaks=[coarse.misreport.peak],
            option_grid_step=120,
        )
        assert fine is not None
        assert fine.verdict.is_obvious


def test_demonstrate_manipulation_from_witnesses():
    misreport = option_set_sampled(ced, 0, SinglePeaked(F(0)), F(1), 2)
    witness_econ = demonstrate_manipulation(OM_PREF, misreport)
    assert witness_econ is not None
    # strictly profitable at that very profile
    honest = ced(witness_econ.replace_pref(0, OM_PREF))[0]
    misled = ced(witness_econ)[0]
    assert OM_PREF.disutility(misled) < OM_PREF.disutility(honest)


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
    assert report.witness.detail.verdict.exactness == "SAMPLED"


def test_nom_witness_economy_replays():
    report = check_nom(ced, nom_sweep(2, 5), grid_step=20, option_grid_step=20)
    cert = report.witness.detail
    econ = report.witness.economy
    assert cert.oset_misreport.rule(econ)[cert.agent] == cert.verdict.w_misreport


def test_definition_and_worst_case_forms_agree_across_grid():
    truth = option_set_sampled(ced, 0, OM_PREF, F(1), 2, grid_step=12)
    for k in range(0, 25):
        fake = F(k, 12)
        if fake == OM_PREF.peak:
            continue
        mis = option_set_sampled(ced, 0, SinglePeaked(fake), F(1), 2, grid_step=12)
        verdict = is_obvious_manipulation(OM_PREF, truth, mis)
        assert verdict.definition_agrees


def test_endowment_cases_need_endowment():
    rule = simple_reallocation_from_claims(cea)
    with pytest.raises(ValueError):
        find_obvious_manipulation(rule, 0, OM_PREF, F(1), 2)


def test_too_few_agents_rejected():
    # the exact path never runs the rule, so the size check must not rely on it
    bar = gallery("bar")
    for force_sampled in (False, True):
        with pytest.raises(ValueError, match="at least 3 agents"):
            find_obvious_manipulation(
                bar, 0, OM_PREF, F(1), 2, grid_step=6, force_sampled=force_sampled
            )
    assert find_obvious_manipulation(bar, 0, OM_PREF, F(1), 3, grid_step=6) is None


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


@pytest.mark.parametrize("step", [0, -3])
def test_empty_grids_rejected(step):
    with pytest.raises(ValueError, match="at least 1"):
        grid(F(1), step)
    with pytest.raises(ValueError):
        find_obvious_manipulation(uniform, 0, OM_PREF, F(1), 2, grid_step=step)
    # an explicit bad option grid is refused, not replaced by grid_step
    with pytest.raises(ValueError):
        find_obvious_manipulation(
            ced, 0, OM_PREF, F(1), 2, grid_step=6, option_grid_step=step
        )


# -- exact search against the per-misreport oracle ----------------------------


EXACT_RULES = [uniform, simple_from_claims(cel), sequential_rule("quarter")]
REALLOC_RULES = [simple_reallocation_from_claims(c) for c in (cea, cel, pro)]


def assert_matches_oracle(rule, case, peaks):
    found = find_obvious_manipulation(
        rule,
        case.agent,
        case.pref,
        case.omega,
        case.n,
        misreport_peaks=peaks,
        endowment=case.endowment,
    )
    expected = exact_nom_oracle(
        rule, case.pref, case.omega, case.n, peaks, case.endowment
    )
    if expected is None:
        assert found is None
        return found
    peak, oset_true, oset_mis, verdict = expected
    assert found == ObviousManipulation(
        rule_name=rule.name,
        agent=case.agent,
        pref_true=case.pref,
        misreport=SinglePeaked(peak),
        omega=case.omega,
        n=case.n,
        oset_true=oset_true,
        oset_misreport=oset_mis,
        verdict=verdict,
    )
    return found


def mislabelled(case, ideal):
    pref = case.pref
    return NomCase(
        MislabelledPeak(pref.peak, pref.left_slope, pref.right_slope, ideal),
        case.omega,
        case.n,
        case.agent,
        case.endowment,
    )


def test_exact_search_matches_oracle_on_sweeps():
    sweeps = [
        (EXACT_RULES, nom_sweep(11, 30, n_values=(2, 3))),
        (REALLOC_RULES, nom_sweep(12, 30, with_endowments=True)),
    ]
    fired = 0
    for rules, cases in sweeps:
        for case in cases:
            peaks = grid(case.omega, 30)
            reference = (
                case.endowment
                if case.endowment is not None
                else case.omega / case.n
            )
            # a genuine preference never fires (the simple family is NOM);
            # one ideal at the reference point makes most cases fire
            for rule in rules:
                for variant in (case, mislabelled(case, reference)):
                    fired += assert_matches_oracle(rule, variant, peaks) is not None
    assert fired >= 150


@st.composite
def exact_cases(draw):
    omega = F(draw(st.integers(1, 5)))
    n = draw(st.integers(2, 4))
    amounts = st.fractions(min_value=0, max_value=2 * omega, max_denominator=12)
    left, right = draw(st.sampled_from(SLOPE_CATALOGUE))
    peak = draw(amounts)
    ideal = draw(st.none() | amounts)
    if ideal is None:
        pref = SinglePeaked(peak, left, right)
    else:
        pref = MislabelledPeak(peak, left, right, ideal)
    endowment = draw(
        st.none()
        | st.fractions(min_value=0, max_value=omega, max_denominator=12)
    )
    if endowment is None:
        rule = draw(st.sampled_from(EXACT_RULES))
    else:
        rule = draw(st.sampled_from(REALLOC_RULES))
    peaks = draw(st.lists(amounts, max_size=12))
    return rule, NomCase(pref, omega, n, 0, endowment), peaks


@settings(max_examples=300, deadline=None)
@given(exact_cases())
def test_exact_search_matches_oracle_property(drawn):
    rule, case, peaks = drawn
    assert_matches_oracle(rule, case, peaks)
