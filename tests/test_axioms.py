import random
from fractions import Fraction as F

import pytest

import allotment
from allotment import cli
from allotment.axioms import (
    AXIOMS,
    FAIL,
    NO_CASES,
    PASS_ON_SAMPLE,
    check_betweenness,
    check_edg,
    check_edlb,
    check_endowments_guarantee,
    check_envy_free,
    check_own_peak_only,
    check_peak_responsive,
    check_same_sided,
    check_strategy_proofness,
    check_symmetry,
)
from allotment.claims import cea, cel, pro
from allotment.economy import Allotment, Economy
from allotment.manipulation import NomCase, check_nom, nom_sweep
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rules import (
    DOMAIN_SP_ENDOWMENTS,
    RULE_NAMES,
    Rule,
    ced,
    gallery,
    get_rule,
    proportional,
    simple_from_claims,
    simple_reallocation_from_claims,
    uniform,
)
from allotment.sampling import (
    asymmetric_split_economy,
    exaggeration_economy,
    guarantee_gap_economy,
    lowest_peak_economy,
    random_plateaued_economy,
    standard_suite,
    two_agent_om_economy,
)
from helpers import FRACTION_VIOLATIONS, fraction_check, pareto_improvement_on_grid


def econ(peaks, omega, endowments=None):
    return Economy(
        tuple(SinglePeaked(F(p)) for p in peaks), F(omega), endowments
    )


SUITE = standard_suite(0, 200)


def constant_rule(name, builder):
    return Rule(name, builder)


EQUAL_SPLIT = gallery("equal_division")


# -- efficiency / same-sidedness ------------------------------------------------


def test_uniform_same_sided_on_suite():
    assert not check_same_sided(uniform, SUITE).failed


def test_equal_division_fails_same_sidedness():
    report = check_same_sided(EQUAL_SPLIT, [econ([0, 1], 1)])
    assert report.failed
    assert report.witness.agents == (0,)
    assert "1/2" in report.witness.description


def test_balanced_peak_profile_has_no_violation():
    report = check_same_sided(uniform, [econ([F(1, 3), F(2, 3)], 1)])
    assert not report.failed


# -- own-peak-onliness -------------------------------------------------------------


def test_uniform_own_peak_only():
    assert not check_own_peak_only(uniform, SUITE[:60]).failed


def test_underline_fails_own_peak_onliness():
    report = check_own_peak_only(
        gallery("underline"), [lowest_peak_economy()]
    )
    assert report.failed
    assert report.witness.agents == (0,)
    assert report.witness.perturbed is not None


def slope_swapped_uniform(econ):
    """uniform's kernel on the integer profile, then the last two agents'
    amounts swapped when the last agent's left slope is 10: a rule that
    reads a slope the profile does not hold."""
    unit, amounts = uniform.kernel(*econ._integer_profile())
    if econ.prefs[-1].left_slope == 10:
        amounts = [*amounts[:-2], amounts[-1], amounts[-2]]
    return Allotment._of_scaled(unit, amounts, econ.omega)


def test_own_peak_only_sees_slopes_behind_an_inherited_profile():
    # every variant inherits its base's integer profile, so only the rule's
    # own reading of the slopes can tell them apart
    rule = Rule("slope-swapped-uniform", slope_swapped_uniform)
    report = check_own_peak_only(rule, [econ([0, F(1, 2), 3], 2)])
    assert report.failed
    assert report.witness.agents == (2,)
    assert report.witness.description == (
        "agent 3 moves from 3/2 to 1/2 when slopes change to (10,1) with the"
        " same peak"
    )
    report = check_own_peak_only(rule, SUITE[:60])
    assert report.failed
    assert report.witness.agents == (report.witness.economy.n - 1,)


def test_checkers_refuse_a_rule_that_returns_no_allotment():
    # a rule's call refuses any result but an Allotment, so every checker
    # stops with the same error instead of trusting or tripping on it
    listed = Rule("t", lambda e: list(uniform(e)))
    message = "rule t must return an Allotment, not list"
    for check in (check_same_sided, check_own_peak_only):
        with pytest.raises(TypeError, match=f"^{message}$"):
            check(listed, standard_suite(0, 20))


PLATEAUS = Economy(
    (SinglePlateaued(F(1, 4), F(1, 2)), SinglePlateaued(0, 1), SinglePeaked(F(1, 2))),
    F(3, 2),
    (F(1, 2),) * 3,
)


@pytest.mark.parametrize("axiom", list(AXIOMS))
def test_a_peak_reading_checker_refuses_plateaus_before_the_rule(axiom):
    # a row that reads peaks has a checker that refuses a plateau economy
    # through Economy.peaks(), or nom's a plateau report in _checked_omega's
    # text, before it calls the rule; the other checkers (symmetry,
    # envy-free, edlb) check it under uniform, which takes plateaus
    def never(econ):
        raise AssertionError("ran the rule")

    row = AXIOMS[axiom]
    assert allotment.AXIOMS is AXIOMS is cli.AXIOMS
    if not row.economies:
        assert axiom == "nom" and row.peaks
        plateau = NomCase(PLATEAUS.prefs[0], PLATEAUS.omega, PLATEAUS.n)
        refusal = "^sampled option sets need a single-peaked report, got Single"
        with pytest.raises(ValueError, match=refusal + "Plateaued$"):
            row.check(Rule("never", never), [plateau])
    elif row.peaks:
        with pytest.raises(ValueError, match=r"^peaks\(\) requires single-peaked"):
            row.check(Rule("never", never), [PLATEAUS])
    else:
        assert axiom in ("symmetry", "envy-free", "edlb")
        assert row.check(uniform, [PLATEAUS]).checked == 1


def test_simple_rules_own_peak_only():
    for rule in (simple_from_claims(cel), simple_from_claims(pro)):
        assert not check_own_peak_only(rule, SUITE[:40]).failed


# -- symmetry ----------------------------------------------------------------------


def test_check_without_eligible_economies_reports_no_cases():
    # gallery:star needs three agents, so the two-agent economy is skipped
    star = gallery("star")
    report = check_symmetry(star, [two_agent_om_economy()])
    assert (report.verdict, report.checked, report.failed) == (NO_CASES, 0, False)
    assert check_symmetry(star, []).verdict == NO_CASES
    report = check_symmetry(uniform, [two_agent_om_economy()])
    assert (report.verdict, report.checked) == (PASS_ON_SAMPLE, 1)


def _scan_contract_cases(axiom):
    if axiom == "nom":
        return nom_sweep(5, 14, n_values=(2, 3))
    return standard_suite(5, 16, with_endowments=axiom == "endowments-guarantee")


SCAN_CHECKERS = dict(
    {name: row.check for name, row in AXIOMS.items()},
    sp=lambda rule, cases: check_strategy_proofness(rule, cases, grid_step=12),
    nom=lambda rule, cases: check_nom(rule, cases, grid_step=12, option_grid_step=12),
)


@pytest.mark.parametrize("axiom", list(SCAN_CHECKERS))
def test_every_checker_scans_eligible_cases_to_the_first_fail(axiom):
    # gallery:star needs three agents, so the two-agent cases are skipped
    check, star = SCAN_CHECKERS[axiom], gallery("star")
    cases = _scan_contract_cases(axiom)
    eligible = [case for case in cases if case.n >= star.min_agents]
    assert 0 < len(eligible) < len(cases)
    first_fail = next(
        (k for k, case in enumerate(eligible) if check(star, [case]).failed), None
    )
    report = check(star, cases)
    if first_fail is None:
        assert (report.verdict, report.checked) == (PASS_ON_SAMPLE, len(eligible))
    else:
        assert (report.verdict, report.checked) == (FAIL, first_fail + 1)
        alone = check(star, [eligible[first_fail]])
        assert report.witness.description == alone.witness.description
    ineligible = [case for case in cases if case.n < star.min_agents]
    for empty in ([], ineligible):
        report = check(star, empty)
        assert (report.verdict, report.checked) == (NO_CASES, 0)


def test_uniform_symmetric():
    assert not check_symmetry(uniform, SUITE).failed


def test_symmetric_claims_rules_give_symmetric_simple_rules():
    for claims_rule in (cea, cel, pro):
        rule = simple_from_claims(claims_rule)
        assert not check_symmetry(rule, SUITE[:120]).failed


def test_bar_fails_symmetry():
    report = check_symmetry(gallery("bar"), [asymmetric_split_economy()])
    assert report.failed
    assert report.witness.agents == (0, 1)


def test_a_peak_and_its_zero_width_plateau_are_identical_agents():
    # bar gives 1, 2, 0 on both economies; agents 1 and 2 hold the same
    # preference, written as two peaks or as a peak and a plateau [3, 3]
    for second in (SinglePeaked(3), SinglePlateaued(3, 3)):
        e = Economy((SinglePeaked(3), second, SinglePeaked(0)), F(3))
        assert tuple(gallery("bar")(e)) == (1, 2, 0)
        report = check_symmetry(gallery("bar"), [e])
        assert report.verdict == FAIL
        assert report.witness.agents == (0, 1)
        assert report.witness.description == (
            "identical agents 1,2 get 1 vs 2 with disutilities 2 vs 1"
        )


def test_symmetry_accepts_indifferent_unequal_amounts():
    # a mirror split around a symmetric peak is indifferent, hence symmetric
    mirror = constant_rule(
        "mirror", lambda e: Allotment((F(1, 4), F(3, 4)), e.omega)
    )
    pref = SinglePeaked(F(1, 2))
    report = check_symmetry(mirror, [Economy((pref, pref), F(1))])
    assert not report.failed


# -- equal division guarantee --------------------------------------------------------


def test_simple_rules_meet_edg():
    for rule in (uniform, simple_from_claims(cel)):
        assert not check_edg(rule, SUITE).failed


def test_star_fails_edg_at_witness():
    report = check_edg(gallery("star"), [guarantee_gap_economy()])
    assert report.failed
    assert report.witness.agents == (2,)


def test_edg_vacuous_without_equal_division_peak():
    report = check_edg(ced, [econ([F(1, 3), 0], 1)])
    assert not report.failed


# -- endowments guarantee ---------------------------------------------------------


def test_reallocation_rules_meet_endowments_guarantee():
    suite = standard_suite(1, 150, with_endowments=True)
    for claims_rule in (cea, cel, pro):
        rule = simple_reallocation_from_claims(claims_rule)
        assert not check_endowments_guarantee(rule, suite).failed


def test_equal_split_fails_endowments_guarantee():
    e = econ([0, 1], 1, (F(0), F(1)))
    report = check_endowments_guarantee(EQUAL_SPLIT, [e])
    assert report.failed


def test_uniform_meets_guarantee_when_peaks_match_endowments():
    # balanced economies where everyone owns their peak: same-sidedness
    # forces the peak allotment, so the guarantee holds even though the
    # rule never reads the endowments
    for peaks, endowments in (
        (([F(1, 4), F(3, 4)]), (F(1, 4), F(3, 4))),
        (([0, 1]), (F(0), F(1))),
    ):
        e = econ(peaks, 1, endowments)
        assert not check_endowments_guarantee(uniform, [e]).failed


def test_endowments_guarantee_needs_endowments():
    with pytest.raises(ValueError):
        check_endowments_guarantee(EQUAL_SPLIT, [econ([0, 1], 1)])


# -- peak responsiveness -----------------------------------------------------------


def test_equal_losses_simple_rule_is_peak_responsive():
    assert not check_peak_responsive(simple_from_claims(cel), SUITE).failed


def test_bar_fails_peak_responsiveness():
    report = check_peak_responsive(gallery("bar"), [asymmetric_split_economy()])
    assert report.failed


def test_identical_peaks_under_uniform_responsive():
    report = check_peak_responsive(uniform, [econ([1, 1, 1], 2)])
    assert not report.failed


# -- envy-freeness and the equal division lower bound ------------------------------


def test_uniform_envy_free_and_edlb():
    assert not check_envy_free(uniform, SUITE).failed
    assert not check_edlb(uniform, SUITE).failed


def test_ced_fails_envy_freeness_at_om_economy():
    report = check_envy_free(ced, [two_agent_om_economy()])
    assert report.failed
    # agent 1 receives 2/3 (disutility 1) but agent 2's 1/3 would be ideal
    assert "d(1/3)=0" in report.witness.description
    assert "d(2/3)=1" in report.witness.description


def test_ced_fails_edlb_at_om_economy():
    report = check_edlb(ced, [two_agent_om_economy()])
    assert report.failed
    assert "1/2" in report.witness.description


def test_equal_division_is_envy_free():
    assert not check_envy_free(EQUAL_SPLIT, SUITE[:50]).failed


# -- betweenness -------------------------------------------------------------------


def test_simple_pro_passes_betweenness():
    assert not check_betweenness(simple_from_claims(pro), SUITE).failed


def test_ced_fails_betweenness_at_om_economy():
    report = check_betweenness(ced, [two_agent_om_economy()])
    assert report.failed
    assert report.witness.agents == (0,)
    assert "2/3" in report.witness.description


ENDOWED_TWIN_PEAKS = Economy(
    (SinglePeaked(F(1, 2)), SinglePeaked(F(1, 2))), F(2), (F(0), F(2))
)


def test_reallocation_betweenness_anchors_at_endowments():
    # agent 2 gets 3/2, between their endowment 2 and peak 1/2
    report = check_betweenness(
        simple_reallocation_from_claims(cea), [ENDOWED_TWIN_PEAKS]
    )
    assert report.verdict == PASS_ON_SAMPLE
    # uniform's 1 for agent 1 (endowment 0, peak 1/2) is no longer between
    endowed_uniform = Rule("endowed-uniform", uniform.allocate, DOMAIN_SP_ENDOWMENTS)
    report = check_betweenness(endowed_uniform, [ENDOWED_TWIN_PEAKS])
    assert report.failed
    assert report.witness.description == "simple agent 1 gets 1 instead of peak 1/2"


# -- strategy-proofness -------------------------------------------------------------


def test_uniform_strategy_proof_on_sample():
    report = check_strategy_proofness(uniform, SUITE[:25], grid_step=12)
    assert not report.failed


def test_ced_manipulable_at_om_economy():
    report = check_strategy_proofness(ced, [two_agent_om_economy()])
    assert report.failed
    assert "misreports peak 0" in report.witness.description


@pytest.mark.parametrize("step", [0, -1])
def test_sp_refuses_a_bad_grid_step_before_any_rule_run(step):
    runs = []

    def allocate(economy):
        runs.append(economy)
        return uniform.allocate(economy)

    counted = Rule("counted", allocate)
    for econs in ([], [two_agent_om_economy()]):
        with pytest.raises(ValueError, match="must be at least 1"):
            check_strategy_proofness(counted, econs, grid_step=step)
    assert runs == []


@pytest.mark.parametrize(
    "rule", [uniform, ced, gallery("hat")], ids=["uniform", "ced", "hat"]
)
def test_a_warm_sp_check_builds_no_preference(rule, monkeypatch):
    # the misreports are the peak grid's shared preferences, so once the
    # first check has built them the second builds no SinglePeaked at all
    econs = [e for e in SUITE[:20] if e.n >= rule.min_agents]
    first = check_strategy_proofness(rule, econs, grid_step=12)
    built = []
    post_init = SinglePeaked.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(SinglePeaked, "__post_init__", counting)
    assert check_strategy_proofness(rule, econs, grid_step=12) == first
    assert built == []


def test_equal_losses_simple_rule_manipulable_by_exaggeration():
    report = check_strategy_proofness(
        simple_from_claims(cel), [exaggeration_economy()], grid_step=3
    )
    assert report.failed
    assert report.witness.agents == (0,)


# -- the integer checkers against their Fraction forms ------------------------------


def with_references(e):
    """e, then e with agent 2 holding agent 1's preference (identical
    agents), agent 1's peak moved to omega/n, and, when e is endowed,
    agent 2's peak moved to its endowment: each reference branch of the
    checkers is reached on most draws."""
    prefs = list(e.prefs)
    prefs[1] = prefs[0]
    twin = Economy(tuple(prefs), e.omega, e.endowments)
    if not e.is_single_peaked:
        return [e, twin]
    share = SinglePeaked(e.equal_share, prefs[0].left_slope, prefs[0].right_slope)
    variants = [e, twin, e.replace_pref(0, share)]
    if e.endowments is not None:
        variants.append(variants[-1].replace_pref(1, SinglePeaked(e.endowments[1])))
    return variants


def oracle_cases(seed):
    """axiom -> the economies its checker is compared on: seeded suites
    with and without endowments, their reference variants and, for
    symmetry, seeded plateau draws."""
    peaked = [v for e in standard_suite(seed, 24) for v in with_references(e)]
    endowed = [
        v
        for e in standard_suite(seed, 16, with_endowments=True)
        for v in with_references(e)
    ]
    rng = random.Random(seed)
    plateaued = [
        v for _ in range(16) for v in with_references(random_plateaued_economy(rng))
    ]
    cases = {axiom: peaked + endowed for axiom in FRACTION_VIOLATIONS}
    cases["endowments-guarantee"] = endowed
    cases["symmetry"] = peaked + endowed + plateaued
    return cases


def report_or_refusal(check):
    try:
        return check()
    except ValueError as refused:
        return f"refused: {refused}"


def summary(report):
    if isinstance(report, str):
        return report
    witness = report.witness
    found = None if witness is None else (witness.agents, witness.description)
    return report.verdict, report.checked, found


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("axiom", list(FRACTION_VIOLATIONS))
def test_integer_checkers_match_their_fraction_forms(axiom, seed):
    # every registered rule (the gallery's five included), each economy on
    # its own and the whole list in one scan; a rule's refusal must be the
    # same refusal
    check, cases = AXIOMS[axiom].check, oracle_cases(seed)[axiom]
    failed = 0
    for name in RULE_NAMES:
        rule = get_rule(name)
        for econs in [[e] for e in cases] + [cases]:
            ours = report_or_refusal(lambda: check(rule, econs))
            theirs = report_or_refusal(lambda: fraction_check(axiom, rule, econs))
            assert summary(ours) == summary(theirs), (name, econs)
            assert ours == theirs
            failed += not isinstance(ours, str) and ours.failed
    assert failed  # some witness text was compared


# -- witness replay determinism -----------------------------------------------------


def test_fail_witnesses_replay_in_isolation():
    cases = [
        (check_same_sided, EQUAL_SPLIT, econ([0, 1], 1)),
        (check_symmetry, gallery("bar"), asymmetric_split_economy()),
        (check_edg, gallery("star"), guarantee_gap_economy()),
        (check_own_peak_only, gallery("underline"), lowest_peak_economy()),
        (check_envy_free, ced, two_agent_om_economy()),
        (check_edlb, ced, two_agent_om_economy()),
        (check_betweenness, ced, two_agent_om_economy()),
    ]
    for checker, rule, economy in cases:
        first = checker(rule, [economy])
        assert first.failed
        again = checker(rule, [first.witness.economy])
        assert again.failed
        assert again.witness.description == first.witness.description


# -- meta-tests ---------------------------------------------------------------------


def grid_aligned_economy(rng, n):
    omega = F(rng.randint(1, 5))
    peaks = [F(rng.randint(0, 120), 60) * omega for _ in range(n)]
    return econ(peaks, omega)


def test_pareto_grid_search_agrees_with_same_sidedness():
    # efficiency <=> same-sidedness: the brute-force improvement search on a
    # grid must find an improvement exactly when the checker reports FAIL
    rng = random.Random(79)
    rules = [uniform, ced, proportional, EQUAL_SPLIT]
    for _ in range(40):
        e = grid_aligned_economy(rng, rng.choice((2, 3)))
        for rule in rules:
            x = rule(e)
            fails = check_same_sided(rule, [e]).failed
            improvement = pareto_improvement_on_grid(e, x, step=60)
            assert (improvement is not None) == fails


def test_edg_failure_implies_envy_and_edlb_failures_for_own_peak_only_rules():
    # for own-peak-only rules, envy-freeness or the equal division lower
    # bound implies the equal division guarantee; contrapositive on samples
    suite = SUITE[:80]
    for name in ("equal_division", "star", "bar", "hat"):
        rule = gallery(name)
        if check_edg(rule, suite).failed:
            assert check_envy_free(rule, suite).failed
            assert check_edlb(rule, suite).failed


def test_edlb_passing_rules_meet_edg():
    # forward direction of the same implication on the sampled suite
    for rule in (uniform, simple_from_claims(cel)):
        assert not check_edlb(rule, SUITE[:80]).failed
        assert not check_edg(rule, SUITE[:80]).failed
