import dataclasses
import pickle
import random
from fractions import Fraction as F

import pytest

import allotment.economy as economy_module
from allotment.claims import cea, cel, pro
from allotment.economy import Allotment, Economy, _check_feasible, _split_scaled
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rational import _scaled
from allotment.rules import ced, simple_from_claims, simple_reallocation_from_claims
from allotment.sampling import SLOPE_CATALOGUE, random_economy, standard_suite
from helpers import split_oracle


def econ(peaks, omega, endowments=None):
    return Economy(
        tuple(SinglePeaked(F(p)) for p in peaks), F(omega), endowments
    )


def split(e, endowed=False):
    """`_split_scaled` on the economy's integer profile, around its
    endowments when `endowed` and around equal division otherwise, read
    back as Fractions, (z, E, plus, minus), after checking its integer
    format against the inputs and its result against the Fraction
    oracle."""
    *profile, endowments = e._integer_profile()
    reference = e.endowments if endowed else (e.equal_share,) * e.n
    result = _split_scaled(*profile, endowments if endowed else None)
    return read_back(e, reference, result)


def read_back(e, reference, result):
    """A split's result as (z, E, plus, minus), checked as `split` says."""
    common, peaks, scaled, z, left, plus, minus = result
    assert [F(p, common) for p in peaks] == list(e.peaks())
    assert [F(r, common) for r in scaled] == list(reference)
    got = (F(z, common), F(abs(left), common), plus, minus)
    assert got == split_oracle(e, reference)
    return got


def test_excess_supply_example():
    assert split(econ([F(1, 3), 0], 1)) == (F(-2, 3), 0, [], [0, 1])


def test_excess_balanced_example():
    assert split(econ([F(1, 2), F(1, 2)], 1)) == (0, 0, [], [0, 1])


def test_split_demand_example():
    z, E, plus, minus = split(econ([F(1, 2), F(3, 2), F(5, 2)], 3))
    assert z == F(3, 2)
    assert (plus, minus) == ([0], [1, 2])
    assert E == F(1, 2)


def test_split_everyone_at_equal_division():
    z, E, plus, minus = split(econ([1, 1, 1], 3))
    assert (z, E, plus, minus) == (0, 0, [], [0, 1, 2])


def test_split_endowment_examples():
    e = econ([0, 2], 2, (F(1), F(1)))
    assert split(e, endowed=True) == (0, 1, [0], [1])
    e2 = econ([1, 1], 2, (F(1, 2), F(3, 2)))
    assert split(e2, endowed=True) == (0, F(1, 2), [1], [0])


def test_split_matches_oracle_on_random_economies():
    rng = random.Random(29)
    for _ in range(500):
        e = random_economy(rng)
        split(e)
        endowed = random_economy(rng, with_endowments=True)
        split(endowed)
        split(endowed, endowed=True)


def assert_equal_division_split(e):
    """`_split_scaled` on the cached integer profile divides omega equally
    exactly as the Fraction oracle and the explicit-reference path, the
    split of equal division's points scaled with the peaks, do."""
    share = (e.equal_share,) * e.n
    common, peaks, omega, _ = e._integer_profile()
    common, peaks, scaled, z, left, plus, minus = _split_scaled(common, peaks, omega)
    assert [F(p, common) for p in peaks] == list(e.peaks())
    assert [F(r, common) for r in scaled] == list(share)
    got = (F(z, common), F(abs(left), common), plus, minus)
    n = e.n
    common, scaled = _scaled([*e.peaks(), *share, e.omega])
    explicit = _split_scaled(common, scaled[:n], scaled[-1], scaled[n:-1])
    assert got == split_oracle(e, share) == read_back(e, share, explicit)


def test_equal_division_split_matches_oracle_on_standard_suite():
    for e in standard_suite(31, 300):
        assert_equal_division_split(e)
    for e in standard_suite(32, 100, with_endowments=True):
        assert_equal_division_split(e)


def test_equal_division_split_matches_oracle_at_n_1000():
    rng = random.Random(1000)
    # excess supply, excess demand, and balanced by the last peak
    for spread, balanced in ((F(4, 5), False), (F(5, 4), False), (F(1, 2), True)):
        omega = F(rng.randint(1, 5), rng.randint(1, 3))
        peaks = [
            F(rng.randint(0, 120), 60) * omega * spread / 1000 for _ in range(999)
        ]
        peaks.append(omega - sum(peaks) if balanced else omega / 1000)
        assert_equal_division_split(econ(peaks, omega))


PEAKS = [F(1, 3), F(5, 4), 2]
# plateaus as (lo, hi) at omega = 3: the lows sum below 3 and the highs
# above (every plateau straddles), the lows to at least 3 (demand), the
# highs to at most 3 (supply)
STRADDLE = [(0, F(1, 2)), (F(1, 2), F(3, 2)), (1, 3)]
DEMAND = [(F(1, 2), 1), (2, F(5, 2)), (F(5, 2), 3)]
SUPPLY = [(0, F(1, 4)), (F(1, 2), 1), (F(3, 2), F(3, 2))]


def economy_of(agents, omega, endowments):
    """An economy of peaks, or of plateaus given as (lo, hi) pairs."""
    prefs = tuple(
        SinglePlateaued(*map(F, a)) if isinstance(a, tuple) else SinglePeaked(F(a))
        for a in agents
    )
    return Economy(prefs, F(omega), endowments)


@pytest.mark.parametrize(
    "agents, omega, endowments, profile",
    [
        (PEAKS, F(7, 2), None, (12, (4, 15, 24), 42, None)),
        # D also covers the endowments' denominators
        (PEAKS, F(7, 2), (F(1, 6), 1, F(7, 3)), (12, (4, 15, 24), 42, (2, 12, 28))),
        (
            PEAKS,
            F(7, 2),
            (F(1, 8), F(5, 8), F(11, 4)),
            (24, (8, 30, 48), 84, (3, 15, 66)),
        ),
        # a plateau economy holds its effective peaks: straddling plateaus
        # clamped at the level 5/4, over D * k = 2 * 2, endowments included
        (STRADDLE, 3, None, (4, (2, 5, 5), 12, None)),
        (STRADDLE, 3, (1, F(1, 2), F(3, 2)), (4, (2, 5, 5), 12, (4, 2, 6))),
        # the lows under excess demand, the highs under excess supply
        (DEMAND, 3, None, (2, (1, 4, 5), 6, None)),
        (SUPPLY, 3, None, (4, (1, 4, 6), 12, None)),
    ],
    ids=[
        "no endowments",
        "endowed",
        "endowed, finer D",
        "plateaus straddling",
        "plateaus straddling, endowed",
        "plateaus under demand",
        "plateaus under supply",
    ],
)
def test_integer_profile_is_cached_and_unobservable(
    agents, omega, endowments, profile
):
    e = economy_of(agents, omega, endowments)
    fresh = pickle.dumps(e)
    assert e._integer_profile() == profile
    profile = e._integer_profile()
    assert e._integer_profile() is profile
    again = economy_of(agents, omega, endowments)
    assert e == again and hash(e) == hash(again) and repr(e) == repr(again)
    assert "_integers" not in repr(e)
    back = pickle.loads(pickle.dumps(e))
    assert back == again and repr(back) == repr(again)
    assert back._integer_profile() == profile
    # an economy whose profile was never read pickles to the same bytes
    # as one built before the profile was cached
    assert pickle.dumps(again) == fresh
    assert pickle.loads(fresh)._integer_profile() == profile


@pytest.mark.parametrize("endowed", [False, True], ids=["no endowments", "endowed"])
def test_slope_variants_inherit_the_integer_profile(endowed):
    # own-peak-only's variants: one agent's slopes replaced, its peak kept
    for base in standard_suite(43, 40, with_endowments=endowed):
        profile = base._integer_profile()
        for i, pref in enumerate(base.prefs):
            for left, right in SLOPE_CATALOGUE:
                variant = base.replace_pref(i, SinglePeaked(pref.peak, left, right))
                fresh = Economy(variant.prefs, variant.omega, variant.endowments)
                assert variant == fresh
                assert variant._integer_profile() is profile
                assert profile == fresh._integer_profile()


def read_profile(e):
    e._integer_profile()
    return e


@pytest.mark.parametrize(
    "base, agent, pref",
    [
        (read_profile(econ([F(1, 3), F(5, 4), 2], F(7, 2))), 1, SinglePeaked(F(3, 2))),
        (econ([F(1, 3), F(5, 4), 2], F(7, 2)), 1, SinglePeaked(F(5, 4), 3, 1)),
    ],
    ids=["changed peak", "profile never read"],
)
def test_other_replacements_compute_their_own_profile(base, agent, pref):
    variant = base.replace_pref(agent, pref)
    assert variant._integers is None
    fresh = Economy(variant.prefs, variant.omega, variant.endowments)
    assert variant._integer_profile() == fresh._integer_profile()
    assert variant._integer_profile() is not base._integers


# agent 2's peak among straddling plateaus
MIXED = [(0, F(1, 2)), 1, (1, 3)]


@pytest.mark.parametrize(
    "agents, omega, endowments",
    [
        (STRADDLE, 3, None),
        (SUPPLY, 3, None),
        (MIXED, 3, (1, F(1, 2), F(3, 2))),
        (PEAKS, F(7, 2), None),
    ],
    ids=["plateaus straddling", "plateaus under supply", "mixed, endowed", "peaks"],
)
def test_replacements_keeping_the_plateau_ends_inherit_the_profile(
    agents, omega, endowments
):
    # each agent's slopes change; a peak then becomes the plateau of width
    # zero at it (or that plateau the peak) and goes back: no plateau end
    # moves, so each step hands the base's profile down
    base = read_profile(economy_of(agents, omega, endowments))
    profile = base._integers
    for i, pref in enumerate(base.prefs):
        steps = [dataclasses.replace(pref, left_slope=F(3), right_slope=F(1, 2))]
        lo = pref.plateau_lo
        if lo == pref.plateau_hi and isinstance(pref, SinglePeaked):
            steps += [SinglePlateaued(lo, lo), pref]
        elif lo == pref.plateau_hi:
            steps += [SinglePeaked(lo), pref]
        variant = base
        for step in steps:
            variant = variant.replace_pref(i, step)
            assert variant._integer_profile() is profile
            fresh = Economy(variant.prefs, variant.omega, variant.endowments)
            assert fresh._integer_profile() == profile


def replacements(pref):
    """A slope change that keeps the plateau ends, the peak or plateau
    one half higher, and the other kind of preference on the same ends
    where there is one (a peak is the plateau of width zero at it)."""
    lo, hi = pref.plateau_lo, pref.plateau_hi
    moved = (
        SinglePeaked(lo + F(1, 2))
        if isinstance(pref, SinglePeaked)
        else SinglePlateaued(lo + F(1, 2), hi + F(1, 2))
    )
    other = SinglePlateaued(lo, hi) if isinstance(pref, SinglePeaked) else None
    if other is None and lo == hi:
        other = SinglePeaked(lo)
    swapped = dataclasses.replace(pref, left_slope=F(3), right_slope=F(1, 2))
    return [r for r in (swapped, moved, other) if r is not None]


@pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
@pytest.mark.parametrize(
    "agents, omega, endowments",
    [
        (PEAKS, F(7, 2), None),
        (STRADDLE, 3, None),
        (SUPPLY, 3, None),
        (PEAKS, F(7, 2), (F(1, 6), 1, F(7, 3))),
        (MIXED, 3, (1, F(1, 2), F(3, 2))),
    ],
    ids=["peaked", "plateaued", "plateaus under supply", "endowed", "mixed, endowed"],
)
def test_a_replacement_is_the_economy_the_constructor_builds(
    agents, omega, endowments, read, monkeypatch
):
    # replace_pref skips the constructor: the variant must be the economy
    # it would build, down to its pickled bytes (a read profile included)
    base = economy_of(agents, omega, endowments)
    if read:
        base._integer_profile()
    built = []
    post_init = Economy.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Economy, "__post_init__", counted)
    inherited = 0
    for i, pref in enumerate(base.prefs):
        for replacement in replacements(pref):
            variant = base.replace_pref(i, replacement)
            assert built == []
            prefs = list(base.prefs)
            prefs[i] = replacement
            fresh = Economy(tuple(prefs), base.omega, base.endowments)
            built.clear()
            assert variant == fresh and hash(variant) == hash(fresh)
            assert repr(variant) == repr(fresh)
            assert type(variant) is Economy
            if variant._integers is not None:  # inherited: read fresh's too
                assert variant._integers is base._integers
                fresh._integer_profile()
                inherited += 1
            assert pickle.dumps(variant) == pickle.dumps(fresh)
            assert variant._integer_profile() == fresh._integer_profile()
    assert bool(inherited) == read


def test_a_peak_replacing_a_plateau_inherits_nothing():
    # the new economy mixes peaks and plateaus: it inherits no profile and
    # computes its own on first read
    base = read_profile(economy_of(STRADDLE, 3, None))
    variant = base.replace_pref(1, SinglePeaked(F(1, 2)))
    assert variant._integers is None
    # and no peak profile, like the plateau economy it came from
    for e in (base, variant):
        with pytest.raises(ValueError, match=r"^peaks\(\) requires single-peaked"):
            e.peaks()


# each value an economy derives on every read, and what it reads
DERIVED = {
    "equal_share": (lambda e: e.equal_share, F(7, 6)),
    "is_single_peaked": (lambda e: e.is_single_peaked, True),
    "peaks": (lambda e: e.peaks(), (F(1, 3), F(5, 4), F(2))),
}


@pytest.mark.parametrize("derived", DERIVED)
@pytest.mark.parametrize(
    "endowments", [None, (F(1, 6), 1, F(7, 3))], ids=["no endowments", "endowed"]
)
def test_derived_values_are_unobservable(endowments, derived):
    read, expected = DERIVED[derived]
    e = econ([F(1, 3), F(5, 4), 2], F(7, 2), endowments)
    state, fresh, text, digest = dict(vars(e)), pickle.dumps(e), repr(e), hash(e)
    assert read(e) == expected
    assert (vars(e), pickle.dumps(e), repr(e), hash(e)) == (state, fresh, text, digest)
    assert e == econ([F(1, 3), F(5, 4), 2], F(7, 2), endowments)


def test_an_economy_stores_its_inputs_and_integer_profile_only():
    names = [f.name for f in dataclasses.fields(Economy)]
    assert names == ["prefs", "omega", "endowments", "_integers"]


def test_single_peaked_means_an_instance_of_single_peaked():
    # a plateau of width zero stands for a peak in the integer profile,
    # but the economy is not single-peaked: peaks() and ced refuse it
    e = Economy((SinglePlateaued(F(1, 2), F(1, 2)), SinglePeaked(1)), F(1))
    assert not e.is_single_peaked
    with pytest.raises(
        ValueError, match=r"^peaks\(\) requires single-peaked preferences$"
    ):
        e.peaks()
    with pytest.raises(ValueError, match="^rule ced needs single-peaked preferences$"):
        ced(e)

    class Peak(SinglePeaked):
        pass

    # a subclass of SinglePeaked is single-peaked
    e = Economy((Peak(F(1, 2)), SinglePeaked(1)), F(1))
    assert e.is_single_peaked
    assert e.peaks() == (F(1, 2), F(1))
    assert tuple(ced(e)) == (F(1, 4), F(3, 4))


def test_split_permutation_invariant():
    rng = random.Random(23)
    for _ in range(200):
        e = random_economy(rng, with_endowments=rng.random() < 0.5)
        endowed = e.endowments is not None
        z, E, plus, _ = split(e, endowed)
        perm = list(range(e.n))
        rng.shuffle(perm)
        permuted = Economy(
            tuple(e.prefs[p] for p in perm),
            e.omega,
            None if e.endowments is None else tuple(e.endowments[p] for p in perm),
        )
        pz, pE, pplus, _ = split(permuted, endowed)
        assert (pz, pE) == (z, E)
        assert pplus == sorted(perm.index(i) for i in plus)


# -- the claims problem the non-simple agents solve ------------------------


def recording(claims_rule=cea):
    """A claims rule that records every problem it is handed."""
    seen = []

    def rule(cp):
        seen.append(cp)
        return claims_rule(cp)

    return rule, seen


def test_claims_problem_demand():
    record, seen = recording()
    e = econ([F(1, 2), F(3, 2), F(5, 2)], 3)
    assert tuple(simple_from_claims(record)(e)) == (F(1, 2), F(5, 4), F(5, 4))
    assert seen[0].claims == (F(1, 2), F(3, 2))
    assert seen[0].endowment == F(1, 2)


def test_claims_problem_balanced_zero_endowment():
    record, seen = recording()
    simple_from_claims(record)(econ([F(1, 2), F(1, 2)], 1))
    assert seen[0].endowment == 0


def test_claims_problem_boundary_total_equals_endowment():
    # z = 0 with one non-simple agent claiming exactly the residual
    record, seen = recording()
    assert tuple(simple_from_claims(record)(econ([0, 0, 3], 3))) == (0, 0, 3)
    assert seen[0].claims == (F(2),)
    assert seen[0].endowment == F(2)


def test_claims_problem_around_endowments():
    record, seen = recording()
    e = econ([1, 1], 2, (F(1, 2), F(3, 2)))
    simple_reallocation_from_claims(record)(e)
    assert seen[0].claims == (F(1, 2),)
    assert seen[0].endowment == F(1, 2)


def test_claims_cover_residual_on_random_economies():
    # well-definedness of the second-step claims problem: the claims are
    # |peak - reference point| over the oracle's non-simple agents, in
    # ascending order, and cover the oracle's residual
    rng = random.Random(29)
    for _ in range(1000):
        e = random_economy(rng, with_endowments=rng.random() < 0.5)
        claims_rule = rng.choice([cea, cel, pro])
        references = [(simple_from_claims, (e.equal_share,) * e.n)]
        if e.endowments is not None:
            references.append((simple_reallocation_from_claims, e.endowments))
        for build, reference in references:
            record, seen = recording(claims_rule)
            build(record)(e)
            _, E, _, minus = split_oracle(e, reference)
            peaks = e.peaks()
            assert seen[0].claims == tuple(
                abs(peaks[i] - reference[i]) for i in minus
            )
            assert seen[0].endowment == E
            assert sum(seen[0].claims) >= E


def test_allotment_exact_feasibility():
    Allotment((F(1, 3), F(2, 3)), F(1))
    with pytest.raises(ValueError):
        Allotment((F(1, 3), F(1, 3)), F(1))
    with pytest.raises(ValueError):
        Allotment((F(-1, 3), F(4, 3)), F(1))
    tiny = F(1, 10**9)
    with pytest.raises(ValueError, match="infeasible"):
        Allotment((F(1, 3), F(2, 3) - tiny), F(1))
    with pytest.raises(ValueError, match="nonnegative"):
        Allotment((-tiny, F(1) + tiny), F(1))


@pytest.mark.parametrize(
    "amounts, omega",
    [
        ((F(-1, 3), F(4, 3)), F(1)),
        ((F(1, 3), F(1, 3)), F(1)),
        ((F(1, 3), F(2, 3) - F(1, 10**9)), F(1)),
        ((F(1, 3), F(2, 3)), F(1, 2)),
    ],
)
def test_integer_feasibility_check_matches_the_constructor(amounts, omega):
    # the integer check refuses with the constructor's messages, at the
    # least common denominator of the amounts and at a multiple of it
    with pytest.raises(ValueError) as refused:
        Allotment(amounts, omega)
    common = 3 * 10**9
    scaled = [a.numerator * (common // a.denominator) for a in amounts]
    for k in (1, 7):
        with pytest.raises(ValueError) as integer:
            _check_feasible(common * k, [a * k for a in scaled], omega)
        assert str(integer.value) == str(refused.value)
        with pytest.raises(ValueError) as built:
            Allotment._of_scaled(common * k, [a * k for a in scaled], omega)
        assert str(built.value) == str(refused.value)


def test_integer_allotment_equals_the_constructed_one():
    built = Allotment((F(1, 3), F(2, 3)), F(1))

    def scaled():
        return Allotment._of_scaled(12, [4, 8], F(1))

    x = scaled()
    assert x == built and built == x and hash(x) == hash(built)
    assert repr(x) == repr(built)
    assert repr(x) == (
        "Allotment(amounts=(Fraction(1, 3), Fraction(2, 3)),"
        " omega=Fraction(1, 1))"
    )
    assert x.amounts == built.amounts == (F(1, 3), F(2, 3))
    assert all(type(a) is F for a in x) and list(x) == list(built)
    assert len(x) == len(built) == 2
    assert x != Allotment((F(2, 3), F(1, 3)), F(1)) and x != x.amounts
    # amounts read by index, before the tuple is built and after
    for fresh in (scaled(), x):
        assert fresh[-1] == built[-1] == F(2, 3) and type(fresh[-1]) is F
        assert fresh[0:1] == built[0:1] == (F(1, 3),)
    first = scaled()
    assert first[1] == F(2, 3) and type(first[1]) is F
    assert first.amounts == built.amounts and first == built
    with pytest.raises(IndexError):
        scaled()[2]
    with pytest.raises(AttributeError):
        x.omega = F(2)
    with pytest.raises(
        dataclasses.FrozenInstanceError, match="^cannot delete field 'omega'$"
    ):
        del x.omega
    assert pickle.loads(pickle.dumps(scaled())) == built


def test_single_agent_economy_rejected():
    with pytest.raises(ValueError):
        Economy((SinglePeaked(F(1)),), F(1))


def test_endowments_must_sum_to_omega():
    with pytest.raises(ValueError):
        econ([1, 1], 2, (F(1), F(3, 2)))
    # a negative endowment is refused before the sum is read
    with pytest.raises(ValueError, match="^endowments must be nonnegative$"):
        econ([1, 1], 2, (F(-1), F(3)))
    # so is a tuple with fewer endowments than agents
    with pytest.raises(ValueError, match="^one endowment per agent required$"):
        econ([1, 1], 2, (F(2),))
    e = econ([1, 1], 2, (F(1, 2), F(3, 2)))
    assert e.endowments == (F(1, 2), F(3, 2))


def test_an_exact_fraction_endowment_is_not_parsed_again(monkeypatch):
    # only omega goes through `parse_rational` when every endowment is an
    # exact Fraction; a string endowment is still parsed
    parsed = []
    parse = economy_module.parse_rational

    def counted(value):
        parsed.append(value)
        return parse(value)

    monkeypatch.setattr(economy_module, "parse_rational", counted)
    n = 1000
    prefs = (SinglePeaked(F(1)),) * n
    e = Economy(prefs, F(n), (F(1),) * n)
    assert parsed == [F(n)] and e.endowments == (F(1),) * n
    parsed.clear()
    e = Economy(prefs[:2], F(2), ("1/2", F(3, 2)))
    assert parsed == [F(2), "1/2"] and e.endowments == (F(1, 2), F(3, 2))


def test_float_omega_endowments_and_amounts_rejected():
    # each float here is exact in binary, so only its type can refuse it
    prefs = (SinglePeaked(F(1)), SinglePeaked(F(1)))
    with pytest.raises(ValueError, match="decimal"):
        Economy(prefs, 2.0)
    with pytest.raises(ValueError, match="decimal"):
        Economy(prefs, F(2), (0.5, 1.5))
    with pytest.raises(ValueError, match="decimal"):
        Allotment((0.5, 1.5), F(2))
