import random
from fractions import Fraction as F

import pytest

from allotment.economy import (
    Allotment,
    Economy,
    claims_of_minus,
    excess,
    partition,
)
from allotment.preferences import INF, SinglePeaked
from allotment.sampling import random_economy


def econ(peaks, omega, endowments=None):
    return Economy(
        tuple(SinglePeaked(F(p)) for p in peaks), F(omega), endowments
    )


def test_excess_supply_example():
    assert excess(econ([F(1, 3), 0], 1)) == F(-2, 3)


def test_excess_balanced_example():
    assert excess(econ([F(1, 2), F(1, 2)], 1)) == 0


def test_excess_demand_example():
    assert excess(econ([F(1, 2), F(3, 2), F(5, 2)], 3)) == F(3, 2)


def test_partition_demand_example():
    part = partition(econ([F(1, 2), F(3, 2), F(5, 2)], 3))
    assert part.plus == {0}
    assert part.minus == {1, 2}
    assert part.E == F(1, 2)


def test_partition_everyone_at_equal_division():
    part = partition(econ([1, 1, 1], 3))
    assert part.plus == frozenset()
    assert part.E == 0


def test_partition_supply_example():
    part = partition(econ([F(1, 3), 0], 1))
    assert part.z < 0
    assert part.plus == frozenset()
    assert part.minus == {0, 1}
    assert part.E == 0


def test_claims_of_minus_demand():
    e = econ([F(1, 2), F(3, 2), F(5, 2)], 3)
    cp = claims_of_minus(partition(e), e)
    assert cp.claims == (F(1, 2), F(3, 2))
    assert cp.endowment == F(1, 2)


def test_claims_of_minus_balanced_zero_endowment():
    e = econ([F(1, 2), F(1, 2)], 1)
    cp = claims_of_minus(partition(e), e)
    assert cp.endowment == 0


def test_claims_of_minus_boundary_total_equals_endowment():
    # z = 0 with one non-simple agent claiming exactly the residual
    e = econ([0, 0, 3], 3)
    part = partition(e)
    assert part.plus == {0, 1}
    cp = claims_of_minus(part, e)
    assert cp.claims == (F(2),)
    assert cp.endowment == F(2)


def test_partition_permutation_invariant():
    rng = random.Random(23)
    for _ in range(200):
        e = random_economy(rng)
        part = partition(e)
        perm = list(range(e.n))
        rng.shuffle(perm)
        permuted = Economy(tuple(e.prefs[p] for p in perm), e.omega)
        ppart = partition(permuted)
        assert ppart.z == part.z
        assert ppart.E == part.E
        assert ppart.plus == {perm.index(i) for i in part.plus}


def test_claims_cover_residual_on_random_economies():
    # well-definedness of the second-step claims problem
    rng = random.Random(29)
    for _ in range(1000):
        e = random_economy(rng)
        part = partition(e)
        cp = claims_of_minus(part, e)
        assert sum(cp.claims) >= part.E
        if e.endowments is not None:
            epart = partition(e, e.endowments)
            assert (
                sum(abs(e.prefs[i].peak - e.endowments[i]) for i in epart.minus)
                >= epart.E
            )


def test_allotment_exact_feasibility():
    Allotment((F(1, 3), F(2, 3)), F(1))
    with pytest.raises(ValueError):
        Allotment((F(1, 3), F(1, 3)), F(1))
    with pytest.raises(ValueError):
        Allotment((F(-1, 3), F(4, 3)), F(1))


def test_single_agent_economy_rejected():
    with pytest.raises(ValueError):
        Economy((SinglePeaked(F(1)),), F(1))


def test_inf_peak_rejected_in_economy():
    with pytest.raises(ValueError):
        Economy((SinglePeaked(INF), SinglePeaked(F(1))), F(1))


def test_endowments_must_sum_to_omega():
    with pytest.raises(ValueError):
        econ([1, 1], 2, (F(1), F(3, 2)))
    e = econ([1, 1], 2, (F(1, 2), F(3, 2)))
    assert e.endowments == (F(1, 2), F(3, 2))


def test_endowment_partition_examples():
    e = econ([0, 2], 2, (F(1), F(1)))
    part = partition(e, e.endowments)
    assert part.plus == {0}
    assert part.minus == {1}
    assert part.E == 1

    e2 = econ([1, 1], 2, (F(1, 2), F(3, 2)))
    part2 = partition(e2, e2.endowments)
    assert part2.plus == {1}
    assert part2.minus == {0}
    assert part2.E == F(1, 2)
