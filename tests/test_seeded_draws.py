"""Pinned seeded draws: sha256 digests of the cases and economies that
`nom_sweep`, `standard_suite`, `random_plateaued_economy` and
`random_claims_problem` draw from fixed seeds.

Every NOM sweep, axiom suite and pinned rule output rests on these draws,
so a change to how they are written must leave each digest as it is; a
digest that moves means some seed now draws different inputs.
"""

import hashlib
import random

from allotment.manipulation import nom_sweep
from allotment.preferences import SinglePeaked
from allotment.rational import format_rational as fr
from allotment.sampling import random_plateaued_economy, standard_suite
from helpers import random_claims_problem

NOM_SWEEPS_SHA256 = (
    "3a1573dfd0f931e2a3e929c6dc6ab179597a76e52a5ea0fd56046ac00141d4c2"
)
SUITES_SHA256 = (
    "1da0019a2dedcb1bf5267cfde2affd494221940b5230a2702ea04296d79a2e82"
)
PLATEAUED_SHA256 = (
    "5f479184a1bb6f895d55e6ea8d2bf90b8da2e142d78ad50623ce3fd93c1b4e3e"
)
CLAIMS_SHA256 = (
    "16243af16c42c41343828bed481e4d72c5824a1c43b9a5762501891cc9326352"
)

# (seed, count, n_values, with_endowments): counts below the four
# witnesses, n_values with and without 2 and 3, and the calls the
# benchmark's workloads make
NOM_SWEEPS = (
    (0, 40, (2, 3), False),
    (1, 40, (2, 3), True),
    (2, 3, (2, 3), False),
    (3, 0, (2, 3), False),
    (4, 1, (2,), False),
    (5, 20, (3,), False),
    (6, 20, (2, 3, 4), False),
    (7, 20, (2, 3, 4), True),
    (8, 20, (4, 5, 6), False),
    (9, 0, (4, 5, 6), True),
    (10, 2, (3,), False),
    (11, 5, (2,), True),
)

# (seed, count, with_endowments), including counts at and below the
# eight witness economies
SUITES = (
    (10, 48, False),
    (11, 40, True),
    (0, 5, False),
    (1, 8, False),
    (2, 0, True),
    (3, 30, False),
)


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pref(pref):
    if isinstance(pref, SinglePeaked):
        ends = f"peak {fr(pref.peak)}"
    else:
        ends = f"plateau {fr(pref.plateau_lo)} {fr(pref.plateau_hi)}"
    return f"({ends} slopes {fr(pref.left_slope)} {fr(pref.right_slope)})"


def _economy(econ):
    prefs = " ".join(map(_pref, econ.prefs))
    endowments = (
        "-" if econ.endowments is None else " ".join(map(fr, econ.endowments))
    )
    return f"omega {fr(econ.omega)} prefs {prefs} endowments {endowments}"


def test_nom_sweeps_pinned():
    lines = []
    for seed, count, n_values, endowed in NOM_SWEEPS:
        for k, case in enumerate(nom_sweep(seed, count, n_values, endowed)):
            endowment = "-" if case.endowment is None else fr(case.endowment)
            lines.append(
                f"{seed} {count} {n_values} {endowed} {k}: {_pref(case.pref)}"
                f" omega {fr(case.omega)} n {case.n} agent {case.agent}"
                f" endowment {endowment}"
            )
    assert len(lines) == 177
    assert _digest(lines) == NOM_SWEEPS_SHA256


def test_standard_suites_pinned():
    lines = []
    for seed, count, endowed in SUITES:
        for k, econ in enumerate(standard_suite(seed, count, endowed)):
            lines.append(f"{seed} {count} {endowed} {k}: {_economy(econ)}")
    assert len(lines) == 134
    assert _digest(lines) == SUITES_SHA256


def test_plateaued_economies_pinned():
    lines = []
    for seed in (12, 13):
        rng = random.Random(seed)
        for k in range(40):
            econ = random_plateaued_economy(rng)
            lines.append(f"{seed} {k}: {_economy(econ)}")
    assert _digest(lines) == PLATEAUED_SHA256


def test_claims_problems_pinned():
    lines = []
    rng = random.Random(14)
    for k in range(200):
        problem = random_claims_problem(rng)
        claims = " ".join(map(fr, problem.claims))
        lines.append(f"{k}: claims {claims} endowment {fr(problem.endowment)}")
    assert _digest(lines) == CLAIMS_SHA256
