"""Exact-arithmetic allotment rules for single-peaked economies.

Divides a non-disposable commodity among agents with single-peaked (or
single-plateaued, peaks mixed in) preferences, in exact rational arithmetic:
classical rules, the simple-rule family built from claims rules, axiom
checkers, and obvious-manipulation detection with option sets.
"""

from .axioms import (
    AXIOMS,
    NO_CASES,
    AxiomReport,
    Witness,
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
from .claims import (
    Awards,
    ClaimsProblem,
    cea,
    cel,
    pro,
)
from .economy import Allotment, Economy
from .manipulation import (
    ManipulationVerdict,
    NomCase,
    ObviousManipulation,
    SampledOptionSet,
    check_nom,
    find_obvious_manipulation,
    is_obvious_manipulation,
    nom_sweep,
    option_set_sampled,
    option_set_simple,
)
from .preferences import SinglePeaked, SinglePlateaued, worst
from .rational import RationalParseError, format_rational, parse_rational
from .rules import (
    RULE_NAMES,
    SELECTORS,
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
from .sampling import (
    SLOPE_CATALOGUE,
    grid,
    random_economy,
    standard_suite,
    two_agent_om_economy,
    witness_economies,
)

__version__ = "0.1.0"
