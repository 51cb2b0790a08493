"""Exact-arithmetic allotment rules for single-peaked economies.

Divides a non-disposable commodity among agents with single-peaked (or
single-plateaued) preferences, entirely in exact rational arithmetic:
classical rules, the simple-rule family built from claims rules, axiom
checkers, and obvious-manipulation detection with option sets.
"""

from .axioms import (
    AXIOM_CHECKERS,
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
    pareto_improvement_on_grid,
)
from .claims import (
    Awards,
    ClaimsProblem,
    cea,
    cel,
    check_claims_rule_properties,
    pro,
)
from .economy import (
    Allotment,
    Economy,
    SimplePartition,
    claims_of_minus,
    excess,
    make_allotment,
    partition,
)
from .manipulation import (
    ManipulationVerdict,
    NomCase,
    ObviousManipulation,
    OptionSetInterval,
    SampledOptionSet,
    check_nom,
    demonstrate_manipulation,
    find_obvious_manipulation,
    is_obvious_manipulation,
    nom_sweep,
    option_set_sampled,
    option_set_simple,
)
from .preferences import (
    INF,
    Comparison,
    SinglePeaked,
    SinglePlateaued,
    disutility,
    prefers,
    worst,
)
from .rational import Rat, RationalParseError, format_rational, parse_rational
from .rules import (
    RULE_NAMES,
    SELECTORS,
    Rule,
    ced,
    gallery,
    get_rule,
    proportional,
    sequential_allotment,
    sequential_rule,
    simple_from_claims,
    simple_reallocation_from_claims,
    spl_extension,
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
