import contextlib
import inspect
import io
import re
from pathlib import Path

import allotment

# the package's public surface; test oracles live in tests/helpers.py
PUBLIC_NAMES = """
    AXIOMS Allotment Awards AxiomReport ClaimsProblem Economy
    ManipulationVerdict NO_CASES NomCase ObviousManipulation RULE_NAMES
    RationalParseError Rule SELECTORS SLOPE_CATALOGUE SampledOptionSet
    SinglePeaked SinglePlateaued Witness cea ced cel check_betweenness
    check_edg check_edlb check_endowments_guarantee check_envy_free
    check_nom check_own_peak_only check_peak_responsive check_same_sided
    check_strategy_proofness check_symmetry find_obvious_manipulation
    format_rational gallery get_rule grid is_obvious_manipulation
    nom_sweep option_set_sampled option_set_simple
    parse_rational pro proportional random_economy sequential_rule
    simple_from_claims simple_reallocation_from_claims
    standard_suite two_agent_om_economy uniform
    witness_economies worst
""".split()


def test_public_names_are_exactly_the_library_surface():
    # submodules become attributes when imported, so they are not counted
    public = sorted(
        name
        for name, value in vars(allotment).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    )
    assert public == PUBLIC_NAMES


def test_readme_quick_start_prints_what_its_comments_show():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(
        r"^## Library quick start\n\n```python\n(.*?)^```", readme, re.M | re.S
    ).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    comments = re.findall(r"^print\(.*#\s*(.*)$", block, re.M)
    assert comments == ["1/2, 5/4, 5/4", "identical, by construction"]
    assert out.getvalue().splitlines() == [comments[0], comments[0]]
