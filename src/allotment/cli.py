"""Command-line front end.

Subcommands: allocate, check, option-set, find-manipulation. Economies load
from JSON files whose rationals are exact "p/q" strings or integers;
decimals are rejected so exactness survives end to end. All sampling is
seed-controlled (--seed) and identical invocations print identical bytes.

Exit codes: 0 success/PASS, 1 FAIL verdict (or a manipulation found),
2 usage or parse error (including an empty grid, a sample count below 1,
a rule that needs more agents than the economy has, a peak-reading check
on single-plateaued agents, and a check in which a requested axiom
inspected no case).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from .axioms import AXIOM_CHECKERS, AxiomReport, Witness
from .economy import Economy
from .manipulation import (
    NomCase,
    ObviousManipulation,
    OptionSetInterval,
    check_nom,
    find_obvious_manipulation,
    nom_sweep,
    option_set_sampled,
    option_set_simple,
)
from .preferences import SinglePeaked, SinglePlateaued
from .rational import RationalParseError, format_rational, parse_rational
from .rules import DOMAIN_SP_ENDOWMENTS, DOMAIN_SPL, RULE_NAMES, get_rule
from .sampling import standard_suite

AXIOM_NAMES = list(AXIOM_CHECKERS) + ["nom"]


class CliError(Exception):
    """Usage or parse problem; maps to exit code 2."""


# ---------------------------------------------------------------------------
# economy files


def pref_from_dict(raw: dict):
    keys = set(raw)
    if {"plateau_lo", "plateau_hi"} <= keys:
        return SinglePlateaued(
            parse_rational(raw["plateau_lo"]),
            parse_rational(raw["plateau_hi"]),
            parse_rational(raw.get("left_slope", 1)),
            parse_rational(raw.get("right_slope", 1)),
        )
    if "peak" in keys:
        return SinglePeaked(
            parse_rational(raw["peak"]),
            parse_rational(raw.get("left_slope", 1)),
            parse_rational(raw.get("right_slope", 1)),
        )
    raise CliError(f"agent entry needs a peak or a plateau: {raw}")


def pref_to_dict(pref) -> dict:
    if isinstance(pref, SinglePlateaued):
        return {
            "plateau_lo": format_rational(pref.plateau_lo),
            "plateau_hi": format_rational(pref.plateau_hi),
            "left_slope": format_rational(pref.left_slope),
            "right_slope": format_rational(pref.right_slope),
        }
    return {
        "peak": format_rational(pref.peak),
        "left_slope": format_rational(pref.left_slope),
        "right_slope": format_rational(pref.right_slope),
    }


def economy_from_dict(raw: dict) -> Economy:
    try:
        omega = parse_rational(raw["omega"])
        prefs = tuple(pref_from_dict(entry) for entry in raw["agents"])
        endowments = None
        if raw.get("endowments") is not None:
            endowments = tuple(parse_rational(w) for w in raw["endowments"])
        return Economy(prefs, omega, endowments)
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed economy file: {exc}") from exc
    except (RationalParseError, ValueError) as exc:
        raise CliError(str(exc)) from exc


def economy_to_dict(econ: Economy) -> dict:
    data = {
        "omega": format_rational(econ.omega),
        "agents": [pref_to_dict(p) for p in econ.prefs],
    }
    if econ.endowments is not None:
        data["endowments"] = [format_rational(w) for w in econ.endowments]
    return data


def load_economy(path: str) -> Economy:
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and any(
        isinstance(v, float) for v in _flatten(raw)
    ):
        raise CliError("decimals rejected: rationals must be \"p/q\" strings")
    return economy_from_dict(raw)


def _flatten(value):
    if isinstance(value, dict):
        for v in value.values():
            yield from _flatten(v)
    elif isinstance(value, list):
        for v in value:
            yield from _flatten(v)
    else:
        yield value


# ---------------------------------------------------------------------------
# report rendering


def _decimal(x: Fraction) -> float:
    return float(x)


def witness_to_dict(witness: Optional[Witness]) -> Optional[dict]:
    if witness is None:
        return None
    data = {
        "agents": [i + 1 for i in witness.agents],
        "description": witness.description,
    }
    if witness.economy is not None:
        data["economy"] = economy_to_dict(witness.economy)
    if witness.perturbed is not None:
        data["perturbed_economy"] = economy_to_dict(witness.perturbed)
    if isinstance(witness.detail, ObviousManipulation):
        data["certificate"] = certificate_to_dict(witness.detail)
    return data


def option_set_to_dict(oset, include_witnesses: bool = False) -> dict:
    if isinstance(oset, OptionSetInterval):
        return {
            "kind": "exact",
            "lo": format_rational(oset.lo),
            "hi": format_rational(oset.hi),
        }
    data = {
        "kind": "sampled",
        "min": format_rational(min(oset.outcomes)),
        "max": format_rational(max(oset.outcomes)),
        "count": len(oset.outcomes),
        "grid": oset.grid_spec,
    }
    if include_witnesses:
        data["witnesses"] = {
            format_rational(outcome): economy_to_dict(oset.witnesses[outcome])
            for outcome in oset.outcomes
        }
    return data


def certificate_to_dict(cert: ObviousManipulation) -> dict:
    return {
        "rule": cert.rule_name,
        "agent": cert.agent + 1,
        "true_preference": pref_to_dict(cert.pref_true),
        "misreport": pref_to_dict(cert.misreport),
        "omega": format_rational(cert.omega),
        "n": cert.n,
        "option_set_truth": option_set_to_dict(cert.oset_true),
        "option_set_misreport": option_set_to_dict(cert.oset_misreport),
        "worst_truth": format_rational(cert.verdict.w_truth),
        "worst_misreport": format_rational(cert.verdict.w_misreport),
        "disutility_worst_truth": format_rational(cert.verdict.d_w_truth),
        "disutility_worst_misreport": format_rational(
            cert.verdict.d_w_misreport
        ),
        "exactness": cert.verdict.exactness,
        "strictly_preferred": cert.verdict.is_obvious,
    }


def emit(document: dict, fmt: str, table_lines: List[str]) -> None:
    if fmt == "machine":
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


def cmd_allocate(args) -> int:
    econ = load_economy(args.economy)
    rule = get_rule(args.rule, order=args.order, selector=args.selector)
    try:
        allotment = rule(econ)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    exact = ", ".join(format_rational(a) for a in allotment)
    approx = ", ".join(f"{_decimal(a):.6g}" for a in allotment)
    document = {
        "command": "allocate",
        "rule": rule.name,
        "economy": economy_to_dict(econ),
        "allotment": [format_rational(a) for a in allotment],
        "decimal": [_decimal(a) for a in allotment],
    }
    emit(
        document,
        args.format,
        [
            f"rule: {rule.name}",
            f"allotment: {exact}",
            f"decimal: {approx}",
        ],
    )
    return 0


def _random_count(args) -> Optional[int]:
    if args.random is None:
        return None
    return args.samples if args.random == -1 else args.random


def _check_economies(args) -> List[Economy]:
    wants_endowments = args.rule.startswith("realloc:") or (
        "endowments-guarantee" in args.axiom_list
    )
    count = _random_count(args)
    if count is not None:
        return standard_suite(
            args.seed,
            count,
            with_endowments=wants_endowments,
        )
    econ = load_economy(args.economy)
    if wants_endowments and econ.endowments is None:
        raise CliError(
            "this check needs individual endowments, but the economy "
            "file has none"
        )
    return [econ]


def cmd_check(args) -> int:
    args.axiom_list = [a.strip() for a in args.axioms.split(",") if a.strip()]
    for axiom in args.axiom_list:
        if axiom not in AXIOM_NAMES:
            raise CliError(
                f"unknown axiom {axiom!r}; choose from {', '.join(AXIOM_NAMES)}"
            )
    rule = get_rule(args.rule, order=args.order, selector=args.selector)
    econs = _check_economies(args)

    reports: List[AxiomReport] = []
    for axiom in args.axiom_list:
        if axiom == "nom":
            count = _random_count(args)
            if count is not None:
                cases = nom_sweep(
                    args.seed,
                    count,
                    with_endowments=rule.domain == DOMAIN_SP_ENDOWMENTS,
                )
            else:
                first = econs[0]
                cases = [
                    NomCase(
                        pref,
                        first.omega,
                        first.n,
                        agent=i,
                        endowment=(
                            first.endowments[i]
                            if first.endowments is not None
                            else None
                        ),
                    )
                    for i, pref in enumerate(first.prefs)
                ]
            reports.append(check_nom(rule, cases, grid_step=args.grid_step))
        elif axiom == "sp":
            reports.append(
                AXIOM_CHECKERS[axiom](rule, econs, grid_step=args.grid_step)
            )
        else:
            reports.append(AXIOM_CHECKERS[axiom](rule, econs))

    unchecked = [report.axiom for report in reports if report.checked == 0]
    if unchecked:
        raise CliError(
            f"no case inspected for {', '.join(unchecked)}: rule {rule.name} "
            f"needs at least {rule.min_agents} agents, so a PASS would be "
            "vacuous"
        )

    expected_failures = set(args.expect_fail or [])
    ok = all(
        report.failed == (report.axiom in expected_failures)
        for report in reports
    )
    document = {
        "command": "check",
        "rule": rule.name,
        "samples": len(econs),
        "seed": args.seed,
        "axioms": [
            {
                "axiom": report.axiom,
                "verdict": report.verdict,
                "checked": report.checked,
                "witness": witness_to_dict(report.witness),
            }
            for report in reports
        ],
    }
    emit(document, args.format, [report.line() for report in reports])
    return 0 if ok else 1


def cmd_option_set(args) -> int:
    econ = load_economy(args.economy)
    rule = get_rule(args.rule, order=args.order, selector=args.selector)
    if rule.domain in (DOMAIN_SPL, DOMAIN_SP_ENDOWMENTS):
        raise CliError(
            "option sets are computed on the plain single-peaked domain"
        )
    if not 1 <= args.agent <= econ.n:
        raise CliError(f"agent must be between 1 and {econ.n}")
    agent = args.agent - 1
    pref = econ.prefs[agent]
    document = {
        "command": "option-set",
        "rule": rule.name,
        "agent": args.agent,
        "omega": format_rational(econ.omega),
        "n": econ.n,
    }
    lines: List[str] = []
    sampled = option_set_sampled(
        rule, agent, pref, econ.omega, econ.n, grid_step=args.grid_step
    )
    document["sampled"] = option_set_to_dict(
        sampled, include_witnesses=args.show_witnesses
    )
    if rule.simple:
        interval = option_set_simple(pref.peak, econ.omega, econ.n)
        inside = all(o in interval for o in sampled.outcomes)
        endpoints = {interval.lo, interval.hi} <= set(sampled.outcomes)
        document["exact"] = option_set_to_dict(interval)
        document["sampled_inside_exact"] = inside
        document["endpoints_attained"] = endpoints
        lines.append(f"option set: {interval} (exact)")
        lines.append(
            "sampled confirmation: "
            f"{len(sampled.outcomes)} outcomes inside={inside} "
            f"endpoints attained={endpoints}"
        )
    else:
        lines.append(
            f"option set: sampled range [{format_rational(min(sampled.outcomes))}, "
            f"{format_rational(max(sampled.outcomes))}] "
            f"({len(sampled.outcomes)} outcomes)"
        )
    if args.show_witnesses and args.format == "table":
        for outcome in sampled.outcomes:
            opponents = ", ".join(
                format_rational(p.peak)
                for i, p in enumerate(sampled.witnesses[outcome].prefs)
                if i != agent
            )
            lines.append(
                f"  {format_rational(outcome)} via opponent peaks ({opponents})"
            )
    emit(document, args.format, lines)
    return 0


def cmd_find_manipulation(args) -> int:
    econ = load_economy(args.economy)
    rule = get_rule(args.rule, order=args.order, selector=args.selector)
    if not 1 <= args.agent <= econ.n:
        raise CliError(f"agent must be between 1 and {econ.n}")
    agent = args.agent - 1
    endowment = (
        econ.endowments[agent] if econ.endowments is not None else None
    )
    certificate = find_obvious_manipulation(
        rule,
        agent,
        econ.prefs[agent],
        econ.omega,
        econ.n,
        grid_step=args.misreport_grid,
        option_grid_step=args.grid_step,
        endowment=endowment,
    )
    if certificate is None:
        emit(
            {"command": "find-manipulation", "rule": rule.name, "found": False},
            args.format,
            ["no obvious manipulation found on grid"],
        )
        return 0
    document = {
        "command": "find-manipulation",
        "rule": rule.name,
        "found": True,
        "certificate": certificate_to_dict(certificate),
    }
    verdict = certificate.verdict
    emit(
        document,
        args.format,
        [
            "obvious manipulation found:",
            f"  {certificate.describe()}",
            f"  misreport peak: {format_rational(certificate.misreport.peak)}",
            f"  option set truthful:  {_render_oset(certificate.oset_true)}",
            f"  option set misreport: {_render_oset(certificate.oset_misreport)}",
            "  strict preference check: "
            f"d({format_rational(verdict.w_misreport)})="
            f"{format_rational(verdict.d_w_misreport)} < "
            f"d({format_rational(verdict.w_truth)})="
            f"{format_rational(verdict.d_w_truth)}",
        ],
    )
    return 1


def _render_oset(oset) -> str:
    if isinstance(oset, OptionSetInterval):
        return f"{oset} (exact)"
    return (
        f"[{format_rational(min(oset.outcomes))}, "
        f"{format_rational(max(oset.outcomes))}] sampled, "
        f"{len(oset.outcomes)} outcomes"
    )


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="sampling seed")
    parser.add_argument(
        "--grid-step",
        type=int,
        default=60,
        help="grid denominator: peaks at multiples of omega/STEP",
    )
    parser.add_argument(
        "--samples", type=_positive_int, default=1000, help="sample count for sweeps"
    )
    parser.add_argument(
        "--format", choices=("table", "machine"), default="table"
    )
    parser.add_argument(
        "--selector",
        choices=("lo", "hi", "mid", "quarter"),
        default="lo",
        help="level selector for simple:appendix-b",
    )
    parser.add_argument(
        "--order",
        type=_parse_order,
        default=None,
        help="comma-separated agent order for simple:appendix-b (1-based)",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, got {value}")
    return value


def _parse_order(text: str) -> List[int]:
    try:
        return [int(part) - 1 for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad order {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="allotment",
        description=(
            "Exact allotment rules for single-peaked economies: run rules, "
            "check axioms, compute option sets, and search for obvious "
            "manipulations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_alloc = sub.add_parser("allocate", help="run a rule on an economy file")
    p_alloc.add_argument("economy", help="economy JSON file")
    p_alloc.add_argument("rule", choices=RULE_NAMES, metavar="rule")
    _add_common(p_alloc)
    p_alloc.set_defaults(func=cmd_allocate)

    p_check = sub.add_parser("check", help="verify axioms for a rule")
    p_check.add_argument(
        "economy", nargs="?", default=None, help="economy JSON file"
    )
    p_check.add_argument("rule", choices=RULE_NAMES, metavar="rule")
    p_check.add_argument(
        "--axioms",
        required=True,
        help="comma-separated list from: " + ", ".join(AXIOM_NAMES),
    )
    p_check.add_argument(
        "--random",
        nargs="?",
        type=_positive_int,
        const=-1,
        default=None,
        metavar="COUNT",
        help=(
            "check on COUNT seeded random economies instead of a file "
            "(bare --random uses --samples)"
        ),
    )
    p_check.add_argument(
        "--expect-fail",
        action="append",
        default=None,
        metavar="AXIOM",
        help="invert the exit-code contribution of this axiom (repeatable)",
    )
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_oset = sub.add_parser(
        "option-set", help="compute an agent's option set under a rule"
    )
    p_oset.add_argument("economy", help="economy JSON file")
    p_oset.add_argument("rule", choices=RULE_NAMES, metavar="rule")
    p_oset.add_argument("agent", type=int, help="agent number (1-based)")
    p_oset.add_argument(
        "--show-witnesses",
        action="store_true",
        help="list an achieving opponent profile per outcome",
    )
    _add_common(p_oset)
    p_oset.set_defaults(func=cmd_option_set)

    p_find = sub.add_parser(
        "find-manipulation",
        help="search the misreport grid for an obvious manipulation",
    )
    p_find.add_argument("economy", help="economy JSON file")
    p_find.add_argument("rule", choices=RULE_NAMES, metavar="rule")
    p_find.add_argument("agent", type=int, help="agent number (1-based)")
    p_find.add_argument(
        "--misreport-grid",
        type=int,
        default=60,
        help="misreport grid denominator (peaks at multiples of omega/STEP)",
    )
    _add_common(p_find)
    p_find.set_defaults(func=cmd_find_manipulation)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and args.economy is None and args.random is None:
        parser.error("check needs an economy file or --random COUNT")
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
