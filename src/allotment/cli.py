"""Command-line front end.

Subcommands: allocate, check, option-set, find-manipulation. Each names
its rule as the rule prints it, simple:appendix-b[hi,order=2,3] for
instance, and `get_rule` resolves it before any file is read. Economies
load from JSON objects (omega, an agents array, an optional endowments
array) whose rationals are exact "p/q" strings or integers; decimals are
rejected so exactness survives end to end. A document is read in one
pass (`_read_economy`) into its economy and its canonical echo, the
`economy_to_dict` of that economy, through a parse memo of its own: each
distinct number string is read once, however many agents repeat it (a
slope, say). A string already canonical (`rational._read_canonical`) is
read as its two ints and is its own text; any other string is parsed and
formatted. `_read_agent` reads the common entry, a peak and both slopes
as strings, in one pass. allocate prints that echo and writes the
allotment from its integers; `economy_to_dict` renders the economies the
library builds (witnesses, for one). allocate lifts the interpreter's
limit on int-to-str conversion only while it writes the exact amounts
(`_unlimited_digits`): an amount of any length is printed, and a
document's numbers are read under the caller's limit, so an over-long
one is refused. Only check draws random economies (--seed); identical
invocations print identical bytes. --format machine
prints, byte for byte, what `json.dumps(document, indent=2,
sort_keys=True)` would, through a small writer of its own
(`_machine_json`) that skips json's pure-Python indenting encoder and
writes every JSON object through one template writer, with each key
encoded once (`_machine_rows`): a dict is one row, and a list of dicts
that share one key set (an echo's agents) shares one template. Three
tests hold it to that:
`test_machine_writer_matches_json_dumps` on drawn documents and
`test_allocate_prints_the_library_allotment` on allocate's, two of 1,000
agents among them (tests/test_cli.py), and
`test_machine_documents_are_json_dumps_bytes` on every machine document of
the golden corpus (tests/test_cli_golden.py).

Exit codes: 0 success/PASS, 1 FAIL verdict (or a manipulation found), 2 a
usage error argparse reports (a flag the subcommand does not take, a
--random count that is not an integer of at least 1, a check given both an
economy file and --random) or any ValueError, raised here or by the
library and printed as "error: <message>" (a rule name that `get_rule`
refuses, an empty --axioms, an --expect-fail axiom that --axioms does not
request, an economy file of the wrong shape or with an unknown key, an
empty grid, a rule run on too few agents or on preferences outside its
domain, an axiom on agents or a file it cannot read (its row of
`axioms.AXIOMS`), a check in which a requested axiom inspected no case), 3
internal error (any other exception, reported as "internal error: <Type>:
<message>" so that a crash never reads as a FAIL).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
from fractions import Fraction
from math import isfinite
from typing import List, Optional, Tuple

from .axioms import AXIOMS, AxiomReport, Witness
from .economy import Economy
from .manipulation import (
    NomCase,
    ObviousManipulation,
    find_obvious_manipulation,
    nom_sweep,
    option_set_sampled,
    option_set_simple,
)
from .preferences import SinglePeaked, SinglePlateaued
from .rational import format_rational, parse_rational
from .rational import _format_scaled, _read_canonical
from .rules import DOMAIN_SP_ENDOWMENTS, Rule, get_rule
from .sampling import _check_grid_step, random_plateaued_economy, standard_suite

# ---------------------------------------------------------------------------
# economy files


ECONOMY_KEYS = ("omega", "agents", "endowments")
PLATEAU_KEYS = ("plateau_lo", "plateau_hi", "left_slope", "right_slope")
PEAK_KEYS = ("peak", "left_slope", "right_slope")
_PLATEAU_SET = frozenset(PLATEAU_KEYS)
_PEAK_SET = frozenset(PEAK_KEYS)


def _reject_unknown_keys(raw: dict, allowed, what: str) -> None:
    for key in raw:
        if key not in allowed:
            raise ValueError(
                f"unknown key {key!r} in {what}; allowed: {', '.join(allowed)}"
            )


class _Numbers(dict):
    """One document's numbers: each distinct string read maps to its
    Fraction and its canonical text, each computed on its first read.

    Only values of exact type str are looked up, since True == 1 == 1.0 as
    dict keys; `_exact` reads every other value. A string that is already
    canonical (`_read_canonical`) is its own text, so the echo holds no
    second copy of it; any other string goes through `parse_rational` and
    `format_rational`."""

    def __missing__(self, text: str) -> Tuple[Fraction, str]:
        value = _read_canonical(text)
        if value is None:
            value = parse_rational(text)
            entry = self[text] = (value, format_rational(value))
        else:
            entry = self[text] = (value, text)
        return entry


def _exact(value) -> Tuple[Fraction, str]:
    """A number that is not a string (a JSON int, or a value that
    `parse_rational` refuses), with its canonical text."""
    value = parse_rational(value)
    return value, format_rational(value)


def _read_agent(raw, numbers: _Numbers):
    """One agent entry's preference and its canonical echo, the numbers (an
    omitted slope's "1" too) read through the document's `numbers`."""
    if type(raw) is dict and raw.keys() == _PEAK_SET:
        # the common entry, a peak and both slopes as strings, in one pass
        peak, left, right = raw["peak"], raw["left_slope"], raw["right_slope"]
        if type(peak) is type(left) is type(right) is str:
            (peak, peak_text), (left, left_text), (right, right_text) = (
                numbers[peak], numbers[left], numbers[right]
            )
            echo = {
                "peak": peak_text, "left_slope": left_text, "right_slope": right_text
            }
            return SinglePeaked(peak, left, right), echo
    if not isinstance(raw, dict):
        raise ValueError(f"agent entry must be an object, got {json.dumps(raw)}")
    if "plateau_lo" in raw and "plateau_hi" in raw:
        kind, keys, allowed = SinglePlateaued, PLATEAU_KEYS, _PLATEAU_SET
    elif "peak" in raw:
        kind, keys, allowed = SinglePeaked, PEAK_KEYS, _PEAK_SET
    else:
        raise ValueError(f"agent entry needs a peak or a plateau: {json.dumps(raw)}")
    if not raw.keys() <= allowed:
        what = "a plateau agent" if kind is SinglePlateaued else "a peak agent"
        _reject_unknown_keys(raw, keys, what)
    values, echo = [], {}
    for key in keys:
        value = raw.get(key, "1")
        value, echo[key] = numbers[value] if type(value) is str else _exact(value)
        values.append(value)
    return kind(*values), echo


def pref_to_dict(pref) -> dict:
    """A preference's agent entry, written in the reader's key order."""
    keys = PLATEAU_KEYS if isinstance(pref, SinglePlateaued) else PEAK_KEYS
    return {key: format_rational(getattr(pref, key)) for key in keys}


def _read_economy(raw) -> Tuple[Economy, dict]:
    """A document's economy and its canonical echo, in one pass: the echo
    is what `economy_to_dict` writes for that economy, and each distinct
    number string of the document is parsed and formatted once."""
    if not isinstance(raw, dict):
        raise ValueError(f"an economy must be an object, got {json.dumps(raw)}")
    _reject_unknown_keys(raw, ECONOMY_KEYS, "the economy")
    for key in ("agents", "endowments"):
        if raw.get(key) is not None and not isinstance(raw[key], list):
            raise ValueError(f"{key!r} must be an array, got {json.dumps(raw[key])}")
    numbers = _Numbers()
    try:
        omega = raw["omega"]
        omega, omega_text = numbers[omega] if type(omega) is str else _exact(omega)
        prefs, agents = [], []
        for entry in raw["agents"]:
            pref, echo = _read_agent(entry, numbers)
            prefs.append(pref)
            agents.append(echo)
        echo = {"omega": omega_text, "agents": agents}
        endowments = None
        if raw.get("endowments") is not None:
            pairs = [
                numbers[w] if type(w) is str else _exact(w) for w in raw["endowments"]
            ]
            endowments = tuple(w for w, _ in pairs)
            echo["endowments"] = [text for _, text in pairs]
        return Economy(tuple(prefs), omega, endowments), echo
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed economy file: {exc}") from exc


def economy_from_dict(raw: dict) -> Economy:
    return _read_economy(raw)[0]


def economy_to_dict(econ: Economy) -> dict:
    data = {
        "omega": format_rational(econ.omega),
        "agents": [pref_to_dict(p) for p in econ.prefs],
    }
    if econ.endowments is not None:
        data["endowments"] = [format_rational(w) for w in econ.endowments]
    return data


def _load(path: str) -> Tuple[Economy, dict]:
    """The economy of the JSON file at `path` and its echo (`_read_economy`)."""
    try:
        with open(path) as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    # every number is read through parse_rational, which refuses floats
    return _read_economy(raw)


def load_economy(path: str) -> Economy:
    return _load(path)[0]


# ---------------------------------------------------------------------------
# report rendering


def witness_to_dict(witness: Optional[Witness]) -> Optional[dict]:
    if witness is None:
        return None
    data = {
        "agents": [i + 1 for i in witness.agents],
        "description": witness.description,
    }
    data["economy"] = economy_to_dict(witness.economy)
    if witness.perturbed is not None:
        data["perturbed_economy"] = economy_to_dict(witness.perturbed)
    if isinstance(witness.detail, ObviousManipulation):
        data["certificate"] = certificate_to_dict(witness.detail)
    return data


def option_set_to_dict(oset, show_witnesses: bool = False) -> dict:
    data = {
        "kind": "sampled",
        "min": format_rational(min(oset.outcomes)),
        "max": format_rational(max(oset.outcomes)),
        "count": len(oset.outcomes),
        "grid": oset.grid_spec,
    }
    if show_witnesses:
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
        "exactness": "SAMPLED",
        "strictly_preferred": cert.verdict.is_obvious,
    }


_encode_str = json.encoder.encode_basestring_ascii
# json writes the non-finite floats as JavaScript names
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _machine_json(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte.

    Before Python 3.13 json's C encoder does not indent, so json.dumps
    with an indent runs the pure-Python one. This writer covers the
    types a report holds: dicts (str keys), lists and tuples, str, int,
    float, bool and None; any other value raises TypeError. Every dict
    goes through `_machine_rows`: a dict as one row, and a list of dicts
    that share one key set as rows of one template. `newline` is the line
    break plus the indent of the enclosing level."""
    if isinstance(value, dict):
        return _machine_rows((value,), sorted(value), newline)[0] if value else "{}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        keys = value[0].keys() if type(value[0]) is dict else None
        if keys and all(type(row) is dict and row.keys() == keys for row in value):
            items = _machine_rows(value, sorted(keys), inner)
        else:
            items = [
                _encode_str(item) if type(item) is str
                else float.__repr__(item) if type(item) is float and isfinite(item)
                else _machine_json(item, inner)
                for item in value
            ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )


def _machine_rows(rows, keys: List[str], newline: str) -> List[str]:
    """`_machine_json` of each of `rows`, dicts whose sorted key set is
    `keys`: a single dict, or a list of dicts that share one key set (an
    echo's agents, a witness economy's). Each key is encoded once, into a
    template that writes a row in one step from its encoded values.
    Values that are not strings still go through `_machine_json`.
    A row is written before the next one is encoded: encoding a key's
    column at a time ran 0.2-0.3 ms faster on 1,000 agents but held
    every encoded value at once, 190-250 KB more at its peak."""
    inner = newline + "  "
    # each key's line up to its value; "%" is escaped, as the rows fill
    # the template with "%"
    heads = [inner + _encode_str(key).replace("%", "%%") + ": " for key in keys]
    template = "{" + ",".join(head + "%s" for head in heads) + newline + "}"
    return [
        template % tuple([
            _encode_str(row[key]) if type(row[key]) is str
            else _machine_json(row[key], inner)
            for key in keys
        ])
        for row in rows
    ]


def emit(document: dict, fmt: str, table_lines: List[str]) -> None:
    if fmt == "machine":
        print(_machine_json(document))
    else:
        for line in table_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands


@contextlib.contextmanager
def _unlimited_digits():
    """Lift the interpreter's limit on int-to-str conversion (4,300 digits
    by default, from Python 3.11 and 3.10.7 on) inside the block, and
    restore the caller's limit after it. The limit is the interpreter's,
    so another thread converting inside the block converts without it."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # an interpreter without the limit
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_allocate(args, rule: Rule) -> int:
    econ, echo = _load(args.economy)
    allotment = rule(econ)
    # an exact amount is printed whatever its length; the document was
    # read under the caller's limit, so an over-long number is refused
    with _unlimited_digits():
        exact = _format_scaled(allotment._common, allotment._numerators)
    # int true division is correctly rounded: a / D == float(Fraction(a, D))
    approx = [a / allotment._common for a in allotment._numerators]
    # only the chosen format is built: the machine document or the table
    if args.format == "machine":
        document = {
            "command": "allocate",
            "rule": rule.name,
            "economy": echo,
            "allotment": exact,
            "decimal": approx,
        }
        emit(document, args.format, [])
        return 0
    lines = [
        f"rule: {rule.name}",
        f"allotment: {', '.join(exact)}",
        "decimal: " + ", ".join(f"{a:.6g}" for a in approx),
    ]
    emit({}, args.format, lines)
    return 0


def _nom_cases(args, econ: Optional[Economy], realloc: bool) -> List[NomCase]:
    """nom's own cases: each agent of the file's economy, or seeded
    `nom_sweep` draws; only a reallocation rule's cases carry endowments."""
    if econ is None:
        return nom_sweep(args.seed, args.random, with_endowments=realloc)
    endowments = econ.endowments if realloc else (None,) * econ.n
    return [
        NomCase(pref, econ.omega, econ.n, i, endowments[i])
        for i, pref in enumerate(econ.prefs)
    ]


def cmd_check(args, rule: Rule) -> int:
    """Check the requested axioms on one economy file or on seeded draws
    (`random_plateaued_economy` for an spl: rule, else `standard_suite`).
    Each axiom's row of `AXIOMS` says what it reads, so every refusal comes
    before any draw or rule run. nom draws its own cases: with --random and
    no other axiom no suite is drawn, and `samples` counts nom's cases."""
    axioms = [a.strip() for a in args.axioms.split(",") if a.strip()]
    choose = "; choose from " + ", ".join(AXIOMS)
    if not axioms:
        raise ValueError("--axioms names no axiom" + choose)
    for axiom in axioms:
        if axiom not in AXIOMS:
            raise ValueError(f"unknown axiom {axiom!r}" + choose)
    for axiom in args.expect_fail or []:
        if axiom not in axioms:
            raise ValueError(f"--expect-fail {axiom!r} is not among --axioms")
    rows = [AXIOMS[axiom] for axiom in axioms]
    if any(row.grid for row in rows):
        _check_grid_step(args.grid_step)
    realloc = rule.domain == DOMAIN_SP_ENDOWMENTS
    wants_endowments = realloc or any(row.endowments for row in rows)
    econ = load_economy(args.economy) if args.random is None else None
    if econ is None:
        plateaued = rule.name.startswith("spl:")
    else:
        plateaued = not econ.is_single_peaked
        if wants_endowments and econ.endowments is None:
            raise ValueError(
                "this check needs individual endowments, but the economy file has none"
            )
    peak_readers = [axiom for axiom, row in zip(axioms, rows) if row.peaks]
    if plateaued and peak_readers:
        raise ValueError(
            f"{peak_readers[0]} reads each agent's peak, so it is checked on the "
            "single-peaked domain only; this economy has single-plateaued agents"
        )
    if econ is not None:
        econs = [econ]
    elif not any(row.economies for row in rows):
        econs = []
    elif plateaued:
        rng = random.Random(args.seed)
        econs = [random_plateaued_economy(rng) for _ in range(args.random)]
    else:
        econs = standard_suite(args.seed, args.random, with_endowments=wants_endowments)
    samples = len(econs)

    reports: List[AxiomReport] = []
    for row in rows:
        cases = econs if row.economies else _nom_cases(args, econ, realloc)
        samples = samples or len(cases)
        extra = {"grid_step": args.grid_step} if row.grid else {}
        reports.append(row.check(rule, cases, **extra))

    unchecked = [report.axiom for report in reports if report.checked == 0]
    if unchecked:
        raise ValueError(
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
        "samples": samples,
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


def cmd_option_set(args, rule: Rule) -> int:
    econ = load_economy(args.economy)
    if rule.domain == DOMAIN_SP_ENDOWMENTS:
        raise ValueError(
            "option sets are computed on the plain single-peaked domain"
        )
    if not 1 <= args.agent <= econ.n:
        raise ValueError(f"agent must be between 1 and {econ.n}")
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
        sampled, show_witnesses=args.show_witnesses
    )
    if rule.simple:
        lo, hi = option_set_simple(pref.peak, econ.omega, econ.n)
        inside = all(lo <= o <= hi for o in sampled.outcomes)
        endpoints = {lo, hi} <= set(sampled.outcomes)
        document["exact"] = {
            "kind": "exact",
            "lo": format_rational(lo),
            "hi": format_rational(hi),
        }
        document["sampled_inside_exact"] = inside
        document["endpoints_attained"] = endpoints
        lines.append(
            f"option set: [{format_rational(lo)}, {format_rational(hi)}] (exact)"
        )
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


def cmd_find_manipulation(args, rule: Rule) -> int:
    econ = load_economy(args.economy)
    if not 1 <= args.agent <= econ.n:
        raise ValueError(f"agent must be between 1 and {econ.n}")
    agent = args.agent - 1
    endowment = None
    if rule.domain == DOMAIN_SP_ENDOWMENTS and econ.endowments is not None:
        endowment = econ.endowments[agent]
    certificate = find_obvious_manipulation(
        rule,
        agent,
        econ.prefs[agent],
        econ.omega,
        econ.n,
        grid_step=args.misreport_step,
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
    return (
        f"[{format_rational(min(oset.outcomes))}, "
        f"{format_rational(max(oset.outcomes))}] sampled, "
        f"{len(oset.outcomes)} outcomes"
    )


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, grid_step: bool = True) -> None:
    if grid_step:
        parser.add_argument(
            "--grid-step",
            type=int,
            default=60,
            help="grid denominator: peaks at multiples of omega/STEP",
        )
    parser.add_argument(
        "--format", choices=("table", "machine"), default="table"
    )


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"count must be an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"count must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and reused by `main`."""
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
    p_alloc.add_argument("rule")
    _add_common(p_alloc, grid_step=False)
    p_alloc.set_defaults(func=cmd_allocate)

    p_check = sub.add_parser("check", help="verify axioms for a rule")
    p_check.add_argument(
        "economy", nargs="?", default=None, help="economy JSON file"
    )
    p_check.add_argument("rule")
    p_check.add_argument(
        "--axioms",
        required=True,
        help="comma-separated list from: " + ", ".join(AXIOMS),
    )
    p_check.add_argument(
        "--random",
        type=_positive_int,
        default=None,
        metavar="COUNT",
        help="check any witness economies, then seeded draws up to COUNT, not a file",
    )
    p_check.add_argument(
        "--expect-fail",
        action="append",
        default=None,
        metavar="AXIOM",
        help="invert the exit-code contribution of this axiom (repeatable)",
    )
    p_check.add_argument("--seed", type=int, default=0, help="sampling seed")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_oset = sub.add_parser(
        "option-set", help="compute an agent's option set under a rule"
    )
    p_oset.add_argument("economy", help="economy JSON file")
    p_oset.add_argument("rule")
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
    p_find.add_argument("rule")
    p_find.add_argument("agent", type=int, help="agent number (1-based)")
    p_find.add_argument(
        "--misreport-grid",
        dest="misreport_step",
        metavar="MISREPORT_GRID",
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
    if args.command == "check" and (args.economy is None) == (args.random is None):
        parser.error("check needs an economy file or --random COUNT, not both")
    try:
        # the one place a rule name is read, before any file or draw
        return args.func(args, get_rule(args.rule))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(
            f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr
        )
        return 3


if __name__ == "__main__":
    sys.exit(main())
