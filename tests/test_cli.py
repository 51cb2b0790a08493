import argparse
import json
import random
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import allotment.cli as cli_module
from allotment.cli import (
    ECONOMY_KEYS,
    PEAK_KEYS,
    PLATEAU_KEYS,
    _machine_json,
    build_parser,
    economy_from_dict,
    economy_to_dict,
    load_economy,
    main,
)
from allotment.economy import Economy
from allotment.preferences import SinglePeaked, SinglePlateaued
from allotment.rational import format_rational, parse_rational
from allotment.rules import RULE_NAMES, Rule, get_rule
from allotment.sampling import random_plateaued_economy
from helpers import economies, spl_extension_oracle

OM_ECONOMY = {
    "omega": "1",
    "agents": [
        {"peak": "1/3", "left_slope": "1", "right_slope": "3"},
        {"peak": "0", "left_slope": "1", "right_slope": "1"},
    ],
}

THREE_AGENT = {
    "omega": "3",
    "agents": [
        {"peak": "1/2", "left_slope": "1", "right_slope": "1"},
        {"peak": "3/2", "left_slope": "1", "right_slope": "1"},
        {"peak": "5/2", "left_slope": "1", "right_slope": "1"},
    ],
}


@pytest.fixture
def om_file(tmp_path):
    path = tmp_path / "om.json"
    path.write_text(json.dumps(OM_ECONOMY))
    return str(path)


@pytest.fixture
def three_file(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(json.dumps(THREE_AGENT))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_allocate_om_economy(om_file, capsys):
    code, out, _ = run(capsys, "allocate", om_file, "ced")
    assert code == 0
    assert "2/3, 1/3" in out


def test_allocate_balanced_returns_peaks(tmp_path, capsys):
    path = tmp_path / "bal.json"
    path.write_text(
        json.dumps(
            {
                "omega": "1",
                "agents": [{"peak": "1/3"}, {"peak": "2/3"}],
            }
        )
    )
    code, out, _ = run(capsys, "allocate", str(path), "uniform")
    assert code == 0
    assert "1/3, 2/3" in out


def test_allocate_simple_cel(three_file, capsys):
    code, out, _ = run(capsys, "allocate", three_file, "simple:cel")
    assert code == 0
    assert "1/2, 1, 3/2" in out


def test_allocate_appendix_b_params(three_file, capsys):
    code, out, _ = run(
        capsys, "allocate", three_file, "simple:appendix-b[hi,order=2,3]"
    )
    assert code == 0
    assert "1/2, 3/2, 1" in out


@pytest.mark.parametrize(
    "policy, explicit, allotment",
    [("ascending", "2,3", "1/2, 1, 3/2"), ("descending", "3,2", "1/2, 3/2, 1")],
)
def test_allocate_appendix_b_order_policies(
    three_file, capsys, policy, explicit, allotment
):
    name = f"simple:appendix-b[lo,{policy}]"
    code, out, _ = run(capsys, "allocate", three_file, name)
    assert code == 0
    assert out.splitlines()[0] == f"rule: {name}"
    assert f"allotment: {allotment}" in out
    # the policy visits the non-simple agents 2 and 3 in the explicit order
    _, explicit_out, _ = run(
        capsys, "allocate", three_file, f"simple:appendix-b[lo,order={explicit}]"
    )
    assert out.splitlines()[1:] == explicit_out.splitlines()[1:]


def test_bad_order_rejected(three_file, capsys):
    code, out, err = run(
        capsys, "allocate", three_file, "simple:appendix-b[lo,sideways]"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: unknown order policy 'sideways'; choose ascending or descending\n"
    )


def test_explicit_order_refusal_names_agents_from_1(three_file, capsys):
    # a rule's name numbers agents from 1, and so does the refusal of its
    # order: the non-simple agents of this economy are 2 and 3, not 1 and 2
    code, out, err = run(
        capsys, "allocate", three_file, "simple:appendix-b[lo,order=1,2]"
    )
    assert code == 2
    assert out == ""
    assert err == (
        "error: order must enumerate the non-simple agents 2, 3"
        " (numbered from 1)\n"
    )


UNKNOWN = "; choose from " + ", ".join(RULE_NAMES)


@pytest.mark.parametrize(
    "name, message",
    [
        ("nosuch", "unknown rule 'nosuch'" + UNKNOWN),
        ("simple:appendix-b[", "unknown rule 'simple:appendix-b['" + UNKNOWN),
        (
            "simple:appendix-b[xx]",
            "unknown selector 'xx'; choose from lo, hi, mid, quarter",
        ),
        (
            "simple:appendix-b[lo,sideways]",
            "unknown order policy 'sideways'; choose ascending or descending",
        ),
        (
            "simple:appendix-b[lo,order=a]",
            "an explicit order must list distinct agents (numbered from 1),"
            " got ['a']",
        ),
        (
            "simple:appendix-b[lo,order=2,2]",
            "an explicit order must list distinct agents (numbered from 1),"
            " got [2, 2]",
        ),
    ],
)
@pytest.mark.parametrize(
    "command, tail",
    [
        ("allocate", ()),
        ("check", ("--axioms", "nom")),
        ("option-set", ("1",)),
        ("find-manipulation", ("1",)),
    ],
)
def test_rule_name_refused_before_any_file_is_read(
    tmp_path, capsys, name, message, command, tail
):
    # every subcommand resolves its rule through get_rule, in get_rule's
    # words, before it opens the economy file, which does not exist here
    missing = str(tmp_path / "missing.json")
    code, out, err = run(capsys, command, missing, name, *tail)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    with pytest.raises(ValueError) as exc:
        get_rule(name)
    assert str(exc.value) == message


def test_allocate_machine_format_round_trips(om_file, capsys):
    code, out, _ = run(capsys, "allocate", om_file, "ced", "--format", "machine")
    assert code == 0
    document = json.loads(out)
    assert document["allotment"] == ["2/3", "1/3"]
    assert document["economy"] == OM_ECONOMY


# a prime above 2**53: the huge economy's amounts have numerators and
# denominators above 2**53, so no decimal of theirs is exact; under ced,
# proportional and the pro rules, a numerator rounded to a float before
# the division would give another decimal
HUGE_PRIME = 2**61 - 1
HUGE_PEAKS = [2**62 + 855103382165, 2**62 + 418650159057, 2**63 + 730852075449]
HUGE_ENDOWMENTS = [2**62 + 32, 2**62 + 33, 2**62 + 35]
ALLOCATE_DOCUMENTS = {
    # non-canonical strings, bare JSON ints and omitted slopes
    "peaked": {
        "omega": "3",
        "agents": [
            {"peak": "2/4"},
            {"peak": "06/8", "left_slope": 2},
            {"peak": " 3 ", "right_slope": "3/4"},
            {"peak": 2, "left_slope": "1/2", "right_slope": "06/4"},
        ],
    },
    "endowed": {
        "omega": "3",
        "agents": [{"peak": "2/4"}, {"peak": "06/8"}, {"peak": " 3 "}, {"peak": 2}],
        "endowments": ["1/2", "2/4", 1, "1"],
    },
    "plateaued": {
        "omega": "4",
        "agents": [
            {"plateau_lo": "0", "plateau_hi": "2/4"},
            {"plateau_lo": "1/3", "plateau_hi": "06/4", "left_slope": 2},
            {"plateau_lo": 1, "plateau_hi": " 3 "},
            {"peak": "5/6"},
        ],
    },
    "huge": {
        "omega": f"{sum(HUGE_ENDOWMENTS)}/{HUGE_PRIME}",
        "agents": [{"peak": f"{p}/{HUGE_PRIME}"} for p in HUGE_PEAKS],
        "endowments": [f"{w}/{HUGE_PRIME}" for w in HUGE_ENDOWMENTS],
    },
}


@pytest.mark.parametrize("name", RULE_NAMES)
def test_allocate_prints_the_library_allotment(tmp_path, capsys, name):
    # allocate writes the text and the decimals from the allotment's
    # integers; they must read as the library's amounts do, in both formats
    rule, ran = get_rule(name), 0
    for kind, document in ALLOCATE_DOCUMENTS.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(document))
        try:
            amounts = list(rule(economy_from_dict(document)))
        except ValueError as exc:  # a document outside the rule's domain
            refusal = (2, "", f"error: {exc}\n")
            assert run(capsys, "allocate", str(path), name) == refusal
            continue
        ran += 1
        code, out, _ = run(capsys, "allocate", str(path), name, "--format", "machine")
        assert code == 0
        printed = json.loads(out)
        # the echo is written as the reader parsed the document: canonical
        # text, omitted slopes as "1", plateaus and endowments kept
        assert printed["economy"] == economy_to_dict(economy_from_dict(document))
        assert printed["allotment"] == [format_rational(x) for x in amounts]
        assert printed["decimal"] == [float(x) for x in amounts]
        code, out, _ = run(capsys, "allocate", str(path), name)
        assert (code, out.splitlines()[1:]) == (
            0,
            [
                "allotment: " + ", ".join(format_rational(x) for x in amounts),
                "decimal: " + ", ".join(f"{float(x):.6g}" for x in amounts),
            ],
        )
    assert ran >= 2


@pytest.mark.parametrize("plateaued", [False, True], ids=["peaks", "plateaus"])
def test_allocate_reads_and_writes_each_distinct_number_string_once(
    tmp_path, capsys, monkeypatch, plateaued
):
    # 600 agents over a few strings: every field of every agent, omega and
    # the endowments repeat them, so reading the document and echoing it
    # parse and format each distinct string once, not once per field
    rng = random.Random(54)
    ends, slopes = ["0", "1/4", "2/4", "3/4", "06/8"], ["1", "3", "1/2", "2/4", 1, 2]
    agents = []
    for _ in range(600):
        lo, hi = sorted(rng.sample(ends, 2), key=F)
        agent = {"left_slope": rng.choice(slopes)}
        if rng.random() < 0.5:  # an omitted right slope is read as "1"
            agent["right_slope"] = rng.choice(slopes)
        agent.update(
            {"plateau_lo": lo, "plateau_hi": hi} if plateaued else {"peak": hi}
        )
        agents.append(agent)
    document = {
        "omega": "600",
        "agents": agents,
        "endowments": ["1/2", "3/2"] * 300,
    }
    path = tmp_path / "many.json"
    path.write_text(json.dumps(document))
    distinct = {
        value
        for value in [document["omega"], "1", *document["endowments"]]
        + [value for agent in agents for value in agent.values()]
        if type(value) is str
    }
    calls = {"parse_rational": [], "format_rational": []}

    def counted(name, function):
        def count(value):
            calls[name].append(value)
            return function(value)

        return count

    for name, function in (
        ("parse_rational", cli_module.parse_rational),
        ("format_rational", cli_module.format_rational),
    ):
        monkeypatch.setattr(cli_module, name, counted(name, function))
    rule = "realloc:cea" if not plateaued else "uniform"
    code, out, _ = run(capsys, "allocate", str(path), rule, "--format", "machine")
    assert code == 0
    monkeypatch.undo()
    assert json.loads(out)["economy"] == economy_to_dict(economy_from_dict(document))
    parsed = [value for value in calls["parse_rational"] if type(value) is str]
    assert len(parsed) == len(set(parsed)) == len(distinct)
    # every value read is a string but the JSON ints 1 and 2, which are
    # read wherever they stand
    ints = len(calls["parse_rational"]) - len(parsed)
    assert len(calls["format_rational"]) == len(distinct) + ints


def test_allocate_documents_reach_rounded_quotients_and_unreduced_denominators():
    allotment = get_rule("uniform")(economy_from_dict(ALLOCATE_DOCUMENTS["huge"]))
    assert all(
        min(x.numerator, x.denominator) > 2**53 and F(float(x)) != x
        for x in allotment
    )
    # the allotment's common denominator is not the least one of its amounts
    for allotment in (
        allotment,
        get_rule("uniform")(economy_from_dict(ALLOCATE_DOCUMENTS["peaked"])),
    ):
        assert allotment._common != lcm(*(x.denominator for x in allotment))


def test_economy_round_trip_is_field_identical():
    plateaus = Economy((SinglePlateaued(0, 2), SinglePlateaued(1, 1, F(2, 3), 5)), 3)
    sloped = Economy((SinglePeaked(F(1, 4), F(7, 2), F(1, 9)), SinglePeaked(3)), 2)
    endowed = Economy(sloped.prefs, 2, (F(1, 2), F(3, 2)))
    assert economy_to_dict(economy_from_dict(OM_ECONOMY)) == OM_ECONOMY
    for econ in (plateaus, sloped, endowed):
        document = economy_to_dict(econ)
        assert economy_from_dict(document) == econ
        assert economy_to_dict(economy_from_dict(document)) == document


@settings(max_examples=100, deadline=None)
@given(
    economies()
    | economies(plateaued=True)
    | economies(endowed=True)
    | economies(endowed=True, plateaued=True)
)
def test_economy_round_trip_is_field_identical_property(econ):
    document = economy_to_dict(econ)
    back = economy_from_dict(document)
    assert (back.prefs, back.omega, back.endowments) == (
        econ.prefs,
        econ.omega,
        econ.endowments,
    )
    assert economy_to_dict(back) == document


@pytest.mark.parametrize("endowed", [False, True], ids=["plain", "endowed"])
@pytest.mark.parametrize("plateaued", [False, True], ids=["peaks", "plateaus"])
def test_large_document_reads_to_the_economy_built_from_fractions(
    plateaued, endowed
):
    # 1,000 agents drawn from a few values, so most strings repeat across
    # agents and fields and are read through the document's parse memo;
    # a slope of 1 is sometimes written as the JSON integer 1
    rng = random.Random(27)
    values = [F(k, 4) for k in range(9)]
    slopes = [F(1), F(3), F(1, 2)]

    def text(x):
        return 1 if x == 1 and rng.random() < 0.5 else str(x)

    prefs, agents = [], []
    for _ in range(1000):
        left, right = rng.choice(slopes), rng.choice(slopes)
        if plateaued:
            lo, hi = sorted(rng.choices(values, k=2))
            prefs.append(SinglePlateaued(lo, hi, left, right))
            agents.append({"plateau_lo": str(lo), "plateau_hi": str(hi)})
        else:
            peak = rng.choice(values)
            prefs.append(SinglePeaked(peak, left, right))
            agents.append({"peak": str(peak)})
        agents[-1].update(left_slope=text(left), right_slope=text(right))
    endowments = [rng.choice(values[1:]) for _ in prefs]
    omega = sum(endowments)
    document = {"omega": str(omega), "agents": agents}
    if endowed:
        document["endowments"] = [str(w) for w in endowments]
    econ = economy_from_dict(json.loads(json.dumps(document)))
    expected = Economy(tuple(prefs), omega, tuple(endowments) if endowed else None)
    assert (econ.prefs, econ.omega, econ.endowments) == (
        expected.prefs,
        expected.omega,
        expected.endowments,
    )
    numbers = [econ.omega, *(econ.endowments or ())]
    numbers += [value for pref in econ.prefs for value in vars(pref).values()]
    assert {type(x) for x in numbers} == {F}


@pytest.mark.parametrize(
    "value, message",
    [
        (True, "not a rational: True"),
        (1.0, 'decimal 1.0 rejected: use an exact "p/q" string'),
        ("1.0", 'decimal \'1.0\' rejected: use an exact "p/q" string'),
        ("2e3", 'decimal \'2e3\' rejected: use an exact "p/q" string'),
        (None, "not a rational: None"),
        ([1], "not a rational: [1]"),
    ],
    ids=["true", "float", "decimal-string", "exponent-string", "null", "list"],
)
@pytest.mark.parametrize("field", ["peak", "right_slope", "endowments"])
def test_parse_memo_keeps_every_refusal(tmp_path, capsys, value, message, field):
    # "1" is read (and memoised) first; True == 1 == 1.0 as dict keys, so
    # a memo keyed on values of any type would accept the later value
    second = {"peak": "1"}
    endowments = ["1", "1"]
    if field == "endowments":
        endowments[1] = value
    else:
        second[field] = value
    document = {
        "omega": "2",
        "agents": [{"peak": "1", "left_slope": "1"}, second],
        "endowments": endowments,
    }
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "allocate", str(path), "uniform")
    assert (code, out, err) == (2, "", f"error: {message}\n")


MACHINE_STRINGS = st.text() | st.sampled_from(
    ['"', "\\", 'a "quoted" \\path\\', "\x00\t\n\r\x1f\x7f", "é €\u2028 😀",
     "\ud800"]
)
MACHINE_SCALARS = (
    MACHINE_STRINGS
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.booleans()
    | st.none()
    | st.floats()
    | st.sampled_from([-0.0, 1e16, 5e-324, 1.5, float("inf"), float("nan")])
)
MACHINE_DOCUMENTS = st.recursive(
    MACHINE_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(MACHINE_STRINGS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=500, deadline=None)
@given(MACHINE_DOCUMENTS)
@example({})
@example([])
@example({"a": [], "b": {}, "c": [[], {}], "": ()})
@example({"x": [-0.0, 1e16, 5e-324, float("-inf")], "y": [True, None, -(10**30)]})
def test_machine_writer_matches_json_dumps(document):
    assert _machine_json(document) == json.dumps(document, indent=2, sort_keys=True)


@pytest.mark.parametrize(
    "value",
    [F(1, 2), {1, 2}, {"a": [b"x"]}, {1: "x"}],
    ids=["fraction", "set", "nested-bytes", "int-key"],
)
def test_machine_writer_refuses_values_outside_a_report(value):
    # json refuses the first three too; it would write the int key as
    # "1", but a report's keys are all strings
    with pytest.raises(TypeError):
        _machine_json(value)


def test_decimals_rejected(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"omega": 1.0, "agents": [{"peak": "0"}, {"peak": "1"}]}')
    code, _, err = run(capsys, "allocate", str(path), "uniform")
    assert code == 2
    assert "decimal" in err


def test_decimal_strings_rejected(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    path.write_text('{"omega": "1", "agents": [{"peak": "0.5"}, {"peak": "1"}]}')
    code, _, err = run(capsys, "allocate", str(path), "uniform")
    assert code == 2
    assert "decimal" in err


def first_agent(agent):
    return {"omega": "1", "agents": [agent, {"peak": "1"}]}


def test_agent_entry_without_a_peak_or_plateau_is_printed_as_json(tmp_path, capsys):
    path = tmp_path / "peek.json"
    path.write_text(json.dumps(first_agent({"peek": "1/2", "plateau_lo": None})))
    assert run(capsys, "allocate", str(path), "uniform") == (
        2,
        "",
        'error: agent entry needs a peak or a plateau: '
        '{"peek": "1/2", "plateau_lo": null}\n',
    )


@pytest.mark.parametrize(
    "document, message",
    [
        (dict(OM_ECONOMY, endowments="10"), "'endowments' must be an array"),
        (dict(OM_ECONOMY, endowments={"0": "1"}), "'endowments' must be an array"),
        ({"omega": "1", "agents": "ab"}, "'agents' must be an array"),
        ({"omega": "1", "agents": {"peak": "1"}}, "'agents' must be an array"),
        (first_agent(3), "agent entry must be an object, got 3"),
        (["omega", "1"], "an economy must be an object"),
        (dict(OM_ECONOMY, n="2"), "unknown key 'n' in the economy"),
        (
            first_agent({"peak": "1/2", "left_slop": "3"}),
            "unknown key 'left_slop' in a peak agent",
        ),
        (
            first_agent({"peak": "1/2", "plateau_lo": "0"}),
            "unknown key 'plateau_lo' in a peak agent",
        ),
        (
            first_agent({"plateau_lo": "0", "plateau_hi": "1", "peak": "1/2"}),
            "unknown key 'peak' in a plateau agent",
        ),
    ],
    ids=[
        "endowments-string", "endowments-object", "agents-string",
        "agents-object", "agent-int", "economy-array", "economy-key",
        "slope-typo", "peak-agent-plateau-key", "plateau-agent-peak-key",
    ],
)
def test_malformed_economy_files_exit_2(tmp_path, capsys, document, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(document))
    code, out, err = run(capsys, "allocate", str(path), "realloc:cea")
    assert code == 2
    assert out == ""
    assert message in err


RATIONALS = st.integers(0, 6) | st.sampled_from(["1/2", "3/2", "5/2"])
JSON_SCALARS = (RATIONALS | st.booleans() | st.integers() | st.text(max_size=4)
                | st.sampled_from(["-1", "1/0", "0.5", "x"]))
KNOWN_KEYS = st.sampled_from(ECONOMY_KEYS + PLATEAU_KEYS + PEAK_KEYS)
JSON_KEYS = KNOWN_KEYS | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(JSON_KEYS, inner, max_size=4),
    max_leaves=16,
)
# near-economies reach the preference and economy constructors, and the
# rule, more often
ECONOMY_LIKE = st.fixed_dictionaries(
    {
        "omega": RATIONALS | JSON_SCALARS,
        "agents": st.lists(
            st.fixed_dictionaries(
                {"peak": RATIONALS},
                optional={"left_slope": RATIONALS, "right_slope": RATIONALS},
            )
            | st.dictionaries(JSON_KEYS, JSON_SCALARS, max_size=4),
            min_size=2,
            max_size=4,
        ),
    },
    optional={"endowments": st.lists(RATIONALS, max_size=4) | JSON_VALUES},
)


@settings(max_examples=300, deadline=None)
@given(document=JSON_VALUES | ECONOMY_LIKE)
def test_loader_fuzz_exits_0_or_2(tmp_path_factory, document):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(document))
    assert main(["allocate", str(path), "simple:cea"]) in (0, 2)


def field_by_field_economy(raw):
    """The economy a document reads to when each entry's keys are checked
    one by one and each number goes through parse_rational on its own:
    the reader without its parse memo, its echo or its fast paths."""
    if not isinstance(raw, dict):
        raise ValueError(f"an economy must be an object, got {json.dumps(raw)}")
    cli_module._reject_unknown_keys(raw, ECONOMY_KEYS, "the economy")
    for key in ("agents", "endowments"):
        if raw.get(key) is not None and not isinstance(raw[key], list):
            raise ValueError(f"{key!r} must be an array, got {json.dumps(raw[key])}")

    def pref(entry):
        if not isinstance(entry, dict):
            raise ValueError(f"agent entry must be an object, got {json.dumps(entry)}")
        if {"plateau_lo", "plateau_hi"} <= entry.keys():
            kind, keys, what = SinglePlateaued, PLATEAU_KEYS, "a plateau agent"
        elif "peak" in entry:
            kind, keys, what = SinglePeaked, PEAK_KEYS, "a peak agent"
        else:
            raise ValueError(
                f"agent entry needs a peak or a plateau: {json.dumps(entry)}"
            )
        cli_module._reject_unknown_keys(entry, keys, what)
        return kind(*[parse_rational(entry.get(key, "1")) for key in keys])

    try:
        omega = parse_rational(raw["omega"])
        prefs = tuple(pref(entry) for entry in raw["agents"])
        endowments = raw.get("endowments")
        if endowments is not None:
            endowments = tuple(parse_rational(w) for w in endowments)
        return Economy(prefs, omega, endowments)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed economy file: {exc}") from exc


def read_outcome(read, document):
    """The economy read(document) returns and the types of its numbers, or
    the type and text of its refusal."""
    try:
        econ = read(document)
    except Exception as exc:
        return type(exc), str(exc)
    numbers = [econ.omega, *(econ.endowments or ())]
    numbers += [value for pref in econ.prefs for value in vars(pref).values()]
    return econ, [type(x) for x in numbers]


REFUSAL_ORDER = [
    # each document has two faults; the first one read must be refused
    {"omega": "x", "agents": [{"peak": "y"}]},
    {"agents": [{"peak": "y"}, {"peak": "1"}]},
    {"omega": "1", "agents": None},
    {"omega": "1", "agents": [{"peak": "x", "left_slope": 0.5}, {"peek": "1"}]},
    {"omega": "1", "agents": [{"peak": "1", "left_slope": "x", "right_slope": True}]},
    {"omega": "1", "agents": [{"peak": "-1", "left_slope": "x"}, {"peak": "1"}]},
    {"omega": "1", "agents": [{"peak": "1/2", "left_slope": "0", "right": "1"}]},
    {"omega": "1", "agents": [{"plateau_lo": "-1", "plateau_hi": "y"}]},
    {"omega": "1", "agents": [{"plateau_hi": "0", "plateau_lo": "1", "left_slope": "-1"}]},
    {"omega": "1", "agents": [{"plateau_lo": "-1", "plateau_hi": "0", "right_slope": 0}]},
    {"omega": "1", "agents": [{"plateau_lo": "0", "plateau_hi": "1", "peak": "x"}]},
    {"omega": "1", "agents": [{"peak": "z"}, {"peak": "1"}], "endowments": ["q"]},
    {"omega": "1", "agents": [{"peak": "1"}, {"peak": "1"}], "endowments": ["1", 1.5]},
]


def assert_reads_as_field_by_field(document):
    # the same economy or the same refusal, raised at the same place, and
    # the echo read with an economy is what economy_to_dict writes for it
    expected = read_outcome(field_by_field_economy, document)
    assert read_outcome(economy_from_dict, document) == expected
    if isinstance(expected[0], Economy):
        assert cli_module._read_economy(document)[1] == economy_to_dict(expected[0])


@pytest.mark.parametrize("document", REFUSAL_ORDER)
def test_reader_refuses_the_first_fault_read(document):
    assert_reads_as_field_by_field(document)


@settings(max_examples=300, deadline=None)
@given(document=JSON_VALUES | ECONOMY_LIKE)
def test_reader_refuses_and_reads_as_field_by_field(document):
    assert_reads_as_field_by_field(document)


def test_allocate_takes_no_sampling_flags(om_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["allocate", om_file, "simple:cea", "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_realloc_without_endowments_rejected(om_file, tmp_path, capsys):
    code, _, err = run(capsys, "allocate", om_file, "realloc:cea")
    assert code == 2
    assert "endowments" in err
    # a file with fewer endowments than agents is refused as it is read
    short = tmp_path / "short.json"
    short.write_text(
        '{"omega": "2", "agents": [{"peak": "1"}, {"peak": "1"}], '
        '"endowments": ["2"]}'
    )
    assert run(capsys, "allocate", str(short), "realloc:cea") == (
        2,
        "",
        "error: one endowment per agent required\n",
    )
    # a check that reads endowments refuses the file before any rule runs
    for rule, axiom in (
        ("realloc:cea", "symmetry"),
        ("uniform", "endowments-guarantee"),
    ):
        assert run(capsys, "check", om_file, rule, "--axioms", axiom) == (
            2,
            "",
            "error: this check needs individual endowments, but the economy "
            "file has none\n",
        )


def test_unreadable_economy_files_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "allocate", str(missing), "uniform")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")
    broken = tmp_path / "broken.json"
    broken.write_text('{"omega": "1",')
    code, out, err = run(capsys, "allocate", str(broken), "uniform")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {broken} is not valid JSON: ")


def test_check_simple_rule_passes_axioms(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "simple:cea",
        "--axioms",
        "efficiency,edg,symmetry,nom",
        "--random",
        "40",
        "--grid-step",
        "12",
    )
    assert code == 0
    assert out.count("PASS_ON_SAMPLE") == 4


def test_check_reallocation_betweenness_around_endowments(tmp_path, capsys):
    path = tmp_path / "endowed.json"
    path.write_text(json.dumps({
        "omega": "2",
        "agents": [{"peak": "1/2"}, {"peak": "1/2"}],
        "endowments": ["0", "2"],
    }))
    code, out, _ = run(
        capsys, "check", str(path), "realloc:cea", "--axioms", "betweenness"
    )
    assert code == 0
    assert out == "betweenness: PASS_ON_SAMPLE\n"


def test_check_bar_fails_symmetry(capsys):
    code, out, _ = run(
        capsys, "check", "gallery:bar",
        "--axioms", "symmetry", "--random", "30",
    )
    assert code == 1
    assert "FAIL" in out


def test_check_expect_fail_inverts_exit(capsys):
    code, out, _ = run(
        capsys, "check", "gallery:bar",
        "--axioms", "symmetry", "--random", "30", "--expect-fail", "symmetry",
    )
    assert code == 0
    assert "FAIL" in out


def test_check_expect_fail_outside_axioms_exits_2(capsys):
    # an expected failure of an axiom that is not checked is never checked,
    # so exit 0 would be vacuous
    code, out, err = run(
        capsys, "check", "--random", "20", "uniform",
        "--axioms", "edg", "--expect-fail", "symmetry",
    )
    assert (code, out) == (2, "")
    assert "--expect-fail 'symmetry' is not among --axioms" in err


def test_check_equal_division_fails_efficiency(capsys):
    code, out, _ = run(
        capsys, "check", "gallery:equal_division",
        "--axioms", "efficiency", "--random", "30",
    )
    assert code == 1
    assert "FAIL" in out


def test_check_unknown_axiom(om_file, capsys):
    code, _, err = run(
        capsys, "check", om_file, "uniform", "--axioms", "coolness"
    )
    assert code == 2
    assert "unknown axiom" in err


@pytest.mark.parametrize("axioms", ["", " ", ",,"])
def test_check_refuses_an_empty_axiom_list(capsys, monkeypatch, axioms):
    # a check of no axiom would be a vacuous PASS; it is refused before the
    # rule runs or any economy is drawn (either would exit 3 here); the
    # rule's name is resolved first, as every subcommand's is
    def never(*args, **kwargs):
        raise AssertionError("ran the rule or drew an economy")

    monkeypatch.setattr(cli_module, "get_rule", lambda name: Rule(name, never))
    for name in ("random_plateaued_economy", "standard_suite", "nom_sweep"):
        monkeypatch.setattr(cli_module, name, never)
    argv = ("check", "--random", "3", "uniform", "--axioms", axioms)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: --axioms names no axiom; choose from "
        + ", ".join(cli_module.AXIOMS) + "\n"
    )


def test_check_nom_on_file_economy(om_file, capsys):
    code, out, _ = run(
        capsys, "check", om_file, "ced", "--axioms", "nom", "--grid-step", "20"
    )
    assert code == 1
    assert "misreports peak 0" in out

    code, out, _ = run(
        capsys, "check", om_file, "ced", "--axioms", "nom",
        "--grid-step", "20", "--expect-fail", "nom",
    )
    assert code == 0

    code, out, _ = run(
        capsys, "check", om_file, "simple:cea", "--axioms", "nom",
        "--grid-step", "20",
    )
    assert code == 0
    assert "PASS_ON_SAMPLE" in out


def test_check_machine_witness_replays(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "gallery:bar",
        "--axioms",
        "symmetry",
        "--random",
        "30",
        "--format",
        "machine",
    )
    assert code == 1
    document = json.loads(out)
    entry = document["axioms"][0]
    assert entry["verdict"] == "FAIL"
    witness = economy_from_dict(entry["witness"]["economy"])
    from allotment.axioms import check_symmetry
    from allotment.rules import get_rule

    assert check_symmetry(get_rule("gallery:bar"), [witness]).failed


@pytest.mark.parametrize("count, samples", [("3", 8), ("40", 40)])
def test_check_random_puts_the_witness_economies_first(capsys, count, samples):
    # the 8 witness economies always come first; random draws only fill
    # the suite up to COUNT
    code, out, _ = run(
        capsys, "check", "--random", count, "uniform", "--axioms", "edg",
        "--format", "machine",
    )
    assert code == 0
    assert json.loads(out)["samples"] == samples


@pytest.mark.parametrize("count, samples", [("3", 4), ("40", 40)])
def test_check_random_nom_alone_counts_its_own_cases(
    capsys, monkeypatch, count, samples
):
    # nom draws its NOM cases (the 4 witnesses first), so no economy
    # suite is built and samples counts the cases
    def no_suite(*args, **kwargs):
        raise AssertionError("standard_suite built for nom alone")

    monkeypatch.setattr("allotment.cli.standard_suite", no_suite)
    code, out, _ = run(
        capsys, "check", "--random", count, "uniform", "--axioms", "nom",
        "--grid-step", "12", "--format", "machine",
    )
    assert code == 0
    document = json.loads(out)
    assert document["samples"] == samples
    assert document["axioms"][0]["checked"] == samples


def test_check_random_draws_plateaued_economies_for_spl_rules(capsys):
    # the rule's domain picks the draws: an spl: rule is checked on seeded
    # single-plateaued economies, which the peak-free checkers accept
    argv = ("check", "--random", "50", "spl:cea", "--axioms", "symmetry,envy-free,edlb")
    first = run(capsys, *argv)
    assert first == (
        0,
        "symmetry: PASS_ON_SAMPLE\nenvy-free: PASS_ON_SAMPLE\nedlb: PASS_ON_SAMPLE\n",
        "",
    )
    assert run(capsys, *argv) == first

    code, out, _ = run(
        capsys, "check", "--random", "50", "spl:cel",
        "--axioms", "envy-free", "--format", "machine",
    )
    assert code == 1
    witness = json.loads(out)["axioms"][0]["witness"]["economy"]
    rng = random.Random(0)
    draws = [random_plateaued_economy(rng) for _ in range(2)]
    assert economy_from_dict(witness) == draws[1]

    code, out, err = run(
        capsys, "check", "--random", "50", "spl:cel", "--axioms", "efficiency"
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: efficiency reads each agent's peak, so it is checked on the "
        "single-peaked domain only; this economy has single-plateaued agents\n"
    )


def test_option_set_simple_rule_exact(tmp_path, capsys):
    path = tmp_path / "pair.json"
    path.write_text(
        json.dumps(
            {"omega": "1", "agents": [{"peak": "3/4"}, {"peak": "1/4"}]}
        )
    )
    code, out, _ = run(
        capsys, "option-set", str(path), "simple:cea", "1", "--grid-step", "12"
    )
    assert code == 0
    assert "[1/2, 3/4] (exact)" in out
    assert "endpoints attained=True" in out


def test_option_set_degenerate_interval(tmp_path, capsys):
    path = tmp_path / "deg.json"
    path.write_text(
        json.dumps(
            {"omega": "1", "agents": [{"peak": "1/2"}, {"peak": "1/4"}]}
        )
    )
    code, out, _ = run(
        capsys, "option-set", str(path), "simple:cea", "1", "--grid-step", "12"
    )
    assert code == 0
    assert "[1/2, 1/2] (exact)" in out


def test_option_set_sampled_for_ced(om_file, capsys):
    code, out, _ = run(
        capsys, "option-set", om_file, "ced", "1", "--grid-step", "20"
    )
    assert code == 0
    assert "sampled range [0, 2/3]" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("option-set", "ced", "5"), "agent must be between 1 and 2"),
        (("find-manipulation", "ced", "3"), "agent must be between 1 and 2"),
        (("find-manipulation", "ced", "0"), "agent must be between 1 and 2"),
        (
            ("option-set", "realloc:cea", "1"),
            "option sets are computed on the plain single-peaked domain",
        ),
    ],
    ids=["option-set", "find-manipulation", "find-manipulation-0", "realloc"],
)
def test_agent_commands_refuse_bad_agents_and_domains(om_file, capsys, argv, message):
    command, *rest = argv
    assert run(capsys, command, om_file, *rest) == (2, "", f"error: {message}\n")


def test_find_manipulation_certificate(om_file, capsys):
    code, out, _ = run(
        capsys,
        "find-manipulation",
        om_file,
        "ced",
        "1",
        "--misreport-grid",
        "20",
        "--grid-step",
        "20",
    )
    assert code == 1
    assert "misreport peak: 0" in out
    assert "d(1/2)=1/2 < d(2/3)=1" in out


def test_find_manipulation_machine_certificate(om_file, capsys):
    code, out, _ = run(
        capsys,
        "find-manipulation",
        om_file,
        "ced",
        "1",
        "--misreport-grid",
        "20",
        "--grid-step",
        "20",
        "--format",
        "machine",
    )
    assert code == 1
    document = json.loads(out)
    certificate = document["certificate"]
    assert certificate["misreport"]["peak"] == "0"
    assert certificate["worst_truth"] == "2/3"
    assert certificate["worst_misreport"] == "1/2"
    assert certificate["exactness"] == "SAMPLED"
    assert certificate["strictly_preferred"] is True


def test_find_manipulation_none_for_uniform(om_file, capsys):
    code, out, _ = run(
        capsys, "find-manipulation", om_file, "uniform", "1",
        "--misreport-grid", "20",
    )
    assert code == 0
    assert "no obvious manipulation found on grid" in out


def test_find_manipulation_proportional(om_file, capsys):
    code, out, _ = run(
        capsys,
        "find-manipulation",
        om_file,
        "proportional",
        "1",
        "--misreport-grid",
        "20",
        "--grid-step",
        "20",
    )
    assert code == 1
    assert "misreport peak: 0" in out


@pytest.mark.parametrize(
    "rule,expected",
    [("uniform", 0), ("simple:cea", 0), ("realloc:cea", 0), ("ced", 1)],
)
def test_nom_on_endowed_files_for_every_rule(tmp_path, capsys, rule, expected):
    # only a reallocation rule reads the agents' endowments, so the others
    # are searched without them, as on the same file without endowments
    path = tmp_path / "endowed-om.json"
    path.write_text(json.dumps(dict(OM_ECONOMY, endowments=["1/2", "1/2"])))
    grids = ("--grid-step", "20")
    for argv in (
        ("find-manipulation", str(path), rule, "1", "--misreport-grid", "20"),
        ("check", str(path), rule, "--axioms", "nom"),
    ):
        code, out, err = run(capsys, *argv, *grids)
        assert (code, err) == (expected, ""), (argv, err)
        found = "obvious manipulation found:" in out or "nom: FAIL" in out
        assert found == bool(expected), (argv, out)


@pytest.mark.parametrize(
    "argv",
    [
        ("option-set", "ced", "1", "--grid-step", "0"),
        ("find-manipulation", "ced", "1", "--misreport-grid", "0"),
        ("find-manipulation", "ced", "1", "--misreport-grid", "-3"),
        ("find-manipulation", "ced", "1", "--grid-step", "0"),
        # a simple rule's search is skipped, its grid check is not
        ("find-manipulation", "simple:cea", "1", "--grid-step", "0"),
        ("find-manipulation", "uniform", "1", "--grid-step", "0"),
        ("check", "uniform", "--axioms", "nom", "--grid-step", "-1"),
        # refused before the first case, though gallery:star skips the
        # file's two agents and would report that no case was inspected
        ("check", "gallery:star", "--axioms", "sp", "--grid-step", "0"),
        ("check", "gallery:star", "--axioms", "nom", "--grid-step", "0"),
    ],
)
def test_empty_grids_exit_2(om_file, capsys, argv):
    code, out, err = run(capsys, argv[0], om_file, *argv[1:])
    assert code == 2
    assert out == ""
    assert "grid step denominator must be at least 1" in err


def test_nom_refuses_plateaued_preferences(tmp_path, capsys, monkeypatch):
    path = tmp_path / "plateau.json"
    path.write_text(
        json.dumps(
            {
                "omega": "2",
                "agents": [
                    {"plateau_lo": "0", "plateau_hi": "2"},
                    {"plateau_lo": "1/2", "plateau_hi": "1"},
                ],
            }
        )
    )
    # an spl: rule's draws are plateaus, so --random is refused in the
    # file's words, before any draw: a draw would exit 3 here
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an economy before the nom refusal")

    for name in ("random_plateaued_economy", "standard_suite", "nom_sweep"):
        monkeypatch.setattr(cli_module, name, no_draw)
    refusal = (
        2,
        "",
        "error: nom reads each agent's peak, so it is checked on the "
        "single-peaked domain only; this economy has single-plateaued agents\n",
    )
    for argv in (
        ("--random", "5", "spl:cea", "--axioms", "nom,symmetry"),
        ("--random", "3", "spl:cea", "--axioms", "nom"),
        (str(path), "uniform", "--axioms", "nom"),
        (str(path), "spl:cea", "--axioms", "symmetry,nom"),
    ):
        assert run(capsys, "check", *argv) == refusal


def test_nom_refuses_a_plateau_file_in_one_text_for_every_rule(tmp_path, capsys):
    # the refusal reads the file's preferences, not the rule's name
    path = tmp_path / "plateau.json"
    path.write_text(
        json.dumps(
            {
                "omega": "2",
                "agents": [
                    {"plateau_lo": "0", "plateau_hi": "2"},
                    {"plateau_lo": "1/2", "plateau_hi": "1"},
                ],
            }
        )
    )
    for rule in ("spl:cea", "uniform", "simple:cea", "ced"):
        assert run(capsys, "check", str(path), rule, "--axioms", "nom") == (
            2,
            "",
            "error: nom reads each agent's peak, so it is checked on the "
            "single-peaked domain only; this economy has single-plateaued agents\n",
        )
    # an spl: rule is simple, so on a single-peaked file nom passes
    peaks = tmp_path / "peaks.json"
    peaks.write_text(
        json.dumps({"omega": "2", "agents": [{"peak": "1/2"}, {"peak": "1"}]})
    )
    code, out, _ = run(capsys, "check", str(peaks), "spl:cea", "--axioms", "nom")
    assert (code, out) == (0, "nom: PASS_ON_SAMPLE\n")


@pytest.mark.parametrize(
    "axiom",
    [
        "efficiency",
        "own-peak-only",
        "edg",
        "endowments-guarantee",
        "peak-responsive",
        "betweenness",
        "sp",
    ],
)
def test_peak_checkers_refuse_plateaued_preferences(tmp_path, capsys, axiom):
    # each checker refuses the economy before it runs the rule, so every
    # rule gets the axiom's refusal, not its own domain refusal; three
    # agents, so that gallery:bar and gallery:star inspect the case
    path = tmp_path / "plateau.json"
    path.write_text(
        json.dumps(
            {
                "omega": "3/2",
                "agents": [
                    {"plateau_lo": "1/4", "plateau_hi": "1/2"},
                    {"plateau_lo": "0", "plateau_hi": "1"},
                    {"plateau_lo": "1/2", "plateau_hi": "1"},
                ],
                "endowments": ["1/2", "1/2", "1/2"],
            }
        )
    )
    for rule in RULE_NAMES:
        code, out, err = run(capsys, "check", str(path), rule, "--axioms", axiom)
        assert (code, out) == (2, ""), rule
        assert err == (
            f"error: {axiom} reads each agent's peak, so it is checked on the "
            "single-peaked domain only; this economy has single-plateaued agents\n"
        ), rule


@pytest.mark.parametrize(
    "axiom",
    [
        "efficiency",
        "own-peak-only",
        "edg",
        "endowments-guarantee",
        "peak-responsive",
        "betweenness",
        "sp",
        "nom",
    ],
)
def test_a_peak_reading_axiom_is_refused_before_any_draw(capsys, monkeypatch, axiom):
    # an spl: rule's draws are plateaus, so every peak-reading axiom, nom
    # included, is refused in one text before any draw or rule run, even
    # after a peak-free axiom; the counters see the draws and runs of a
    # check that is not refused
    calls = {"draws": 0, "runs": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("random_plateaued_economy", "standard_suite", "nom_sweep"):
        monkeypatch.setattr(cli_module, name, counted("draws", getattr(cli_module, name)))
    monkeypatch.setattr(Rule, "__call__", counted("runs", Rule.__call__))
    check = ("check", "--random", "200", "spl:cea", "--axioms")
    assert run(capsys, *check, f"symmetry,{axiom}") == (
        2,
        "",
        f"error: {axiom} reads each agent's peak, so it is checked on the "
        "single-peaked domain only; this economy has single-plateaued agents\n",
    )
    assert calls == {"draws": 0, "runs": 0}
    code, _, _ = run(capsys, *check, "symmetry")
    assert (code, calls) == (0, {"draws": 200, "runs": 200})


def test_find_manipulation_refuses_too_few_agents(om_file, capsys):
    code, out, err = run(capsys, "find-manipulation", om_file, "gallery:bar", "1")
    assert code == 2
    assert out == ""
    assert "needs at least 3 agents" in err


@pytest.mark.parametrize("rule", ["gallery:bar", "gallery:star"])
def test_allocate_refuses_too_few_agents(om_file, capsys, rule):
    code, out, err = run(capsys, "allocate", om_file, rule)
    assert code == 2
    assert out == ""
    assert err == f"error: rule {rule} needs at least 3 agents, got 2\n"


def test_option_set_refuses_too_few_agents(om_file, capsys):
    # refused by option_set_sampled before any opponent profile is built
    code, out, err = run(capsys, "option-set", om_file, "gallery:bar", "1")
    assert code == 2
    assert out == ""
    assert err == "error: rule gallery:bar needs at least 3 agents, got 2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("--random", "0"),
        ("--random", "-5"),
    ],
)
def test_counts_below_one_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["check", "simple:cea", "--axioms", "efficiency", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "count must be at least 1" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("/nonexistent.json", "uniform", "--axioms", "edg", "--random", "5"),
        ("--random", "uniform", "--axioms", "edg"),
        ("uniform", "--axioms", "edg", "--random"),
        ("uniform", "--axioms", "edg", "--random", "5", "--samples", "5"),
    ],
    ids=["file and --random", "bare --random", "trailing --random", "--samples"],
)
def test_check_random_takes_a_count_and_no_file(capsys, argv):
    # a file given with --random was never read, and a bare --random or
    # --samples was a second way to set the one count
    with pytest.raises(SystemExit) as exc:
        main(["check", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_check_refuses_vacuous_pass(om_file, three_file, capsys):
    code, out, err = run(
        capsys, "check", om_file, "gallery:star", "--axioms", "edg,nom"
    )
    assert code == 2
    assert out == ""
    assert "no case inspected for edg, nom" in err

    code, out, _ = run(
        capsys, "check", three_file, "gallery:star", "--axioms", "edg,nom",
        "--grid-step", "6",
    )
    assert code == 0
    assert out.count("PASS_ON_SAMPLE") == 2


def test_crash_exits_3_not_the_fail_code(om_file, capsys, monkeypatch):
    def broken(econ):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(
        "allotment.cli.get_rule", lambda name: Rule(name, broken)
    )
    code, out, err = run(capsys, "allocate", om_file, "uniform")
    assert code == 3
    assert out == ""
    assert err == "internal error: RuntimeError: kernel exploded\n"


def test_main_builds_its_parser_once(om_file, capsys, monkeypatch):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        built.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    build_parser.cache_clear()
    for rule in ("uniform", "ced"):
        assert run(capsys, "allocate", om_file, rule)[0] == 0
    assert built == ["allotment"]


def test_identical_invocations_are_byte_identical(capsys):
    args = (
        "check", "uniform", "--axioms", "efficiency,sp",
        "--random", "20", "--seed", "7", "--grid-step", "6",
        "--format", "machine",
    )
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_missing_economy_and_random_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--axioms", "efficiency", "uniform"])
    assert exc.value.code == 2


def test_load_economy_with_endowments(tmp_path):
    path = tmp_path / "endow.json"
    path.write_text(
        json.dumps(
            {
                "omega": "2",
                "agents": [{"peak": "0"}, {"peak": "2"}],
                "endowments": ["1", "1"],
            }
        )
    )
    econ = load_economy(str(path))
    assert econ.endowments == (F(1), F(1))


def test_plateau_agents_parse(tmp_path, capsys):
    path = tmp_path / "spl.json"
    path.write_text(
        json.dumps(
            {
                "omega": "2",
                "agents": [
                    {"plateau_lo": "0", "plateau_hi": "2"},
                    {"plateau_lo": "0", "plateau_hi": "2"},
                ],
            }
        )
    )
    code, out, _ = run(capsys, "allocate", str(path), "spl:cea")
    assert code == 0
    assert "1, 1" in out


PLATEAUS = {
    "omega": "3",
    "agents": [
        {"plateau_lo": "1/2", "plateau_hi": "1"},
        {"plateau_lo": "2", "plateau_hi": "5/2"},
        {"plateau_lo": "5/2", "plateau_hi": "3"},
    ],
}


@pytest.mark.parametrize(
    "rule, amounts",
    [
        ("uniform", "1/2, 5/4, 5/4"),
        ("spl:cea", "1/2, 5/4, 5/4"),
        ("simple:cel", "1/2, 1, 3/2"),
        ("gallery:bar", "1/2, 5/4, 5/4"),
    ],
)
def test_simple_rules_allocate_plateaus(tmp_path, capsys, rule, amounts):
    path = tmp_path / "plateaus.json"
    path.write_text(json.dumps(PLATEAUS))
    code, out, err = run(capsys, "allocate", str(path), rule)
    assert (code, err) == (0, "")
    assert f"allotment: {amounts}\n" in out


@pytest.mark.parametrize("rule", ["spl:cea", "spl:cel", "spl:pro"])
@pytest.mark.parametrize("command", ["option-set", "find-manipulation"])
def test_spl_rules_answer_as_their_twins_on_peaks(three_file, capsys, rule, command):
    twin = rule.replace("spl:", "simple:")
    code, out, err = run(capsys, command, three_file, rule, "2")
    assert (code, err) == (0, "")
    expected = (0, out.replace(rule, twin), "")
    assert run(capsys, command, three_file, twin, "2") == expected


# the rules simple around equal division, which take plateaus, peaks mixed in
SIMPLE_AROUND_EQUAL_DIVISION = {
    "uniform",
    "simple:cea",
    "simple:cel",
    "simple:pro",
    "simple:appendix-b",
    "spl:cea",
    "spl:cel",
    "spl:pro",
    "gallery:bar",
}


@pytest.mark.parametrize("name", RULE_NAMES)
def test_every_rule_on_a_mix_of_peaks_and_plateaus(tmp_path, capsys, name):
    path = tmp_path / "mixed.json"
    path.write_text(
        json.dumps(
            {
                "omega": "3",
                "agents": [
                    {"peak": "1/2"},
                    {"plateau_lo": "1", "plateau_hi": "2"},
                    {"peak": "3/2"},
                ],
                "endowments": ["1", "1", "1"],
            }
        )
    )
    code, out, err = run(capsys, "allocate", str(path), name, "--format", "machine")
    rule = get_rule(name)
    if name in SIMPLE_AROUND_EQUAL_DIVISION:
        # a peak is a plateau of width zero: each agent by its effective peak
        assert (code, err) == (0, "")
        expected = spl_extension_oracle(rule, load_economy(str(path)))
        assert [F(a) for a in json.loads(out)["allotment"]] == list(expected)
    else:
        assert (code, out) == (2, "")
        assert err == f"error: rule {rule.name} needs single-peaked preferences\n"


# a peak below equal division and a plateau above it under excess demand,
# and a plateau clamped at 3/2 between two peaks under excess supply
MIXED = {
    "mixed-demand": {
        "omega": "3",
        "agents": [
            {"peak": "1/2"},
            {"plateau_lo": "3/2", "plateau_hi": "2"},
            {"peak": "2"},
        ],
    },
    "mixed-straddle": {
        "omega": "3",
        "agents": [
            {"peak": "1/2"},
            {"plateau_lo": "1", "plateau_hi": "3"},
            {"peak": "1"},
        ],
    },
}


@pytest.mark.parametrize(
    "economy, name, amounts",
    [
        ("mixed-demand", "spl:cea", "1/2, 5/4, 5/4"),
        ("mixed-demand", "spl:cel", "1/2, 1, 3/2"),
        ("mixed-demand", "spl:pro", "1/2, 7/6, 4/3"),
        *(
            ("mixed-straddle", name, "1/2, 3/2, 1")
            for name in sorted(SIMPLE_AROUND_EQUAL_DIVISION)
        ),
    ],
)
def test_mixed_economies_allocate_by_effective_peaks(
    tmp_path, capsys, economy, name, amounts
):
    path = tmp_path / f"{economy}.json"
    path.write_text(json.dumps(MIXED[economy]))
    code, out, err = run(capsys, "allocate", str(path), name)
    assert (code, err) == (0, "")
    assert f"\nallotment: {amounts}\n" in out
    expected = spl_extension_oracle(get_rule(name), load_economy(str(path)))
    assert ", ".join(map(str, expected)) == amounts


def test_check_on_a_mix_of_peaks_and_plateaus(tmp_path, capsys):
    # the peak-free checkers take the mix; efficiency and nom read peaks
    path = tmp_path / "mixed-demand.json"
    path.write_text(json.dumps(MIXED["mixed-demand"]))
    check = ("check", str(path), "spl:cea", "--axioms")
    assert run(capsys, *check, "symmetry,envy-free,edlb") == (
        0,
        "symmetry: PASS_ON_SAMPLE\nenvy-free: PASS_ON_SAMPLE\nedlb: PASS_ON_SAMPLE\n",
        "",
    )
    assert run(capsys, *check, "efficiency") == (
        2,
        "",
        "error: efficiency reads each agent's peak, so it is checked on the "
        "single-peaked domain only; this economy has single-plateaued agents\n",
    )
    assert run(capsys, *check, "nom") == (
        2,
        "",
        "error: nom reads each agent's peak, so it is checked on the "
        "single-peaked domain only; this economy has single-plateaued agents\n",
    )
