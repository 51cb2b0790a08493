import json
from fractions import Fraction as F

import pytest

from allotment.cli import (
    economy_from_dict,
    economy_to_dict,
    load_economy,
    main,
)

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
        capsys,
        "allocate",
        three_file,
        "simple:appendix-b",
        "--selector",
        "hi",
        "--order",
        "2,3",
    )
    assert code == 0
    assert "1/2, 3/2, 1" in out


def test_allocate_machine_format_round_trips(om_file, capsys):
    code, out, _ = run(capsys, "allocate", om_file, "ced", "--format", "machine")
    assert code == 0
    document = json.loads(out)
    assert document["allotment"] == ["2/3", "1/3"]
    assert document["economy"] == OM_ECONOMY


def test_economy_round_trip_is_field_identical():
    econ = economy_from_dict(OM_ECONOMY)
    assert economy_to_dict(econ) == OM_ECONOMY


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


def test_realloc_without_endowments_rejected(om_file, capsys):
    code, _, err = run(capsys, "allocate", om_file, "realloc:cea")
    assert code == 2
    assert "endowments" in err


def test_check_simple_rule_passes_axioms(om_file, capsys):
    code, out, _ = run(
        capsys,
        "check",
        om_file,
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


def test_check_bar_fails_symmetry(om_file, capsys):
    code, out, _ = run(
        capsys, "check", om_file, "gallery:bar",
        "--axioms", "symmetry", "--random", "30",
    )
    assert code == 1
    assert "FAIL" in out


def test_check_expect_fail_inverts_exit(om_file, capsys):
    code, out, _ = run(
        capsys, "check", om_file, "gallery:bar",
        "--axioms", "symmetry", "--random", "30", "--expect-fail", "symmetry",
    )
    assert code == 0
    assert "FAIL" in out


def test_check_equal_division_fails_efficiency(om_file, capsys):
    code, out, _ = run(
        capsys, "check", om_file, "gallery:equal_division",
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


def test_check_machine_witness_replays(om_file, capsys):
    code, out, _ = run(
        capsys,
        "check",
        om_file,
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


def test_option_set_agent_out_of_range(om_file, capsys):
    code, _, err = run(capsys, "option-set", om_file, "ced", "5")
    assert code == 2
    assert "agent" in err


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
    "argv",
    [
        ("option-set", "ced", "1", "--grid-step", "0"),
        ("find-manipulation", "ced", "1", "--misreport-grid", "0"),
        ("find-manipulation", "ced", "1", "--misreport-grid", "-3"),
        ("find-manipulation", "ced", "1", "--grid-step", "0"),
        ("check", "uniform", "--axioms", "nom", "--grid-step", "-1"),
    ],
)
def test_empty_grids_exit_2(om_file, capsys, argv):
    code, out, err = run(capsys, argv[0], om_file, *argv[1:])
    assert code == 2
    assert out == ""
    assert "grid step denominator must be at least 1" in err


def test_nom_refuses_plateaued_preferences(tmp_path, capsys):
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
    code, out, err = run(capsys, "check", str(path), "spl:cea", "--axioms", "nom")
    assert code == 2
    assert out == ""
    assert "single-peaked" in err


@pytest.mark.parametrize(
    "axiom", ["own-peak-only", "edg", "sp", "endowments-guarantee"]
)
def test_peak_checkers_refuse_plateaued_preferences(tmp_path, capsys, axiom):
    path = tmp_path / "plateau.json"
    path.write_text(
        json.dumps(
            {
                "omega": "1",
                "agents": [
                    {"plateau_lo": "1/4", "plateau_hi": "1/2"},
                    {"plateau_lo": "0", "plateau_hi": "1"},
                ],
                "endowments": ["1/2", "1/2"],
            }
        )
    )
    code, out, err = run(capsys, "check", str(path), "spl:cea", "--axioms", axiom)
    assert code == 2
    assert out == ""
    assert "single-peaked" in err


def test_find_manipulation_refuses_too_few_agents(om_file, capsys):
    code, out, err = run(capsys, "find-manipulation", om_file, "gallery:bar", "1")
    assert code == 2
    assert out == ""
    assert "needs at least 3 agents" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--random", "--samples", "-3"),
        ("--random", "--samples", "0"),
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


def test_identical_invocations_are_byte_identical(om_file, capsys):
    args = (
        "check", om_file, "uniform", "--axioms", "efficiency,sp",
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
