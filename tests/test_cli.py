"""File formats and command driver: parsing, round trips, exit codes."""

import json

import numpy as np
import pytest

from qhistories.cli import SWEEP_COLUMNS, main
from qhistories.cli.files import (
    NotionResult,
    ProblemFile,
    ProbabilityValue,
    ReportFile,
    SelfDecoherenceSummary,
    canonical_dumps,
    clamp_probability,
    parse_problem,
    problem_to_objects,
    report_table,
    serialize_problem,
)
from qhistories.errors import ParseError, ValidationError
from qhistories.matcore import DEFAULT_TOL
from qhistories.scenarios import build_example1, build_example2

TOL = DEFAULT_TOL


def example1_problem(theta=np.pi / 3, state="rho1"):
    inst = build_example1(theta)
    eye = np.eye(3)
    ops = {
        "E1": inst.e1.matrix, "E1c": eye - inst.e1.matrix,
        "E2": inst.e2.matrix, "E2c": eye - inst.e2.matrix,
        "rho1": inst.rho1.matrix, "rho2": inst.rho2.matrix,
    }
    return ProblemFile(dim=3, operators=ops,
                       resolutions=[["E1", "E1c"], ["E2", "E2c"]],
                       state=state, mirrors=None)


def example2_problem():
    m = build_example2()
    eye = np.eye(4)
    ops = {
        "E1": m.e1.matrix, "F1": m.f1.matrix,
        "E2": m.e2.matrix, "E2c": eye - m.e2.matrix,
        "T": m.t.matrix, "U": m.u.matrix, "Psi": m.rho.matrix,
    }
    return ProblemFile(dim=4, operators=ops,
                       resolutions=[["E1", "F1"], ["E2", "E2c"]],
                       state="Psi",
                       mirrors={"(1,1)": "T", "(2,1)": "U"})


def test_canonical_json_is_sorted_and_stable():
    text = canonical_dumps({"b": 1, "a": [True, 2, 0.5]})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert "true" in text
    again = canonical_dumps(json.loads(text))
    assert again == text


def test_canonical_json_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("nan")})
    with pytest.raises(ValueError):
        canonical_dumps({"x": float("inf")})


def test_problem_serialization_is_byte_idempotent():
    problem = example2_problem()
    text = serialize_problem(problem)
    assert serialize_problem(parse_problem(text)) == text


def test_parse_problem_names_the_broken_operator():
    problem = example1_problem()
    text = serialize_problem(problem)
    data = json.loads(text)
    del data["operators"]["E2"]["im"]
    with pytest.raises(ParseError) as exc:
        parse_problem(canonical_dumps(data))
    assert "E2" in str(exc.value)


def test_parse_problem_rejects_unknown_names():
    data = json.loads(serialize_problem(example1_problem()))
    data["resolutions"][0][0] = "nope"
    with pytest.raises(ParseError) as exc:
        parse_problem(canonical_dumps(data))
    assert "nope" in str(exc.value)
    data = json.loads(serialize_problem(example1_problem()))
    data["state"] = "missing"
    with pytest.raises(ParseError):
        parse_problem(canonical_dumps(data))


def test_problem_objects_validate_operators():
    problem = example1_problem()
    broken = ProblemFile(
        dim=3,
        operators=dict(problem.operators, E1=0.5 * problem.operators["E1"]),
        resolutions=problem.resolutions,
        state=problem.state, mirrors=None)
    with pytest.raises(ValidationError) as exc:
        problem_to_objects(broken, TOL)
    assert "E1" in str(exc.value)


def test_problem_objects_support_mixture_states():
    problem = example1_problem()
    mixed = ProblemFile(dim=3, operators=problem.operators,
                        resolutions=problem.resolutions,
                        state=[["rho1", 0.5], ["rho2", 0.5]], mirrors=None)
    text = serialize_problem(mixed)
    family, rho, mirrors = problem_to_objects(parse_problem(text), TOL)
    assert rho.purity == pytest.approx(0.5, abs=1e-12)
    assert mirrors == {}
    bad = ProblemFile(dim=3, operators=problem.operators,
                      resolutions=problem.resolutions,
                      state=[["rho1", 0.6], ["rho2", 0.6]], mirrors=None)
    with pytest.raises(ValidationError):
        problem_to_objects(bad, TOL)


def test_problem_objects_reject_unknown_mirror_labels():
    problem = example2_problem()
    bad = ProblemFile(dim=4, operators=problem.operators,
                      resolutions=problem.resolutions, state="Psi",
                      mirrors={"(9,9)": "T"})
    with pytest.raises(ParseError) as exc:
        problem_to_objects(bad, TOL)
    assert "(9,9)" in str(exc.value)


def test_clamp_probability_snaps_only_inside_tolerance():
    assert clamp_probability(1.0 + 2e-10, TOL) == 1.0
    assert clamp_probability(-3e-10, TOL) == 0.0
    assert clamp_probability(0.5, TOL) == 0.5
    assert clamp_probability(1.0 + 5e-9, TOL) == 1.0 + 5e-9


def test_report_file_round_trip_preserves_everything():
    report = ReportFile(
        tool="qhistories", version="0.1.0",
        tolerances={"op": 1e-10, "eig": 1e-8, "prob": 1e-9},
        notions={
            "weak": NotionResult(True, 1.2e-12, ("(1,1)", "(2,1)"), 4),
            "ordered": NotionResult(None, note="precondition failed"),
        },
        probabilities={"(1,1)": ProbabilityValue(0.2499999999999999, 0.25)},
        notes=("a note", "another"),
        self_decoherence=SelfDecoherenceSummary(False, {"(1,1)": "not-found"}),
    )
    text = report.dumps()
    back = ReportFile.loads(text)
    assert back.dumps() == text
    older = dict(back.to_dict(), seed=7)  # 0.1 reports carried a seed
    assert ReportFile.from_dict(older).dumps() == text
    assert back.notions["weak"].worst_pair == ("(1,1)", "(2,1)")
    assert back.notions["ordered"].verdict is None
    assert back.self_decoherence.mirrors == {"(1,1)": "not-found"}
    with pytest.raises(ParseError):
        ReportFile.loads("{not json")


PINNED_REPORT = """\
{
  "notes": [
    "first note",
    "second \\"quoted\\" note"
  ],
  "notions": {
    "ordered": {
      "note": "family is not medium-decohering",
      "pair_count": null,
      "verdict": null,
      "worst_pair": null,
      "worst_residual": null
    },
    "weak": {
      "note": null,
      "pair_count": 2,
      "verdict": false,
      "worst_pair": [
        "(1,1)",
        "(1,2)"
      ],
      "worst_residual": 0.125
    }
  },
  "probabilities": {
    "(1,1)": {
      "display": 0,
      "raw": -9.9999999999999998e-13
    },
    "(1,2)": {
      "display": 0.75,
      "raw": 0.75
    }
  },
  "self_decoherence": {
    "mirrors": {
      "(1,1)": "found",
      "(1,2)": "provided-verified"
    },
    "verdict": true
  },
  "tolerances": {
    "eig": 1e-08,
    "op": 1e-10,
    "prob": 1.0000000000000001e-09
  },
  "tool": "qhistories",
  "version": "0.2.0"
}
"""


def test_report_schema_is_pinned():
    """Every field populated; the bytes pin key names, order, nulls,
    tuples written as lists and the float format."""
    report = ReportFile(
        tool="qhistories", version="0.2.0",
        tolerances={"op": 1e-10, "eig": 1e-08, "prob": 1e-09},
        notions={
            "weak": NotionResult(False, 0.125, ("(1,1)", "(1,2)"), 2),
            "ordered": NotionResult(None,
                                    note="family is not medium-decohering"),
        },
        probabilities={"(1,1)": ProbabilityValue(-1e-12, 0.0),
                       "(1,2)": ProbabilityValue(0.75, 0.75)},
        notes=("first note", 'second "quoted" note'),
        self_decoherence=SelfDecoherenceSummary(
            True, {"(1,1)": "found", "(1,2)": "provided-verified"}),
    )
    assert report.dumps() == PINNED_REPORT
    assert ReportFile.loads(PINNED_REPORT) == report


def test_report_table_renders_verdict_words():
    report = ReportFile(
        tool="qhistories", version="0.1.0",
        tolerances={"op": 1e-10, "eig": 1e-8, "prob": 1e-9},
        notions={"weak": NotionResult(True, 0.0, None, 4),
                 "medium": NotionResult(False, 0.25, ("(1,1)", "(2,1)"), 6),
                 "ordered": NotionResult(None, note="skipped")},
    )
    text = report_table(report)
    assert "pass" in text and "FAIL" in text and "n/a" in text
    assert "note: skipped" in text


def test_check_command_exit_codes(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    path.write_text(serialize_problem(example1_problem(state="rho1")))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "weak" in out and "FAIL" in out

    path2 = tmp_path / "ex2.json"
    path2.write_text(serialize_problem(example2_problem()))
    assert main(["check", str(path2)]) == 0
    out = capsys.readouterr().out
    assert "self-decoherence: pass" in out
    assert "provided-verified" in out


def test_check_report_output_round_trips(tmp_path):
    problem = tmp_path / "ex2.json"
    problem.write_text(serialize_problem(example2_problem()))
    out = tmp_path / "report.json"
    assert main(["check", str(problem), "--format", "report",
                 "--out", str(out)]) == 0
    text = out.read_text()
    report = ReportFile.loads(text)
    assert report.dumps() == text
    assert report.notions["weak"].verdict is True


def test_check_subset_and_inapplicable_notions(tmp_path, capsys):
    problem = tmp_path / "ex2.json"
    problem.write_text(serialize_problem(example2_problem()))
    assert main(["check", str(problem), "--notions", "weak,medium"]) == 0
    capsys.readouterr()

    inst = build_example1(np.pi / 3)
    eye = np.eye(3)
    three_slots = ProblemFile(
        dim=3,
        operators={"E1": inst.e1.matrix, "E1c": eye - inst.e1.matrix,
                   "rho1": inst.rho1.matrix},
        resolutions=[["E1", "E1c"]] * 3,
        state="rho1", mirrors=None)
    path = tmp_path / "three.json"
    path.write_text(serialize_problem(three_slots))
    rc = main(["check", str(path), "--notions", "self-decoherence"])
    assert rc == 1
    assert "only defined for 2-slot families" in capsys.readouterr().out


def test_check_reports_uncapped_notions_on_large_families(tmp_path):
    """343 members: sum-rule and ordered are n/a with the cap note and the
    other notions are still reported; exit 1, never 2."""
    ops = {f"P{k + 1}": np.diag([1.0 if i == k else 0.0 for i in range(3)])
           for k in range(3)}
    ops["rho"] = np.diag([0.2, 0.3, 0.5])
    problem = ProblemFile(dim=3, operators=ops,
                          resolutions=[["P1", "P2", "P3"]] * 3,
                          state="rho", mirrors=None)
    path = tmp_path / "large.json"
    path.write_text(serialize_problem(problem))
    out = tmp_path / "report.json"
    for extra, capped in (([], ("ordered", "sum-rule")),
                          (["--notions", "weak,medium,ordered"], ("ordered",))):
        rc = main(["check", str(path), "--format", "report",
                   "--out", str(out), *extra])
        assert rc == 1
        report = ReportFile.loads(out.read_text())
        for name, result in report.notions.items():
            if name in capped:
                assert result.verdict is None
                assert "343 members" in result.note
            else:
                assert result.verdict is True, name
        out.unlink()


def test_check_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    assert main(["check", str(bad), "--notions", "bogus"]) == 2


def test_example1_command_reports_closed_forms(tmp_path, capsys):
    rc = main(["example1", "--theta", str(np.pi / 3), "--state", "rho1"])
    out = capsys.readouterr().out
    assert rc == 1  # weak fails on the branch state
    assert "closed form p(h1) = 0.25" in out
    assert "closed form p(h1+h2) = 0.75" in out
    assert "pi/2" in out  # range note rides along


def test_example2_command_passes(capsys):
    rc = main(["example2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "prop1" in out and "contrary-bound" in out
    assert "p(h1) via mirror" in out


def test_sweep_lambda_recovers_weak_only_at_the_middle(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--param", "lam", "--start", "0.1", "--stop", "0.9",
               "--steps", "5", "--theta", str(np.pi / 3),
               "--out", str(out)])
    assert rc == 1
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(SWEEP_COLUMNS)
    body = [r.split(",") for r in rows[1:]]
    assert len(body) == 5
    weak_col = SWEEP_COLUMNS.index("weak")
    value_col = SWEEP_COLUMNS.index("value")
    verdicts = {float(r[value_col]): r[weak_col] for r in body}
    assert verdicts[0.5] == "true"
    assert all(v == "false" for lam, v in verdicts.items() if lam != 0.5)


def test_sweep_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sweep", "--param", "theta", "--start", "0.3", "--stop", "2.8",
            "--steps", "7"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    assert a.read_text() == b.read_text()


def test_sweep_alpha_flips_linear_positivity_at_the_cotangent(tmp_path):
    """At theta = 2 the verdict is false at both alpha edges and true in
    the window where |cos(alpha)| < cot(theta / 2)."""
    out = tmp_path / "alpha.csv"
    rc = main(["sweep", "--param", "alpha", "--start", "0.0",
               "--stop", str(np.pi), "--steps", "8", "--theta", "2.0",
               "--state", "rho1", "--out", str(out)])
    assert rc == 1
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    col = SWEEP_COLUMNS.index("linear_positive")
    got = [r[col] for r in rows]
    window = np.arccos(1.0 / np.tan(1.0)), np.arccos(-1.0 / np.tan(1.0))
    alphas = np.linspace(0.0, np.pi, 8)
    expected = ["true" if window[0] < a < window[1] else "false"
                for a in alphas]
    assert got == expected


def test_sweep_rejects_out_of_range_values():
    assert main(["sweep", "--param", "lam", "--start", "0.0", "--stop",
                 "0.9", "--steps", "3"]) == 2
    assert main(["sweep", "--param", "theta", "--start", "0.5", "--stop",
                 "3.5", "--steps", "3"]) == 2


def test_mirror_commands(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(example2_problem()))
    assert main(["mirror", "verify", "--problem", str(path),
                 "--history", "(1,1)", "--mirror", "T"]) == 0
    capsys.readouterr()
    assert main(["mirror", "verify", "--problem", str(path),
                 "--history", "(1,1)", "--mirror", "U"]) == 1
    capsys.readouterr()
    assert main(["mirror", "search", "--problem", str(path),
                 "--history", "(1,1)"]) == 0
    capsys.readouterr()
    assert main(["mirror", "verify", "--problem", str(path),
                 "--history", "(8,8)", "--mirror", "T"]) == 2

    ex1 = tmp_path / "ex1.json"
    ex1.write_text(serialize_problem(example1_problem(state="rho1")))
    capsys.readouterr()
    rc = main(["mirror", "search", "--problem", str(ex1),
               "--history", "(1,1)"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "no mirror exists" in out
    with pytest.raises(SystemExit):
        main(["mirror", "search", "--problem", str(ex1),
              "--history", "(1,1)", "--seed", "0"])


def test_prop1_command(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(example2_problem()))
    assert main(["prop1", "--problem", str(path), "--t", "T", "--u", "U",
                 "--h1", "(1,1)", "--h2", "(2,1)"]) == 0
    capsys.readouterr()

    mixed = example1_problem()
    blended = ProblemFile(dim=3, operators=mixed.operators,
                          resolutions=mixed.resolutions,
                          state=[["rho1", 0.5], ["rho2", 0.5]], mirrors=None)
    p2 = tmp_path / "mixed.json"
    p2.write_text(serialize_problem(blended))
    rc = main(["prop1", "--problem", str(p2), "--t", "E1", "--u", "E1c",
               "--h1", "(1,1)", "--h2", "(2,1)"])
    assert rc == 2
    assert "pure" in capsys.readouterr().err


def test_unknown_operator_names_exit_2(tmp_path, capsys):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(example2_problem()))
    for argv in (["mirror", "verify", "--problem", str(path),
                  "--history", "(1,1)", "--mirror", "NOPE"],
                 ["prop1", "--problem", str(path), "--t", "T", "--u", "NOPE",
                  "--h1", "(1,1)", "--h2", "(2,1)"]):
        assert main(argv) == 2
        assert "unknown operator 'NOPE'" in capsys.readouterr().err


def test_non_idempotent_operator_exits_2_with_its_name(tmp_path, capsys):
    problem = example2_problem()
    ops = dict(problem.operators, HALF=0.5 * problem.operators["T"])
    path = tmp_path / "half.json"
    path.write_text(serialize_problem(ProblemFile(
        dim=4, operators=ops, resolutions=problem.resolutions,
        state="Psi", mirrors=problem.mirrors)))
    for argv in (["mirror", "verify", "--problem", str(path),
                  "--history", "(1,1)", "--mirror", "HALF"],
                 ["prop1", "--problem", str(path), "--t", "HALF", "--u", "U",
                  "--h1", "(1,1)", "--h2", "(2,1)"]):
        assert main(argv) == 2
        assert "operator 'HALF':" in capsys.readouterr().err
    broken = tmp_path / "broken.json"
    broken.write_text(serialize_problem(ProblemFile(
        dim=4, operators=dict(ops, E1=ops["HALF"]),
        resolutions=problem.resolutions, state="Psi", mirrors=None)))
    assert main(["check", str(broken)]) == 2
    assert "operator 'E1':" in capsys.readouterr().err
