"""File formats and command driver: parsing, round trips, exit codes."""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

import canon_reference
import qhistories.cli as cli
import qhistories.cli.files as files
from qhistories.cli import (
    SWEEP_COLUMNS,
    _elementary_probabilities,
    build_parser,
    main,
)
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
from qhistories.consistency import FamilyAnalysis, probability
from qhistories.errors import (
    NotHermitian,
    NotIdempotent,
    NotOrthogonal,
    ParseError,
    TraceNotOne,
    ValidationError,
)
from qhistories.histories import elementary_histories, make_resolution
from qhistories.matcore import DEFAULT_TOL, validate_projection
from qhistories.mirror import self_decoherence_each, verify_mirror
from qhistories.scenarios import build_example1, build_example2
from random_instances import random_density, random_family, random_resolution

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


class Label(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


@dataclass(frozen=True)
class Leaf:
    name: str
    values: tuple
    extra: Optional[dict] = None


# quotes, backslashes, every control character, DEL, and non-ASCII text
# inside and outside the basic plane
ALPHABET = ['"', "\\", "/", " ", "a", "Z", "0", *map(chr, range(32)), "\x7f",
            "\u00e9", "\u00df", "\u2211", "\U0001f600", "\u2028", "\ufeff"]
FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308,
          -1e308, 1.7976931348623157e308, 0.1, 1 / 3, -2.5, 1e16, 123456789.0]


def random_text(rng) -> str:
    return "".join(rng.choice(ALPHABET, size=int(rng.integers(0, 8))))


def random_leaf(rng):
    kind = int(rng.integers(0, 13))
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.integers(2))
    if kind == 2:
        return np.bool_(rng.integers(2))
    if kind == 3:
        return int(rng.integers(-10**6, 10**6)) * (10**20 if rng.integers(2) else 1)
    if kind == 4:
        return np.int64(rng.integers(-2**62, 2**62))
    if kind == 5:
        return float(rng.choice(FLOATS))
    if kind == 6:
        return float(rng.normal() * 10.0 ** rng.integers(-300, 300))
    if kind == 7:
        return np.float64(rng.choice(FLOATS) if rng.integers(2) else rng.normal())
    if kind == 8:
        return random_text(rng)
    if kind == 9:
        return Label(random_text(rng))
    if kind == 10:
        return Count(rng.integers(-100, 100))
    if kind == 11:
        return Ratio(rng.normal())
    return ProbabilityValue(float(rng.normal()), float(rng.uniform()))


def random_document(rng, depth: int = 0):
    kind = int(rng.integers(0, 6)) if depth < 4 else 0
    width = int(rng.integers(0, 4))
    if kind == 0:
        return random_leaf(rng)
    if kind == 1:
        return [random_document(rng, depth + 1) for _ in range(width)]
    if kind == 2:
        return tuple(random_document(rng, depth + 1) for _ in range(width))
    if kind == 3:
        return {random_text(rng): random_document(rng, depth + 1)
                for _ in range(width)}
    if kind == 4:
        return Leaf(random_text(rng),
                    tuple(random_document(rng, depth + 1) for _ in range(width)),
                    {"k": random_document(rng, depth + 1)} if width else None)
    return NotionResult(bool(width % 2), float(rng.normal()),
                        (random_text(rng), random_text(rng)), width,
                        random_text(rng) if width else None)


@pytest.mark.parametrize("seed", range(8))
def test_canonical_json_matches_the_isinstance_chain_byte_for_byte(seed):
    """The type-dispatched writer gives the reference chain's text on random
    documents of every kind of value it takes, subclasses included."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        doc = {"doc": random_document(rng), "leaves": [
            random_leaf(rng) for _ in range(10)]}
        assert canonical_dumps(doc) == canon_reference.canonical_dumps(doc)
    assert canonical_dumps(example2_report()) == canon_reference.canonical_dumps(
        example2_report())


def example2_report() -> ReportFile:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(["example2", "--format", "report"])
    return ReportFile.loads(out.getvalue())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                 np.float64("nan"), np.float64("-inf"),
                                 Ratio("inf")])
def test_canonical_json_rejects_non_finite_values_anywhere(bad):
    for doc in (bad, [1, bad], {"a": {"b": (bad,)}}, Leaf("x", (bad,))):
        with pytest.raises(ValueError):
            canon_reference.canonical_dumps(doc)
        with pytest.raises(ValueError):
            canonical_dumps(doc)


@pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",), np.str_("a")])
def test_canonical_json_requires_string_keys(key):
    """Every key is checked, nested ones too; a numpy string is a ``str``."""
    for doc in ({key: 1}, [{"a": 1, key: 2}], Leaf("x", ({key: 0},))):
        if isinstance(key, str):
            assert canonical_dumps(doc) == canon_reference.canonical_dumps(doc)
            continue
        with pytest.raises(TypeError):
            canon_reference.canonical_dumps(doc)
        with pytest.raises(TypeError):
            canonical_dumps(doc)


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


def test_problem_objects_keep_the_failure_class():
    """The wrappers add the operator or slot to the message; the class,
    residual and overlapping pair stay those of the failed check."""
    problem = example1_problem()
    half = ProblemFile(dim=3, operators=dict(problem.operators,
                                             E1=np.eye(3) / 2),
                       resolutions=problem.resolutions, state="rho1")
    with pytest.raises(NotIdempotent) as exc:
        problem_to_objects(half, TOL)
    assert str(exc.value).startswith("operator 'E1': ")
    assert exc.value.residual == pytest.approx(0.25)
    overlap = ProblemFile(dim=3, operators=problem.operators,
                          resolutions=[["E1", "E1c", "E1"], ["E2", "E2c"]],
                          state="rho1")
    with pytest.raises(NotOrthogonal) as exc:
        problem_to_objects(overlap, TOL)
    assert str(exc.value).startswith("resolution 1: ")
    assert exc.value.pair == (1, 3)
    e1 = problem.operators["E1"]
    assert exc.value.residual == pytest.approx(np.max(np.abs(e1 @ e1)))


def test_problem_objects_raise_the_first_failure_in_file_order():
    """Every named projection is validated in one stack; the error is still
    the first one in file order, with its name, class and pair."""
    problem = example2_problem()
    ops = problem.operators
    skew = ops["E2"] + 0.1j * (np.eye(4) - np.diag([1, 0, 0, 0]))
    overlap_then_skew = ProblemFile(
        dim=4, operators=dict(ops, SKEW=skew),
        resolutions=[["E1", "F1", "E1"], ["SKEW", "E2c"]], state="Psi")
    with pytest.raises(NotOrthogonal) as exc:
        problem_to_objects(overlap_then_skew, TOL)
    assert str(exc.value).startswith("resolution 1: ")
    assert exc.value.pair == (1, 3)
    two_bad = ProblemFile(
        dim=4, operators=dict(ops, HALF=0.5 * ops["E2"], SKEW=skew),
        resolutions=[["E1", "F1"], ["E2c", "SKEW", "HALF"]], state="Psi")
    with pytest.raises(NotHermitian) as exc:
        problem_to_objects(two_bad, TOL)
    assert str(exc.value).startswith("operator 'SKEW': ")
    two_bad = ProblemFile(
        dim=4, operators=dict(ops, HALF=0.5 * ops["E2"], SKEW=skew),
        resolutions=[["E1", "F1"], ["E2c", "HALF", "SKEW"]], state="Psi")
    with pytest.raises(NotIdempotent) as exc:
        problem_to_objects(two_bad, TOL)
    assert str(exc.value).startswith("operator 'HALF': ")
    assert exc.value.residual == pytest.approx(0.25)
    half_mirror = ProblemFile(
        dim=4, operators=dict(ops, HALF=0.5 * ops["U"]),
        resolutions=problem.resolutions, state="Psi",
        mirrors={"(1,1)": "T", "(2,1)": "HALF"})
    with pytest.raises(NotIdempotent) as exc:
        problem_to_objects(half_mirror, TOL)
    assert str(exc.value).startswith("operator 'HALF': ")
    assert exc.value.residual == pytest.approx(0.25)
    # The state comes before the mirrors in file order.
    bad_state = ProblemFile(
        dim=4, operators=dict(ops, HALF=0.5 * ops["U"], THIN=0.5 * ops["Psi"]),
        resolutions=problem.resolutions, state="THIN",
        mirrors={"(1,1)": "HALF", "(2,1)": "U"})
    with pytest.raises(TraceNotOne) as exc:
        problem_to_objects(bad_state, TOL)
    assert str(exc.value).startswith("state 'THIN': ")
    assert exc.value.residual == pytest.approx(0.5)
    # A bad mirror before an unknown label fails first, and the reverse.
    for mirrors, error in (({"(2,1)": "HALF", "(9,9)": "T"}, NotIdempotent),
                           ({"(9,9)": "T", "(2,1)": "HALF"}, ParseError)):
        with pytest.raises(error):
            problem_to_objects(ProblemFile(
                dim=4, operators=dict(ops, HALF=0.5 * ops["U"]),
                resolutions=problem.resolutions, state="Psi",
                mirrors=mirrors), TOL)


def test_problem_objects_validate_the_projections_in_one_stacked_call(
        monkeypatch):
    """A valid document's events and mirrors are one stacked validation,
    in file order; no operator is validated alone."""
    calls = []

    def spy(validate):
        def wrapped(stack, tol):
            calls.append((validate.__name__, len(stack)))
            return validate(stack, tol)
        return wrapped

    for name in ("validate_projections", "validate_projection"):
        monkeypatch.setattr(files, name, spy(getattr(files, name)))
    family, _, mirrors = problem_to_objects(example2_problem(), TOL)
    assert calls == [("validate_projections", 6)]
    ops = example2_problem().operators
    assert [e.matrix.tobytes() for r in family.resolutions for e in r.events] == [
        ops[n].astype(complex).tobytes() for n in ("E1", "F1", "E2", "E2c")]
    assert [m.matrix.tobytes() for m in mirrors.values()] == [
        ops[n].astype(complex).tobytes() for n in ("T", "U")]


# slot block sizes over dimension 3, and how each slot's names are broken:
# "overlap" repeats its first event last, "gap" leaves its last event out
RESOLUTION_CASES = [
    (([1, 2], [3]), (None, None)),  # unequal sizes, a one-event slot
    (([1, 1, 1], [3], [2, 1]), (None, None, None)),
    (([1, 1, 1], [2, 1]), (None, "overlap")),  # slot 2 only
    (([2, 1], [1, 1, 1]), (None, "gap")),
    (([3], [1, 1, 1]), (None, "overlap")),  # after a one-event slot
    (([1, 1, 1], [1, 2]), ("gap", "overlap")),  # both: slot 1's error wins
    (([1, 2], [1, 1, 1]), ("overlap", "gap")),
    (([1, 1, 1], [1, 1, 1]), ("overlap", "overlap")),
]


def resolution_problem(rng, sizes, breaks) -> ProblemFile:
    ops, resolutions = {"RHO": random_density(3, rng).matrix}, []
    for k, (blocks, how) in enumerate(zip(sizes, breaks)):
        names = []
        for i, e in enumerate(random_resolution(3, blocks, rng).events):
            names.append(f"S{k + 1}E{i + 1}")
            ops[names[-1]] = e.matrix
        resolutions.append({None: names, "overlap": names + names[:1],
                            "gap": names[:-1]}[how])
    return ProblemFile(3, ops, resolutions, "RHO")


def outcome(build):
    """The overlaps of ``build()``'s resolutions, or its error's class,
    message, residual and pair."""
    try:
        return [r.overlap for r in build()]
    except ValidationError as exc:
        return type(exc), str(exc), exc.residual, getattr(exc, "pair", None)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("sizes, breaks", RESOLUTION_CASES)
def test_problem_resolutions_are_checked_as_each_slot_alone(seed, sizes, breaks):
    """One check over the zero-padded slots gives each slot's overlap, bit
    for bit, or the first failing slot's error with its slot prefix, as
    :func:`make_resolution` gives them slot by slot."""
    problem = resolution_problem(np.random.default_rng(seed), sizes, breaks)

    def slot_by_slot():
        for k, names in enumerate(problem.resolutions):
            events = [validate_projection(problem.operators[n]) for n in names]
            try:
                yield make_resolution(events, TOL)
            except ValidationError as exc:
                exc.args = (f"resolution {k + 1}: {exc.args[0]}",)
                raise

    want = outcome(lambda: list(slot_by_slot()))
    assert outcome(lambda: problem_to_objects(problem, TOL)[0].resolutions) == want
    assert isinstance(want, list) == all(how is None for how in breaks)


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


def test_report_file_past_float_or_nesting_range_is_a_parse_error():
    """A ``raw`` value or tolerance too large for a float, and a document
    nested past the JSON parser's recursion limit, raise :class:`ParseError`
    and nothing else."""
    data = json.loads(PINNED_REPORT)
    huge = json.dumps(dict(data, probabilities={
        "(1,1)": {"raw": 10 ** 400, "display": 0.25}}))
    with pytest.raises(ParseError, match="too large"):
        ReportFile.loads(huge)
    huge = json.dumps(dict(data, tolerances={"op": 10 ** 400, "eig": 1e-8,
                                             "prob": 1e-9}))
    with pytest.raises(ParseError, match="too large"):
        ReportFile.loads(huge)
    with pytest.raises(ParseError, match="recursion"):
        ReportFile.loads("[" * 100_000 + "]" * 100_000)


def test_a_huge_mixture_weight_exits_2_naming_its_operator(tmp_path, capsys):
    problem = json.loads(serialize_problem(example1_problem()))
    problem["state"] = [["rho1", 10 ** 400], ["rho2", 0.5]]
    path = tmp_path / "huge-weight.json"
    path.write_text(json.dumps(problem))
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: mixture weight for 'rho1': ")


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
  "version": "0.3.0"
}
"""


def test_report_schema_is_pinned():
    """Every field populated; the bytes pin key names, order, nulls,
    tuples written as lists and the float format."""
    report = ReportFile(
        tool="qhistories", version="0.3.0",
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


def test_default_check_evaluates_medium_once(tmp_path, monkeypatch):
    """``ordered`` reuses the medium report as its precondition."""
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(example2_problem()))
    calls = []
    reports = FamilyAnalysis.reports
    monkeypatch.setattr(FamilyAnalysis, "reports", lambda self, name, rhos: (
        name == "medium" and calls.append(rhos) or reports(self, name, rhos)))
    out = tmp_path / "report.json"
    for notions in ([], ["--notions", "ordered,medium"], ["--notions", "ordered"]):
        calls.clear()
        assert main(["check", str(path), "--format", "report",
                     "--out", str(out), *notions]) == 0
        report = ReportFile.loads(out.read_text())
        assert report.notions["ordered"].verdict is True
        assert len(calls) == 1, notions


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


def test_check_reports_a_sum_rule_verdict_at_the_op_tolerance(tmp_path):
    """Every operator is a projection and both slots are resolutions within
    ``tol.op``, while the sum of the first two events of slot 1 is not a
    projection within it: a valid input still gets a report."""
    x = 0.9 * TOL.op
    ops = {f"A{k + 1}": np.diag(d) for k, d in enumerate(
        [(1 + x, 0, 0), (x, 1, 1), (-x, 0, 0), (-x, 0, 0)])}
    ops.update(B1=np.diag([1.0, 0, 0]), B2=np.diag([0, 1.0, 1.0]),
               rho=np.diag([0.5, 0.3, 0.2]))
    path = tmp_path / "edge.json"
    path.write_text(serialize_problem(ProblemFile(
        dim=3, operators=ops, resolutions=[["A1", "A2", "A3", "A4"], ["B1", "B2"]],
        state="rho", mirrors=None)))
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--notions", "weak,sum-rule",
                 "--format", "report", "--out", str(out)]) in (0, 1)
    assert ReportFile.loads(out.read_text()).notions["sum-rule"].verdict is True


def test_check_rejects_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main(["check", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["check", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    assert main(["check", str(bad), "--notions", "bogus"]) == 2


@pytest.mark.parametrize("entry", [[], {}], ids=["list", "dict"])
@pytest.mark.parametrize("command", ["check", "mirror", "prop1"])
def test_a_resolution_entry_that_is_no_name_exits_2(tmp_path, capsys, command,
                                                    entry):
    """A resolution entry that is a list or an object is no operator name:
    ``check``, ``mirror search`` and ``prop1`` exit 2 with one ``error:``
    line and nothing on stdout."""
    data = json.loads((Path(__file__).parent / "data" / "three_slot_problem.json"
                       ).read_text(encoding="utf-8"))
    data["resolutions"][0][0] = entry
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = {"check": ["check", str(path)],
            "mirror": ["mirror", "search", "--problem", str(path),
                       "--history", "(1,1)"],
            "prop1": ["prop1", "--problem", str(path), "--t", "S1E1", "--u",
                      "S1E2", "--h1", "(1,1)", "--h2", "(2,1)"]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: resolution references unknown operator {entry!r}\n"


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


def test_example2_certificates_come_from_the_self_decoherence_pass():
    """The batched pass certifies T and U bit for bit as verify_mirror
    does alone, so example2 reads its mirror rows from that pass."""
    for spatial in range(2, 6):
        for delta in sorted({(1,), (2,), (1, 2), tuple(range(1, spatial + 1)),
                             (spatial,)}):
            m = build_example2(spatial, delta, TOL)
            [sd] = self_decoherence_each(FamilyAnalysis(m.family, TOL), [m.rho],
                                         m.provided_mirrors)
            for t, h in ((m.t, m.h1), (m.u, m.h2)):
                alone = verify_mirror(t, h, m.rho, TOL)
                batched = sd.per_history[h.label]
                assert batched.mirror is t
                assert batched.residual_m1 == alone.residual_m1
                assert batched.residual_m2 == alone.residual_m2
                assert batched.verified == alone.verified


@pytest.mark.parametrize("flags", [
    ["--tol-prob", "1e-12"],
    ["--tol-op", "0"],
    ["--tol-eig=-1e-8"],
])
def test_out_of_range_tolerances_exit_2(capsys, flags):
    assert main(["example2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


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


def test_sweep_lambda_rejects_the_first_value_outside_the_interval(capsys):
    assert main(["sweep", "--param", "lam", "--start", "0.5", "--stop",
                 "1.5", "--steps", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lam value 1.0 outside (0, 1)\n"


@pytest.mark.parametrize("param, start, stop, builds", [
    ("lam", "0.1", "0.9", 1), ("theta", "0.3", "2.8", 7),
    ("alpha", "0.0", "3.1", 7)])
def test_sweep_builds_one_family_per_distinct_family(
        tmp_path, monkeypatch, param, start, stop, builds):
    """Along lam only the state changes, so the grid holds one family;
    theta and alpha change the family at each step.  Either way one grid
    call builds the families and one analysis decides them all."""
    calls = {"build_example1": 0, "build_example1_grid": 0, "FamilyAnalysis": 0}
    made = []

    def counted(name):
        real = getattr(cli, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            made.append(real(*args, **kwargs))
            return made[-1]
        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name))
    assert main(["sweep", "--param", param, "--start", start, "--stop", stop,
                 "--steps", "7", "--out", str(tmp_path / "s.csv")]) == 1
    assert len(tmp_path.joinpath("s.csv").read_text().splitlines()) == 8
    assert calls == {"build_example1": 0, "build_example1_grid": 1,
                     "FamilyAnalysis": 1}
    grid, analysis = made
    assert len(grid) == len(analysis.families) == builds


@pytest.mark.parametrize("dim, slots, rank", [
    (d, slots, rank) for d in (3, 5, 8, 16) for slots in (2, 3)
    for rank in (1, 2, None)])
def test_stacked_elementary_probabilities_match_probability_bit_for_bit(
        dim, slots, rank):
    """The report's probabilities trace the chain stack with the arithmetic
    of ``probability``, so every value keeps its bits."""
    rng = np.random.default_rng(1000 * dim + 10 * slots + (rank or 0))
    family = random_family(dim, slots, rng, TOL)
    rho = random_density(dim, rng, rank=rank or dim, tol=TOL)
    analysis = FamilyAnalysis(family, TOL)
    got = _elementary_probabilities(analysis, rho)
    assert list(got) == [h.label for h in elementary_histories(family)]
    for h in elementary_histories(family):
        assert got[h.label].raw == probability(h, rho), h.label


@pytest.mark.parametrize("theta", [0.3, np.pi / 3, 1.7, 2.2, 2.9])
def test_example1_probabilities_match_probability_bit_for_bit(theta):
    inst = build_example1(theta, 0.7)
    analysis = FamilyAnalysis(inst.family, TOL)
    for rho in (inst.rho, inst.rho1, inst.rho2):
        got = _elementary_probabilities(analysis, rho)
        for h in elementary_histories(inst.family):
            assert got[h.label].raw == probability(h, rho), h.label


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


def test_sweep_rejects_out_of_range_values(capsys):
    assert main(["sweep", "--param", "lam", "--start", "0.0", "--stop",
                 "0.9", "--steps", "3"]) == 2
    capsys.readouterr()
    # build_example1_grid names the first failing value, as one build per
    # value would
    for argv, message in (
            (["--param", "theta", "--start", "0.5", "--stop", "3.5",
              "--steps", "3"], "theta 3.5 is not strictly inside (0, pi)"),
            (["--param", "alpha", "--start", "0", "--stop", "1", "--steps",
              "3", "--dim", "1"], "dimension 1 is too small, need at least 2")):
        assert main(["sweep", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


def test_mirror_commands(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(example2_problem()))
    built = _count_history_builds(monkeypatch)
    assert main(["mirror", "verify", "--problem", str(path),
                 "--history", "(1,1)", "--mirror", "T"]) == 0
    # the mirror-label check and the history lookup read one list
    assert len(built) == 1
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


def _count_history_builds(monkeypatch) -> list:
    """Every elementary-history list built through the command line's
    modules: the problem-file reader's, and the commands' own should they
    build one."""
    built = []
    histories = files.elementary_histories
    for module in (cli, files):
        monkeypatch.setattr(module, "elementary_histories", lambda family: (
            built.append(family) or histories(family)), raising=False)
    return built


def test_prop1_command(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ex2.json"
    path.write_text(serialize_problem(example2_problem()))
    built = _count_history_builds(monkeypatch)
    assert main(["prop1", "--problem", str(path), "--t", "T", "--u", "U",
                 "--h1", "(1,1)", "--h2", "(2,1)"]) == 0
    # the mirror-label check and both labels read one list
    assert len(built) == 1
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


def test_an_eigenvalue_in_neither_cluster_exits_2_with_its_name(tmp_path, capsys):
    """Under ``--tol-op 1e-6``, ``diag(1 - 5e-7, 0)`` passes the residual
    tests, but its eigenvalue lies more than ``tol.eig`` from 0 and 1."""
    ops = {"P1": np.diag([1.0 - 5e-7, 0.0]), "P2": np.diag([5e-7, 1.0]),
           "rho": np.diag([0.5, 0.5])}
    path = tmp_path / "stray.json"
    path.write_text(serialize_problem(ProblemFile(
        dim=2, operators=ops, resolutions=[["P1", "P2"]], state="rho",
        mirrors=None)))
    assert main(["check", str(path), "--tol-op", "1e-6", "--tol-prob", "1e-6"]) == 2
    err = capsys.readouterr().err
    assert "operator 'P1':" in err and "from both 0 and 1" in err


@pytest.mark.parametrize("flags", [
    ["--tol-eig", "inf"], ["--tol-eig", "0.5"], ["--tol-op", "nan"],
    ["--tol-prob", "inf"]])
def test_non_finite_or_overlapping_tolerances_exit_2(capsys, flags):
    assert main(["example2", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and (
        "finite" in captured.err or "below 1/2" in captured.err)


@pytest.mark.parametrize("argv, named", [
    (["example1", "--theta", "1", "--alpha", "inf"], "alpha inf"),
    (["example1", "--theta", "1", "--alpha", "nan"], "alpha nan"),
    (["sweep", "--param", "theta", "--start", "0.5", "--stop", "inf",
      "--steps", "3"], "--stop inf"),
    (["sweep", "--param", "lam", "--start", "nan", "--stop", "0.5",
      "--steps", "3"], "--start nan"),
    (["sweep", "--param", "theta", "--start", "0.5", "--stop", "1",
      "--steps", "3", "--alpha", "inf"], "alpha inf")])
def test_non_finite_angles_and_sweep_bounds_exit_2(capsys, argv, named):
    """A non-finite angle or sweep bound is named before any arithmetic
    on it, so no numpy warning precedes the one error line."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named} is not finite\n"


TOLERANCE_RANGE = "error: tolerances must be finite and positive, and eig below 1/2\n"


@pytest.mark.parametrize("head, option, value, status, err", [
    *((["sweep", "--param", "alpha", "--stop", "1", "--steps", "2"], "--start",
       value, 1, "") for value in ("-1e-3", "-2.5E-1")),
    (["sweep", "--param", "alpha", "--stop", "1", "--steps", "2"], "--start",
     "-inf", 2, "error: --start -inf is not finite\n"),
    *((["example1", "--theta", "1"], "--alpha", value, 1, "")
      for value in ("-1e-3", "-2.5E-1")),
    (["example1", "--theta", "1"], "--alpha", "-inf", 2,
     "error: alpha -inf is not finite\n"),
    *((["example1", "--theta", "1"], "--tol-op", value, 2, TOLERANCE_RANGE)
      for value in ("-1e-3", "-2.5E-1", "-inf"))])
def test_a_negative_float_in_any_form_is_an_option_value(head, option, value,
                                                         status, err, capsys):
    """``--start -1e-3`` reads as ``--start=-1e-3`` does: a finite value runs
    or fails its own range check, and ``-inf`` is named as not finite, each
    with one ``error:`` line and nothing on stdout.  argparse alone reads
    only forms like ``-1`` and ``-0.5`` as values."""
    assert main([*head, f"{option}={value}"]) == status
    joined = capsys.readouterr()
    assert main([*head, option, value]) == status
    assert capsys.readouterr() == joined
    assert joined.err == err and (status != 2 or joined.out == "")
    args = build_parser().parse_args([*head, option, value])
    assert getattr(args, option[2:].replace("-", "_")) == float(value)


def _one_error_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


def test_argument_errors_are_one_line(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(serialize_problem(example1_problem()))
    assert _one_error_line(["check", str(path), "--notions", ","], capsys) == (
        "error: empty --notions list\n")
    assert _one_error_line(["check", str(path), "--notions", "bogus"], capsys) == (
        "error: unknown notion 'bogus'; choose from weak, medium, linear-positive, "
        "ordered, sum-rule, C1-compat, self-decoherence\n")
    assert _one_error_line(["sweep", "--param", "alpha", "--start", "0", "--stop",
                            "1", "--steps", "0"], capsys) == (
        "error: steps must be at least 1\n")


def test_problem_shape_and_mixture_errors_are_one_line(tmp_path, capsys):
    """A problem file that is no object, a mixture naming no operator, and
    a mixture whose sum is no density each get one line."""
    path = tmp_path / "p.json"
    problem = json.loads(serialize_problem(example1_problem()))
    half = problem["operators"]["rho1"]
    for text, message in (
            (json.dumps([problem]), "problem document must be a JSON object"),
            (json.dumps({**problem, "state": [["rho3", 1.0]]}),
             "state references unknown operator 'rho3'"),
            (json.dumps({**problem, "state": [["HALF", 1.0]], "operators": {
                **problem["operators"], "HALF": {
                    part: (np.array(half[part]) / 2).tolist() for part in ("re", "im")}}}),
             "state mixture: density candidate has trace residual 5.000e-01")):
        path.write_text(text)
        assert _one_error_line(["check", str(path)], capsys) == f"error: {message}\n"


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_operators_exit_2_with_their_names(value, tmp_path, capsys):
    """A NaN or infinite entry in an event or in the state, real or
    imaginary part, fails validation with one error line (Python's ``json``
    reads ``NaN`` and ``Infinity``); the state's NaN entry once made every
    notion pass at 0.0, and an infinite imaginary part once warned."""
    for name in ("E1", "rho1"):
        for part in ("re", "im"):
            problem = json.loads(serialize_problem(example1_problem()))
            problem["operators"][name][part][0][0] = value
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(problem))
            assert main(["check", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert f"{name!r}:" in err


def test_a_nan_mixture_weight_exits_2_naming_its_operator(tmp_path, capsys):
    """``weight <= 0`` and the sum test are both false for NaN; both are
    written to fail it, so the parse error names the weight's operator
    instead of the mixture failing Hermiticity at residual ``nan``."""
    problem = json.loads(serialize_problem(example1_problem()))
    problem["state"] = [["rho1", float("nan")], ["rho2", 0.5]]
    path = tmp_path / "nan-weight.json"
    path.write_text(json.dumps(problem))
    with pytest.raises(ParseError, match="mixture weight for 'rho1'"):
        parse_problem(path.read_text())
    assert main(["check", str(path)]) == 2
    err = capsys.readouterr().err
    assert "'rho1'" in err and "nan" in err and "Hermitian" not in err


def test_table_prints_a_zero_residual_unsigned(tmp_path, capsys):
    """Linear positivity's residual of a diagonal family is ``-0.0`` (the
    negated smallest zero trace); the table prints it as the canonical
    report does, without a sign."""
    ops = {f"P{k + 1}": np.diag([1.0 if i == k else 0.0 for i in range(3)])
           for k in range(3)}
    ops["rho"] = np.diag([0.2, 0.3, 0.5])
    path = tmp_path / "diagonal.json"
    path.write_text(serialize_problem(ProblemFile(
        dim=3, operators=ops, resolutions=[["P1", "P2", "P3"]] * 2,
        state="rho", mirrors=None)))
    family, rho, _ = problem_to_objects(parse_problem(path.read_text()), TOL)
    [report] = FamilyAnalysis(family, TOL).reports("linear-positive", [rho])
    residual = report.worst_residual
    assert residual.hex() == "-0x0.0p+0"
    assert main(["check", str(path), "--notions", "linear-positive"]) == 0
    row = capsys.readouterr().out.splitlines()[3]
    assert row.split()[:3] == ["linear-positive", "pass", "0.000e+00"]


# Command lines that argparse answers itself, with help or a usage error.
# ``main`` builds only a known first word's parser, and under ``mirror``
# only a known second word's, so the unknown options after ``check`` and
# ``example2`` must still print the full usage line; the first four get the
# full parser and its wording ("required: command", "invalid choice"), and
# ``mirror`` without a known action gets both actions.
PARSER_ARGVS = [
    [], ["-h"], ["bogus"], ["--tol-op", "1", "check"],
    *([name, "-h"] for name in ("check", "example1", "example2", "sweep",
                                "mirror", "prop1")),
    ["mirror", "verify", "-h"], ["mirror", "search", "-h"], ["mirror", "--help"],
    ["check", "p.json", "--bogus"], ["example2", "--delta", "1", "--bogus", "x"],
    ["check"], ["example1"], ["mirror"], ["mirror", "bogus"],
    ["mirror", "verify", "--problem", "p.json"],
    ["mirror", "verify", "--problem", "p.json", "--mirror", "T"],
    ["mirror", "search", "--history", "(1,1)", "--bogus"],
    ["example1", "--theta", "1", "--state", "rho3"],
    ["sweep", "--param", "beta", "--start", "0", "--stop", "1", "--steps", "2"],
    ["example2", "--delta", "1,x"],
    # a valid command line with arguments over, under every command and
    # action: the command's own parser leaves them, the full one names them
    ["check", "p.json", "--notions", "weak", "extra"],
    ["example1", "--theta", "1", "--bogus"],
    ["example2", "--spatial-dim", "2", "extra", "--bogus=1"],
    ["sweep", "--param", "theta", "--start", "0", "--stop", "1", "--steps", "2",
     "--bogus"],
    ["mirror", "verify", "--problem", "p.json", "--history", "(1,1)",
     "--mirror", "T", "--bogus"],
    ["mirror", "search", "--problem", "p.json", "--history", "(1,1)", "extra"],
    ["prop1", "--problem", "p.json", "--t", "T", "--u", "U", "--h1", "(1,1)",
     "--h2", "(2,1)", "--bogus"],
    # a negative float with an exponent is a value on both routes
    ["sweep", "--param", "alpha", "--start", "-1e-3", "--stop", "1", "--steps", "2",
     "--bogus"],
]

COMMON_OPTIONS = ["--tol-op", "1e-11", "--tol-eig", "1e-7", "--tol-prob", "1e-8",
                  "--format", "report", "--out", "out.txt"]
# one command line per command and action, every option given a value
# other than its default
FULL_ARGVS = [
    ["check", "p.json", "--notions", "weak,medium", *COMMON_OPTIONS],
    ["example1", "--theta", "1.5", "--alpha", "0.5", "--state", "rho2",
     "--dim", "4", *COMMON_OPTIONS],
    ["example2", "--spatial-dim", "3", "--delta", "1,3", *COMMON_OPTIONS],
    ["sweep", "--param", "alpha", "--start", "0", "--stop", "1", "--steps", "3",
     "--theta", "1.2", "--alpha", "0.3", "--state", "rho", "--dim", "4",
     *COMMON_OPTIONS],
    ["mirror", "verify", "--problem", "p.json", "--history", "(1,2)",
     "--mirror", "T", *COMMON_OPTIONS],
    ["mirror", "search", *COMMON_OPTIONS, "--problem", "p.json",
     "--history", "(2,1)"],
    ["prop1", "--problem", "p.json", "--t", "T", "--u", "U", "--h1", "(1,1)",
     "--h2", "(2,1)", *COMMON_OPTIONS],
]


@pytest.mark.parametrize("argv", FULL_ARGVS, ids=lambda argv: " ".join(argv[:2]))
def test_main_parses_each_command_as_the_full_parser(argv, monkeypatch):
    """The namespace the handler gets from the command's own parser is the
    full parser's, ``command`` and ``mirror_command`` included."""
    seen = []
    text, arguments, _ = cli._SUBCOMMANDS[argv[0]]
    monkeypatch.setitem(cli._SUBCOMMANDS, argv[0],
                        (text, arguments, lambda args: seen.append(args) or 0))
    assert main(argv) == 0
    full = build_parser().parse_args(argv)
    assert seen == [full]
    assert full.command == argv[0]
    assert getattr(full, "mirror_command", None) == (
        argv[1] if argv[0] == "mirror" else None)


@pytest.mark.parametrize("argv", PARSER_ARGVS,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_main_answers_help_and_usage_errors_as_the_full_parser(
        argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as full:
        build_parser().parse_args(argv)
    expected = capsys.readouterr()
    with pytest.raises(SystemExit) as got:
        main(argv)
    assert (got.value.code, capsys.readouterr()) == (full.value.code, expected)


def test_main_builds_only_the_parsers_argv_reaches(monkeypatch, capsys):
    """A known command, and under ``mirror`` a known action, is the only one
    whose arguments are added; otherwise every one at that level is."""
    built = []

    def spy(table, name):
        text, arguments, *rest = table[name]
        monkeypatch.setitem(table, name, (
            text, lambda p: built.append(name) or arguments(p), *rest))

    for table in (cli._SUBCOMMANDS, cli._MIRROR_ACTIONS):
        for name in table:
            if name != "mirror":  # build_parser adds its actions, spied here
                spy(table, name)
    everything = ["check", "example1", "example2", "sweep", "verify", "search",
                  "prop1"]
    for argv, want in ((["example2"], ["example2"]), (["mirror", "verify"], ["verify"]),
                       (["mirror", "search"], ["search"]),
                       (["mirror"], ["verify", "search"]),
                       (["mirror", "bogus"], ["verify", "search"]), ([], everything)):
        built.clear()
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        assert built == want, argv
    capsys.readouterr()


def argparse_formatters(parser):
    """``parser`` with argparse's own help formatter throughout, which reads
    the terminal width whenever it formats."""
    parser.formatter_class = argparse.HelpFormatter
    for action in parser._subparsers._group_actions if parser._subparsers else ():
        for sub in action.choices.values():
            argparse_formatters(sub)
    return parser


@pytest.mark.parametrize("columns", ["60", "200"])
def test_help_is_argparse_help_at_any_width(columns, monkeypatch, capsys):
    """Every subcommand's help, and the top level's, is what argparse's own
    formatter prints at the width, with the width read once per build."""
    monkeypatch.setenv("COLUMNS", columns)
    for argv in ([], *([name] for name in cli._SUBCOMMANDS),
                 ["mirror", "verify"], ["mirror", "search"]):
        with pytest.raises(SystemExit):
            argparse_formatters(build_parser()).parse_args([*argv, "--help"])
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit):
            main([*argv, "--help"])
        assert capsys.readouterr().out == expected, argv
    reads = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size",
                        lambda *a: reads.append(1) or size(*a))
    build_parser()
    assert len(reads) == 1


def test_top_level_usage_errors_name_the_command_argument(capsys):
    """The full parser's own wording, which a command metavar would change."""
    for argv, message in (
            ([], "error: the following arguments are required: command\n"),
            (["bogus"], "error: argument command: invalid choice: 'bogus'")):
        with pytest.raises(SystemExit):
            main(argv)
        assert message in capsys.readouterr().err


def run_module(argv, env=(), flags=()):
    """``python -m qhistories`` with ``argv`` in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[2]
    return subprocess.run([sys.executable, *flags, "-m", "qhistories", *argv],
                          env={"PYTHONPATH": str(src), **dict(env)},
                          capture_output=True, timeout=60)


def test_problem_files_are_read_as_utf8_whatever_the_locale(tmp_path, capsys):
    """A byte that is not UTF-8 is a parse error naming its offset (exit 2,
    no traceback); a non-ASCII operator name reads under an ASCII locale."""
    text = serialize_problem(example1_problem())
    bad = tmp_path / "bad.json"
    bad.write_bytes(text.encode()[:10] + b"\xff" + text.encode()[10:])
    out = run_module(["check", str(bad)])
    assert (out.returncode, out.stdout) == (2, b"")
    assert out.stderr == (b"error: problem file is not valid UTF-8: "
                          b"byte 0xff at offset 10\n")
    ascii_named = tmp_path / "ascii.json"
    ascii_named.write_text(text, encoding="utf-8")
    named = tmp_path / "named.json"
    named.write_text(text.replace('"E1"', '"P\u00e9"'), encoding="utf-8")
    assert b"P\xc3\xa9" in named.read_bytes()
    out = run_module(["check", str(named)], env={
        "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"})
    assert (out.returncode, out.stderr) == (1, b"")
    assert main(["check", str(ascii_named)]) == 1
    assert out.stdout == capsys.readouterr().out.encode()


def test_check_names_no_default_encoding(tmp_path):
    """``check ... --out`` reads and writes with an explicit encoding: it
    runs with every default-encoding warning raised as an error."""
    problem = Path(__file__).parent / "data" / "pointer_problem.json"
    target = tmp_path / "out.txt"
    out = run_module(["check", str(problem), "--out", str(target)],
                     flags=("-X", "warn_default_encoding",
                            "-W", "error::EncodingWarning"))
    assert (out.returncode, out.stdout, out.stderr) == (0, b"", b"")
    assert target.read_text(encoding="utf-8").startswith("qhistories ")


def test_python_dash_m_prints_what_main_prints(capsys):
    """``run()`` reads ``sys.argv``; its output is ``main``'s, byte for byte."""
    argv = ["example2", "--format", "table"]
    src = Path(cli.__file__).resolve().parents[2]
    out = subprocess.run([sys.executable, "-m", "qhistories", *argv],
                         env={"PYTHONPATH": str(src)}, capture_output=True,
                         timeout=60)
    assert out.returncode == 0, out.stderr
    assert main(argv) == 0
    assert out.stdout == capsys.readouterr().out.encode()
