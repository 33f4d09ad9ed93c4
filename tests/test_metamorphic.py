"""Metamorphic checks on the problem files of ``tests/data``.

A problem read and written back is the same problem: its operators keep
their bits and the canonical text is a fixed point.  Permuting one slot's
events, with the provided mirrors' labels renamed to match, only relabels
``check --format report``: every verdict, pair count, note and exit status
stays, each elementary probability keeps its bits under its new label, and
each worst residual moves by rounding alone.  A residual above rounding
names the same pair of histories under their new labels.
"""

import contextlib
import dataclasses
import io
import itertools
import json
from pathlib import Path

import pytest

from qhistories.cli import main
from qhistories.cli.files import parse_problem, serialize_problem

SOURCES = sorted((Path(__file__).parent / "data").glob("*.json"))
# every permutation of both files moves a worst residual by at most 6.9e-17
RESIDUAL_SLACK = 1e-15
# above this a worst pair is no tie of rounding noise
PAIR_FLOOR = 1e-12


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_problem_files_round_trip_through_the_canonical_text(source):
    problem = parse_problem(source.read_text(encoding="utf-8"))
    text = serialize_problem(problem)
    again = parse_problem(text)
    assert list(again.operators) == list(problem.operators)
    for name, matrix in problem.operators.items():
        assert again.operators[name].dtype == matrix.dtype
        assert again.operators[name].tobytes() == matrix.tobytes(), name
    assert (again.dim, again.resolutions, again.state, again.mirrors) == (
        problem.dim, problem.resolutions, problem.state, problem.mirrors)
    assert serialize_problem(again) == text


def _check_report(problem, path):
    path.write_text(serialize_problem(problem), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(["check", str(path), "--format", "report"])
    return status, json.loads(out.getvalue())


def _relabeller(slot, order):
    """Old label -> new label, when slot ``slot`` lists its old events in
    ``order``; a coarse member's subset is relabelled index by index."""
    new = {old: k for k, old in enumerate(order)}

    def relabel(label):
        parts = label[1:-1].split(",")
        subset = sorted(new[int(i) - 1] + 1 for i in parts[slot].split("+"))
        parts[slot] = "+".join(map(str, subset))
        return f"({','.join(parts)})"
    return relabel


def _permutations(problem):
    for slot, names in enumerate(problem.resolutions):
        for order in itertools.permutations(range(len(names))):
            if order != tuple(range(len(names))):
                yield slot, order


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_permuting_a_slots_events_only_relabels_the_check_report(source, tmp_path):
    problem = parse_problem(source.read_text(encoding="utf-8"))
    path = tmp_path / "problem.json"
    status, report = _check_report(problem, path)
    cases = list(_permutations(problem))
    assert cases
    for slot, order in cases:
        relabel = _relabeller(slot, order)
        resolutions = [list(names) for names in problem.resolutions]
        resolutions[slot] = [resolutions[slot][k] for k in order]
        mirrors = (None if problem.mirrors is None else
                   {relabel(label): name for label, name in problem.mirrors.items()})
        got_status, got = _check_report(dataclasses.replace(
            problem, resolutions=resolutions, mirrors=mirrors), path)
        case = (slot, order)
        assert got_status == status, case
        assert list(got["notions"]) == list(report["notions"]), case
        for name, want in report["notions"].items():
            have = got["notions"][name]
            for field in ("verdict", "pair_count", "note"):
                assert have[field] == want[field], (case, name, field)
            if want["worst_residual"] is None:
                assert have["worst_residual"] is None, (case, name)
                continue
            assert abs(have["worst_residual"] - want["worst_residual"]) <= RESIDUAL_SLACK
            if want["worst_residual"] > PAIR_FLOOR:
                assert sorted(have["worst_pair"]) == sorted(
                    map(relabel, want["worst_pair"])), (case, name)
        assert got["probabilities"] == {
            relabel(label): value for label, value in report["probabilities"].items()}
        if report["self_decoherence"] is not None:
            sd = report["self_decoherence"]
            assert got["self_decoherence"] == {**sd, "mirrors": {
                relabel(label): s for label, s in sd["mirrors"].items()}}
        for key in set(report) - {"notions", "probabilities", "self_decoherence"}:
            assert got[key] == report[key], (case, key)
