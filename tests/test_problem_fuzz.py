"""Seeded fuzzing of problem files through the command line, in process.

Each case mutates one of ``tests/data/*.json``: a value is replaced by
another JSON value, a number is nudged by 1e-12 to 1e-3, a key or list
item is dropped or repeated, or the text is cut short or gets a stray
byte.  Past those random cases, each file gets an integer too large for a
float in place of some of its numbers and as a mixture weight, and a value
nested far deeper than the JSON parser's recursion limit.  ``check``,
``mirror search`` and ``prop1`` then run on the mutated file through
:func:`qhistories.cli.main`.
Whatever the file, no exception escapes ``main``, the exit status is 0, 1
or 2, exit 2 writes exactly one ``error:`` line and nothing on stdout, and
exits 0 and 1 write a report that :meth:`ReportFile.loads` reads back.
The mutations use only the stdlib's ``random``, seeded per source file.
"""

import contextlib
import copy
import io
import json
import random
from pathlib import Path

import pytest

from qhistories.cli import main
from qhistories.cli.files import ReportFile

SOURCES = sorted((Path(__file__).parent / "data").glob("*.json"))
CASES = 100  # mutations per source file

# what a replaced value becomes, by JSON type: edge numbers, strings that
# name an operator, a history or nothing, and containers empty or not
VALUES = {
    "null": [None],
    "bool": [True, False],
    "number": [0, -1, 2, 1.5, -0.5, 1e308, float("nan"), float("inf")],
    "string": ["", "x", "RHO", "T", "(1,1)"],
    "array": [[], [[]], [0.0], ["RHO", 1.0]],
    "object": [{}, {"re": [], "im": []}],
}


def _json_type(value):
    return {type(None): "null", bool: "bool", int: "number", float: "number",
            str: "string", list: "array", dict: "object"}[type(value)]


def _walk(rng, doc, stop):
    """The path to a random node below the root: from each container the
    walk steps into a random child, and past the first step it stops
    there with probability ``stop``."""
    path, node = [], doc
    while isinstance(node, (dict, list)) and node and (
            not path or rng.random() >= stop):
        key = rng.choice(list(node) if isinstance(node, dict) else range(len(node)))
        path.append(key)
        node = node[key]
    return path


def _mutate(rng, text):
    """The bytes of a mutated copy of ``text`` and what was done to it."""
    kind = rng.choice(["replace", "replace", "replace", "nudge", "drop",
                       "repeat", "cut", "byte"])
    if kind == "cut":
        at = rng.randrange(len(text))
        return text[:at].encode(), f"cut at {at}"
    if kind == "byte":
        at = rng.randrange(len(text) + 1)
        stray = rng.choice([b"\xff", b"{", b"]", b'"', b",", b"0", b"\\"])
        data = text.encode()
        return data[:at] + stray + data[at:], f"{stray!r} at {at}"
    doc = json.loads(text)
    path = _walk(rng, doc, 0.0 if kind == "nudge" else 1 / 3)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    number = type(parent[key]) in (int, float)
    if kind == "nudge" and number:
        parent[key] += rng.choice([-1, 1]) * rng.choice([1e-12, 1e-9, 1e-6, 1e-3])
        return json.dumps(doc).encode(), f"{path} = {parent[key]!r}"
    if kind == "drop":
        del parent[key]
    elif kind == "repeat" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(parent[key]))
    else:  # a value of another JSON type
        kind = "replace"
        other = rng.choice(sorted(set(VALUES) - {_json_type(parent[key])}))
        parent[key] = copy.deepcopy(rng.choice(VALUES[other]))
        return json.dumps(doc).encode(), f"{path} = {parent[key]!r}"
    return json.dumps(doc).encode(), f"{kind} {path}"


HUGE = 10 ** 400  # an integer that no float holds
DEEP = 100_000  # nested arrays, far past the parser's recursion limit
HUGE_CASES = 10  # numbers replaced by HUGE per source file


def _number_paths(node, path=()):
    """The path to every number below ``node``, in document order."""
    if isinstance(node, (dict, list)):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield from _number_paths(node[key], (*path, key))
    elif type(node) in (int, float):
        yield path


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _extremes(rng, text):
    """Mutated copies of ``text`` past the ranges of floats and of nesting:
    ``HUGE`` for random numbers and as the state's one mixture weight, and
    ``DEEP`` nested arrays for a random value."""
    cases = []
    for path in rng.sample(list(_number_paths(json.loads(text))), HUGE_CASES):
        doc = json.loads(text)
        _set(doc, path, HUGE)
        cases.append((json.dumps(doc).encode(), f"{list(path)} = 10**400"))
    doc = json.loads(text)
    doc["state"] = [[doc["state"], HUGE]]
    cases.append((json.dumps(doc).encode(), "state weight 10**400"))
    doc = json.loads(text)
    path = _walk(rng, doc, 1 / 3)
    _set(doc, path, "DEEP")
    nested = "[" * DEEP + "]" * DEEP
    cases.append((json.dumps(doc).replace('"DEEP"', nested).encode(),
                  f"{path} nested {DEEP} deep"))
    return cases


def _commands(path):
    p, report = str(path), ["--format", "report"]
    return {"check": ["check", p, *report],
            "mirror search": ["mirror", "search", "--problem", p,
                              "--history", "(1,1)", *report],
            "prop1": ["prop1", "--problem", p, "--t", "T", "--u", "U",
                      "--h1", "(1,1)", "--h2", "(2,1)", *report]}


def _faults(argv):
    """What ``main(argv)`` did against the oracles, or ``[]``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except (Exception, SystemExit) as exc:
        return [f"raised {type(exc).__name__}: {exc}"]
    if status not in (0, 1, 2):
        return [f"exit status {status!r}"]
    if status == 2:
        lines = err.getvalue().splitlines()
        return ([] if out.getvalue() == "" and len(lines) == 1
                and lines[0].startswith("error: ")
                else [f"exit 2 wrote stdout {out.getvalue()!r}, stderr {lines!r}"])
    try:
        ReportFile.loads(out.getvalue())
    except Exception as exc:
        return [f"exit {status} report does not read back: {exc}"]
    return []


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.stem)
def test_mutated_problem_files_get_a_report_or_one_error_line(source, tmp_path):
    text = source.read_text(encoding="utf-8")
    rng = random.Random(source.name)
    path = tmp_path / "mutated.json"
    cases = [_mutate(rng, text) for _ in range(CASES)]
    faults = []
    for case, (data, what) in enumerate(cases + _extremes(rng, text)):
        path.write_bytes(data)
        for name, argv in _commands(path).items():
            faults += [f"case {case} ({what}), {name}: {fault}"
                       for fault in _faults(argv)]
    assert not faults, "\n".join(faults[:10])
