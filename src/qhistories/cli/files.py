"""Problem and report file formats for the command-line frontend.

Problems are JSON documents naming complex matrices (as paired ``re``
and ``im`` arrays), resolutions by operator name, a state (single name
or weighted mixture), and optional mirror assignments per elementary
history label.  Reports are JSON documents with per-notion verdicts,
residuals, probability values (raw plus clamped display), and notes.
Serialization is canonical: sorted keys, 2-space indent, floats at 17
significant digits, so a parse/serialize cycle is byte-idempotent and
reports round-trip losslessly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Optional, Union

import numpy as np

from ..errors import ParseError, ValidationError
from ..histories import HistoryFamily, elementary_histories, make_resolution
from ..matcore import (
    DEFAULT_TOL,
    DensityOperator,
    Projection,
    Tolerances,
    validate_density,
    validate_projection,
    validate_projections,
)

__all__ = [
    "ProblemFile",
    "NotionResult",
    "ProbabilityValue",
    "SelfDecoherenceSummary",
    "ReportFile",
    "canonical_dumps",
    "parse_problem",
    "serialize_problem",
    "projection_named",
    "problem_to_objects",
    "clamp_probability",
    "report_table",
]


def _canon(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError("non-finite number is not serializable")
        if x == 0.0:
            x = 0.0  # drop the sign of -0.0, keeps reload byte-stable
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + _canon(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        if any(not isinstance(k, str) for k in obj):
            raise TypeError("canonical JSON requires string keys")
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(k)}: {_canon(v, indent + 1)}"
            for k, v in sorted(obj.items()))
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float format, no NaN.

    Dataclasses are written as objects of their fields.
    """
    return _canon(obj, 0) + "\n"


MixtureSpec = list[tuple[str, float]]


@dataclass(frozen=True, eq=False)
class ProblemFile:
    """Parsed problem document; matrices are raw, not yet validated."""

    dim: int
    operators: dict[str, np.ndarray]
    resolutions: list[list[str]]
    state: Union[str, MixtureSpec]
    mirrors: Optional[dict[str, str]] = None


def _parse_matrix(name: str, raw, dim: int) -> np.ndarray:
    if not isinstance(raw, dict) or set(raw) != {"re", "im"}:
        raise ParseError(f"operator {name!r} must have exactly 're' and 'im'")
    parts = []
    for key in ("re", "im"):
        try:
            arr = np.array(raw[key], dtype=float)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"operator {name!r}: bad {key!r} array: {exc}")
        if arr.shape != (dim, dim):
            raise ParseError(
                f"operator {name!r}: {key!r} has shape {arr.shape}, "
                f"expected ({dim}, {dim})")
        parts.append(arr)
    return parts[0] + 1j * parts[1]


def parse_problem(text: str) -> ProblemFile:
    """Parse and structurally validate a problem document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}")
    if not isinstance(data, dict):
        raise ParseError("problem document must be a JSON object")
    missing = {"dim", "operators", "resolutions", "state"} - set(data)
    if missing:
        raise ParseError(f"missing keys: {', '.join(sorted(missing))}")
    dim = data["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ParseError(f"dim must be a positive integer, got {dim!r}")
    if not isinstance(data["operators"], dict) or not data["operators"]:
        raise ParseError("operators must be a nonempty object")
    operators = {name: _parse_matrix(name, raw, dim)
                 for name, raw in data["operators"].items()}
    resolutions = data["resolutions"]
    if (not isinstance(resolutions, list) or not resolutions
            or not all(isinstance(r, list) and r for r in resolutions)):
        raise ParseError("resolutions must be a nonempty list of nonempty "
                         "name lists")
    for r in resolutions:
        for name in r:
            if name not in operators:
                raise ParseError(f"resolution references unknown operator "
                                 f"{name!r}")
    state = data["state"]
    if isinstance(state, str):
        if state not in operators:
            raise ParseError(f"state references unknown operator {state!r}")
    elif isinstance(state, list) and state:
        parsed = []
        for item in state:
            if (not isinstance(item, list) or len(item) != 2
                    or not isinstance(item[0], str)
                    or isinstance(item[1], bool)
                    or not isinstance(item[1], (int, float))):
                raise ParseError("mixture components must be [name, weight] "
                                 "pairs")
            name, weight = item[0], float(item[1])
            if name not in operators:
                raise ParseError(f"state references unknown operator {name!r}")
            if not weight > 0.0:  # NaN fails too
                raise ParseError(f"mixture weight for {name!r} must be "
                                 f"positive, got {weight}")
            parsed.append((name, weight))
        state = parsed
    else:
        raise ParseError("state must be an operator name or a nonempty "
                         "mixture list")
    mirrors = data.get("mirrors")
    if mirrors is not None:
        if not isinstance(mirrors, dict):
            raise ParseError("mirrors must map history labels to operator "
                             "names")
        for label, name in mirrors.items():
            if not isinstance(name, str) or name not in operators:
                raise ParseError(f"mirror for {label!r} references unknown "
                                 f"operator {name!r}")
    return ProblemFile(dim, operators, resolutions, state, mirrors)


def serialize_problem(problem: ProblemFile) -> str:
    """Canonical text for a problem document."""
    ops = {name: {"re": mat.real.tolist(), "im": mat.imag.tolist()}
           for name, mat in problem.operators.items()}
    state = (problem.state if isinstance(problem.state, str)
             else [[name, weight] for name, weight in problem.state])
    data = {
        "dim": problem.dim,
        "operators": ops,
        "resolutions": problem.resolutions,
        "state": state,
    }
    if problem.mirrors is not None:
        data["mirrors"] = problem.mirrors
    return canonical_dumps(data)


def _prefixed(exc: ValidationError, prefix: str) -> ValidationError:
    """``exc`` with ``prefix`` before its message; its class, residual
    and (for :class:`NotOrthogonal`) pair stay as they are."""
    exc.args = (f"{prefix}: {exc.args[0]}", *exc.args[1:])
    return exc


def projection_named(operators: dict[str, np.ndarray], name: str,
                     tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Validate the named operator as a projection; errors carry the name."""
    if name not in operators:
        raise ParseError(f"unknown operator {name!r}")
    try:
        return validate_projection(operators[name], tol)
    except ValidationError as exc:
        raise _prefixed(exc, f"operator {name!r}")


def problem_to_objects(problem: ProblemFile,
                       tol: Tolerances = DEFAULT_TOL, *,
                       histories: bool = False) -> tuple:
    """Validate the document's operators into the family, the state and the
    provided mirrors; with ``histories``, the family's elementary histories
    follow, the one list that the mirror-label check also reads.

    Every named projection (the events of every resolution, then the
    mirrors) is validated in one stacked pass.  Only when that pass fails
    are they validated again one at a time, in file order between the
    resolution, state and mirror-label checks, so the first failure in file
    order raises its :class:`ValidationError` subclass (or
    :class:`ParseError` for an unknown mirror label), carrying the
    offending operator name or slot and its residual.
    """
    named_ops = [problem.operators[n] for n in (
        *(n for names in problem.resolutions for n in names),
        *(problem.mirrors or {}).values())]
    try:
        stacked = iter(validate_projections(named_ops, tol) if named_ops else [])
    except (ValidationError, ValueError):  # ValueError: operators of two shapes
        stacked = None

    def named(names: list[str]) -> list[Projection]:
        if stacked is None:
            return [projection_named(problem.operators, n, tol) for n in names]
        return [next(stacked) for _ in names]

    slots = []
    for k, names in enumerate(problem.resolutions):
        events = named(names)
        try:
            slots.append(make_resolution(events, tol))
        except ValidationError as exc:
            raise _prefixed(exc, f"resolution {k + 1}")
    family = HistoryFamily(tuple(slots))
    if isinstance(problem.state, str):
        try:
            rho = validate_density(problem.operators[problem.state], tol)
        except ValidationError as exc:
            raise _prefixed(exc, f"state {problem.state!r}")
    else:
        total = sum(w for _, w in problem.state)
        if not abs(total - 1.0) <= tol.prob:
            raise ValidationError(
                f"mixture weights sum to {total!r}, expected 1",
                abs(total - 1.0))
        mixed = sum(w * problem.operators[name] for name, w in problem.state)
        try:
            rho = validate_density(mixed, tol)
        except ValidationError as exc:
            raise _prefixed(exc, "state mixture")
    elementary = elementary_histories(family) if histories or problem.mirrors else []
    mirrors: dict[str, Projection] = {}
    if problem.mirrors:
        labels = {h.label for h in elementary}
        given = list(problem.mirrors)
        known = next((k for k, lb in enumerate(given) if lb not in labels), len(given))
        mirrors = dict(zip(given, named([problem.mirrors[lb] for lb in given[:known]])))
        if known < len(given):
            raise ParseError(
                f"mirror label {given[known]!r} matches no elementary history "
                f"(have {', '.join(sorted(labels))})")
    return (family, rho, mirrors, elementary) if histories else (family, rho, mirrors)


def clamp_probability(raw: float, tol: Tolerances = DEFAULT_TOL) -> float:
    """Display value: snap to [0, 1] when within ``tol.prob`` outside."""
    if -tol.prob <= raw < 0.0:
        return 0.0
    if 1.0 < raw <= 1.0 + tol.prob:
        return 1.0
    return raw


@dataclass(frozen=True)
class NotionResult:
    """One notion's verdict in a report.

    ``verdict`` is ``None`` when the notion could not be evaluated
    (failed precondition, exceeded enumeration cap); ``note`` says why.
    """

    verdict: Optional[bool]
    worst_residual: Optional[float] = None
    worst_pair: Optional[tuple[str, str]] = None
    pair_count: Optional[int] = None
    note: Optional[str] = None


@dataclass(frozen=True)
class ProbabilityValue:
    raw: float
    display: float


@dataclass(frozen=True)
class SelfDecoherenceSummary:
    """Verdict plus one status string per elementary history label."""

    verdict: bool
    mirrors: dict[str, str]


@dataclass(frozen=True)
class ReportFile:
    """Machine-readable outcome of one CLI command."""

    tool: str
    version: str
    tolerances: dict[str, float]
    notions: dict[str, NotionResult]
    probabilities: dict[str, ProbabilityValue] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    self_decoherence: Optional[SelfDecoherenceSummary] = None

    def to_dict(self) -> dict:
        """Nested plain data; tuples stay tuples, which
        :func:`canonical_dumps` writes as lists."""
        return asdict(self)

    def dumps(self) -> str:
        return canonical_dumps(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ReportFile":
        try:
            notions = {
                name: NotionResult(
                    verdict=n["verdict"],
                    worst_residual=n["worst_residual"],
                    worst_pair=(tuple(n["worst_pair"])
                                if n["worst_pair"] is not None else None),
                    pair_count=n["pair_count"],
                    note=n["note"],
                )
                for name, n in data["notions"].items()
            }
            probabilities = {
                label: ProbabilityValue(float(v["raw"]), float(v["display"]))
                for label, v in data.get("probabilities", {}).items()
            }
            sd = data.get("self_decoherence")
            summary = (None if sd is None
                       else SelfDecoherenceSummary(sd["verdict"],
                                                   dict(sd["mirrors"])))
            return cls(
                tool=data["tool"],
                version=data["version"],
                tolerances={k: float(v)
                            for k, v in data["tolerances"].items()},
                notions=notions,
                probabilities=probabilities,
                notes=tuple(data.get("notes", [])),
                self_decoherence=summary,
            )
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed report document: {exc}")

    @classmethod
    def loads(cls, text: str) -> "ReportFile":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}")
        if not isinstance(data, dict):
            raise ParseError("report document must be a JSON object")
        return cls.from_dict(data)


def _verdict_word(verdict: Optional[bool]) -> str:
    if verdict is None:
        return "n/a"
    return "pass" if verdict else "FAIL"


def report_table(report: ReportFile) -> str:
    """Fixed-width rendering of a report for terminals."""
    t = report.tolerances
    lines = [
        f"{report.tool} {report.version}  "
        f"tol op={t['op']:g} eig={t['eig']:g} prob={t['prob']:g}",
        "",
        f"{'notion':<18}{'verdict':<9}{'worst residual':<17}"
        f"{'pairs':<7}worst pair",
    ]
    for name, n in report.notions.items():
        # + 0.0 drops the sign of -0.0, as the canonical report does
        residual = ("-" if n.worst_residual is None
                    else f"{n.worst_residual + 0.0:.3e}")
        pairs = "-" if n.pair_count is None else str(n.pair_count)
        pair = "-" if n.worst_pair is None else " ".join(n.worst_pair)
        lines.append(f"{name:<18}{_verdict_word(n.verdict):<9}{residual:<17}"
                     f"{pairs:<7}{pair}")
        if n.note:
            lines.append(f"{'':<18}note: {n.note}")
    if report.probabilities:
        lines.append("")
        lines.append("probabilities:")
        width = max(16, max(len(k) for k in report.probabilities) + 2)
        for label, v in report.probabilities.items():
            lines.append(f"  {label:<{width}}{v.display:.12g}"
                         f"  (raw {v.raw:.17g})")
    if report.self_decoherence is not None:
        sd = report.self_decoherence
        lines.append("")
        lines.append(f"self-decoherence: {_verdict_word(sd.verdict)}")
        for label, status in sd.mirrors.items():
            lines.append(f"  {label:<16}{status}")
    if report.notes:
        lines.append("")
        lines.append("notes:")
        for note in report.notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"
