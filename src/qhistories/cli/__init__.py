"""Command-line frontend.

Subcommands: ``check`` (run notion checkers on a problem file),
``example1``/``example2`` (the built-in scenario reproductions),
``sweep`` (CSV over a parameter grid), ``mirror verify``/``mirror
search``, and ``prop1``.  Exit status: 0 when every evaluated verdict
passes, 1 when any fails or cannot be established, 2 on parse or
validation errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import math
import shutil
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..consistency import NOTIONS, FamilyAnalysis, _probabilities, probability
from ..errors import (
    BadParameters,
    FamilyTooLarge,
    PreconditionFailed,
    ToolkitError,
)
from ..histories import History, chain_stack
from ..individuality import _mixtures
from ..matcore import DensityOperator, Tolerances
from ..mirror import (
    MirrorCertificate,
    SelfDecoherenceReport,
    contrary_bound_check,
    least_mirror,
    occurrence_probability,
    proposition1_check,
    self_decoherence_each,
    verify_mirror,
)
from ..scenarios import (
    build_example1,
    build_example1_grid,
    build_example2,
    example1_expected,
    linear_positivity_range_note,
)
from .files import (
    NotionResult,
    ProbabilityValue,
    ReportFile,
    SelfDecoherenceSummary,
    clamp_probability,
    parse_problem,
    problem_to_objects,
    projection_named,
    report_table,
)

__all__ = ["build_parser", "main", "run"]

NOTION_ORDER = (*NOTIONS, "self-decoherence")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-op", type=float, default=1e-10,
                        help="operator-identity residual bound")
    parser.add_argument("--tol-eig", type=float, default=1e-8,
                        help="eigenvalue classification bound")
    parser.add_argument("--tol-prob", type=float, default=1e-9,
                        help="probability equality bound")
    parser.add_argument("--format", choices=("table", "report"),
                        default="table", help="output rendering")
    parser.add_argument("--out", type=Path, default=None,
                        help="write output to this path instead of stdout")


def _int_tuple(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("problem", type=Path, help="path to a problem file")
    p.add_argument("--notions", default=None,
                   help="comma-separated subset of: " + ", ".join(NOTION_ORDER))
    _add_common(p)


def _example1_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--state", choices=("rho", "rho1", "rho2"), default="rho")
    p.add_argument("--dim", type=int, default=3)
    _add_common(p)


def _example2_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spatial-dim", type=int, default=2)
    p.add_argument("--delta", type=_int_tuple, default=(1,),
                   help="detector cells, comma-separated 1-based indices")
    _add_common(p)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--param", choices=("theta", "alpha", "lam"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--state", choices=("rho", "rho1", "rho2"), default="rho1",
                   help="state of each step; ignored under --param lam, "
                        "whose states are the lam mixtures of rho1 and rho2")
    p.add_argument("--dim", type=int, default=3)
    _add_common(p)


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--history", required=True,
                   help="elementary history label, e.g. \"(1,2)\"")
    p.add_argument("--mirror", required=True, help="operator name")
    _add_common(p)


def _search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--history", required=True)
    _add_common(p)


# mirror's actions: name -> (help, argument builder), in help order
_MIRROR_ACTIONS = {
    "verify": ("verify a named candidate", _verify_args),
    "search": ("decide whether a mirror exists and report the least one",
               _search_args),
}


def _mirror_args(p: argparse.ArgumentParser, action: Optional[str] = None) -> None:
    for name, q in _add_parsers(p, "mirror_command", _MIRROR_ACTIONS, action):
        _MIRROR_ACTIONS[name][1](q)


def _prop1_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--t", required=True, help="mirror operator for h1")
    p.add_argument("--u", required=True, help="mirror operator for h2")
    p.add_argument("--h1", required=True, help="elementary history label")
    p.add_argument("--h2", required=True, help="elementary history label")
    _add_common(p)


def _tolerances(args) -> Tolerances:
    try:
        return Tolerances(op=args.tol_op, eig=args.tol_eig, prob=args.tol_prob)
    except ValueError as exc:
        raise BadParameters(str(exc)) from exc


def _emit(args, text: str) -> None:
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)


def _report(args, tol: Tolerances, notions: dict[str, NotionResult],
            **fields) -> int:
    """Emit one report in ``args.format``; exit 0 iff every notion passes."""
    report = ReportFile(tool="qhistories", version=__version__,
                        tolerances=asdict(tol), notions=notions, **fields)
    _emit(args, report.dumps() if args.format == "report"
          else report_table(report))
    return 0 if all(n.verdict for n in notions.values()) else 1


def _load_problem(path: Path, tol: Tolerances, histories: bool = False):
    """The parsed problem, then its family, state and provided mirrors, and
    with ``histories`` its elementary histories."""
    problem = parse_problem(path.read_text())
    return (problem, *problem_to_objects(problem, tol, histories=histories))


def _find_history(histories: list[History], label: str) -> History:
    """The elementary history of ``histories`` labelled ``label``."""
    for h in histories:
        if h.label == label:
            return h
    labels = ", ".join(h.label for h in histories)
    raise BadParameters(f"history {label!r} is not elementary here "
                        f"(have {labels})")


def _sd_summary(sd: Optional[SelfDecoherenceReport], provided=None,
                ) -> Optional[SelfDecoherenceSummary]:
    """The report's self-decoherence section, if that notion ran."""
    if sd is None:
        return None
    provided = provided or {}
    return SelfDecoherenceSummary(sd.verdict, {
        label: (("provided-verified" if cert.verified else "provided-failed")
                if label in provided
                else "not-found" if cert is None else "found")
        for label, cert in sd.per_history.items()})


def _cert_result(cert: MirrorCertificate,
                 note: Optional[str] = None) -> NotionResult:
    worst = max(*cert.residual_m1, *cert.residual_m2)
    return NotionResult(cert.verified, worst_residual=worst, note=note)


def _prop1_result(prop) -> NotionResult:
    return NotionResult(prop.passed, worst_residual=max(
        prop.orthogonality_residual, prop.join_additivity_residual,
        prop.cross_term_residual))


def _probability_value(raw: float, tol: Tolerances) -> ProbabilityValue:
    return ProbabilityValue(raw, clamp_probability(raw, tol))


def _run_notions(analysis: FamilyAnalysis, rho: DensityOperator,
                 requested: Sequence[str], provided=None,
                 ) -> tuple[dict[str, NotionResult],
                            Optional[SelfDecoherenceReport]]:
    """One result per requested notion, and the self-decoherence report
    if that notion ran; a notion whose precondition or member cap fails
    is ``n/a`` with the reason as its note."""
    # medium's report is also ordered's precondition: it is reduced once
    medium = (analysis.reports("medium", [rho])[0]
              if {"medium", "ordered"} & set(requested) else None)
    results: dict[str, NotionResult] = {}
    sd = None
    for name in requested:
        if name == "self-decoherence":
            if analysis.family.length != 2:
                results[name] = NotionResult(
                    None, note="only defined for 2-slot families")
                continue
            [sd] = self_decoherence_each(analysis, [rho], provided)
            results[name] = NotionResult(sd.verdict, pair_count=len(sd.per_history))
            continue
        try:
            r = (medium if name == "medium"
                 else analysis.ordered(rho, medium=medium) if name == "ordered"
                 else analysis.reports(name, [rho])[0])
        except (PreconditionFailed, FamilyTooLarge) as exc:
            results[name] = NotionResult(None, note=str(exc))
            continue
        note = ("no commutative elementary histories; vacuously true"
                if name == "C1-compat" and r.pair_count == 0 else None)
        results[name] = NotionResult(r.verdict, r.worst_residual,
                                     r.worst_pair, r.pair_count, note)
    return results, sd


def _elementary_probabilities(analysis: FamilyAnalysis, rho: DensityOperator,
                              ) -> dict[str, ProbabilityValue]:
    """:func:`probability` of every elementary history, in one stacked call."""
    raw = analysis.probabilities(rho)[0]
    return {analysis.label(i): _probability_value(p, analysis.tol)
            for i, p in enumerate(raw.tolist())}


def _cmd_check(args) -> int:
    tol = _tolerances(args)
    _, family, rho, provided = _load_problem(args.problem, tol)
    if args.notions is None:
        requested = [n for n in NOTION_ORDER
                     if n != "self-decoherence" or len(family.resolutions) == 2]
    else:
        requested = [n.strip() for n in args.notions.split(",") if n.strip()]
        if not requested:
            raise BadParameters("empty --notions list")
        for name in requested:
            if name not in NOTION_ORDER:
                raise BadParameters(f"unknown notion {name!r}; choose from "
                                    + ", ".join(NOTION_ORDER))
    analysis = FamilyAnalysis(family, tol)
    results, sd = _run_notions(analysis, rho, requested, provided)
    return _report(args, tol, results,
                   probabilities=_elementary_probabilities(analysis, rho),
                   self_decoherence=_sd_summary(sd, provided))


def _cmd_example1(args) -> int:
    tol = _tolerances(args)
    instance = build_example1(args.theta, args.alpha, args.dim, tol)
    rho = getattr(instance, args.state)
    analysis = FamilyAnalysis(instance.family, tol)
    results, sd = _run_notions(analysis, rho, NOTION_ORDER)
    probabilities = _elementary_probabilities(analysis, rho)
    p_coarse = probability(instance.h_coarse, rho)
    probabilities[instance.h_coarse.label] = _probability_value(p_coarse, tol)
    notes = []
    if args.state == "rho1":
        expected = example1_expected(args.theta)
        p1, p2 = (probabilities[h.label].raw for h in (instance.h1, instance.h2))
        notes.append(f"closed form p(h1) = {expected.p_h1:.12g}, "
                     f"computed {p1:.12g}")
        notes.append(f"closed form p(h2) = {expected.p_h2:.12g}, "
                     f"computed {p2:.12g}")
        notes.append(f"closed form p(h1+h2) = {expected.p_coarse:.12g}, "
                     f"computed {p_coarse:.12g}")
        notes.append("closed form weak residual = "
                     f"{expected.weak_residual_rho1:.12g}, computed worst "
                     f"{results['weak'].worst_residual:.12g}")
    notes.append(linear_positivity_range_note(args.theta))
    return _report(args, tol, results, probabilities=probabilities,
                   notes=tuple(notes), self_decoherence=_sd_summary(sd))


def _cmd_example2(args) -> int:
    tol = _tolerances(args)
    model = build_example2(args.spatial_dim, args.delta, tol)
    sd_results, sd = _run_notions(
        FamilyAnalysis(model.family, tol), model.rho, ["self-decoherence"],
        model.provided_mirrors)
    cert_t, cert_u = (sd.per_history[h.label] for h in (model.h1, model.h2))
    prop = proposition1_check(model.t, model.u, model.h1, model.h2,
                              model.psi, tol)
    bound = contrary_bound_check(model.h1, model.h2, (cert_t, cert_u),
                                 model.rho, tol)
    occ = occurrence_probability(model.h1, model.t, model.rho, tol)
    notions = {
        "mirror-T": _cert_result(cert_t),
        "mirror-U": _cert_result(cert_u),
        **sd_results,
        "prop1": _prop1_result(prop),
        "contrary-bound": NotionResult(bound.passed,
                                       worst_residual=bound.bound_residual),
    }
    probabilities = {
        "p(h1)": _probability_value(bound.p_h1, tol),
        "p(h2)": _probability_value(bound.p_h2, tol),
        "p(E2)": _probability_value(bound.p_e2, tol),
        "p(h1) via mirror": _probability_value(occ.value, tol),
    }
    notes = [
        f"prop1 residuals: orthogonality {prop.orthogonality_residual:.3e}, "
        f"join additivity {prop.join_additivity_residual:.3e}, "
        f"cross term {prop.cross_term_residual:.3e}",
    ]
    if bound.conditional_sum is not None:
        notes.append(
            f"conditional sum p(h1|E2)+p(h2|E2) = {bound.conditional_sum:.12g}")
    return _report(args, tol, notions, probabilities=probabilities,
                   notes=tuple(notes),
                   self_decoherence=_sd_summary(sd, model.provided_mirrors))


SWEEP_COLUMNS = ("param", "value", "weak", "weak_residual", "medium",
                 "medium_residual", "linear_positive", "linpos_worst",
                 "sum_rule", "sum_rule_residual", "p_h1", "p_h2", "p_coarse")


def _cmd_sweep(args) -> int:
    tol = _tolerances(args)
    if args.steps < 1:
        raise BadParameters("steps must be at least 1")
    values = [float(v) for v in np.linspace(args.start, args.stop, args.steps)]
    grid = build_example1_grid({
        "theta": [(v, args.alpha) for v in values],
        "alpha": [(args.theta, v) for v in values],
        "lam": [(args.theta, args.alpha)]}[args.param], args.dim, tol)
    if args.param != "lam":
        rhos = [getattr(grid[0], args.state)]
    elif outside := [v for v in values if not 0.0 < v < 1.0]:
        raise BadParameters(f"lam value {outside[0]} outside (0, 1)")
    else:
        rhos = _mixtures(grid[0].rho1, grid[0].rho2, values, tol)
    # one stacked call per notion: a family per step, or a state per step
    analysis = FamilyAnalysis([i.family for i in grid], tol)
    columns = [analysis.reports(name, rhos) for name in (
        "weak", "medium", "linear-positive", "sum-rule")]
    # h1, h2 and h_coarse of each step as one-history families
    slots = zip(*(h.events for i in grid for h in (i.h1, i.h2, i.h_coarse)))
    chains = chain_stack([np.array([[e.matrix] for e in s]) for s in slots]
                         ).reshape(len(grid), 3, args.dim, args.dim)
    probabilities = _probabilities(
        chains, np.array([rho.matrix for rho in rhos])).tolist()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for v, reports, probs in zip(values, zip(*columns), probabilities):
        writer.writerow([args.param, format(v, ".17g"), *(
            cell for r in reports for cell in (str(r.verdict).lower(),
                                               format(r.worst_residual, ".17g"))),
            *(format(p, ".17g") for p in probs)])
    _emit(args, buf.getvalue())
    return 0 if all(r.verdict for reports in columns for r in reports) else 1


def _cmd_mirror(args) -> int:
    tol = _tolerances(args)
    problem, _, rho, _, histories = _load_problem(args.problem, tol, histories=True)
    h = _find_history(histories, args.history)
    if args.mirror_command == "search":
        cert = least_mirror(h, rho, tol)
        return _report(args, tol, {"mirror-search": _cert_result(
            cert, note=(f"least mirror of rank {cert.mirror.rank}"
                        if cert.verified else "no mirror exists"))})
    t = projection_named(problem.operators, args.mirror, tol)
    cert = verify_mirror(t, h, rho, tol)
    return _report(args, tol, {"mirror": _cert_result(cert)}, notes=(
        f"commutator residuals: with first event "
        f"{cert.residual_m1[0]:.3e}, with second event "
        f"{cert.residual_m1[1]:.3e}",
        f"trace residuals: against Tr(T rho) {cert.residual_m2[0]:.3e}, "
        f"against Tr(E1 rho) {cert.residual_m2[1]:.3e}",
    ))


def _cmd_prop1(args) -> int:
    tol = _tolerances(args)
    problem, _, rho, _, histories = _load_problem(args.problem, tol, histories=True)
    if rho.purity < 1.0 - tol.prob:
        raise PreconditionFailed(
            f"prop1 needs a pure state (purity {rho.purity:.6f})")
    _, vecs = np.linalg.eigh(rho.matrix)
    psi = vecs[:, -1]
    t = projection_named(problem.operators, args.t, tol)
    u = projection_named(problem.operators, args.u, tol)
    h1, h2 = _find_history(histories, args.h1), _find_history(histories, args.h2)
    prop = proposition1_check(t, u, h1, h2, psi, tol)
    return _report(args, tol, {"prop1": _prop1_result(prop)}, notes=(
        f"orthogonality residual {prop.orthogonality_residual:.3e}",
        f"join additivity residual {prop.join_additivity_residual:.3e}",
        f"cross term residual {prop.cross_term_residual:.3e}",
    ))


# name -> (help, argument builder, handler), in help order
_SUBCOMMANDS = {
    "check": ("run notion checkers on a problem file", _check_args, _cmd_check),
    "example1": ("angle-parametrized rank-1 instance", _example1_args, _cmd_example1),
    "example2": ("two-slit instance with record qubit", _example2_args, _cmd_example2),
    "sweep": ("CSV over a parameter grid", _sweep_args, _cmd_sweep),
    "mirror": ("verify or construct mirror projections", _mirror_args, _cmd_mirror),
    "prop1": ("join additivity and cross-term check", _prop1_args, _cmd_prop1),
}


def _add_parsers(parser: argparse.ArgumentParser, dest: str, table: dict,
                 chosen: Optional[str]):
    """Add the sub-parsers ``dest`` named by ``table`` (name -> (help, ...))
    to ``parser``: every one, or ``chosen`` alone, each with ``parser``'s
    formatter class.  Yields each name and its sub-parser."""
    # with one built, name every choice in usage lines as the full set does;
    # no metavar otherwise, as argparse's errors name the argument by it
    sub = parser.add_subparsers(dest=dest, required=True, metavar=(
        None if chosen is None else "{" + ",".join(table) + "}"))
    for name, (text, *_) in table.items():
        if chosen in (None, name):
            yield name, sub.add_parser(name, help=text,
                                       formatter_class=parser.formatter_class)


def build_parser(command: Optional[str] = None,
                 action: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of ``command`` alone, and under
    ``mirror`` of both actions, or of ``action`` alone.  The terminal width
    is read once and given to every help formatter of the parser, where
    argparse would read it again for each argument added."""
    # the width argparse uses when it reads the terminal itself
    formatter = functools.partial(argparse.HelpFormatter,
                                  width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="qhistories", formatter_class=formatter,
        description="consistency checkers for quantum history families")
    for name, p in _add_parsers(parser, "command", _SUBCOMMANDS, command):
        if name == "mirror":
            _mirror_args(p, action)
        else:
            _SUBCOMMANDS[name][1](p)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command line, building only the parser of its subcommand
    (and of ``mirror``'s action) when argv names one."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    action = (argv[1] if command == "mirror" and len(argv) > 1
              and argv[1] in _MIRROR_ACTIONS else None)
    args = build_parser(command, action).parse_args(argv)
    try:
        return _SUBCOMMANDS[args.command][2](args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
