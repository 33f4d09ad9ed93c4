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
import io
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..consistency import (
    NOTIONS,
    check_C1_family,
    check_linear_positivity,
    check_medium_decoherence,
    check_ordered_consistency,
    check_sum_rule,
    check_weak_decoherence,
    probability,
)
from ..errors import (
    BadParameters,
    FamilyTooLarge,
    PreconditionFailed,
    ToolkitError,
)
from ..histories import HistoryFamily, History, elementary_histories
from ..individuality import mixture
from ..matcore import DensityOperator, Tolerances
from ..mirror import (
    MirrorCertificate,
    check_self_decoherence,
    contrary_bound_check,
    least_mirror,
    occurrence_probability,
    proposition1_check,
    verify_mirror,
)
from ..scenarios import (
    build_example1,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhistories",
        description="consistency checkers for quantum history families")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run notion checkers on a problem file")
    p.add_argument("problem", type=Path, help="path to a problem file")
    p.add_argument("--notions", default=None,
                   help="comma-separated subset of: " + ", ".join(NOTION_ORDER))
    _add_common(p)

    p = sub.add_parser("example1", help="angle-parametrized rank-1 instance")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--state", choices=("rho", "rho1", "rho2"), default="rho")
    p.add_argument("--dim", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("example2", help="two-slit instance with record qubit")
    p.add_argument("--spatial-dim", type=int, default=2)
    p.add_argument("--delta", type=_int_tuple, default=(1,),
                   help="detector cells, comma-separated 1-based indices")
    _add_common(p)

    p = sub.add_parser("sweep", help="CSV over a parameter grid")
    p.add_argument("--param", choices=("theta", "alpha", "lam"), required=True)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--theta", type=float, default=math.pi / 3.0)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--state", choices=("rho", "rho1", "rho2"), default="rho1")
    p.add_argument("--dim", type=int, default=3)
    _add_common(p)

    p = sub.add_parser("mirror", help="verify or construct mirror projections")
    msub = p.add_subparsers(dest="mirror_command", required=True)
    v = msub.add_parser("verify", help="verify a named candidate")
    v.add_argument("--problem", type=Path, required=True)
    v.add_argument("--history", required=True,
                   help="elementary history label, e.g. \"(1,2)\"")
    v.add_argument("--mirror", required=True, help="operator name")
    _add_common(v)
    s = msub.add_parser("search", help="decide whether a mirror exists and "
                                       "report the least one")
    s.add_argument("--problem", type=Path, required=True)
    s.add_argument("--history", required=True)
    _add_common(s)

    p = sub.add_parser("prop1", help="join additivity and cross-term check")
    p.add_argument("--problem", type=Path, required=True)
    p.add_argument("--t", required=True, help="mirror operator for h1")
    p.add_argument("--u", required=True, help="mirror operator for h2")
    p.add_argument("--h1", required=True, help="elementary history label")
    p.add_argument("--h2", required=True, help="elementary history label")
    _add_common(p)
    return parser


def _tolerances(args) -> Tolerances:
    return Tolerances(op=args.tol_op, eig=args.tol_eig, prob=args.tol_prob)


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


def _load_problem(path: Path, tol: Tolerances):
    """The parsed problem, then its family, state and provided mirrors."""
    problem = parse_problem(path.read_text())
    return (problem, *problem_to_objects(problem, tol))


def _find_history(family: HistoryFamily, label: str) -> History:
    for h in elementary_histories(family):
        if h.label == label:
            return h
    labels = ", ".join(h.label for h in elementary_histories(family))
    raise BadParameters(f"history {label!r} is not elementary here "
                        f"(have {labels})")


def _mirror_statuses(report, provided) -> dict[str, str]:
    statuses = {}
    for label, cert in report.per_history.items():
        if provided and label in provided:
            statuses[label] = ("provided-verified"
                               if cert is not None and cert.verified
                               else "provided-failed")
        elif cert is not None and cert.verified:
            statuses[label] = "found"
        else:
            statuses[label] = "not-found"
    return statuses


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


def _run_notions(family: HistoryFamily, rho: DensityOperator,
                 requested: Sequence[str], tol: Tolerances,
                 provided=None) -> tuple[dict[str, NotionResult],
                                         Optional[SelfDecoherenceSummary]]:
    """One result per requested notion; a notion whose precondition or
    member cap fails is ``n/a`` with the reason as its note."""
    # built per call, so it sees the module names as they are bound now
    # (bench/tracer.py rebinds them to timing wrappers)
    checkers = {
        "weak": check_weak_decoherence,
        "medium": check_medium_decoherence,
        "linear-positive": check_linear_positivity,
        "ordered": lambda f, r, t: check_ordered_consistency(f, r, (), t),
        "sum-rule": check_sum_rule,
        "C1-compat": check_C1_family,
    }
    results: dict[str, NotionResult] = {}
    summary = None
    for name in requested:
        if name == "self-decoherence":
            if len(family.resolutions) != 2:
                results[name] = NotionResult(
                    None, note="only defined for 2-slot families")
                continue
            sd = check_self_decoherence(family, rho, provided, tol)
            summary = SelfDecoherenceSummary(sd.verdict,
                                             _mirror_statuses(sd, provided))
            results[name] = NotionResult(sd.verdict,
                                         pair_count=len(sd.per_history))
            continue
        try:
            r = checkers[name](family, rho, tol)
        except (PreconditionFailed, FamilyTooLarge) as exc:
            results[name] = NotionResult(None, note=str(exc))
            continue
        note = ("no commutative elementary histories; vacuously true"
                if name == "C1-compat" and r.pair_count == 0 else None)
        results[name] = NotionResult(r.verdict, r.worst_residual,
                                     r.worst_pair, r.pair_count, note)
    return results, summary


def _elementary_probabilities(family: HistoryFamily, rho: DensityOperator,
                              tol: Tolerances) -> dict[str, ProbabilityValue]:
    return {h.label: _probability_value(probability(h, rho), tol)
            for h in elementary_histories(family)}


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
    results, summary = _run_notions(family, rho, requested, tol, provided)
    return _report(args, tol, results,
                   probabilities=_elementary_probabilities(family, rho, tol),
                   self_decoherence=summary)


def _cmd_example1(args) -> int:
    tol = _tolerances(args)
    instance = build_example1(args.theta, args.alpha, args.dim, tol)
    rho = getattr(instance, args.state)
    results, summary = _run_notions(instance.family, rho, NOTION_ORDER, tol)
    probabilities = _elementary_probabilities(instance.family, rho, tol)
    p_coarse = probability(instance.h_coarse, rho)
    probabilities[instance.h_coarse.label] = _probability_value(p_coarse, tol)
    notes = []
    if args.state == "rho1":
        expected = example1_expected(args.theta)
        p1 = probability(instance.h1, rho)
        p2 = probability(instance.h2, rho)
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
                   notes=tuple(notes), self_decoherence=summary)


def _cmd_example2(args) -> int:
    tol = _tolerances(args)
    model = build_example2(args.spatial_dim, args.delta, tol)
    cert_t = verify_mirror(model.t, model.h1, model.rho, tol)
    cert_u = verify_mirror(model.u, model.h2, model.rho, tol)
    sd, summary = _run_notions(model.family, model.rho, ["self-decoherence"],
                               tol, model.provided_mirrors)
    prop = proposition1_check(model.t, model.u, model.h1, model.h2,
                              model.psi, tol)
    bound = contrary_bound_check(model.h1, model.h2, (cert_t, cert_u),
                                 model.rho, tol)
    occ = occurrence_probability(model.h1, model.t, model.rho, tol)
    notions = {
        "mirror-T": _cert_result(cert_t),
        "mirror-U": _cert_result(cert_u),
        **sd,
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
                   notes=tuple(notes), self_decoherence=summary)


SWEEP_COLUMNS = ("param", "value", "weak", "weak_residual", "medium",
                 "medium_residual", "linear_positive", "linpos_worst",
                 "sum_rule", "sum_rule_residual", "p_h1", "p_h2", "p_coarse")


def _cmd_sweep(args) -> int:
    tol = _tolerances(args)
    if args.steps < 1:
        raise BadParameters("steps must be at least 1")
    checkers = (check_weak_decoherence, check_medium_decoherence,
                check_linear_positivity, check_sum_rule)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    any_fail = False
    for value in np.linspace(args.start, args.stop, args.steps):
        v = float(value)
        instance = build_example1(v if args.param == "theta" else args.theta,
                                  v if args.param == "alpha" else args.alpha,
                                  args.dim, tol)
        if args.param == "lam":
            if not 0.0 < v < 1.0:
                raise BadParameters(f"lam value {v} outside (0, 1)")
            rho = mixture(instance.rho1, instance.rho2, v, tol)
        else:
            rho = getattr(instance, args.state)
        row = [args.param, format(v, ".17g")]
        for check in checkers:
            r = check(instance.family, rho, tol)
            any_fail = any_fail or not r.verdict
            row += [str(r.verdict).lower(), format(r.worst_residual, ".17g")]
        row += [format(probability(h, rho), ".17g")
                for h in (instance.h1, instance.h2, instance.h_coarse)]
        writer.writerow(row)
    _emit(args, buf.getvalue())
    return 1 if any_fail else 0


def _cmd_mirror(args) -> int:
    tol = _tolerances(args)
    problem, family, rho, _ = _load_problem(args.problem, tol)
    h = _find_history(family, args.history)
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
    problem, family, rho, _ = _load_problem(args.problem, tol)
    if rho.purity < 1.0 - tol.prob:
        raise PreconditionFailed(
            f"prop1 needs a pure state (purity {rho.purity:.6f})")
    _, vecs = np.linalg.eigh(rho.matrix)
    psi = vecs[:, -1]
    t = projection_named(problem.operators, args.t, tol)
    u = projection_named(problem.operators, args.u, tol)
    h1 = _find_history(family, args.h1)
    h2 = _find_history(family, args.h2)
    prop = proposition1_check(t, u, h1, h2, psi, tol)
    return _report(args, tol, {"prop1": _prop1_result(prop)}, notes=(
        f"orthogonality residual {prop.orthogonality_residual:.3e}",
        f"join additivity residual {prop.join_additivity_residual:.3e}",
        f"cross term residual {prop.cross_term_residual:.3e}",
    ))


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "example1": _cmd_example1,
        "example2": _cmd_example2,
        "sweep": _cmd_sweep,
        "mirror": _cmd_mirror,
        "prop1": _cmd_prop1,
    }
    try:
        return handlers[args.command](args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())
