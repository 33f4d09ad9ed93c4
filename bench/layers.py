"""Per-layer metrics of a traced run, and the BLAS thread probe.

Every figure describes one traced set-up plus the mean traced pass over
the question set.  ``<module>.self_s`` sums the self time of every
wrapped function of that module; with ``trace.bench_self_s`` (time
inside the traced region spent in the benchmark's own code) they add up
to ``trace.wall_s``.
"""

from __future__ import annotations

import ctypes
import os
import statistics

from tracer import MODULES

_MODULE_TOTALS = tuple(MODULES.values())

# (metric, unit): ``<function>.calls`` / ``<function>.self_s`` read the
# tracer's aggregates; other names are derived below.
PER_LAYER = [
    *[(f"matcore.{f}.{k}", u) for f in ("validate_projection", "validate_density",
                                        "max_norm", "commutant_basis",
                                        "spectral_decomposition")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("matcore.join.self_s", "s"),
    *[(f"histories.{f}.{k}", u) for f in ("elementary_histories", "chain_operator",
                                          "summable", "alternative")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("histories.family_members.self_s", "s"),
    ("histories.history_sum.calls", "count"),
    ("histories.history_leq.calls", "count"),
    *[(f"consistency.{f}.{k}", u) for f in ("decoherence_functional", "probability")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    *[(f"consistency.check_{f}.self_s", "s") for f in (
        "weak_decoherence", "medium_decoherence", "linear_positivity", "sum_rule",
        "C1_family", "ordered_consistency")],
    ("consistency.pairs_evaluated", "count"),
    ("consistency.pair_yield", "ratio"),
    *[(f"mirror.{f}.{k}", u) for f in ("check_self_decoherence", "mirror_candidates",
                                       "verify_mirror")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("mirror.candidates_built", "count"),
    ("mirror.certificate_yield", "ratio"),
    *[(f"mirror.{f}.self_s", "s") for f in (
        "occurrence_probability", "proposition1_check", "contrary_bound_check")],
    *[(f"individuality.{f}.{k}", u) for f in ("individuality_violation_search",
                                              "mixture")
      for k, u in (("calls", "count"), ("self_s", "s"))],
    ("individuality.predicate_evals", "count"),
    ("individuality.witness_yield", "ratio"),
    ("individuality.mirror_component_decomposition.self_s", "s"),
    ("scenarios.build_example1.calls", "count"),
    ("scenarios.build_example1.self_s", "s"),
    ("scenarios.build_example2.self_s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    *[(f"cli.files.{f}.self_s", "s") for f in (
        "parse_problem", "problem_to_objects", "report_table", "ReportFile.dumps")],
    ("cli.report_bytes", "bytes"),
    *[(f"{m}.self_s", "s") for m in _MODULE_TOTALS],
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.bench_self_s", "s"),
    ("error_rate", "ratio"),
]

# Derived metric -> the wrapped function it is read from, for absence.
_SOURCE = {
    "consistency.pairs_evaluated": "consistency.check_weak_decoherence",
    "consistency.pair_yield": "histories.summable",
    "mirror.candidates_built": "mirror.mirror_candidates",
    "mirror.certificate_yield": "mirror.verify_mirror",
    "individuality.predicate_evals": "individuality.PropertyPredicate.holds",
    "individuality.witness_yield": "individuality.individuality_violation_search",
    "cli.report_bytes": "cli.files.report_table",
    **{f"{m}.self_s": m for m in _MODULE_TOTALS},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, setup: dict, passes: dict, n_passes: int, *,
              traced_setup_s: float, traced_walls: list[float],
              untraced_walls: list[float], error_rate: float) -> dict:
    """Per-layer metric values, plus the names reported as absent."""
    def total(kind: str, name: str) -> float:
        return setup[kind].get(name, 0.0) + passes[kind].get(name, 0.0) / n_passes

    calls = {n: total("calls", n) for n in set(setup["calls"]) | set(passes["calls"])}
    self_s = {n: total("self_s", n) for n in set(setup["self_s"]) | set(passes["self_s"])}
    counters = {n: total("counters", n)
                for n in set(setup["counters"]) | set(passes["counters"])}
    wall = traced_setup_s + statistics.fmean(traced_walls)
    modules = {m: 0.0 for m in _MODULE_TOTALS}
    for name, value in self_s.items():
        module = tracer.module_of.get(name)
        if module is not None:
            modules[module] += value
    summable_alt = (calls.get("histories.summable", 0.0)
                    + calls.get("histories.alternative", 0.0))
    derived = {
        "consistency.pairs_evaluated": counters.get("consistency.pairs_evaluated", 0.0),
        "consistency.pair_yield": _ratio(
            counters.get("consistency.pairs_evaluated", 0.0), summable_alt),
        "mirror.candidates_built": counters.get("mirror.candidates_built", 0.0),
        "mirror.certificate_yield": _ratio(
            counters.get("mirror.verified_certificates", 0.0),
            calls.get("mirror.verify_mirror", 0.0)),
        "individuality.predicate_evals": calls.get(
            "individuality.PropertyPredicate.holds", 0.0),
        "individuality.witness_yield": _ratio(
            counters.get("individuality.witnesses", 0.0),
            counters.get("individuality.weights_tried", 0.0)),
        "cli.report_bytes": counters.get("cli.report_bytes", 0.0),
        **{f"{m}.self_s": v for m, v in modules.items()},
        "trace.wall_s": wall,
        "trace.overhead_s": statistics.median(
            t - u for t, u in zip(traced_walls, untraced_walls)),
        "trace.bench_self_s": wall - sum(modules.values()),
        "error_rate": error_rate,
    }
    values, absent = {}, []
    for name, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
            source = _SOURCE.get(name)
        else:
            function, _, kind = name.rpartition(".")
            values[name] = (calls if kind == "calls" else self_s).get(function, 0.0)
            source = function
        if source is not None and source in tracer.absent:
            absent.append(name)
    return {"values": values, "absent": absent}


def blas_threads() -> int | None:
    """Threads OpenBLAS will use in this process, or ``None`` if unknown."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS")
    return int(env) if env else None
