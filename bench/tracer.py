"""Span tracer that wraps the library's public functions from outside.

The library imports its helpers by name (``from .matcore import
max_norm``), so a call is only seen when every module namespace that
holds the function is patched.  :class:`Tracer` looks functions up by
name, patches each namespace that holds the same object, and restores
the originals on :meth:`Tracer.uninstall`.  A function that no longer
exists is reported as absent instead of failing, so the benchmark keeps
running when the library deletes code.

Each wrapped call becomes a span ``(name, start, end, parent)``.  Self
time is the span's duration minus the time covered by its child spans.
Spans are kept in memory, up to ``SPAN_CAP``, and written out when the
run ends; later spans are counted in ``spans_dropped`` but not kept.
Aggregates (calls, self time, counters) are kept for every call.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# Modules whose public functions (their ``__all__``) are wrapped; the
# short name prefixes every metric of that module.
MODULES = {
    "qhistories.matcore": "matcore",
    "qhistories.histories": "histories",
    "qhistories.consistency": "consistency",
    "qhistories.mirror": "mirror",
    "qhistories.individuality": "individuality",
    "qhistories.scenarios": "scenarios",
    "qhistories.sampling": "sampling",
    "qhistories.cli": "cli",
    "qhistories.cli.files": "cli.files",
}

# Functions named by a per-layer metric, wrapped whether or not the
# module still lists them in ``__all__``.  ``Class.method`` names patch
# the class attribute.
NAMED = {
    "qhistories.matcore": ["validate_projection", "validate_density", "max_norm",
                           "commutant_basis", "spectral_decomposition", "join"],
    "qhistories.histories": ["elementary_histories", "chain_operator",
                             "summable", "alternative", "family_members",
                             "history_sum", "history_leq"],
    "qhistories.consistency": ["decoherence_functional", "probability",
                               "check_weak_decoherence",
                               "check_medium_decoherence",
                               "check_linear_positivity", "check_sum_rule",
                               "check_C1_family", "check_ordered_consistency"],
    "qhistories.mirror": ["check_self_decoherence", "mirror_candidates",
                          "verify_mirror", "occurrence_probability",
                          "proposition1_check", "contrary_bound_check"],
    "qhistories.individuality": ["individuality_violation_search", "mixture",
                                 "mirror_component_decomposition",
                                 "PropertyPredicate.holds"],
    "qhistories.scenarios": ["build_example1", "build_example2"],
    "qhistories.sampling": [],
    "qhistories.cli": ["main"],
    "qhistories.cli.files": ["parse_problem", "problem_to_objects",
                             "report_table", "ReportFile.dumps"],
}

SPAN_CAP = 50_000

_CHECKERS = ("check_weak_decoherence", "check_medium_decoherence",
             "check_linear_positivity", "check_sum_rule", "check_C1_family",
             "check_ordered_consistency")


def _count_pairs(counters, args, kwargs, result):
    counters["consistency.pairs_evaluated"] += result.pair_count


def _count_candidates(counters, args, kwargs, result):
    counters["mirror.candidates_built"] += len(result)


def _count_verified(counters, args, kwargs, result):
    counters["mirror.verified_certificates"] += int(bool(result.verified))


def _count_witnesses(counters, args, kwargs, result):
    lams = kwargs["lams"] if "lams" in kwargs else args[3]
    counters["individuality.weights_tried"] += len(lams)
    counters["individuality.witnesses"] += len(result)


def _count_bytes(counters, args, kwargs, result):
    counters["cli.report_bytes"] += len(result.encode())


# Counters read off a wrapped call's arguments and result.
OBSERVERS = {
    **{f"consistency.{name}": _count_pairs for name in _CHECKERS},
    "mirror.mirror_candidates": _count_candidates,
    "mirror.verify_mirror": _count_verified,
    "individuality.individuality_violation_search": _count_witnesses,
    "cli.files.report_table": _count_bytes,
    "cli.files.ReportFile.dumps": _count_bytes,
}


class Tracer:
    """Wraps library functions by name and accumulates spans.

    Aggregates are indexed by metric name, ``<module>.<function>``.
    Spans are kept in start order until ``SPAN_CAP`` is reached, so a
    kept span's parent is always kept too.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.spans: list = []
        self.spans_dropped = 0
        self.absent: list[str] = []
        self.module_of: dict[str, str] = {}
        self._stack: list = []
        self._patches: list = []
        self._build()

    # -- patching -------------------------------------------------------
    def _build(self) -> None:
        originals = {}  # id(function) -> (function, wrapper)
        class_patches = []
        for modname, short in MODULES.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.append(short)
                continue
            names = list(getattr(module, "__all__", ()))
            names += [n for n in NAMED[modname] if n not in names]
            for name in names:
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                fn = getattr(owner, attr, None) if owner is not None else None
                if not callable(fn) or isinstance(fn, type):
                    if name in NAMED[modname]:
                        self.absent.append(f"{short}.{name}")
                    continue
                self.module_of[f"{short}.{name}"] = short
                wrapper = self._wrap(f"{short}.{name}", fn)
                if owner_name:
                    class_patches.append((owner, attr, fn, wrapper))
                elif getattr(fn, "__module__", None) == modname:
                    originals[id(fn)] = (fn, wrapper)
        namespaces = [m for n, m in sys.modules.items()
                      if n == "qhistories" or n.startswith("qhistories.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))
        self._patches.extend(class_patches)

    def _wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        return functools.wraps(fn)(self._span(name, fn, observe))

    def _span(self, name, fn, observe):
        calls, self_s, spans, stack = self.calls, self.self_s, self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans) if len(spans) < SPAN_CAP else -1
            if index >= 0:
                spans.append(None)
            else:
                self.spans_dropped += 1
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[0]
                if parent is not None:
                    parent[0] += duration
                if index >= 0:
                    spans[index] = (name, start, end,
                                    parent[1] if parent is not None else -1)
            if observe is not None:
                observe(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def root(self, name: str):
        """Span for one question, the parent of every library span in it."""
        return self._span(name, lambda f: f(), None)

    # -- results --------------------------------------------------------
    def snapshot(self) -> dict:
        """Aggregates so far: calls, self time and counters by name."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counters.clear()

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent span index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
