"""One workload in one process: set up, ask every question, check answers.

Started by ``run.py`` with the BLAS thread count fixed in its
environment.  Prints one JSON object on its last stdout line.

Untraced runs repeat passes over the question set until ``--seconds``
have gone by, with at least ``MIN_PASSES`` passes and ``MIN_QUESTIONS``
timed questions.  Traced runs spend half the time on untraced passes,
then trace the first ``TRACED_PASSES`` passes again on the same inputs;
the per-layer figures are one traced set-up plus the mean traced pass.

The host's speed drifts over minutes (shared physical cores), and the
library's calls slow down in step with a fixed kernel of small numpy
calls.  So
that kernel is timed before the first pass and after every pass, and
each pass's time and question latencies are reported scaled to the
kernel's nominal time ``REFERENCE_S`` by the mean of the kernels around
the pass: times at a fixed host speed.  The raw times are kept too.
Set-up is not scaled: its imports and file writes do not follow the
kernel's speed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import qhistories  # noqa: E402,F401

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Failure, Lib  # noqa: E402

IMPORT_S = time.perf_counter() - T0

MIN_PASSES = 3
MIN_QUESTIONS = 100
TRACED_PASSES = 2
DEADLINE_S = 120.0  # measurement stops here even if the minimums are unmet
REFERENCE_S = 0.016  # the kernel's median time on a 2-vCPU x86-64 VM
_REFERENCE_A = numpy.linspace(0.0, 1.0, 64).reshape(8, 8)


def reference_s() -> float:
    """Time of a fixed kernel of small numpy calls: the host's speed now."""
    start = time.perf_counter()
    for _ in range(2000):
        numpy.max(numpy.abs(_REFERENCE_A @ _REFERENCE_A))
    return time.perf_counter() - start


class Tally:
    """Outcome counts and the distinct failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages: dict[str, int] = {}

    def add(self, kind: str, failure: Failure | None) -> None:
        self.attempted += 1
        if failure is None:
            return
        self.failed += 1
        self.wrong += failure.category == "wrong"
        key = f"{kind}: {failure.category}: {failure.message}"[:300]
        self.messages[key] = self.messages.get(key, 0) + 1


def ask(question, root=None):
    """Time one question.  Returns (seconds, answer, failure)."""
    call = question.ask if root is None else (lambda: root(question.ask))
    start = time.perf_counter()
    try:
        answer = call()
    except question.documented as exc:
        answer = exc
    except Exception as exc:  # any other exception is a failed question
        elapsed = time.perf_counter() - start
        return elapsed, None, Failure("error", f"raised {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, answer, None


def run_pass(workload, questions, tally, latencies, tracer=None) -> float:
    """Ask and check every question once; returns the summed latency."""
    gc.collect()
    wall = 0.0
    for q in questions:
        if tracer is not None:
            tracer.install()
            root = tracer.root(f"question:{q.kind}")
            elapsed, answer, failure = ask(q, root)
            tracer.uninstall()
        else:
            elapsed, answer, failure = ask(q)
        wall += elapsed
        latencies.append(elapsed)
        if failure is None:
            try:
                failure = q.check(answer)
            except Exception as exc:  # a malformed answer the check chokes on
                failure = Failure("wrong", f"check raised {type(exc).__name__}: {exc}")
        tally.add(q.kind, failure)
    return wall


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()
    args.workdir.mkdir(parents=True, exist_ok=True)

    # -- set-up: import (above), inputs, problem files, one warm-up question
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_start = time.perf_counter()
    lib = Lib()
    workload = WORKLOADS[args.workload](lib, args.seed, args.workdir)
    first = workload.questions(0)
    ask(first[0])
    setup_end = time.perf_counter()
    setup_s = IMPORT_S + (setup_end - setup_start)
    if tracer is not None:
        tracer.uninstall()
        setup_trace = tracer.snapshot()
        tracer.reset()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # -- untraced passes, each scaled by the kernels timed around it
    tally, latencies, walls, raw_latencies, raw_walls = Tally(), [], [], [], []
    if tracer is None:
        budget, min_passes, min_questions = args.seconds, MIN_PASSES, MIN_QUESTIONS
    else:
        budget, min_passes, min_questions = args.seconds / 2, TRACED_PASSES, 0
    start = time.perf_counter()
    questions = first
    refs = [reference_s()]
    while True:
        pass_latencies = []
        raw_walls.append(run_pass(workload, questions, tally, pass_latencies))
        refs.append(reference_s())
        scale = 2.0 * REFERENCE_S / (refs[-2] + refs[-1])
        walls.append(raw_walls[-1] * scale)
        latencies += [x * scale for x in pass_latencies]
        raw_latencies += pass_latencies
        elapsed = time.perf_counter() - start
        if elapsed >= DEADLINE_S or (elapsed >= budget and len(walls) >= min_passes
                                     and len(latencies) >= min_questions):
            break
        questions = workload.questions(len(walls))

    result = {
        "setup_s": setup_s,
        "import_s": IMPORT_S,
        "passes": len(walls),
        "questions_per_pass": len(first),
        "walls": walls,
        "latencies": latencies,
        "raw_walls": raw_walls,
        "raw_latencies": raw_latencies,
        "reference_s": refs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }

    # -- traced passes over the first passes' inputs
    if tracer is not None:
        traced_walls = []
        for i in range(min(TRACED_PASSES, len(walls))):
            questions = first if i == 0 else workload.questions(i)
            traced_walls.append(run_pass(workload, questions, tally, [], tracer))
        pass_trace = tracer.snapshot()
        result["per_layer"] = layers.per_layer(
            tracer, setup_trace, pass_trace, len(traced_walls),
            traced_setup_s=setup_end - setup_start,
            traced_walls=traced_walls, untraced_walls=raw_walls[:len(traced_walls)],
            error_rate=tally.failed / max(tally.attempted, 1))
        if args.spans is not None:
            tracer.write_spans(args.spans)
        result["spans_dropped"] = tracer.spans_dropped

    result.update(attempted=tally.attempted, failed=tally.failed,
                  wrong=tally.wrong, failures=tally.messages,
                  blas_threads=layers.blas_threads())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
