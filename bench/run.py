"""qhistories benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root::

    python3 bench/run.py --workload families --seed 1 --seconds 15 --trace 0

Workloads: ``families``, ``mirrors``, ``mixtures``, ``cli`` (see
``bench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer split.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the run's metadata.

The library is imported from ``src/`` next to this directory.  Each
workload runs in a child process with one BLAS thread; set-up runs
``SETUP_SAMPLES`` times in fresh processes and the median is reported.
Pass and question times are scaled to a fixed host speed by a reference
kernel (see ``worker.py``); the metadata line holds the raw times too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("families", "mirrors", "mixtures", "cli")
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from layers import PER_LAYER  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(args, workdir: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit(f"bench: {args.workload} worker timed out")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {args.workload} worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def metadata(args, main: dict) -> dict:
    import numpy
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": main["blas_threads"], "src_lines": src_lines(),
        "passes": main["passes"], "questions_per_pass": main["questions_per_pass"],
        "error_rate": main["failed"] / main["attempted"],
        "failures": main["failures"], "absent": main.get("per_layer", {}).get("absent", []),
        "spans_dropped": main.get("spans_dropped", 0),
        "reference_s": statistics.median(main["reference_s"]),
        "raw": timings(main["raw_walls"], main["raw_latencies"]),
    }


def timings(walls: list[float], latencies: list[float]) -> dict:
    lat_ms = [x * 1e3 for x in latencies]
    return {"wall_s": statistics.median(walls),
            "question_p50_ms": statistics.median(lat_ms),
            "question_p90_ms": percentile(lat_ms, 90)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qhistories" / "__init__.py").is_file():
        print(f"bench: no qhistories sources under {SRC}", file=sys.stderr)
        return 3

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setups = [run_child(args, workdir, "--setup-only")["setup_s"]
              for _ in range(SETUP_SAMPLES - 1)]
    spans = WORK / "spans" / f"{args.workload}-{args.seed}.jsonl"
    main_run = run_child(args, workdir, *(["--spans", str(spans)] if args.trace else []))
    setups.append(main_run["setup_s"])
    for f in workdir.glob("*"):
        f.unlink()
    workdir.rmdir()

    if args.trace:
        values = main_run["per_layer"]["values"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        timed = timings(main_run["walls"], main_run["latencies"])
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": timed["wall_s"], "unit": "s"},
            "question_p50_ms": {"value": timed["question_p50_ms"], "unit": "ms"},
            "question_p90_ms": {"value": timed["question_p90_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": main_run["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    meta = metadata(args, main_run)
    shown = dict(metrics)
    if not args.trace:  # traced runs carry error_rate among their metrics
        shown["error_rate"] = {"value": meta["error_rate"], "unit": "ratio"}
    for name, m in shown.items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": main_run["wrong"] == 0,
                      "attempted": main_run["attempted"],
                      "failed": main_run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
