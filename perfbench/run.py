"""Benchmark of focktomo's rank scans, Fock lifts, reconstruction and two-mode protocol.

    python3 perfbench/run.py --workload rank-scan --seed 1 --seconds 20 --trace 0

Runs one workload in ``SEGMENTS`` fresh worker processes, one after the
other, each with a single BLAS thread and its share of ``--seconds``.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it prints
the per-layer metrics of a traced run, with the tracing overhead.

The timings it reports are given at a reference machine speed: each is
multiplied by ``REFERENCE_CAL_MS`` over the time the worker's calibration
kernel took around it, which takes out the drift in the machine's speed.
The wall-clock figures go to standard error and the result record.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment, goes to
``perfbench/results/``.  Exits with code 1 if a worker fails and 2 if the
program's sources are missing, printing no result in either case.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "work"

WORKLOADS = ("rank-scan", "six-photon", "reconstruct")

# Set-up is timed once per process, so three processes give a median of three.
SEGMENTS = 3
# Every run must end within 180 s; workers share what is left of this.
DEADLINE_S = 170.0

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The calibration kernel's time, in ms, on the machine the timings are
# scaled to: the median on a 2-vCPU Intel Xeon virtual machine.
REFERENCE_CAL_MS = 22.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "1/s",
    "op_p50_ref_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-operation figures from the traced run: "<module>.<function>.<field>",
# where field is calls, ms (inclusive), self_ms (minus traced children) or
# mflop (computed from argument shapes).
PER_LAYER = {
    "combinatorics.enumerate_fock_basis.calls": "count",
    "linear_optics.lift_unitary.ms": "ms",
    "linear_optics.lift_unitary.calls": "count",
    "linear_optics.haar_random_unitary.ms": "ms",
    "tomography.gramian_rank.ms": "ms",
    "tomography.gramian_rank.calls": "count",
    "tomography.gramian_rank.mflop": "Mflop",
    "tomography.find_min_configs.self_ms": "ms",
    "tomography.build_superoperator.self_ms": "ms",
    "tomography.reconstruct.self_ms": "ms",
    "tomography.reconstruct.calls": "count",
    "tomography.project_to_state.ms": "ms",
    "tomography.outcome_probabilities.self_ms": "ms",
    "tomography.outcome_probabilities.calls": "count",
    "tomography.sample_shots.ms": "ms",
    "imperfections.detector_response.ms": "ms",
    "imperfections.response_matrix.calls": "count",
    "imperfections.invert_detector_response.ms": "ms",
    "imperfections.invert_detector_response.calls": "count",
    "analytic_m2.choose_theta.ms": "ms",
    "analytic_m2.choose_theta.calls": "count",
    "analytic_m2.reconstruct_m2.self_ms": "ms",
    "cli.main.self_ms": "ms",
    "trace.overhead_pct": "%",
}


def git_sha() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workers(args: argparse.Namespace, stem: str) -> list[dict]:
    env = dict(os.environ, PYTHONHASHSEED="0", **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    started = time.monotonic()
    segments = []
    for segment in range(SEGMENTS):
        out = WORK / f"{stem}-seg{segment}.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--segment", str(segment), "--seconds", str(args.seconds / SEGMENTS),
            "--trace", str(args.trace), "--workdir", str(WORK / f"{stem}-seg{segment}"),
            "--out", str(out),
        ]
        if args.trace:
            command += ["--spans", str(RESULTS / f"spans-{stem}-seg{segment}.json")]
        remaining = DEADLINE_S - (time.monotonic() - started)
        try:
            done = subprocess.run(
                command, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"{stem}: segment {segment} ran past {DEADLINE_S:.0f} s")
        if done.returncode != 0:
            raise SystemExit(f"{stem}: segment {segment} exited with {done.returncode}")
        segments.append(json.loads(out.read_text()))
        out.unlink()
        shutil.rmtree(WORK / f"{stem}-seg{segment}")
    return segments


def at_reference_speed(times: list[float], calibrations: list[list[float]]) -> list[float]:
    """Each time scaled by the reference over the mean calibration around it."""
    return [t * REFERENCE_CAL_MS / statistics.fmean(c) for t, c in zip(times, calibrations)]


def end_to_end(segments: list[dict]) -> dict[str, float]:
    op_ms = [
        t for s in segments for t in at_reference_speed(s["op_ms"], s["op_cal_ms"])
    ]
    return {
        "setup_s": statistics.median(
            s["setup_s"] * REFERENCE_CAL_MS / statistics.fmean(s["setup_cal_ms"])
            for s in segments
        ),
        "ops_per_ref_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ref_ms": statistics.median(op_ms),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in segments),
    }


def wall_clock(segments: list[dict]) -> dict[str, float]:
    """The unscaled figures, for the record."""
    op_ms = [t for s in segments for t in s["op_ms"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in segments),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_p50_ms": statistics.median(op_ms),
        "calibration_p50_ms": statistics.median(
            c for s in segments for pair in s["op_cal_ms"] for c in pair
        ),
    }


def per_layer(segments: list[dict]) -> dict[str, float]:
    """Per traced operation; a function the workload never calls reads 0.

    Times are at reference speed: each worker's totals are scaled by its
    median calibration around the traced operations.
    """
    traced_ops = sum(len(s["traced_op_ms"]) for s in segments)
    speed = [
        REFERENCE_CAL_MS / statistics.median(c for pair in s["traced_cal_ms"] for c in pair)
        for s in segments
    ]
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_pct":
            continue
        function, field = name.rsplit(".", 1)
        timed = field in ("ms", "self_ms")
        total = sum(
            s["layers"].get(function, {}).get(field, 0.0) * (k if timed else 1.0)
            for s, k in zip(segments, speed)
        )
        values[name] = total / traced_ops
    plain = statistics.median(
        t for s in segments for t in at_reference_speed(s["op_ms"], s["op_cal_ms"])
    )
    traced = statistics.median(
        t for s in segments
        for t in at_reference_speed(s["traced_op_ms"], s["traced_cal_ms"])
    )
    values["trace.overhead_pct"] = 100.0 * (traced - plain) / plain
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "focktomo" / "__init__.py").is_file():
        print(f"no focktomo sources under {SRC}", file=sys.stderr)
        return 2

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    WORK.mkdir(exist_ok=True)
    segments = run_workers(args, stem)

    failures = [f for s in segments for f in s["failures"]]
    run_failures = [f for s in segments for f in s["run_failures"]]
    attempted = sum(s["attempted"] for s in segments)
    if args.trace:
        metrics = per_layer(segments)
        units = PER_LAYER
    else:
        metrics = end_to_end(segments)
        units = END_TO_END
    summary = {
        "correct": not failures and not run_failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "environment": segments[0]["environment"],
        "summary": summary,
        "reference_cal_ms": REFERENCE_CAL_MS,
        "wall_clock": wall_clock(segments),
        "operations_timed": sum(len(s["op_ms"]) for s in segments),
        "failures": failures,
        "run_failures": run_failures,
        "segments": [
            {k: v for k, v in s.items() if k not in ("environment", "layers")} for s in segments
        ],
    }
    if args.trace:
        record["layers"] = [s["layers"] for s in segments]
        record["traced_bindings"] = segments[0]["traced_bindings"]
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for failure in failures + run_failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, entry in summary["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']:.6g} {entry['unit']}", file=sys.stderr)
    for name, value in record["wall_clock"].items():
        print(f"{args.workload} wall clock {name} = {value:.6g}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
