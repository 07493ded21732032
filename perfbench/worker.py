"""One workload process: set up, run operations for a while, report as JSON.

``run.py`` starts this script in a fresh interpreter with one BLAS thread and
``src`` first on ``PYTHONPATH``.  Set-up time counts from the first line of
this file: importing focktomo (and numpy with it), drawing the inputs and
one untimed warm-up operation.  The timed loop then runs whole rounds until
``--seconds`` have passed: one operation per round, or with ``--trace 1`` an
untraced and a traced operation, so that the two can be compared.

The machine's speed drifts by tens of percent over seconds and minutes, so
the worker also times a fixed calibration kernel (``calibrate``) as set-up
starts and ends and after every operation, outside the timed region.  ``run.py``
divides each timing by the calibration times around it.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS the process has loaded, asked of the library."""
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    counts = {}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(library, symbol):
                counts[Path(path).name] = int(getattr(library, symbol)())
                break
    return counts


CALIBRATION_REPEATS = 2
# Calibrations at either end of set-up; the median at each end scales setup_s.
SETUP_CALIBRATIONS = 3


def calibration_kernel():
    """A fixed task that gauges the machine's current speed: ``calibrate()``
    returns its time in ms, the mean of ``CALIBRATION_REPEATS`` timings.

    Values-only SVDs of one complex 600x200 matrix, drawn from a fixed seed,
    on the process's single BLAS thread: about 20 ms each, with a working
    set near that of the rank scan's maps.  It is benchmark code, so no
    change to focktomo moves it.
    """
    import numpy as np

    rng = np.random.default_rng(20180606)
    matrix = rng.standard_normal((600, 200)) + 1j * rng.standard_normal((600, 200))

    def calibrate() -> float:
        start = perf_counter()
        for _ in range(CALIBRATION_REPEATS):
            np.linalg.svd(matrix, compute_uv=False)
        return (perf_counter() - start) * 1e3 / CALIBRATION_REPEATS

    return calibrate


def median_calibration(calibrate) -> float:
    return sorted(calibrate() for _ in range(SETUP_CALIBRATIONS))[SETUP_CALIBRATIONS // 2]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--segment", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    import numpy as np

    # Gauge the machine's speed as set-up starts.  The pause is not set-up time.
    paused = perf_counter()
    calibrate = calibration_kernel()
    calibrate()  # the first call pays one-time costs
    setup_cal_ms = [median_calibration(calibrate)]
    paused = perf_counter() - paused

    import focktomo

    source = Path(focktomo.__file__).resolve().parent
    expected = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve() / "focktomo"
    if source != expected:
        print(f"imported focktomo from {source}, expected {expected}", file=sys.stderr)
        return 2

    from checks import CheckError
    from tracing import Tracer
    from workloads import WORKLOADS

    names = list(WORKLOADS)
    entropy = [args.seed, args.segment, names.index(args.workload)]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    args.workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.workdir, rng)
    tracer = Tracer() if args.trace else None

    failures: list[str] = []
    run_failures: list[str] = []

    def attempt(index: int, traced: bool) -> float:
        """Time one operation, then check it outside the timed region.

        An operation that raises or fails a check is recorded in ``failures``;
        its time still counts, as the time the program spent on it.
        """
        start = perf_counter()
        try:
            result = tracer.run(workload.operation, index) if traced else workload.operation(index)
        except Exception:
            elapsed = perf_counter() - start
            failures.append(f"operation {index}: {traceback.format_exc(limit=-3)}")
            return elapsed
        elapsed = perf_counter() - start
        try:
            workload.verify(index, workload.collect(result))
        except CheckError as exc:
            failures.append(f"operation {index}: {exc}")
        return elapsed

    attempted = 1
    attempt(0, traced=False)
    setup_s = perf_counter() - STARTED - paused
    setup_cal_ms.append(median_calibration(calibrate))

    rounds = (False, True) if args.trace else (False,)
    op_ms: list[float] = []
    traced_ms: list[float] = []
    # The calibration times on either side of each operation, in ms.
    op_cal_ms: list[list[float]] = []
    traced_cal_ms: list[list[float]] = []
    before = setup_cal_ms[1]
    index = 1
    loop_start = perf_counter()
    while True:
        for traced in rounds:
            (traced_ms if traced else op_ms).append(attempt(index, traced) * 1e3)
            after = calibrate()
            (traced_cal_ms if traced else op_cal_ms).append([before, after])
            before = after
            attempted += 1
            index += 1
        if perf_counter() - loop_start >= args.seconds:
            break
    try:
        workload.finish()
    except CheckError as exc:
        run_failures.append(str(exc))

    result = {
        "setup_s": setup_s,
        "setup_cal_ms": setup_cal_ms,
        "op_ms": op_ms,
        "op_cal_ms": op_cal_ms,
        "traced_op_ms": traced_ms,
        "traced_cal_ms": traced_cal_ms,
        "attempted": attempted,
        "failures": failures,
        "run_failures": run_failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "blas_threads": blas_threads(),
            "blas_thread_env": {
                key: os.environ.get(key)
                for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            },
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["traced_bindings"] = tracer.binding_count()
        if args.spans:
            tracer.dump(args.spans)
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
