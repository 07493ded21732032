"""Self-test of the benchmark harness.

    python3 perfbench/check_harness.py

1. Runs every workload through ``run.py`` for about one operation per
   worker, untraced and traced.  Each result must be correct, carry exactly
   the metrics and units that ``BENCHMARK.json`` names, and the traced run
   must see calls into every layer the workload exercises.
2. Feeds every check a corrupted copy of a real output, such as a perturbed
   estimate or a shifted rank trace, and requires the check to reject it.
3. Runs ``run.py`` in a directory that holds only ``BENCHMARK.json`` and
   the benchmark's files, and requires a non-zero exit and no result.

Prints one line per case and exits 0 when every case passes.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402

# Layers each workload must reach; the traced run must count calls into them.
EXERCISED = {
    "rank-scan": [
        "linear_optics.lift_unitary.calls", "linear_optics.haar_random_unitary.ms",
        "tomography.gramian_rank.calls", "tomography.find_min_configs.self_ms",
        "cli.main.self_ms",
    ],
    "six-photon": [
        "linear_optics.lift_unitary.calls", "tomography.gramian_rank.calls",
        "tomography.build_superoperator.self_ms", "tomography.reconstruct.calls",
        "tomography.outcome_probabilities.calls", "analytic_m2.choose_theta.calls",
        "analytic_m2.reconstruct_m2.self_ms", "cli.main.self_ms",
    ],
    "reconstruct": [
        "linear_optics.lift_unitary.calls", "tomography.gramian_rank.calls",
        "tomography.reconstruct.calls", "tomography.sample_shots.ms",
        "imperfections.detector_response.ms", "imperfections.response_matrix.calls",
        "imperfections.invert_detector_response.calls", "cli.main.self_ms",
    ],
}

passed: list[str] = []
problems: list[str] = []


def case(name: str, ok: bool, detail: str = "") -> None:
    (passed if ok else problems).append(name)
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs(spec: dict) -> None:
    from workloads import WORKLOADS

    case("BENCHMARK.json workloads match run.py and workloads.py",
         [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS))
    for trace, key, units in ((0, "end_to_end", run.END_TO_END), (1, "per_layer", run.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        case(f"BENCHMARK.json {key} matches run.py", named == units, f"{named} != {units}")
        for workload in run.WORKLOADS:
            label = f"{workload} --trace {trace}"
            done = run_benchmark(ROOT, workload, trace)
            if done.returncode != 0:
                case(label, False, done.stderr[-800:])
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            metrics = result["metrics"]
            ok = (
                set(result) == {"correct", "attempted", "failed", "metrics"}
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and {n: m["unit"] for n, m in metrics.items()} == named
                and all(math.isfinite(m["value"]) for m in metrics.values())
            )
            if trace:
                ok = ok and all(metrics[name]["value"] > 0 for name in EXERCISED[workload])
            else:
                ok = ok and all(m["value"] > 0 for m in metrics.values())
            case(label, ok, done.stdout[-800:] + done.stderr[-800:])


def rejects(name: str, verify, output) -> None:
    try:
        verify(output)
    except CheckError:
        case(f"rejects {name}", True)
    else:
        case(f"rejects {name}", False, "the check accepted it")


def perturb(rows: list, delta: float, hermitian: bool = True) -> list:
    """Shift population from entry (0,0) to (1,1), or break Hermiticity."""
    rows = copy.deepcopy(rows)
    if hermitian:
        rows[0][0][0] += delta
        rows[1][1][0] -= delta
    else:
        rows[0][1][1] += delta
    return rows


def with_negative_eigenvalue(rows: list) -> list:
    matrix = checks.complex_matrix(rows)
    values, vectors = np.linalg.eigh(matrix)
    values[0] -= 1e-3
    values[-1] += 1e-3
    bad = (vectors * values) @ vectors.conj().T
    bad = (bad + bad.conj().T) / 2
    return [[[float(z.real), float(z.imag)] for z in row] for row in bad]


def check_rejections(workdir: Path) -> None:
    from workloads import WORKLOADS

    made = {}
    for name, cls in WORKLOADS.items():
        rng = np.random.default_rng(3)
        folder = workdir / name
        folder.mkdir()
        workload = cls(folder, rng)
        output = workload.collect(workload.operation(0))
        workload.verify(0, output)
        case(f"accepts a real {name} output", True)
        made[name] = (workload, output)

    scan, doc = made["rank-scan"]
    verify = lambda d: scan.verify(0, d)  # noqa: E731
    ranks = [rank for _, rank in doc["rank_trace"]]
    shifted = dict(doc, rank_trace=[[r, rank] for r, rank in enumerate(ranks[1:] + ranks[-1:], 1)])
    rejects("rank-scan: rank trace shifted one step early", verify, shifted)
    rejects("rank-scan: found one past the bound", verify, dict(doc, found=doc["found"] + 1))
    falling = copy.deepcopy(doc)
    falling["rank_trace"][3][1], falling["rank_trace"][4][1] = ranks[4], ranks[3]
    rejects("rank-scan: a rank that falls", verify, falling)
    short = copy.deepcopy(doc)
    short["rank_trace"][-1][1] -= 1
    rejects("rank-scan: last rank one short of D^2", verify, short)

    six, output = made["six-photon"]
    verify = lambda o: six.verify(0, o)  # noqa: E731
    doc = output["doc"]

    def padded(**changes):
        return dict(output, doc=dict(doc, **changes))

    rejects("six-photon: perturbed padded estimate", verify,
            padded(projected_estimate=perturb(doc["projected_estimate"], 1e-6)))
    rejects("six-photon: non-Hermitian padded estimate", verify,
            padded(projected_estimate=perturb(doc["projected_estimate"], 1e-6, False)))
    rejects("six-photon: rank one short", verify, padded(rank=doc["rank"] - 1))
    rejects("six-photon: two padded settings", verify, padded(configs=doc["configs"] * 2))
    g = checks.complex_matrix(doc["configs"][0]["matrix"])
    column_law = checks.multinomial_law(np.abs(g[:, 0]) ** 2, checks.occupations(6, 6))
    rejects("six-photon: law with column weights", verify, dict(output, fock_law=column_law))

    protocol = output["protocol"]

    def two_mode(**changes):
        return dict(output, protocol=dict(protocol, **changes))

    rejects("six-photon: one protocol setting short", verify,
            two_mode(settings=protocol["settings"] - 1))
    rejects("six-photon: balanced beamsplitter angle", verify, two_mode(theta=math.pi / 4))
    bumped = protocol["analytic_raw"].copy()
    bumped[0, 0] += 1e-6
    bumped[1, 1] -= 1e-6
    rejects("six-photon: perturbed analytic estimate", verify, two_mode(analytic_raw=bumped))
    rejects("six-photon: perturbed generic estimate", verify, two_mode(generic_raw=bumped))

    recon, doc = made["reconstruct"]
    verify = lambda d: recon.verify(0, d)  # noqa: E731
    rejects("reconstruct: perturbed final estimate", verify,
            dict(doc, projected_estimate=perturb(doc["projected_estimate"], 1e-6)))
    rejects("reconstruct: final estimate not PSD", verify,
            dict(doc, projected_estimate=with_negative_eigenvalue(doc["projected_estimate"])))
    sweep = copy.deepcopy(doc["sweep"])
    sweep[0]["trace_distance"] = 1e-6
    rejects("reconstruct: inexact exact entry", verify, dict(doc, sweep=sweep))
    rejects("reconstruct: a shot count missing", verify, dict(doc, sweep=doc["sweep"][:2]))
    errors = recon.errors[-1]
    swapped = {0: errors[0], 10_000: errors[1_000_000], 1_000_000: errors[10_000]}
    rejects("reconstruct: error growing with shots",
            lambda e: checks.check_shot_scaling(e, 10_000, 1_000_000), [swapped])


def check_bare_directory(workdir: Path) -> None:
    bare = workdir / "bare"
    shutil.copytree(
        HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "work", "__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_benchmark(bare, "reconstruct", 0)
    case("fails without the program's sources",
         done.returncode != 0 and not done.stdout.strip(), done.stdout + done.stderr)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as scratch:
        check_rejections(Path(scratch))
        check_bare_directory(Path(scratch))
    check_runs(spec)
    print(f"{len(passed)} passed, {len(problems)} failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
