"""The benchmark's workloads: inputs, one operation, and its checks.

Each workload draws a fixed list of inputs from the benchmark seed and runs
one kind of operation on them in turn, so every operation does the same
amount of work.  ``operation`` is the timed call into the program.
``collect`` turns its result into plain data outside the timed region, and
``verify`` checks that data against the benchmark's own figures (see
``checks``).  ``finish`` holds the checks that need a whole run.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import focktomo as ft
from focktomo import analytic_m2, cli

import checks
from checks import CheckError

# Inputs drawn per process; a run that needs more operations cycles them.
POOL = 48


def random_state(rng: np.random.Generator, dimension: int) -> np.ndarray:
    """Full-rank Ginibre density matrix, Hermitian to the last bit."""
    g = rng.standard_normal((dimension, dimension)) + 1j * rng.standard_normal(
        (dimension, dimension)
    )
    rho = g @ g.conj().T
    rho /= rho.trace().real
    return (rho + rho.conj().T) / 2


def write_state(path: Path, photons: int, modes: int, rho: np.ndarray) -> None:
    """The program's state file: complex entries as [re, im] pairs."""
    matrix = [[[float(z.real), float(z.imag)] for z in row] for row in rho]
    path.write_text(json.dumps({"photons": photons, "modes": modes, "matrix": matrix}))


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process ``focktomo`` command; returns its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_document(result: tuple[int, str], path: Path) -> dict:
    """The command's JSON output, after requiring exit code 0; the file is consumed."""
    code, stderr = result
    if code != 0:
        raise CheckError(f"exit code {code}: {stderr.strip()}")
    try:
        return json.loads(path.read_text())
    finally:
        path.unlink(missing_ok=True)


class RankScan:
    """``focktomo rank-scan`` for N = 3, M = M' = 4 with a fresh seed each time."""

    name = "rank-scan"
    photons, modes, meas_modes = 3, 4, 4

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        self.seeds = [int(s) for s in rng.integers(2**31, size=POOL)]
        self.output = workdir / "scan.json"

    def operation(self, index: int):
        return run_cli(
            ["rank-scan", "--photons", str(self.photons), "--modes", str(self.modes),
             "--seed", str(self.seeds[index % POOL]), "--json", str(self.output)]
        )

    def collect(self, result) -> dict:
        return read_document(result, self.output)

    def verify(self, index: int, doc: dict) -> None:
        checks.check_rank_scan(doc, self.photons, self.modes, self.meas_modes)

    def finish(self) -> None:
        pass


class _StateWorkload:
    """Operations that reconstruct a fresh state file each time."""

    photons = modes = 0

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        dimension = checks.fock_dimension(self.photons, self.modes)
        self.truths = []
        self.paths = []
        for slot in range(POOL):
            rho = random_state(rng, dimension)
            path = workdir / f"state-{slot}.json"
            write_state(path, self.photons, self.modes, rho)
            self.truths.append(rho)
            self.paths.append(path)
        self.seeds = [int(s) for s in rng.integers(2**31, size=POOL)]
        self.output = workdir / "reconstruct.json"

    def run_reconstruct(self, index: int, options: list[str]):
        return run_cli(
            ["reconstruct", "--state", str(self.paths[index % POOL]), *options,
             "--seed", str(self.seeds[index % POOL]), "--json", str(self.output)]
        )

    def finish(self) -> None:
        pass


class SixPhoton(_StateWorkload):
    """A six-photon, two-mode state, reconstructed two ways.

    Through the CLI from one vacuum-padded M' = 6 setting, which completes
    the map on its own (R_{6,2,6} = 1), and through the library from the
    2N+1 two-mode protocol, inverted analytically and generically.
    """

    name = "six-photon"
    photons, modes, meas_modes = 6, 2, 6

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        super().__init__(workdir, rng)
        basis = ft.enumerate_fock_basis(self.photons, self.modes)
        self.states = [ft.DensityMatrix(basis, rho) for rho in self.truths]

    def operation(self, index: int):
        padded = self.run_reconstruct(index, ["--meas-modes", str(self.meas_modes)])
        truth = self.states[index % POOL]
        protocol = ft.newton_young_configs(self.photons)
        records = ft.simulate_records(truth, protocol.configs)
        analytic = ft.reconstruct_m2(records, self.photons, protocol.theta)
        superop = ft.build_superoperator(protocol.configs, self.photons, self.modes)
        return padded, protocol, analytic, ft.reconstruct(superop, records)

    def collect(self, result) -> dict:
        padded, protocol, analytic, generic = result
        doc = read_document(padded, self.output)
        # The program's law of |N, 0> through the padded setting.
        fock = ft.fock_projector(self.states[0].basis, (self.photons, 0))
        setting = ft.InterferometerConfig.from_json_dict(doc["configs"][0])
        return {
            "doc": doc,
            "fock_law": ft.outcome_probabilities(fock, setting),
            "protocol": {
                "settings": len(protocol.configs),
                "theta": protocol.theta,
                "analytic_raw": analytic.raw,
                "generic_raw": generic.raw,
                "analytic_projected": analytic.projected.matrix,
            },
        }

    def verify(self, index: int, output: dict) -> None:
        truth = self.truths[index % POOL]
        checks.check_single_setting(
            output["doc"], truth, output["fock_law"],
            self.photons, self.modes, self.meas_modes,
        )
        checks.check_two_mode(
            truth=truth,
            photons=self.photons,
            theta_floor=analytic_m2.THETA_FLOOR,
            **output["protocol"],
        )


class Reconstruct(_StateWorkload):
    """30 Haar settings, three shot counts, lossy detectors inverted."""

    name = "reconstruct"
    photons, modes = 3, 4
    shots = [0, 10_000, 1_000_000]

    def __init__(self, workdir: Path, rng: np.random.Generator) -> None:
        super().__init__(workdir, rng)
        self.errors: list[dict[int, float]] = []

    def operation(self, index: int):
        return self.run_reconstruct(
            index,
            ["--shots", ",".join(map(str, self.shots)), "--efficiency", "0.9",
             "--invert-detector"],
        )

    def collect(self, result) -> dict:
        return read_document(result, self.output)

    def verify(self, index: int, doc: dict) -> None:
        errors = checks.check_reconstruct(
            doc, self.truths[index % POOL], self.photons, self.modes, self.shots
        )
        self.errors.append(errors)

    def finish(self) -> None:
        checks.check_shot_scaling(self.errors, self.shots[1], self.shots[2])


WORKLOADS = {w.name: w for w in (RankScan, SixPhoton, Reconstruct)}
