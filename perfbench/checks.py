"""Correctness checks for the benchmark's operations.

Every expected figure is computed here from first principles: counting
formulas with ``math.comb``, trace distances and eigenvalues with plain
``numpy``, the spin-rotation margin from the spin matrices themselves.  No
check compares against a stored copy of the program's earlier output.
Each check raises ``CheckError`` naming the first property that fails.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

STATE_TOL = 1e-10
EXACT_TRACE_DISTANCE = 1e-8
LAW_TOL = 1e-10


class CheckError(AssertionError):
    """An operation's output is not what the physics says it must be."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def fock_dimension(photons: int, modes: int) -> int:
    return math.comb(photons + modes - 1, photons)


def min_configs(photons: int, modes: int) -> int:
    """R_{N,M} = C(N+M, N) - C(N+M-2, M)."""
    return math.comb(photons + modes, photons) - math.comb(photons + modes - 2, modes)


def min_configs_padded(photons: int, modes: int, meas_modes: int) -> int:
    """R_{N,M,M'} = ceil(R_{N,M} D_{N,M-1} / D_{N,M'-1}), in exact integers."""
    num = min_configs(photons, modes) * fock_dimension(photons, modes - 1)
    return -(-num // fock_dimension(photons, meas_modes - 1))


def occupations(photons: int, modes: int) -> list[tuple[int, ...]]:
    """All N-photon occupation vectors, lexicographically decreasing."""
    states = [
        state
        for state in itertools.product(range(photons + 1), repeat=modes)
        if sum(state) == photons
    ]
    return sorted(states, reverse=True)


def complex_matrix(rows) -> np.ndarray:
    """Decode the program's JSON matrix of [re, im] pairs."""
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a) - np.asarray(b)
    return 0.5 * float(np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum())


def check_state(matrix: np.ndarray, dimension: int, what: str) -> None:
    """Hermitian, unit trace and positive semidefinite, within ``STATE_TOL``."""
    require(matrix.shape == (dimension, dimension), f"{what}: shape {matrix.shape}")
    herm = float(np.abs(matrix - matrix.conj().T).max())
    require(herm <= STATE_TOL, f"{what}: not Hermitian (residual {herm:.3e})")
    trace = complex(np.trace(matrix))
    require(abs(trace - 1) <= STATE_TOL, f"{what}: trace {trace}")
    lowest = float(np.linalg.eigvalsh((matrix + matrix.conj().T) / 2).min())
    require(lowest >= -STATE_TOL, f"{what}: negative eigenvalue {lowest:.3e}")


def check_close_state(estimate: np.ndarray, truth: np.ndarray, what: str) -> float:
    distance = trace_distance(estimate, truth)
    require(
        distance < EXACT_TRACE_DISTANCE,
        f"{what}: trace distance {distance:.3e} to the truth",
    )
    return distance


def check_rank_scan(doc: dict, photons: int, modes: int, meas_modes: int) -> None:
    """found = R, last rank = D^2, ranks monotone and under the row-count cap."""
    required = fock_dimension(photons, modes) ** 2
    d_out = fock_dimension(photons, meas_modes)
    expected = min_configs_padded(photons, modes, meas_modes)
    require(doc["required_rank"] == required, f"required rank {doc['required_rank']}")
    require(doc["found"] == expected, f"found {doc['found']}, expected R = {expected}")
    trace = [tuple(step) for step in doc["rank_trace"]]
    require(len(trace) == expected, f"rank trace has {len(trace)} steps")
    require(trace[-1][1] == required, f"last rank {trace[-1][1]} != {required}")
    previous = 0
    for step, (count, rank) in enumerate(trace, start=1):
        require(count == step, f"step {step} is labelled {count}")
        require(rank >= previous, f"rank fell from {previous} to {rank} at R = {count}")
        cap = min(1 + count * (d_out - 1), required)
        require(rank <= cap, f"rank {rank} exceeds the cap {cap} at R = {count}")
        previous = rank


def multinomial_law(weights: np.ndarray, outcomes: list[tuple[int, ...]]) -> np.ndarray:
    """Law of N photons that all enter one mode and leave with these weights."""
    law = []
    for state in outcomes:
        coefficient = math.factorial(sum(state))
        for count in state:
            coefficient //= math.factorial(count)
        law.append(coefficient * float(np.prod(weights ** np.array(state))))
    return np.array(law)


def check_single_setting(
    doc: dict,
    truth: np.ndarray,
    fock_law: np.ndarray,
    photons: int,
    modes: int,
    meas_modes: int,
) -> None:
    """Full rank from R_{N,M,M'} settings, exact estimate, multinomial Fock law.

    ``fock_law`` is the program's outcome law of |N,0,...,0> through the
    operation's setting.  The package applies a setting g with its rows
    facing the state, so the photons of input mode 0 leave with weights
    |g_{0j}|^2.
    """
    dimension = fock_dimension(photons, modes)
    require(doc["rank"] == dimension**2, f"rank {doc['rank']} != {dimension**2}")
    expected = min_configs_padded(photons, modes, meas_modes)
    require(len(doc["configs"]) == expected, f"{len(doc['configs'])} settings != {expected}")
    estimate = complex_matrix(doc["projected_estimate"])
    check_state(estimate, dimension, "projected estimate")
    check_close_state(estimate, truth, "projected estimate")
    g = complex_matrix(doc["configs"][0]["matrix"])
    law = multinomial_law(np.abs(g[0]) ** 2, occupations(photons, meas_modes))
    require(np.shape(fock_law) == law.shape, f"outcome law has shape {np.shape(fock_law)}")
    gap = float(np.abs(np.asarray(fock_law) - law).max())
    require(gap <= LAW_TOL, f"outcome law of |{photons},0,...> is off by {gap:.3e}")


def check_reconstruct(
    doc: dict, truth: np.ndarray, photons: int, modes: int, shots: list[int]
) -> dict[int, float]:
    """Exact entry, valid final estimate, reported distance recomputed.

    Returns the reported trace distance for each shot count, for the
    run-level check that more shots give smaller errors.
    """
    dimension = fock_dimension(photons, modes)
    require(doc["rank"] == dimension**2, f"rank {doc['rank']} != {dimension**2}")
    expected = min_configs(photons, modes)
    require(len(doc["configs"]) == expected, f"{len(doc['configs'])} settings != {expected}")
    sweep = doc["sweep"]
    require([entry["shots"] for entry in sweep] == shots, "sweep shot counts differ")
    exact = sweep[shots.index(0)]["trace_distance"]
    require(exact < EXACT_TRACE_DISTANCE, f"exact entry trace distance {exact:.3e}")
    estimate = complex_matrix(doc["projected_estimate"])
    check_state(estimate, dimension, "final estimate")
    recomputed = trace_distance(estimate, truth)
    reported = sweep[-1]["trace_distance"]
    require(
        abs(recomputed - reported) <= STATE_TOL,
        f"reported trace distance {reported:.6e}, recomputed {recomputed:.6e}",
    )
    return {entry["shots"]: entry["trace_distance"] for entry in sweep}


def check_shot_scaling(errors: list[dict[int, float]], fewer: int, more: int) -> None:
    """Over a run, the mean error falls as the shot count grows."""
    require(bool(errors), "no reconstruction errors were recorded")
    low = float(np.mean([e[fewer] for e in errors]))
    high = float(np.mean([e[more] for e in errors]))
    require(high < low, f"mean error {high:.3e} at {more} shots, {low:.3e} at {fewer}")


def spin_rotation(spin: int, angle: float) -> np.ndarray:
    """exp(-i angle J_y) on m = spin..-spin, from the ladder operators."""
    m = np.arange(spin, -spin - 1, -1)
    raising = np.diag(np.sqrt(spin * (spin + 1) - m[1:] * (m[1:] + 1)), k=1)
    j_y = (raising - raising.T) / 2j
    values, vectors = np.linalg.eigh(j_y)
    return (vectors * np.exp(-1j * angle * values)) @ vectors.conj().T


def theta_margin(photons: int, theta: float) -> float:
    """Smallest |d^l_{m,0}(2 theta)| over l = 1..N, the protocol's weakest harmonic."""
    return min(
        float(np.abs(spin_rotation(level, 2 * theta)[:, level]).min())
        for level in range(1, photons + 1)
    )


def check_two_mode(
    settings: int,
    theta: float,
    analytic_raw: np.ndarray,
    generic_raw: np.ndarray,
    analytic_projected: np.ndarray,
    truth: np.ndarray,
    photons: int,
    theta_floor: float,
) -> None:
    """2N+1 settings, an admissible angle, and two inversions that agree."""
    require(settings == 2 * photons + 1, f"{settings} settings != {2 * photons + 1}")
    require(0 < theta < math.pi, f"theta {theta} outside (0, pi)")
    margin = theta_margin(photons, theta)
    require(margin >= theta_floor, f"theta margin {margin:.3e} below {theta_floor}")
    check_close_state(analytic_raw, truth, "analytic estimate")
    check_close_state(generic_raw, truth, "generic estimate")
    check_close_state(analytic_raw, generic_raw, "analytic against generic")
    check_state(analytic_projected, fock_dimension(photons, 2), "analytic projection")
