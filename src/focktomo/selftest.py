"""Desk-scale invariant suites, runnable as a release gate.

Each check re-derives a cross-module identity from scratch at small sizes
(N <= 4, M <= 4) and raises AssertionError on violation; ``run`` executes
them all and reports one pass/fail line per check.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import analytic_m2, combinatorics, imperfections, linear_optics, tomography


def check_fock_dimension_identities() -> None:
    for modes in range(2, 7):
        for photons in range(0, 9):
            total = sum(
                combinatorics.zero_weight_dim(level, modes)
                for level in range(photons + 1)
            )
            assert total == combinatorics.fock_dimension(photons, modes)
    for modes in range(2, 7):
        for photons in range(1, 9):
            lhs = combinatorics.weyl_dimension(
                combinatorics.adjoint_tower_signature(photons, modes), modes
            )
            d = combinatorics.fock_dimension(photons, modes)
            d_prev = combinatorics.fock_dimension(photons - 1, modes)
            assert lhs == d * d - d_prev * d_prev
            assert lhs == combinatorics.min_configs(photons, modes) * (
                combinatorics.fock_dimension(photons, modes - 1)
            )
    for modes in range(2, 7):
        for photons in range(1, 9):
            telescoped = sum(
                combinatorics.fock_dimension(r, modes) ** 2
                - combinatorics.fock_dimension(r - 1, modes) ** 2
                for r in range(1, photons + 1)
            )
            assert telescoped == combinatorics.fock_dimension(photons, modes) ** 2 - 1


def check_config_count_closed_forms() -> None:
    # min_configs_extended cross-checks its two closed forms internally.
    for photons in range(1, 5):
        for modes in range(2, 5):
            for meas_modes in range(modes, 7):
                value = combinatorics.min_configs_extended(photons, modes, meas_modes)
                assert value >= 1
                if meas_modes == modes:
                    assert value == combinatorics.min_configs(photons, modes)


def check_lift_hom_oracle() -> None:
    # Two photons on a 50:50 beamsplitter: coincidences cancel exactly and
    # the bunched amplitude is +1/sqrt(2), sign included.
    g = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    lifted = linear_optics.lift_unitary(g, 2)
    pair, bunch = lifted.basis.index_of((1, 1)), lifted.basis.index_of((2, 0))
    coincidence, bunched = lifted.matrix[[pair, bunch], pair]
    assert abs(coincidence) < 1e-12, f"coincidence amplitude {coincidence}"
    assert abs(bunched - 1.0 / math.sqrt(2.0)) < 1e-12, f"bunched amplitude {bunched}"


def check_lift_unitarity() -> None:
    for photons, modes, seed in [(1, 3, 0), (2, 3, 1), (3, 2, 2), (2, 4, 3)]:
        config = linear_optics.haar_random_unitary(modes, seed)
        lifted = linear_optics.lift_unitary(config, photons).matrix
        eye = np.eye(lifted.shape[0])
        assert np.abs(lifted.conj().T @ lifted - eye).max() < 1e-9


def check_lift_homomorphism() -> None:
    for photons, modes, seed in [(2, 2, 4), (2, 3, 5), (3, 3, 6)]:
        g = linear_optics.haar_random_unitary(modes, seed)
        h = linear_optics.haar_random_unitary(modes, seed + 100)
        lhs = linear_optics.lift_unitary(g.matrix @ h.matrix, photons).matrix
        ug, uh = linear_optics.lift_unitary(np.stack([g.matrix, h.matrix]), photons).matrix
        assert np.abs(lhs - ug @ uh).max() < 1e-9


def _complex_rows(superop: tomography.Superoperator) -> np.ndarray:
    # The map's rows, conj(<a|U|v>) <b|U|v> at column (a, b), formed whole from its lifts:
    # a reference that no library path forms.
    v = superop.lift
    return np.einsum("rav,rbv->rvab", v.conj(), v).reshape(-1, v.shape[1] ** 2)


def check_superoperator_consistency() -> None:
    basis = combinatorics.enumerate_fock_basis(2, 2)
    rho = tomography.random_density_matrix(basis, 7)
    configs = [linear_optics.haar_random_unitary(3, s) for s in (0, 1)]
    superop = tomography.build_superoperator(configs, 2, 2)
    stacked = (_complex_rows(superop) @ rho.matrix.reshape(-1)).real
    assert np.abs(superop.apply(rho) - stacked).max() < 1e-12


def check_completeness_threshold() -> None:
    search = tomography.find_min_configs(2, 2, seed=123)
    assert search.found == combinatorics.min_configs(2, 2), search.rank_trace
    ranks = dict(search.rank_trace)
    assert ranks[search.found - 1] < search.required_rank


def check_newton_young_complete() -> None:
    protocol = analytic_m2.newton_young_configs(2)
    assert len(protocol.configs) == 5
    assert tomography.is_complete(protocol.configs, 2, 2)


def check_analytic_vs_engine() -> None:
    photons = 2
    theta = analytic_m2.choose_theta(photons)
    protocol = analytic_m2.newton_young_configs(photons, theta)
    basis = combinatorics.enumerate_fock_basis(photons, 2)
    rho = tomography.random_density_matrix(basis, 21)
    records = tomography.simulate_records(rho, protocol.configs)
    analytic = analytic_m2.reconstruct_m2(records, photons, theta)
    superop = tomography.build_superoperator(protocol.configs, photons, 2)
    generic = tomography.reconstruct(superop, records)
    assert tomography.trace_distance(analytic.projected, generic.projected) < 1e-8
    assert tomography.trace_distance(analytic.projected, rho) < 1e-8


def check_detector_roundtrip() -> None:
    basis = imperfections.truncated_basis(2, 2)
    model = imperfections.DetectorModel.uniform(0.7, 2)
    rng = np.random.default_rng(11)
    p = rng.random(len(basis))
    p /= p.sum()
    q = imperfections.detector_response(p, basis, model)
    back = imperfections.invert_detector_response(q, basis, model)
    assert np.abs(back - p).max() < 1e-10


def check_loss_sector_factor() -> None:
    eta = 0.85
    photons = 2
    basis = combinatorics.enumerate_fock_basis(photons, 2)
    rho = tomography.random_density_matrix(basis, 3)
    config = linear_optics.haar_random_unitary(2, 9)
    p = tomography.outcome_probabilities(rho, config)
    tbasis = imperfections.truncated_basis(photons, 2)
    detected = imperfections.detector_response(
        imperfections.embed_sector(p, photons, tbasis),
        tbasis,
        imperfections.DetectorModel.uniform(eta, 2),
    )
    sector = detected[tbasis.sector_slice(photons)]
    assert np.abs(sector - eta**photons * p).max() < 1e-12


def check_mixture_roundtrip() -> None:
    rho1 = tomography.random_density_matrix(combinatorics.enumerate_fock_basis(1, 2), 31)
    rho2 = tomography.random_density_matrix(combinatorics.enumerate_fock_basis(2, 2), 32)
    mixture = imperfections.PhotonNumberMixture(((0.4, rho1), (0.6, rho2)))
    configs = [linear_optics.haar_random_unitary(2, 200 + j) for j in range(5)]
    records = imperfections.mixture_joint_probabilities(mixture, configs)[1]
    estimate = imperfections.reconstruct_mixture(records, configs, 2, 2)
    assert abs(estimate.weights[1] - 0.4) < 1e-10
    assert abs(estimate.weights[2] - 0.6) < 1e-10
    assert tomography.trace_distance(estimate.states[1].projected, rho1) < 1e-8
    assert tomography.trace_distance(estimate.states[2].projected, rho2) < 1e-8


def check_reconstruction_roundtrip() -> None:
    basis = combinatorics.enumerate_fock_basis(2, 2)
    configs = [linear_optics.haar_random_unitary(2, 300 + j) for j in range(5)]
    superop = tomography.build_superoperator(configs, 2, 2)
    for seed in range(3):
        rho = tomography.random_density_matrix(basis, 400 + seed)
        records = tomography.simulate_records(rho, configs)
        result = tomography.reconstruct(superop, records)
        assert tomography.trace_distance(result.projected, rho) < 1e-8


def check_shared_factorisation() -> None:
    # The cached real-form factor must give the complex map's rank and its
    # least-squares solution; a wrong coordinate sign returns the conjugate.
    configs = [linear_optics.haar_random_unitary(3, 500 + j) for j in range(9)]
    superop = tomography.build_superoperator(configs, 2, 3)  # R_{2,3} = 9
    rank, rows = tomography.gramian_rank(superop).rank, _complex_rows(superop)
    assert rank == tomography.gramian_rank(rows).rank == rows.shape[1]
    noise = 1e-3 * np.random.default_rng(41).standard_normal(rows.shape[0])
    p = superop.apply(tomography.random_density_matrix(superop.basis_in, 41)) + noise
    expected = np.linalg.lstsq(rows, p.astype(complex), rcond=None)[0]
    raw = tomography.reconstruct(superop, p).raw
    assert np.abs(raw.reshape(-1) - expected).max() < 1e-10


def check_incremental_rank_scan() -> None:
    # Certified steps and steps handed to the SVD (mesh at (4,3,7), threshold 1e-3)
    # must give the full SVD's rank; projecting leaves only roundoff outside V.
    cells = [(2, 3, 3, None, None), (2, 3, 3, None, 1e-3), (4, 3, 7, 2, None)]
    for photons, modes, meas_modes, r_max, rel in cells:
        for generator, seed in [("haar", 1), ("mesh", 0)]:
            search = tomography.find_min_configs(
                photons, modes, meas_modes, generator, seed, r_max, rel
            )
            superop = tomography.build_superoperator(search.configs, photons, modes)
            step, rows = superop.basis_out.dimension, _complex_rows(superop)
            for count, rank in search.rank_trace:  # the complex rows' SVD: the same sigma
                full = tomography.gramian_rank(rows[: count * step], rel).rank
                assert rank == full, (meas_modes, generator, rel, count)
    # A certified full rank stands unread; reading its report's sigma checks it.
    configs = tomography.find_min_configs(2, 3, seed=0).configs
    bases = tomography._level_bases(2, 3, 3)
    scan = tomography._RankScan(bases, None)
    rank = scan.extend(tomography._restricted_lift(configs, 2, 3))[-1]
    report = tomography.gramian_rank(tomography._LevelStack(scan, len(configs), rank))
    assert rank == 36 and report.singular_values[35] > report.threshold
    bases = tomography._level_bases(3, 4, 5)  # one group: no level split
    scan = tomography._RankScan(bases, None)
    for config in tomography.find_min_configs(3, 4, 5, seed=0).configs:
        scan.extend(tomography._restricted_lift([config], 3, 4))
    assert scan.dropped_sq < 400 * np.finfo(float).eps ** 2 * scan.steps * 20  # ||A||_F^2 <= R D


def check_level_split() -> None:
    # Rotated by T, the identity's and a Haar setting's outcome rows fall into U(M)
    # levels: rows of different levels are orthogonal, and the stack's singular values
    # are the union of the levels'.  The level bases W_l are orthonormal and keep each
    # level's row norms, so no row has a part outside its level's W_l.
    bases = tomography._level_bases(2, 3, 3)
    configs = [linear_optics.InterferometerConfig(3, np.eye(3))]
    configs.append(linear_optics.haar_random_unitary(3, 600))
    superop = tomography.build_superoperator(configs, 2, 3)
    rows = bases.rotation @ _complex_rows(superop).reshape(2, 6, 36)  # Frobenius products
    levels = [x.reshape(-1, 36) for x in np.split(rows, np.cumsum(bases.sizes)[:-1], axis=1)]
    scale = np.linalg.norm(rows)
    for i, level in enumerate(levels):
        assert all(np.abs(level.conj() @ x.T).max() <= 1e-13 * scale for x in levels[i + 1 :])
    full = np.linalg.svd(rows.reshape(-1, 36), compute_uv=False)
    union = np.sort(np.concatenate([np.linalg.svd(x, compute_uv=False) for x in levels]))[::-1]
    assert np.abs(union[: len(full)] - full).max() <= 1e-13 * full[0]
    columns = []  # W's columns, as the matrices whose W_l coordinates are e_j
    for level, dim in enumerate(bases.dims):
        for j in range(dim):
            x = [np.zeros(k) for k in bases.dims]
            x[level][j] = 1.0
            columns.append(tomography._level_estimate(bases, x).T.reshape(-1))
    w = np.array(columns)
    assert np.abs(w.conj() @ w.T - np.eye(36)).max() <= 1e-13
    for level, kept in zip(levels, tomography._level_rows(bases, superop.lift)):
        assert abs(np.linalg.norm(kept) - np.linalg.norm(level)) <= 1e-13 * scale


CHECKS: list[tuple[str, Callable[[], None]]] = [
    ("fock-dimension-identities", check_fock_dimension_identities),
    ("config-count-closed-forms", check_config_count_closed_forms),
    ("lift-hom-oracle", check_lift_hom_oracle),
    ("lift-unitarity", check_lift_unitarity),
    ("lift-homomorphism", check_lift_homomorphism),
    ("superoperator-consistency", check_superoperator_consistency),
    ("completeness-threshold", check_completeness_threshold),
    ("newton-young-complete", check_newton_young_complete),
    ("analytic-vs-engine", check_analytic_vs_engine),
    ("detector-roundtrip", check_detector_roundtrip),
    ("loss-sector-factor", check_loss_sector_factor),
    ("mixture-roundtrip", check_mixture_roundtrip),
    ("reconstruction-roundtrip", check_reconstruction_roundtrip),
    ("shared-factorisation", check_shared_factorisation),
    ("incremental-rank-scan", check_incremental_rank_scan),
    ("level-split", check_level_split),
]


def run(report=print) -> list[str]:
    """Run every suite; returns the names of the failing checks."""
    failures = []
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the gate
            failures.append(name)
            report(f"FAIL {name}: {exc}")
        else:
            report(f"PASS {name}")
    return failures
