"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line (with its runtime) and enforces the
stated time budget.  The large-grid single-configuration scans and the
explicit symmetry-basis reconstruction machinery for M > 2 are excluded at
desk scale by design; their content is covered here by the exact bound
arithmetic (criteria 1-2) and the small-grid rank experiments (criteria
5-6).
"""

import math
import time
from fractions import Fraction

import numpy as np

from focktomo import analytic_m2 as m2
from focktomo import combinatorics as cb
from focktomo import imperfections as imp
from focktomo import linear_optics as lo
from focktomo import tomography as tg

import oracles


class _Budget:
    def __init__(self, label: str, seconds: float):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        in_budget = elapsed < self.seconds
        status = "PASS" if exc_type is None and in_budget else "FAIL"
        print(f"{status} {self.label} ({elapsed:.2f}s)")
        if exc_type is None:
            assert in_budget, (
                f"{self.label} took {elapsed:.2f}s, budget {self.seconds}s"
            )
        return False


def haar_configs(modes, count, seed):
    rng = np.random.default_rng(seed)
    return [
        lo.haar_random_unitary(modes, int(rng.integers(2**63))) for _ in range(count)
    ]


def test_criterion_1_bound_tables():
    with _Budget("criterion 1: bound tables", 1.0):
        assert [cb.min_configs(n, 2) for n in range(1, 7)] == [2 * n + 1 for n in range(1, 7)]
        assert cb.min_configs(2, 3) == 9
        assert cb.min_configs_extended(2, 2, 4) == 1
        for photons in range(1, 7):
            for modes in range(2, 9):
                for meas in range(modes, 9):
                    viaratio = Fraction(
                        math.factorial(photons + modes - 2) * math.factorial(meas - 2),
                        math.factorial(photons + meas - 2) * math.factorial(modes - 2),
                    ) * cb.min_configs(photons, modes)
                    expected = -((-viaratio.numerator) // viaratio.denominator)
                    via_dims = -(
                        -cb.min_configs(photons, modes)
                        * cb.fock_dimension(photons, modes - 1)
                        // cb.fock_dimension(photons, meas - 1)
                    )
                    value = cb.min_configs_extended(photons, modes, meas)
                    assert value == expected == via_dims


def test_criterion_2_identity_suite():
    with _Budget("criterion 2: counting identities", 1.0):
        for modes in range(2, 7):
            for photons in range(1, 9):
                assert sum(
                    cb.zero_weight_dim(level, modes) for level in range(photons + 1)
                ) == cb.fock_dimension(photons, modes)
                d = cb.fock_dimension(photons, modes)
                d_prev = cb.fock_dimension(photons - 1, modes)
                assert (
                    cb.weyl_dimension(
                        cb.adjoint_tower_signature(photons, modes), modes
                    )
                    == d * d - d_prev * d_prev
                )
                assert (
                    sum(
                        cb.fock_dimension(r, modes) ** 2
                        - cb.fock_dimension(r - 1, modes) ** 2
                        for r in range(1, photons + 1)
                    )
                    == d * d - 1
                )


def test_criterion_3_lift_amplitude_oracle():
    with _Budget("criterion 3: lift amplitudes vs permutation-sum permanents", 10.0):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            g = lo.haar_random_unitary(int(rng.integers(2, 5)), int(rng.integers(2**63))).matrix
            lifted = lo.lift_unitary(g, n)
            i, j = (int(k) for k in rng.integers(lifted.dimension, size=2))
            alpha, beta = lifted.basis.state_at(i), lifted.basis.state_at(j)
            reference = oracles.amplitude_by_permanent(g, alpha, beta)  # permutation sum
            value = lifted.matrix[i, j]
            assert abs(value - reference) <= 1e-12 * max(1.0, abs(reference))


def test_criterion_4_lift_correctness():
    with _Budget("criterion 4: lift unitarity/homomorphism + HOM", 60.0):
        draws = 0
        rng = np.random.default_rng(7)
        while draws < 50:
            for photons in range(1, 6):
                for modes in range(2, 6):
                    g = lo.haar_random_unitary(modes, int(rng.integers(2**63)))
                    h = lo.haar_random_unitary(modes, int(rng.integers(2**63)))
                    ug = lo.lift_unitary(g, photons).matrix
                    uh = lo.lift_unitary(h, photons).matrix
                    ugh = lo.lift_unitary(g.matrix @ h.matrix, photons).matrix
                    eye = np.eye(ug.shape[0])
                    assert np.abs(ug.conj().T @ ug - eye).max() < 1e-9
                    assert np.abs(ugh - ug @ uh).max() < 1e-9
                    draws += 1

        splitter = lo.InterferometerConfig(
            2, np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        )
        basis = cb.enumerate_fock_basis(2, 2)
        rho = tg.fock_projector(basis, (1, 1))
        p = tg.outcome_probabilities(rho, splitter)
        assert abs(p[basis.index_of((1, 1))]) < 1e-12
        assert abs(p[basis.index_of((2, 0))] - 0.5) < 1e-12
        assert abs(p[basis.index_of((0, 2))] - 0.5) < 1e-12


def test_criterion_5_completeness_thresholds():
    with _Budget("criterion 5: completeness exactly at the bound", 300.0):
        for photons, modes in [(1, 2), (2, 2), (3, 2), (2, 3)]:
            bound = cb.min_configs(photons, modes)
            required = cb.fock_dimension(photons, modes) ** 2
            for seed in range(10):
                configs = haar_configs(modes, bound, seed=1000 * photons + 10 * modes + seed)
                superop = tg.build_superoperator(configs, photons, modes)
                assert tg.gramian_rank(superop).rank == required
                d_out = superop.basis_out.dimension
                shaved = oracles.complex_rows(superop)[: (bound - 1) * d_out]
                assert tg.gramian_rank(shaved).rank < required


def test_criterion_6_single_configuration_modes():
    with _Budget("criterion 6: minimal M' for one configuration", 300.0):
        for photons in (1, 2, 3):
            for seed in (0, 1, 2):
                search = tg.find_min_modes(photons, 2, seed=seed)
                assert search.found == 4
                assert search.found >= search.lower_bound
        # A larger-M point: the numeric value must respect the bound (the
        # search itself enforces this; assert the comparison explicitly).
        search = tg.find_min_modes(2, 3, seed=0)
        assert search.found is not None
        assert search.found >= search.lower_bound


def test_criterion_7_reconstruction_round_trip():
    with _Budget("criterion 7: reconstruction round trips", 600.0):
        for photons in (1, 2, 3):
            for modes in (2, 3):
                bound = cb.min_configs(photons, modes)
                configs = haar_configs(modes, bound, seed=70 + 7 * photons + modes)
                superop = tg.build_superoperator(configs, photons, modes)
                basis = cb.enumerate_fock_basis(photons, modes)
                for seed in range(50):
                    rho = tg.random_density_matrix(basis, 9000 + seed)
                    result = tg.reconstruct(superop, superop.apply(rho))
                    assert tg.trace_distance(result.projected, rho) < 1e-8
                # a few states through the full simulation path as well
                for seed in range(3):
                    rho = tg.random_density_matrix(basis, 9500 + seed)
                    records = tg.simulate_records(rho, configs)
                    result = tg.reconstruct(superop, records)
                    assert tg.trace_distance(result.projected, rho) < 1e-8

        # finite statistics: mean error falls with the shot count
        photons = modes = 2
        configs = haar_configs(2, 5, seed=99)
        superop = tg.build_superoperator(configs, 2, 2)
        basis = cb.enumerate_fock_basis(2, 2)
        rho = tg.random_density_matrix(basis, 123)
        means = []
        for shots in (10_000, 100_000, 1_000_000):
            errors = []
            for seed in range(10):
                records = tg.simulate_records(rho, configs, shots=shots, seed=seed)
                result = tg.reconstruct(superop, records)
                errors.append(tg.trace_distance(result.projected, rho))
            means.append(float(np.mean(errors)))
        assert means[0] > means[1] > means[2]
        print(f"  shot-noise means: {means[0]:.2e} > {means[1]:.2e} > {means[2]:.2e}")


def test_criterion_8_two_mode_analytic_protocol():
    with _Budget("criterion 8: analytic two-mode protocol", 120.0):
        for photons in range(1, 7):
            protocol = m2.newton_young_configs(photons)
            assert len(protocol.configs) == 2 * photons + 1
            assert tg.is_complete(protocol.configs, photons, 2)
        for photons in range(1, 5):
            protocol = m2.newton_young_configs(photons)
            for j in range(len(protocol.configs)):
                rest = protocol.configs[:j] + protocol.configs[j + 1 :]
                assert not tg.is_complete(rest, photons, 2)

        for photons in range(1, 5):
            theta = m2.choose_theta(photons)
            protocol = m2.newton_young_configs(photons, theta)
            superop = tg.build_superoperator(protocol.configs, photons, 2)
            basis = cb.enumerate_fock_basis(photons, 2)
            for seed in range(5):
                rho = tg.random_density_matrix(basis, 800 + seed)
                records = tg.simulate_records(rho, protocol.configs)
                analytic = m2.reconstruct_m2(records, photons, theta)
                generic = tg.reconstruct(superop, records)
                assert (
                    tg.trace_distance(analytic.projected, generic.projected) < 1e-8
                )
                assert tg.trace_distance(analytic.projected, rho) < 1e-8

        for photons in range(1, 7):
            for theta in (0.21, 0.9, 2.2):
                lifted = lo.lift_unitary(m2.beamsplitter(theta), photons).matrix
                rotation = m2._rotation(photons, m2.BS_SPIN_ANGLE_FACTOR * theta)
                assert np.abs(lifted - rotation).max() < 1e-10


def test_criterion_9_imperfections():
    with _Budget("criterion 9: imperfection models", 300.0):
        # uniform-loss sector factor eta^N
        for eta in (0.5, 0.9):
            for photons in (1, 2, 3):
                basis = cb.enumerate_fock_basis(photons, 2)
                rho = tg.random_density_matrix(basis, 40 + photons)
                config = lo.haar_random_unitary(2, photons)
                p = tg.outcome_probabilities(rho, config)
                tbasis = imp.truncated_basis(photons, 2)
                detected = imp.detector_response(
                    imp.embed_sector(p, photons, tbasis),
                    tbasis,
                    imp.DetectorModel.uniform(eta, 2),
                )
                sector = detected[tbasis.sector_slice(photons)]
                assert np.abs(sector - eta**photons * p).max() < 1e-12

        # response + inversion round trip
        rng = np.random.default_rng(5)
        for eta in (0.5, 0.7, 0.9):
            for modes in (2, 3):
                for max_total in (2, 3):
                    basis = imp.truncated_basis(max_total, modes)
                    model = imp.DetectorModel.uniform(eta, modes)
                    p = rng.random(len(basis))
                    p /= p.sum()
                    q = imp.detector_response(p, basis, model)
                    assert np.abs(
                        imp.invert_detector_response(q, basis, model) - p
                    ).max() <= 1e-10

        # two-component mixture, with and without eta = 0.9 detectors
        rho1 = tg.random_density_matrix(cb.enumerate_fock_basis(1, 2), 61)
        rho2 = tg.random_density_matrix(cb.enumerate_fock_basis(2, 2), 62)
        mixture = imp.PhotonNumberMixture(((0.5, rho1), (0.5, rho2)))
        required = max(cb.min_configs_extended(n, 2, 2) for n in (1, 2))
        assert required == 5
        configs = haar_configs(2, required, seed=63)
        exact_records = [
            imp.mixture_joint_probabilities(mixture, c)[1] for c in configs
        ]
        model = imp.DetectorModel.uniform(0.9, 2)
        basis = imp.truncated_basis(2, 2)
        lossy_records = [
            imp.detector_response(r, basis, model) for r in exact_records
        ]
        for records, detector in ((exact_records, None), (lossy_records, model)):
            estimate = imp.reconstruct_mixture(records, configs, 2, 2, model=detector)
            assert abs(estimate.weights[1] - 0.5) < 1e-10
            assert abs(estimate.weights[2] - 0.5) < 1e-10
            assert tg.trace_distance(estimate.states[1].projected, rho1) < 1e-8
            assert tg.trace_distance(estimate.states[2].projected, rho2) < 1e-8
