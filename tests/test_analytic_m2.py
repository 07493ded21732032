import math
import warnings

import numpy as np
import pytest

from focktomo import analytic_m2 as m2
from focktomo import tomography as tg
from focktomo.analytic_m2 import BS_SPIN_ANGLE_FACTOR
from focktomo.combinatorics import enumerate_fock_basis
from focktomo.linear_optics import lift_unitary
from focktomo.tomography import build_superoperator, is_complete, simulate_records


class TestWignerSmallD:
    """``_rotation(two_s, angle)`` is d^S(angle), rows and columns m = S..-S."""

    def test_zero_angle_is_identity(self):
        for two_s in (1, 2, 3, 4):
            np.testing.assert_allclose(
                m2._rotation(two_s, 0.0), np.eye(two_s + 1), rtol=0, atol=1e-14
            )

    def test_half_spin_element(self):
        for theta in (0.1, 0.7, 2.3):
            assert m2._rotation(1, theta)[0, 0] == pytest.approx(math.cos(theta / 2.0))

    def test_spin_one_table(self):
        beta = 0.83
        rotation = m2._rotation(2, beta)  # rows m = 1, 0, -1
        assert rotation[1, 1] == pytest.approx(math.cos(beta))
        assert rotation[0, 1] == pytest.approx(-math.sin(beta) / math.sqrt(2))
        assert rotation[0, 0] == pytest.approx((1 + math.cos(beta)) / 2)

    def test_rows_are_normalized(self):
        for two_s in (2, 3, 6):
            for theta in (0.3, 1.1):
                rows = (m2._rotation(two_s, theta) ** 2).sum(axis=1)
                np.testing.assert_allclose(rows, 1.0, rtol=1e-12)

    def test_rotation_matrices_compose(self):
        a, b = 0.5, 1.2
        left = m2._rotation(3, a) @ m2._rotation(3, b)
        np.testing.assert_allclose(left, m2._rotation(3, a + b), atol=1e-12)

    def test_rotations_stay_orthogonal_to_high_spin(self):
        # Wigner's explicit factorial sum loses digits with spin (8e-12 by spin 20).
        for two_s in range(1, 41):
            for beta in (0.3, 1.7, -2.9):
                rotation = m2._rotation(two_s, beta)
                assert np.abs(rotation @ rotation.T - np.eye(two_s + 1)).max() < 1e-14

    def test_an_array_of_angles_gives_one_matrix_each(self):
        angles = np.array([0.2, 1.1, 2.7])
        stack = m2._rotation(3, angles)
        assert stack.shape == (3, 4, 4)
        columns = m2._rotation(3, angles, [3])
        assert columns.shape == (3, 4, 1)
        for angle, rotation, column in zip(angles, stack, columns):
            np.testing.assert_allclose(rotation, m2._rotation(3, angle), atol=1e-15)
            np.testing.assert_allclose(column, rotation[:, [3]], atol=1e-15)


class TestSchwingerCorrespondence:
    def test_one_photon_calibrates_the_angle_map(self):
        theta = 0.37
        lifted = lift_unitary(m2.beamsplitter(theta), 1).matrix
        rotation = m2._rotation(1, BS_SPIN_ANGLE_FACTOR * theta)
        np.testing.assert_allclose(lifted.real, rotation, atol=1e-14)
        np.testing.assert_allclose(lifted.imag, 0.0, atol=1e-14)

    @pytest.mark.parametrize("photons", [1, 2, 3, 4, 5, 6, 12, 24])
    def test_lift_equals_spin_rotation(self, photons):
        for theta in (0.21, 1.03, 2.6):
            lifted = lift_unitary(m2.beamsplitter(theta), photons).matrix
            rotation = m2._rotation(photons, BS_SPIN_ANGLE_FACTOR * theta)
            assert np.abs(lifted - rotation).max() < 1e-10


class TestChooseTheta:
    def test_margin_clears_the_floor(self):
        for photons in range(1, 7):
            theta = m2.choose_theta(photons)
            assert m2.admissibility_margin(photons, theta) >= 1e-3

    def test_deterministic(self):
        assert m2.choose_theta(3) == m2.choose_theta(3)

    def test_pinned_angles(self):
        # theta and pi - theta tie exactly on every grid, and the rule takes
        # the lower angle of the pair: these are the maximin grid angles
        # below pi/2.
        pinned = [
            0.47813507703415387, 0.6160586569478521, 0.649773309815645,
            0.6773580257983847, 0.6926828680110177, 0.8643211007925089,
            0.7141376471087042, 0.8489962585798757, 0.8428663216948225,
            0.732527457763864, 0.7355924262063905, 0.8306064479247159,
        ]
        assert [m2.choose_theta(n) for n in range(1, 13)] == pinned

    def test_the_rule_takes_the_lower_mirror_angle(self):
        for photons in range(1, 13):
            assert 0.0 < m2.choose_theta(photons) < math.pi / 2

    def test_mirror_angles_have_equal_margins(self):
        grid = np.linspace(0.0, math.pi, m2.THETA_GRID_POINTS + 2)[1:-1]
        for photons in range(1, 13):
            np.testing.assert_allclose(
                m2.admissibility_margin(photons, grid),
                m2.admissibility_margin(photons, math.pi - grid),
                rtol=0, atol=1e-14,
            )

    def test_a_second_protocol_build_reuses_the_angle(self):
        m2.newton_young_configs(5)
        hits = m2.choose_theta.cache_info().hits
        m2.newton_young_configs(5)
        assert m2.choose_theta.cache_info().hits == hits + 1

    @pytest.mark.parametrize("photons", [1, 4, 7])
    def test_vector_margin_matches_the_scalar_one(self, photons):
        grid = np.linspace(0.0, math.pi, 203)[1:-1]
        vector = m2.admissibility_margin(photons, grid)
        scalar = [m2.admissibility_margin(photons, float(theta)) for theta in grid]
        np.testing.assert_allclose(vector, scalar, rtol=0, atol=1e-14)

    def test_degenerate_angles_are_rejected_by_the_margin(self):
        # A swap (theta = pi/2) hides coherences; a balanced splitter
        # (theta = pi/4) hides populations.  Both must score ~0.
        assert m2.admissibility_margin(1, math.pi / 2) < 1e-12
        assert m2.admissibility_margin(2, math.pi / 4) < 1e-12


class TestNewtonYoungConfigs:
    def test_counts_and_unitarity(self):
        for photons in (1, 2, 4):
            protocol = m2.newton_young_configs(photons)
            assert len(protocol.configs) == 2 * photons + 1
            for config in protocol.configs:
                assert config.unitarity_residual < 1e-12
            spacing = np.diff(protocol.phases)
            np.testing.assert_allclose(
                spacing, 2 * math.pi / (2 * photons + 1), atol=1e-12
            )

    @pytest.mark.parametrize("photons", [1, 2, 3])
    def test_complete_at_the_bound(self, photons):
        protocol = m2.newton_young_configs(photons)
        assert is_complete(protocol.configs, photons, 2)

    def test_dropping_any_config_breaks_completeness(self):
        protocol = m2.newton_young_configs(2)
        for j in range(len(protocol.configs)):
            remaining = protocol.configs[:j] + protocol.configs[j + 1 :]
            assert not is_complete(remaining, 2, 2)


class TestHarmonics:
    def test_phase_independent_data_is_all_dc(self):
        photons = 2
        data = np.tile(np.array([0.2, 0.5, 0.3]), (5, 1))
        harmonics = m2.dft_harmonics(data, photons)
        np.testing.assert_allclose(harmonics[photons], [0.2, 0.5, 0.3], atol=1e-14)
        mask = np.ones(5, dtype=bool)
        mask[photons] = False
        assert np.abs(harmonics[mask]).max() < 1e-14

    def test_pure_tone_lands_on_adjacent_harmonics(self):
        photons = 3
        phases = 2 * math.pi * np.arange(7) / 7
        data = np.cos(phases)[:, None]
        harmonics = m2.dft_harmonics(data, photons).ravel()
        magnitudes = np.abs(harmonics)
        assert magnitudes[photons + 1] == pytest.approx(0.5)
        assert magnitudes[photons - 1] == pytest.approx(0.5)
        magnitudes[[photons - 1, photons + 1]] = 0.0
        assert magnitudes.max() < 1e-14

    def test_diagonal_state_has_only_dc_harmonic(self):
        photons = 2
        protocol = m2.newton_young_configs(photons)
        basis = enumerate_fock_basis(photons, 2)
        rho = tg.DensityMatrix(basis, np.diag([0.6, 0.1, 0.3]).astype(complex))
        records = simulate_records(rho, protocol.configs)
        harmonics = m2.dft_harmonics(records, photons)
        mask = np.ones(2 * photons + 1, dtype=bool)
        mask[photons] = False
        assert np.abs(harmonics[mask]).max() < 1e-14

    def test_support_is_within_the_photon_number(self):
        # Physical states produce exactly the 2N+1 representable harmonics;
        # sampling the same data on a finer grid shows no higher content.
        photons = 2
        theta = m2.choose_theta(photons)
        basis = enumerate_fock_basis(photons, 2)
        rho = tg.random_density_matrix(basis, 5)
        fine = 2 * photons + 5
        phases = 2 * math.pi * np.arange(fine) / fine
        bs = m2.beamsplitter(theta)
        rows = []
        from focktomo.linear_optics import InterferometerConfig

        for phi in phases:
            g = np.diag([1.0, np.exp(1j * phi)]) @ bs
            rows.append(
                tg.outcome_probabilities(rho, InterferometerConfig(2, g))
            )
        data = np.array(rows)
        spectrum = np.fft.ifft(data, axis=0)
        # indices N+1 .. fine-N-1 correspond to |I| > N
        hidden = spectrum[photons + 1 : fine - photons]
        assert np.abs(hidden).max() < 1e-12

    def test_wrong_record_count_rejected(self):
        with pytest.raises(ValueError):
            m2.dft_harmonics(np.zeros((4, 3)), 2)


class TestReconstructM2:
    def test_diagonal_state_round_trip(self):
        photons = 2
        theta = m2.choose_theta(photons)
        protocol = m2.newton_young_configs(photons, theta)
        basis = enumerate_fock_basis(photons, 2)
        rho = tg.DensityMatrix(basis, np.diag([0.5, 0.2, 0.3]).astype(complex))
        records = simulate_records(rho, protocol.configs)
        result = m2.reconstruct_m2(records, photons, theta)
        assert tg.trace_distance(result.projected, rho) < 1e-10

    @pytest.mark.parametrize("photons", [1, 2, 3])
    def test_agrees_with_generic_engine(self, photons):
        theta = m2.choose_theta(photons)
        protocol = m2.newton_young_configs(photons, theta)
        basis = enumerate_fock_basis(photons, 2)
        superop = build_superoperator(protocol.configs, photons, 2)
        for seed in range(3):
            rho = tg.random_density_matrix(basis, 50 + seed)
            records = simulate_records(rho, protocol.configs)
            analytic = m2.reconstruct_m2(records, photons, theta)
            generic = tg.reconstruct(superop, records)
            assert tg.trace_distance(analytic.projected, rho) < 1e-8
            assert (
                tg.trace_distance(analytic.projected, generic.projected) < 1e-8
            )
            assert np.abs(analytic.raw - generic.raw).max() < 1e-8

    @pytest.mark.parametrize("photons", [1, 2, 3, 4])
    def test_residual_is_the_full_map_residual(self, photons):
        protocol = m2.newton_young_configs(photons)
        rho = tg.random_density_matrix(enumerate_fock_basis(photons, 2), 60 + photons)
        records = simulate_records(rho, protocol.configs, shots=1000, seed=photons)
        result = m2.reconstruct_m2(records, photons, protocol.theta)
        superop = build_superoperator(protocol.configs, photons, 2)
        full = np.linalg.norm(superop.apply(result.raw) - records.reshape(-1))
        assert result.residual == pytest.approx(full, rel=1e-10, abs=1e-12)

    def test_single_photon_superposition_lives_in_side_harmonics(self):
        photons = 1
        theta = m2.choose_theta(photons)
        protocol = m2.newton_young_configs(photons, theta)
        basis = enumerate_fock_basis(photons, 2)
        rho = tg.pure_state(basis, np.array([1.0, 1.0]) / math.sqrt(2))
        records = simulate_records(rho, protocol.configs)
        harmonics = m2.dft_harmonics(records, photons)
        assert np.abs(harmonics[0]).max() > 1e-3  # I = -1
        assert np.abs(harmonics[2]).max() > 1e-3  # I = +1
        result = m2.reconstruct_m2(records, photons, theta)
        assert tg.trace_distance(result.projected, rho) < 1e-10
        assert result.raw[0, 1] == pytest.approx(0.5, abs=1e-10)

    def test_inadmissible_theta_reports_the_harmonic(self):
        photons = 1
        theta = math.pi / 2  # swap: coherence harmonics vanish
        protocol = m2.newton_young_configs(photons, theta)
        basis = enumerate_fock_basis(photons, 2)
        rho = tg.random_density_matrix(basis, 3)
        records = simulate_records(rho, protocol.configs)
        with pytest.raises(m2.SingularHarmonicError) as err:
            m2.reconstruct_m2(records, photons, theta)
        assert abs(err.value.harmonic) == 1

    def test_wrong_outcome_count_is_rejected_by_shape(self):
        photons = 2
        with pytest.raises(ValueError, match=r"shape \(5, 4\), expected \(5, 3\)"):
            m2.reconstruct_m2(np.full((5, 4), 0.25), photons, m2.choose_theta(photons))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_record_is_named_before_the_solve(self, bad):
        photons = 2
        protocol = m2.newton_young_configs(photons)
        rho = tg.random_density_matrix(enumerate_fock_basis(photons, 2), 5)
        records = simulate_records(rho, protocol.configs)
        records[2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no solve runs to warn
            with pytest.raises(ValueError, match="^frequencies of setting 2 are not finite$"):
                m2.reconstruct_m2(records, photons, protocol.theta)
