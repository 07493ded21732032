import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focktomo import combinatorics as cb

import oracles


class TestFockDimension:
    def test_vacuum_and_single_photon(self):
        for modes in range(1, 8):
            assert cb.fock_dimension(0, modes) == 1
            assert cb.fock_dimension(1, modes) == modes

    def test_two_photons_three_modes_by_enumeration(self):
        assert cb.fock_dimension(2, 3) == len(oracles.enumerate_occupations(2, 3)) == 6

    def test_matches_exhaustive_enumeration(self):
        for photons in range(0, 6):
            for modes in range(1, 5):
                assert cb.fock_dimension(photons, modes) == len(
                    oracles.enumerate_occupations(photons, modes)
                )

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cb.fock_dimension(2, 0)
        with pytest.raises(ValueError):
            cb.fock_dimension(-1, 2)


class TestFockBasis:
    def test_small_examples(self):
        assert cb.enumerate_fock_basis(1, 2).states == ((1, 0), (0, 1))
        assert cb.enumerate_fock_basis(2, 2).states == ((2, 0), (1, 1), (0, 2))
        assert cb.enumerate_fock_basis(0, 3).states == ((0, 0, 0),)

    def test_order_is_lexicographically_decreasing(self):
        states = cb.enumerate_fock_basis(3, 4).states
        assert states[0] == (3, 0, 0, 0)
        assert list(states) == sorted(states, reverse=True)

    @given(st.integers(0, 6), st.integers(1, 5))
    def test_roundtrip_indexing_and_sums(self, photons, modes):
        basis = cb.enumerate_fock_basis(photons, modes)
        assert len(basis) == cb.fock_dimension(photons, modes)
        for index, state in enumerate(basis):
            assert sum(state) == photons
            assert basis.index_of(basis.state_at(index)) == index
        assert set(basis.states) == oracles.enumerate_occupations(photons, modes)

    def test_index_of_rejects_foreign_states(self):
        basis = cb.enumerate_fock_basis(2, 2)
        with pytest.raises(ValueError):
            basis.index_of((1, 0))


class TestMinConfigs:
    def test_two_mode_values(self):
        assert [cb.min_configs(n, 2) for n in range(1, 7)] == [3, 5, 7, 9, 11, 13]

    def test_hand_evaluated_cases(self):
        # C(5,2) - C(3,3) = 10 - 1
        assert cb.min_configs(2, 3) == 9
        # One photon: C(M+1,1) - C(M-1,M) = M + 1; cross-check R_{1,2} = 3.
        for modes in range(2, 7):
            assert cb.min_configs(1, modes) == modes + 1
        assert cb.min_configs(1, 2) == 3

    def test_rejects_small_mode_counts(self):
        with pytest.raises(ValueError):
            cb.min_configs(2, 1)
        with pytest.raises(ValueError):
            cb.min_configs(0, 2)


class TestMinConfigsExtended:
    def test_reduces_to_base_count(self):
        for photons in range(1, 5):
            for modes in range(2, 5):
                assert cb.min_configs_extended(photons, modes, modes) == cb.min_configs(
                    photons, modes
                )

    def test_hand_evaluated_cases(self):
        assert cb.min_configs_extended(2, 2, 4) == 1  # ceil(5/6)
        assert cb.min_configs_extended(2, 3, 4) == 5  # ceil(27/6)

    def test_rejects_fewer_measured_modes(self):
        with pytest.raises(ValueError):
            cb.min_configs_extended(2, 3, 2)

    def test_non_increasing_in_measured_modes(self):
        for photons in range(1, 5):
            for modes in range(2, 5):
                values = [
                    cb.min_configs_extended(photons, modes, mp)
                    for mp in range(modes, modes + 6)
                ]
                assert values == sorted(values, reverse=True)

    def test_closed_forms_agree_via_exact_rationals(self):
        for photons in range(1, 7):
            for modes in range(2, 9):
                for meas in range(modes, 9):
                    ratio = Fraction(
                        math.factorial(photons + modes - 2)
                        * math.factorial(meas - 2),
                        math.factorial(photons + meas - 2) * math.factorial(modes - 2),
                    ) * cb.min_configs(photons, modes)
                    expected = -((-ratio.numerator) // ratio.denominator)
                    assert cb.min_configs_extended(photons, modes, meas) == expected

    def test_strictly_below_naive_count_with_extra_modes(self):
        # With any padding, fewer than D+1 settings suffice, while the
        # unpadded requirement exceeds D+1 (strictly so for N >= 2).
        for photons in range(2, 6):
            for modes in range(2, 5):
                dim = cb.fock_dimension(photons, modes)
                assert cb.min_configs(photons, modes) > dim + 1
                for meas in range(modes + 1, modes + 5):
                    assert cb.min_configs_extended(photons, modes, meas) < dim + 1


class TestZeroWeightDim:
    def test_closed_form_examples(self):
        for level in range(0, 7):
            assert cb.zero_weight_dim(level, 2) == 1
            assert cb.zero_weight_dim(level, 3) == level + 1
        assert cb.zero_weight_dim(2, 3) == 3

    def test_levels_partition_the_fock_dimension(self):
        for modes in range(2, 7):
            for photons in range(1, 9):
                total = sum(
                    cb.zero_weight_dim(level, modes) for level in range(photons + 1)
                )
                assert total == cb.fock_dimension(photons, modes)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            cb.zero_weight_dim(-1, 3)
        with pytest.raises(ValueError):
            cb.zero_weight_dim(2, 1)


class TestWeylDimension:
    def test_symmetric_irrep_equals_fock_dimension(self):
        for modes in range(2, 7):
            for photons in range(0, 7):
                sig = cb.symmetric_signature(photons, modes)
                assert cb.weyl_dimension(sig, modes) == cb.fock_dimension(
                    photons, modes
                )

    def test_two_mode_tower(self):
        for level in range(0, 8):
            assert cb.weyl_dimension((level, -level), 2) == 2 * level + 1

    def test_hand_evaluated_case(self):
        assert cb.weyl_dimension((2, 0, -2), 3) == 27
        assert 27 == cb.fock_dimension(2, 3) ** 2 - cb.fock_dimension(1, 3) ** 2

    def test_tower_dimension_identity(self):
        for modes in range(2, 7):
            for photons in range(1, 9):
                lhs = cb.weyl_dimension(
                    cb.adjoint_tower_signature(photons, modes), modes
                )
                d = cb.fock_dimension(photons, modes)
                d_prev = cb.fock_dimension(photons - 1, modes)
                assert lhs == d**2 - d_prev**2
                assert lhs == cb.min_configs(photons, modes) * cb.fock_dimension(
                    photons, modes - 1
                )

    def test_telescoping_counts_density_matrix_entries(self):
        for modes in range(2, 7):
            for photons in range(1, 9):
                total = sum(
                    cb.fock_dimension(r, modes) ** 2
                    - cb.fock_dimension(r - 1, modes) ** 2
                    for r in range(1, photons + 1)
                )
                assert total == cb.fock_dimension(photons, modes) ** 2 - 1

    def test_top_level_sets_the_configuration_count(self):
        # Level l has d_l dimensions and z_l rows per setting, so the map needs
        # ceil(d_l / z_l) settings for it; the top level needs the most, exactly R.
        for modes in range(2, 8):
            for photons in range(1, 9):
                ratios = [
                    Fraction(
                        cb.weyl_dimension(cb.adjoint_tower_signature(level, modes), modes),
                        cb.zero_weight_dim(level, modes),
                    )
                    for level in range(photons + 1)
                ]
                assert max(math.ceil(r) for r in ratios) == ratios[-1]
                assert ratios[-1] == cb.min_configs(photons, modes)

    def test_rejects_non_monotone_signature(self):
        with pytest.raises(ValueError):
            cb.weyl_dimension((0, 1), 2)
        with pytest.raises(ValueError):
            cb.Signature((1, 2, 0))
        with pytest.raises(ValueError):
            cb.weyl_dimension((1, 0), 3)


class TestBalancedSignatures:
    def test_small_examples(self):
        assert [s.parts for s in cb.enumerate_balanced_signatures(2, 1)] == [
            (0, 0),
            (1, -1),
        ]
        assert [s.parts for s in cb.enumerate_balanced_signatures(2, 2)] == [
            (0, 0),
            (1, -1),
            (2, -2),
        ]
        for modes in range(2, 6):
            assert [s.parts for s in cb.enumerate_balanced_signatures(modes, 0)] == [
                (0,) * modes
            ]

    @given(st.integers(2, 4), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_matches_exhaustive_filter(self, modes, bound):
        found = [s.parts for s in cb.enumerate_balanced_signatures(modes, bound)]
        assert len(found) == len(set(found))
        assert set(found) == oracles.balanced_signatures_by_filter(modes, bound)


class TestDesignSizeBounds:
    def test_hand_evaluated_cases(self):
        bounds = cb.design_size_bounds(2, 1)
        assert bounds.lower == 1 + 9 == 10
        assert bounds.dimension_bound == cb.fock_dimension(1, 4) ** 2 == 16
        assert cb.design_size_bounds(2, 2).upper == 1 + 9 + 25 + 49 + 81 == 165

    def test_orderings(self):
        for modes in range(2, 5):
            for photons in range(1, 4):
                bounds = cb.design_size_bounds(modes, photons)
                assert bounds.lower <= bounds.upper
                assert bounds.lower <= bounds.dimension_bound
                assert (
                    bounds.upper
                    <= cb.fock_dimension(2 * photons, modes * modes) ** 2
                )


class TestSingleConfigFeasible:
    def test_hand_evaluated_cases(self):
        assert cb.single_config_feasible(2, 2, 4)  # 6 >= 5
        assert not cb.single_config_feasible(2, 2, 3)  # 3 < 5
        assert not cb.single_config_feasible(1, 2, 2)
        assert cb.single_config_feasible(1, 2, 4)  # 3 >= 3

    def test_min_modes_lower_bound_examples(self):
        assert cb.min_modes_lower_bound(2, 2) == 4
        assert cb.min_modes_lower_bound(1, 2) == 4

    def test_rejects_fewer_measured_modes(self):
        with pytest.raises(ValueError):
            cb.single_config_feasible(2, 3, 2)
        with pytest.raises(ValueError):
            cb.single_config_feasible(2, 1, 4)

    def test_many_photon_trend_settles_near_twice_the_modes(self):
        for modes in (2, 3):
            values = [
                cb.min_modes_lower_bound(photons, modes)
                for photons in (2, 5, 10, 50, 200)
            ]
            assert values == sorted(values, reverse=True)
            assert 2 * modes - 1 <= values[-1] <= 2 * modes

    def test_counterintuitive_decrease_with_more_photons(self):
        # More photons mean more outcomes per setting, so fewer measured
        # modes suffice.
        assert cb.min_modes_lower_bound(2, 3) > cb.min_modes_lower_bound(20, 3)
