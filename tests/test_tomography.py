import functools
import gc
import itertools
import math
import re
import traceback
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.linalg
from scipy.linalg import expm

from focktomo import analytic_m2
from focktomo import imperfections as imp
from focktomo import linear_optics as lo
from focktomo import tomography as tg
from focktomo.combinatorics import (
    adjoint_tower_signature,
    enumerate_fock_basis,
    fock_dimension,
    min_configs,
    min_configs_extended,
    weyl_dimension,
    zero_weight_dim,
)

import oracles

BS_5050 = lo.InterferometerConfig(2, np.array([[1, 1], [1, -1]]) / math.sqrt(2))


def record_shapes(monkeypatch, name, module=tg):
    """Wrap ``module.<name>``: the list of its first argument's shapes, call by call."""
    original, shapes = getattr(module, name), []

    def call(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(module, name, call)
    return shapes


def haar_configs(modes, count, seed):
    rng = np.random.default_rng(seed)
    return [lo.haar_random_unitary(modes, int(rng.integers(2**63))) for _ in range(count)]


class TestDensityMatrix:
    def test_factories_are_valid_states(self):
        basis = enumerate_fock_basis(2, 3)
        for rho in (
            tg.maximally_mixed(basis),
            tg.fock_projector(basis, (1, 1, 0)),
            tg.random_density_matrix(basis, 4),
            tg.random_density_matrix(basis, 4, rank=2),
            tg.pure_state(basis, np.arange(1, basis.dimension + 1)),
        ):
            assert abs(rho.matrix.trace() - 1.0) < 1e-12

    def test_validation_rejects_unphysical_matrices(self):
        basis = enumerate_fock_basis(1, 2)
        with pytest.raises(ValueError):
            tg.DensityMatrix(basis, np.array([[0.5, 0.5j], [0.5j, 0.5]]))
        with pytest.raises(ValueError):
            tg.DensityMatrix(basis, np.eye(2, dtype=complex))
        with pytest.raises(ValueError):
            tg.DensityMatrix(basis, np.diag([1.5, -0.5]).astype(complex))

    def test_a_nan_entry_is_not_hermitian(self):
        basis = enumerate_fock_basis(1, 2)
        with pytest.raises(ValueError, match=r"not Hermitian \(residual nan\)"):
            tg.DensityMatrix(basis, np.array([[np.nan, 0.0], [0.0, 0.5]]))

    def test_json_round_trip(self):
        basis = enumerate_fock_basis(2, 2)
        rho = tg.random_density_matrix(basis, 8)
        restored = tg.DensityMatrix.from_json_dict(rho.to_json_dict())
        np.testing.assert_array_equal(restored.matrix, rho.matrix)

    def test_json_matrix_must_be_present(self):
        with pytest.raises(ValueError, match="^state field 'matrix' is missing$"):
            tg.DensityMatrix.from_json_dict({"photons": 1, "modes": 2})


class TestTraceDistance:
    def test_extreme_values(self):
        basis = enumerate_fock_basis(1, 2)
        a = tg.fock_projector(basis, (1, 0))
        b = tg.fock_projector(basis, (0, 1))
        assert tg.trace_distance(a, a) == pytest.approx(0.0, abs=1e-14)
        assert tg.trace_distance(a, b) == pytest.approx(1.0)

    def test_non_hermitian_difference(self):
        assert tg.trace_distance(1j * np.eye(2), np.zeros((2, 2))) == 1.0


class TestOutcomeProbabilities:
    def test_identity_config_gives_indicator(self):
        basis = enumerate_fock_basis(3, 2)
        rho = tg.fock_projector(basis, (3, 0))
        identity = lo.InterferometerConfig(2, np.eye(2))
        p = tg.outcome_probabilities(rho, identity)
        expected = np.zeros(basis.dimension)
        expected[basis.index_of((3, 0))] = 1.0
        np.testing.assert_allclose(p, expected, atol=1e-12)

    def test_hong_ou_mandel_distribution(self):
        basis = enumerate_fock_basis(2, 2)
        rho = tg.fock_projector(basis, (1, 1))
        p = tg.outcome_probabilities(rho, BS_5050)
        assert p[basis.index_of((1, 1))] == pytest.approx(0.0, abs=1e-12)
        assert p[basis.index_of((2, 0))] == pytest.approx(0.5, abs=1e-12)
        assert p[basis.index_of((0, 2))] == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed_is_uniform_under_any_config(self):
        basis = enumerate_fock_basis(2, 3)
        rho = tg.maximally_mixed(basis)
        p = tg.outcome_probabilities(rho, lo.haar_random_unitary(3, 6))
        np.testing.assert_allclose(p, 1.0 / basis.dimension, atol=1e-12)

    def test_padding_into_more_measured_modes(self):
        basis = enumerate_fock_basis(2, 2)
        rho = tg.random_density_matrix(basis, 3)
        p = tg.outcome_probabilities(rho, lo.haar_random_unitary(4, 1))
        assert p.shape == (fock_dimension(2, 4),)
        assert p.sum() == pytest.approx(1.0, abs=1e-10)

    def test_rejects_too_few_modes(self):
        basis = enumerate_fock_basis(1, 3)
        rho = tg.maximally_mixed(basis)
        with pytest.raises(ValueError):
            tg.outcome_probabilities(rho, lo.haar_random_unitary(2, 0))


class TestBatchedSettings:
    @pytest.mark.parametrize(
        "photons,modes,meas_modes", [(1, 2, 2), (3, 4, 4), (6, 2, 6), (2, 3, 5), (5, 4, 4)]
    )
    def test_laws_equal_the_single_setting_laws_bit_for_bit(self, photons, modes, meas_modes):
        # At (6,2,6) and (5,4,4), seven settings or more, a broadcast product and sum in
        # place of the einsum gives a batch's rows other bits than each setting's alone.
        rho = tg.random_density_matrix(enumerate_fock_basis(photons, modes), photons)
        configs = haar_configs(meas_modes, 7, seed=meas_modes)
        laws = tg.outcome_probabilities(rho, configs)
        assert laws.shape == (len(configs), fock_dimension(photons, meas_modes))
        assert np.array_equal(laws, [tg.outcome_probabilities(rho, c) for c in configs])

    @pytest.mark.parametrize(
        "photons,modes,meas_modes", [(1, 2, 2), (3, 4, 4), (6, 2, 6), (2, 3, 5)]
    )
    def test_map_is_the_row_stack_of_single_setting_maps(self, photons, modes, meas_modes):
        configs = haar_configs(meas_modes, 4, seed=photons)
        superop = tg.build_superoperator(configs, photons, modes)
        singles = [tg.build_superoperator([c], photons, modes) for c in configs]
        assert np.array_equal(superop.lift, np.concatenate([one.lift for one in singles]))
        rows = [oracles.complex_rows(one) for one in singles]
        assert np.array_equal(oracles.complex_rows(superop), np.vstack(rows))

    def test_every_setting_of_a_batch_is_checked(self):
        rho = tg.maximally_mixed(enumerate_fock_basis(1, 3))
        configs = [lo.haar_random_unitary(3, 0), lo.haar_random_unitary(2, 1)]
        with pytest.raises(ValueError, match="configuration has 2 modes"):
            tg.outcome_probabilities(rho, configs)
        with pytest.raises(ValueError, match="at least one configuration"):
            tg.outcome_probabilities(rho, [])

    def test_a_batch_of_mixed_mode_counts_names_them(self):
        rho = tg.maximally_mixed(enumerate_fock_basis(1, 2))
        configs = [lo.haar_random_unitary(3, 0), lo.haar_random_unitary(4, 1)]
        with pytest.raises(ValueError, match=r"same number of modes, got \[3, 4\]"):
            tg.outcome_probabilities(rho, configs)
        with pytest.raises(ValueError, match=r"same number of modes, got \[3, 4\]"):
            tg.build_superoperator(configs, 1, 2)


    @pytest.mark.parametrize(
        "photons,modes,meas_modes",
        [(1, 2, 2), (3, 4, 4), (6, 2, 6), (2, 3, 5), (5, 4, 4), (0, 3, 3), (0, 2, 4)],
    )
    def test_laws_are_the_maps_product(self, photons, modes, meas_modes):
        # The complex rows' product, formed whole by the oracle, as no library path forms it.
        rho = tg.random_density_matrix(enumerate_fock_basis(photons, modes), modes)
        configs = haar_configs(meas_modes, 3, seed=photons + meas_modes)
        superop = tg.build_superoperator(configs, photons, modes)
        laws = tg.outcome_probabilities(rho, configs)
        product = (oracles.complex_rows(superop) @ rho.matrix.reshape(-1)).real
        assert np.array_equal(laws, superop.apply(rho).reshape(len(configs), -1))
        assert np.abs(laws - product.reshape(len(configs), -1)).max() <= 1e-14

    def test_the_map_reads_checked_laws(self):
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 3), 4)
        configs = haar_configs(3, 3, seed=9)
        superop = tg.build_superoperator(configs, 2, 3)
        laws = superop.laws(rho)
        assert np.array_equal(laws, tg.outcome_probabilities(rho, configs))
        assert np.array_equal(laws[0], tg.outcome_probabilities(rho, configs[0]))
        with pytest.raises(RuntimeError, match="sum to"):
            superop.laws(2.0 * rho.matrix)


class TestMapLaws:
    """``Superoperator.laws`` holds its own output to ``_law_rows`` and raises a failure as
    ``RuntimeError``; the samplers raise the same message as ``ValueError``."""

    @staticmethod
    def map_reading(laws, monkeypatch):
        superop = tg.build_superoperator(haar_configs(2, len(laws), seed=1), 1, 2)
        monkeypatch.setattr(superop, "apply", lambda rho: laws.reshape(-1))
        return lambda: superop.laws(np.eye(2) / 2)

    def laws(self):
        rng = np.random.default_rng(3)
        laws = rng.random((4, 2))
        return laws / laws.sum(axis=1, keepdims=True)

    def test_valid_laws_pass_through(self, monkeypatch):
        laws = self.laws()
        assert np.array_equal(self.map_reading(laws, monkeypatch)(), laws)

    def test_the_worst_row_sum_is_named(self, monkeypatch):
        laws = self.laws()
        laws[2] = [0.5, 0.4]
        laws[1] *= 1.0 + 1e-11  # within tolerance
        with pytest.raises(RuntimeError, match=r"^probabilities sum to 0\.9, not 1$"):
            self.map_reading(laws, monkeypatch)()

    @pytest.mark.parametrize(
        "row,message",
        [([-0.2, 1.2], "probability entry -2.000e-01 is negative"),
         ([1.0 + 5e-11, 0.0], "probability entry 1.00000000005 exceeds 1")],  # sums within 1e-10
    )
    def test_entries_outside_the_unit_interval_are_named(self, row, message, monkeypatch):
        laws = self.laws()
        laws[1] = row
        with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
            self.map_reading(laws, monkeypatch)()

    def test_nan_laws_are_rejected(self, monkeypatch):
        laws = np.array([[np.nan, 1.0], [0.5, 0.5]])
        with pytest.raises(RuntimeError, match="^probability entry nan is negative$"):
            self.map_reading(laws, monkeypatch)()

    @pytest.mark.parametrize(
        "row", [[0.5, 0.5 + 5e-10], [0.5, 0.4], [-1e-11, 1.0], [1.0 + 2e-12, 0.0], [np.nan, 1.0]]
    )
    def test_the_map_and_the_samplers_refuse_a_law_with_one_message(self, row, monkeypatch):
        laws = self.laws()
        laws[3] = row
        with pytest.raises(RuntimeError) as by_map:
            self.map_reading(laws, monkeypatch)()
        message = f"^{re.escape(str(by_map.value))}$"
        for shots in (0, 1000):
            with pytest.raises(ValueError, match=message):
                tg.sample_shots(laws, shots, range(4))
            with pytest.raises(ValueError, match=message):
                tg.sweep_frequencies(laws, [shots])

    def test_a_law_summing_to_one_within_1e_10_is_accepted_by_all_three(self, monkeypatch):
        laws = self.laws()
        laws[3] = [0.5, 0.5 + 5e-11]
        assert tg.PROBABILITY_SUM_TOL == 1e-10
        assert np.array_equal(self.map_reading(laws, monkeypatch)(), laws)
        assert tg.sample_shots(laws, 1000, range(4)).sum(axis=1).tolist() == [1000] * 4
        assert np.array_equal(tg.sweep_frequencies(laws, [0, 1000])[0], laws)


class TestSuperoperator:
    def test_matches_outcome_probabilities(self):
        for photons, modes, meas in [(1, 2, 2), (2, 2, 3), (2, 3, 3)]:
            basis = enumerate_fock_basis(photons, modes)
            rho = tg.random_density_matrix(basis, photons + meas)
            configs = haar_configs(meas, 3, seed=photons)
            superop = tg.build_superoperator(configs, photons, modes)
            stacked = np.concatenate(
                [tg.outcome_probabilities(rho, c) for c in configs]
            )
            assert np.abs(superop.apply(rho) - stacked).max() < 1e-12

    def test_single_photon_row_structure(self):
        config = lo.haar_random_unitary(2, 9)
        superop = tg.build_superoperator([config], 1, 2)
        assert superop.shape == (2, 4)
        u, rows = lo.lift_unitary(config, 1).matrix, oracles.complex_rows(superop)
        for outcome in range(2):
            expected = [
                np.conj(u[a, outcome]) * u[b, outcome]
                for a in range(2)
                for b in range(2)
            ]
            np.testing.assert_allclose(rows[outcome], expected, atol=1e-14)

    def test_row_count_scales_with_configs(self):
        configs = haar_configs(3, 4, seed=2)
        superop = tg.build_superoperator(configs, 2, 2)
        assert superop.shape == (4 * fock_dimension(2, 3), 9)

    @pytest.mark.parametrize("photons,modes,meas_modes", [(1, 2, 2), (3, 4, 4), (2, 3, 5)])
    def test_the_map_is_kept_as_its_lifts_alone(self, photons, modes, meas_modes):
        configs = haar_configs(meas_modes, 5, seed=photons)
        superop = tg.build_superoperator(configs, photons, modes)
        assert not hasattr(superop, "matrix")
        assert np.array_equal(superop.lift, tg._restricted_lift(configs, photons, modes))
        assert oracles.complex_rows(superop).shape == superop.shape
        with pytest.raises(ValueError, match="read-only"):
            superop.lift[0, 0, 0] = 1.0

    def test_rejects_inconsistent_mode_counts(self):
        configs = [lo.haar_random_unitary(2, 0), lo.haar_random_unitary(3, 1)]
        with pytest.raises(ValueError):
            tg.build_superoperator(configs, 1, 2)
        with pytest.raises(ValueError):
            tg.build_superoperator([], 1, 2)


class TestGramianRank:
    def test_single_config_single_photon_rank(self):
        # One config contributes D' rows that sum to vec(identity), so R
        # configs reach rank at most R*(D'-1)+1: here 2 of the required 4.
        superop = tg.build_superoperator([lo.haar_random_unitary(2, 3)], 1, 2)
        report = tg.gramian_rank(superop)
        assert superop.shape == (2, 4)
        assert report.rank == np.linalg.matrix_rank(oracles.complex_rows(superop)) == 2

    def test_rank_cap_from_row_sums(self):
        # Each configuration's outcome rows sum to the vectorized identity.
        for photons, modes in [(1, 2), (2, 2), (2, 3)]:
            for count in (1, 2, 3):
                configs = haar_configs(modes, count, seed=photons + count)
                superop = tg.build_superoperator(configs, photons, modes)
                d_out = fock_dimension(photons, modes)
                cap = count * (d_out - 1) + 1
                assert tg.gramian_rank(superop).rank <= cap

    def test_three_haar_configs_complete_one_photon(self):
        configs = haar_configs(2, 3, seed=5)
        assert tg.is_complete(configs, 1, 2)

    def test_duplicated_configs_do_not_raise_rank(self):
        configs = haar_configs(2, 2, seed=8)
        base = tg.gramian_rank(tg.build_superoperator(configs, 1, 2)).rank
        doubled = tg.gramian_rank(
            tg.build_superoperator(configs + configs, 1, 2)
        ).rank
        assert doubled == base

    def test_identity_config_only_is_incomplete(self):
        identity = lo.InterferometerConfig(2, np.eye(2))
        assert not tg.is_complete([identity], 2, 2)

    def test_report_fields(self):
        superop = tg.build_superoperator(haar_configs(2, 2, seed=4), 1, 2)
        report = tg.gramian_rank(superop)
        assert report.sigma_max == report.singular_values[0]
        assert report.smallest_kept is not None
        assert "rank" in report.summary()


class TestRealCoordinates:
    @given(
        photons=st.integers(1, 3),
        modes=st.integers(2, 3),
        extra=st.integers(0, 2),
        count=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_coordinates_keep_norms_singular_values_and_round_trip(
        self, photons, modes, extra, count, seed
    ):
        meas_modes = min(modes + extra, 4)
        superop = tg.build_superoperator(
            haar_configs(meas_modes, count, seed), photons, modes
        )
        d = superop.basis_in.dimension
        complex_rows = oracles.complex_rows(superop)
        real = oracles.hermitian_coordinates(complex_rows)
        bases = tg._level_bases(photons, modes, meas_modes)
        rows = tg._level_rows(bases, superop.lift)  # straight from the lifts
        if bases.rotation is None:  # one group: the kernel's rows are these coordinates
            assert np.array_equal(rows[0], real)
        np.testing.assert_allclose(
            np.linalg.norm(real, axis=1), np.linalg.norm(complex_rows, axis=1),
            rtol=1e-13,
        )
        sigma = np.linalg.svd(complex_rows, compute_uv=False)
        cached = tg.gramian_rank(superop).singular_values
        assert np.abs(cached - sigma).max() <= 1e-12 * sigma[0]
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        h = g + g.conj().T
        one = tg._level_bases(photons, modes, modes + 1)  # one group: estimates invert them
        coords = oracles.hermitian_coordinates(h.reshape(1, -1))[0]
        np.testing.assert_allclose(tg._level_estimate(one, [coords]).T, h, atol=1e-14)
        y = rng.standard_normal(d * d)
        estimate = tg._level_estimate(one, [y]).T
        np.testing.assert_allclose(estimate, oracles.hermitian_matrix(y), atol=1e-14)

    def test_lift_is_read_only_and_factored_once_per_level(self, monkeypatch):
        factor = mock.Mock(wraps=tg.dgeqrf)
        monkeypatch.setattr(tg, "dgeqrf", factor)
        configs = haar_configs(2, 6, seed=29)
        superop = tg.build_superoperator(configs, 2, 2)
        with pytest.raises(ValueError):
            superop.lift[0, 0, 0] = 1.0
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 2), 3)
        assert tg.gramian_rank(superop).rank == 9
        levels = len(tg._level_bases(2, 2, 2).dims)
        assert levels == 3 and factor.call_count == levels  # all on first use
        assert tg.gramian_rank(superop).rank == 9
        for shots in (0, 1000, 100_000):
            tg.reconstruct(superop, tg.simulate_records(rho, configs, shots, seed=1))
        assert factor.call_count == levels  # none after


class TestRunsOfSettings:
    """A map's level rows are formed from its lifts one run of about ``RUN_BYTES`` at a time;
    its laws read the lifts whole and form no row."""

    @pytest.mark.parametrize("photons,modes,count", [(3, 4, 30), (4, 4, 55)])
    def test_only_the_level_row_kernel_forms_runs(self, monkeypatch, photons, modes, count):
        calls, runs = [], tg._runs

        def spy(lift):
            calls.append({frame.name for frame in traceback.extract_stack()})
            return runs(lift)

        monkeypatch.setattr(tg, "_runs", spy)
        configs = haar_configs(modes, count, seed=photons)
        superop = tg.build_superoperator(configs, photons, modes)
        d = fock_dimension(photons, modes)
        assert tg.gramian_rank(superop).rank == d * d
        rho = tg.random_density_matrix(superop.basis_in, photons)
        result = tg.reconstruct(superop, superop.laws(rho))
        assert tg.trace_distance(result.projected, rho) < 1e-8
        assert len(calls) == 1 and "_write_level_rows" in calls[0]  # the factor's, once
        run = max(1, tg.RUN_BYTES // (16 * d**3))  # (3,4): 4 settings; (4,4): one
        assert run == {3: 4, 4: 1}[photons]
        slices = runs(superop.lift)
        assert max(len(range(count)[cut]) for cut in slices) == run
        assert len(slices) == math.ceil(count / run)

    @pytest.mark.parametrize("photons,modes,meas_modes", [(3, 4, 4), (2, 3, 5)])
    def test_laws_read_the_lifts_and_form_no_complex_rows(self, photons, modes, meas_modes):
        # Two lift-sized temporaries, V^* and rho V: the complex rows are D times as large.
        search = tg.find_min_configs(photons, modes, meas_modes, seed=0)
        superop = tg.build_superoperator(search.configs, photons, modes)
        rho = tg.random_density_matrix(superop.basis_in, 0)
        tracemalloc.start()
        try:
            laws = superop.laws(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * superop.lift.nbytes < 16 * np.prod(superop.shape)
        result = tg.reconstruct(superop, laws)
        assert tg.trace_distance(result.projected, rho) < 1e-8

    @pytest.mark.parametrize(
        "photons,modes,meas_modes", [(3, 4, 4), (6, 2, 2), (2, 3, 5), (0, 3, 3), (0, 2, 4)]
    )
    def test_runs_of_any_length_give_the_same_bits(self, monkeypatch, photons, modes, meas_modes):
        configs = haar_configs(meas_modes, 13, seed=photons + meas_modes)
        superop = tg.build_superoperator(configs, photons, modes)
        bases = tg._level_bases(photons, modes, meas_modes)
        complex_rows = oracles.complex_rows(superop)
        real = oracles.hermitian_coordinates(complex_rows)
        # Read as one group, any map's rows are its real Hermitian coordinates, formed
        # from the lifts without the complex rows, and ``_level_estimate`` takes each back
        # to its matrix.
        one = tg._level_bases(photons, modes, modes + 1)  # one group, z_0 = this map's D'
        one = one._replace(sizes=(superop.basis_out.dimension,))
        whole = tg._level_rows(bases, superop.lift)
        assert np.array_equal(tg._level_rows(one, superop.lift)[0], real)
        for row, y in zip(complex_rows, real):
            assert np.abs(tg._level_estimate(one, [y]).T.reshape(-1) - row).max() <= 1e-15
        for run_bytes, runs in [(1, 13), (tg.RUN_BYTES, None), (2**62, 1)]:
            monkeypatch.setattr(tg, "RUN_BYTES", run_bytes)  # one setting a run, the rule, one run
            assert runs in (None, len(tg._runs(superop.lift)))
            rows = tg._level_rows(bases, superop.lift)
            assert len(rows) == len(whole) and all(map(np.array_equal, rows, whole))

    @pytest.mark.parametrize("run_bytes", [1, tg.RUN_BYTES, 2**62])
    def test_column_major_rows_are_the_row_major_bits_and_factored_in_place(
        self, monkeypatch, run_bytes
    ):
        # One setting a run, the rule, one run: either layout gets the same bits, and a
        # map's factor overwrites the column-major buffers its rows were written to.
        monkeypatch.setattr(tg, "RUN_BYTES", run_bytes)
        written, write = [], tg._write_level_rows
        monkeypatch.setattr(tg, "_write_level_rows", lambda *a: written.append(a[2]) or write(*a))
        for label, superop in parity_corpus():
            rows = tg._level_rows(superop._bases, superop.lift)
            columns = [np.empty(level.shape, order="F") for level in rows]
            write(superop._bases, superop.lift, columns)
            assert all(map(np.array_equal, rows, columns)), label
            written.clear()
            factors = superop._factor
            (buffers,) = written
            assert len(factors) == len(buffers) == len(rows), label
            for (reflectors, _), buffer in zip(factors, buffers):
                assert buffer.flags.f_contiguous and np.shares_memory(reflectors, buffer), label


def conditioned_triangle(n, cond, seed):
    """R of a QR of an n x n matrix with singular values log-spaced from 1 to 1 / cond."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (u * np.logspace(0, -np.log10(cond), n)) @ v.T
    return np.asfortranarray(np.linalg.qr(a, mode="r"))


class TestTriangleInverse:
    """``_invert_upper`` inverts a triangle by halves in place, ``dtrtri`` at the leaves and
    for triangles whose halves would not fit in RUN_BYTES (over 512 columns)."""

    # Either side of the 64-column leaf and of the 512-column limit.
    SIZES = [1, 63, 64, 65, 129, 300, 512, 513]

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("cond", [None, 1e6, 1e12])
    def test_equals_dtrtri_within_its_error_bound(self, n, cond):
        # |X - X'| <= n eps |X| |R| |X|, the componentwise form of both methods' bounds.
        rng = np.random.default_rng(n)
        if cond is None:
            r = np.asfortranarray(np.linalg.qr(rng.standard_normal((n + 5, n)), mode="r"))
        else:
            r = conditioned_triangle(n, cond, n)
        exact, info = scipy.linalg.lapack.dtrtri(r)
        x = r.copy(order="F")
        assert info == tg._invert_upper(x) == 0
        bound = n * np.finfo(float).eps * (np.abs(exact) @ np.abs(r) @ np.abs(exact))
        assert np.all(np.triu(np.abs(x - exact)) <= np.triu(bound))
        if n <= 64 or n > 512:  # dtrtri's whole
            assert np.array_equal(np.triu(x), np.triu(exact))

    @pytest.mark.parametrize("n", [40, 300, 513])
    def test_the_strictly_lower_part_is_neither_read_nor_written(self, n):
        r = conditioned_triangle(n, 1e3, 1)
        clean, marked = r.copy(order="F"), r.copy(order="F")
        lower = np.tri(n, k=-1, dtype=bool)
        marked[lower] = np.nan
        assert tg._invert_upper(clean) == tg._invert_upper(marked) == 0
        assert np.array_equal(np.triu(marked), np.triu(clean))
        assert np.isnan(marked[lower]).all()

    @pytest.mark.parametrize("n,pivots", [(40, [7]), (300, [250, 31]), (513, [512])])
    def test_a_zero_pivot_gives_dtrtris_info_and_leaves_r_as_it_was(self, n, pivots):
        r = conditioned_triangle(n, 1e3, 2)
        r[np.tri(n, k=-1, dtype=bool)] = np.nan
        r[pivots, pivots] = 0.0
        x = r.copy(order="F")
        info = tg._invert_upper(x)
        assert info == scipy.linalg.lapack.dtrtri(r)[1] == min(pivots) + 1
        assert np.array_equal(x, r, equal_nan=True)

    def test_block_copies_stay_within_run_bytes(self, monkeypatch):
        # At 512 columns two half-blocks of RUN_BYTES are held at once; at 513 the halves
        # would not fit, so dtrtri inverts the triangle whole, where it lies.
        calls = record_shapes(monkeypatch, "dtrtri")
        peaks = {}
        for n in (512, 513):
            r = conditioned_triangle(n, 10.0, 3)
            tracemalloc.start()
            try:
                assert tg._invert_upper(r) == 0
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[513] < tg.RUN_BYTES < peaks[512] < 2 * tg.RUN_BYTES + 4096
        assert max(calls[:-1]) <= (64, 64) and calls[-1] == (513, 513)


def parity_corpus():
    """(label, map) pairs: complete, incomplete, duplicated-setting and padded maps."""
    corpus = []
    cells = [(1, 2, 2), (2, 2, 2), (2, 3, 3), (3, 3, 3), (2, 3, 5), (1, 3, 4)]
    for photons, modes, meas_modes in cells:  # the last two padded, M' > M
        bound = min_configs_extended(photons, modes, meas_modes)
        configs = haar_configs(meas_modes, bound + 1, seed=photons + 10 * modes + meas_modes)
        short = configs[: max(bound - 1, 1)]
        for label, chosen in [
            ("complete", configs),
            ("short", short),
            ("duplicated", configs[:bound] + configs[:2]),
            ("duplicated short", short + configs[:2]),
        ]:
            superop = tg.build_superoperator(chosen, photons, modes)
            corpus.append((f"{label} {photons},{modes},{meas_modes}", superop))
    return corpus


def count_svds(monkeypatch):
    """Mocks counting the values-only SVDs of numpy and LAPACK that the module can take."""
    numpy_svd = mock.Mock(wraps=np.linalg.svd)
    lapack_svd = mock.Mock(wraps=tg._singular_values)
    monkeypatch.setattr(np.linalg, "svd", numpy_svd)
    monkeypatch.setattr(tg, "_singular_values", lapack_svd)
    return lambda: numpy_svd.call_count + lapack_svd.call_count


class TestCertifiedRank:
    @pytest.mark.parametrize("rel_threshold", [None, 1e-3, 1e-10])
    def test_certified_rank_equals_the_svd_rank_on_the_parity_corpus(self, rel_threshold):
        corpus, certified = parity_corpus(), set()
        for label, superop in corpus:
            real = oracles.hermitian_coordinates(oracles.complex_rows(superop))
            sigma = np.linalg.svd(real, compute_uv=False)
            scale = rel_threshold or max(superop.shape) * np.finfo(float).eps
            expected = int((sigma > scale * sigma[0]).sum())
            report = tg.gramian_rank(superop, rel_threshold)
            if "singular_values" not in vars(superop):  # no SVD taken: certified
                certified.add(label)
            assert report.rank == expected, label
            union = np.zeros(min(real.shape))  # the levels' sigma, then structural zeros
            levels = [np.triu(q[: q.shape[1]]) for q, _ in superop._factor]
            values = np.concatenate([np.linalg.svd(r, compute_uv=False) for r in levels])
            union[: len(values)] = np.sort(values)[::-1]
            np.testing.assert_array_equal(report.singular_values, union)
        full = {label for label, _ in corpus if "short" not in label}
        assert certified <= full and (rel_threshold == 1e-3 or certified == full)
        assert len(certified) >= 7  # tau_hi at sigma_max <= sqrt(R), not at ||R_l||_F

    def test_reconstruct_on_a_complete_map_takes_no_svd(self, monkeypatch):
        configs = haar_configs(4, min_configs(3, 4), seed=2)
        superop = tg.build_superoperator(configs, 3, 4)
        rho = tg.random_density_matrix(enumerate_fock_basis(3, 4), 1)
        records = tg.simulate_records(rho, configs)
        svds = count_svds(monkeypatch)
        result = tg.reconstruct(superop, records)
        assert result.rank == 400 and svds() == 0
        assert tg.is_complete(configs, 3, 4) and svds() == 0

    def test_reading_sigma_takes_one_svd_per_level_equal_to_the_eager_one(self, monkeypatch):
        configs = haar_configs(3, min_configs(2, 3) + 1, seed=4)
        superop = tg.build_superoperator(configs, 2, 3)
        real = oracles.hermitian_coordinates(oracles.complex_rows(superop))
        full = np.linalg.svd(real, compute_uv=False)
        svds = count_svds(monkeypatch)
        report, again = tg.gramian_rank(superop), tg.gramian_rank(superop, 1e-12)
        assert report.rank == again.rank == 36 and svds() == 0
        np.testing.assert_allclose(report.singular_values, full, rtol=0, atol=1e-12 * full[0])
        assert svds() == len(tg._level_bases(2, 3, 3).dims) == 3  # on first read only
        assert report.sigma_max == report.singular_values[0] and report.largest_dropped is None
        assert report.smallest_kept == report.singular_values[-1]
        assert again.threshold == 1e-12 * report.sigma_max and svds() == 3

    def test_a_report_whose_sigma_disagree_raises(self):
        report = tg.RankReport(3, lambda: np.array([2.0, 1.0, 1e-20]), 1e-12)
        assert report.rank == 3
        with pytest.raises(RuntimeError, match="rank 3 certified, 2 by SVD"):
            report.summary()

    def test_reconstruct_ranks_at_its_threshold(self):
        configs = haar_configs(3, 6, seed=3)  # rank 27 of 36
        g = np.random.default_rng(0).standard_normal((3, 3, 2)) @ [1, 1j]
        near = lo.InterferometerConfig(3, configs[0].matrix @ expm(3e-15j * (g + g.conj().T)))
        superop = tg.build_superoperator(configs + [near], 2, 3)
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 3), 1)
        records = tg.simulate_records(rho, configs + [near])
        # the near-duplicate adds three sigma between a tighter tolerance and the default
        report, tight = tg.gramian_rank(superop), tg.gramian_rank(superop, 5e-16)
        assert (report.rank, tight.rank) == (27, 30)
        assert tight.threshold < tight.smallest_kept and report.largest_dropped < report.threshold
        with pytest.raises(tg.IncompleteConfigurationsError, match="rank 27 < 36"):
            tg.reconstruct(superop, records)
        with pytest.raises(tg.IncompleteConfigurationsError, match="rank 30 < 36"):
            tg.reconstruct(superop, records, rel_threshold=5e-16)
        for bad in (-1.0, 1.0, 2.0, np.nan, np.inf):
            with pytest.raises(ValueError, match=r"rel_threshold must lie in \(0, 1\)"):
                tg.reconstruct(superop, records, rel_threshold=bad)


class TestCompletenessThresholds:
    @pytest.mark.parametrize("photons,modes", [(1, 2), (2, 2), (2, 3)])
    def test_threshold_at_the_counting_bound(self, photons, modes):
        bound = min_configs(photons, modes)
        configs = haar_configs(modes, bound, seed=31 * photons + modes)
        assert tg.is_complete(configs, photons, modes)
        assert not tg.is_complete(configs[: bound - 1], photons, modes)


class TestReconstruct:
    def test_exact_round_trip(self):
        basis = enumerate_fock_basis(2, 2)
        configs = haar_configs(2, 5, seed=77)
        superop = tg.build_superoperator(configs, 2, 2)
        for seed in range(5):
            rho = tg.random_density_matrix(basis, 100 + seed)
            records = tg.simulate_records(rho, configs)
            result = tg.reconstruct(superop, records)
            assert tg.trace_distance(result.projected, rho) < 1e-8
            assert tg.trace_distance(result.raw, rho.matrix) < 1e-8
            assert result.residual < 1e-10

    def test_projector_recovery_is_nearly_exact(self):
        basis = enumerate_fock_basis(2, 2)
        configs = haar_configs(2, 5, seed=13)
        superop = tg.build_superoperator(configs, 2, 2)
        rho = tg.fock_projector(basis, (1, 1))
        result = tg.reconstruct(superop, tg.simulate_records(rho, configs))
        assert tg.trace_distance(result.projected, rho) < 1e-10

    def test_matches_normal_equation_solution(self):
        basis = enumerate_fock_basis(2, 2)
        configs = haar_configs(2, 6, seed=19)
        superop = tg.build_superoperator(configs, 2, 2)
        rho = tg.random_density_matrix(basis, 55)
        p = superop.apply(rho)
        result = tg.reconstruct(superop, p)
        explicit = oracles.normal_equation_solve(oracles.complex_rows(superop), p.astype(complex))
        assert np.abs(result.raw.reshape(-1) - explicit).max() < 1e-8

    def test_raw_equals_the_normal_equation_solution(self):
        # Exact records, and the two-photon sector of a lossy two/three-photon
        # mixture's sampled counts after inverting the detectors, which
        # carries slightly negative entries.
        configs = haar_configs(3, 4, seed=61)
        superop = tg.build_superoperator(configs, 2, 2)
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 2), 8, rank=1)
        exact = superop.apply(rho)
        source = imp.PhotonNumberMixture(
            ((0.3, rho), (0.7, tg.random_density_matrix(enumerate_fock_basis(3, 2), 9)))
        )
        basis = imp.truncated_basis(3, 3)
        model = imp.DetectorModel.uniform(0.8, 3)
        detected = imp.detector_response(
            imp.mixture_joint_probabilities(source, configs)[1], basis, model
        )
        sampled = tg.sweep_frequencies(detected, [1000], seed=0)[0]
        inverted = imp.postselect_total(
            imp.invert_detector_response(sampled, basis, model), basis, 2
        )[0].reshape(-1)
        assert -0.05 < inverted.min() < 0.0
        rows = oracles.complex_rows(superop)
        for p in (exact, inverted):
            explicit = oracles.normal_equation_solve(rows, p.astype(complex))
            raw = tg.reconstruct(superop, p).raw
            assert np.abs(raw.reshape(-1) - explicit).max() < 1e-10

    def test_sampled_error_shrinks_with_shots(self):
        basis = enumerate_fock_basis(2, 2)
        configs = haar_configs(2, 5, seed=23)
        superop = tg.build_superoperator(configs, 2, 2)
        rho = tg.random_density_matrix(basis, 7)
        errors = []
        for shots in (10_000, 1_000_000):
            per_seed = []
            for seed in range(5):
                records = tg.simulate_records(rho, configs, shots=shots, seed=seed)
                result = tg.reconstruct(superop, records)
                per_seed.append(tg.trace_distance(result.projected, rho))
            errors.append(np.mean(per_seed))
        assert errors[1] < errors[0] / 3.0

    def test_incomplete_superoperator_reports_deficit(self):
        configs = haar_configs(2, 3, seed=3)
        superop = tg.build_superoperator(configs, 2, 2)
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 2), 1)
        with pytest.raises(tg.IncompleteConfigurationsError) as err:
            tg.reconstruct(superop, superop.apply(rho))
        assert err.value.required == 9
        assert err.value.deficit >= 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nan_record_is_named_before_the_solve(self, bad):
        configs = haar_configs(2, 5, seed=41)
        superop = tg.build_superoperator(configs, 2, 2)
        laws = superop.laws(tg.random_density_matrix(enumerate_fock_basis(2, 2), 2))
        laws[3, 1], laws[4, 0] = bad, bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no solve runs to warn
            with pytest.raises(ValueError, match="^frequencies of setting 3 are not finite$"):
                tg.reconstruct(superop, laws)


class TestProjectToState:
    def test_projection_is_the_nearest_state(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            d = int(rng.integers(2, 6))
            # Unit-trace spectrum with at least one negative eigenvalue.
            values = rng.standard_normal(d)
            values[-1] = -abs(values[-1]) - 0.05
            values[:-1] -= (values.sum() - 1.0) / (d - 1)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            q, _ = np.linalg.qr(g)
            a = (q * values) @ q.conj().T
            a = (a + a.conj().T) / 2.0
            projected = tg.project_to_state(enumerate_fock_basis(d - 1, 2), a)
            assert oracles.is_nearest_state(a, projected.matrix)


class TestSearches:
    def test_min_configs_two_photons_two_modes(self):
        search = tg.find_min_configs(2, 2, seed=11)
        assert search.found == 5
        ranks = [rank for _, rank in search.rank_trace]
        assert ranks == sorted(ranks)
        d_out = fock_dimension(2, 2)
        steps = np.diff([0] + ranks)
        assert (steps <= d_out).all()

    def test_min_configs_matches_bound_on_more_modes(self):
        assert tg.find_min_configs(2, 3, seed=5).found == 9
        assert tg.find_min_configs(2, 2, 4, seed=5).found == 1

    def test_min_configs_saturates_bound_on_larger_cells(self):
        assert tg.find_min_configs(3, 3, seed=17).found == min_configs(3, 3) == 16
        assert tg.find_min_configs(4, 2, seed=17).found == min_configs(4, 2) == 9

    @pytest.mark.parametrize("generator", ["haar", "mesh"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_six_photon_ranks_respect_the_ceiling(self, generator, seed):
        # R settings with D' outcomes each span at most 1 + R (D' - 1)
        # directions, since every block's rows sum to the trace functional.
        search = tg.find_min_configs(6, 2, generator=generator, seed=seed)
        d_out = fock_dimension(6, 2)
        for count, rank in search.rank_trace:
            assert rank <= min(1 + count * (d_out - 1), d_out**2)
        assert search.found == min_configs(6, 2) == 13

    @pytest.mark.parametrize(
        "photons,modes,generator,seed",
        [(3, 2, "haar", 1), (4, 3, "haar", 3), (5, 2, "mesh", 1)]
        + [(6, 2, g, s) for g in ("haar", "mesh") for s in (0, 1, 2)],
    )
    def test_rank_trace_equals_the_complex_svd_trace(
        self, photons, modes, generator, seed
    ):
        search = tg.find_min_configs(photons, modes, generator=generator, seed=seed)
        assert search.rank_trace == oracles.complex_rank_trace(
            search.configs, photons, modes
        )

    @pytest.mark.parametrize(
        "photons,modes,meas_modes,generator,seed,r_max,rel_threshold",
        [(3, 4, 4, "haar", 0, None, None), (3, 4, 4, "haar", 1, None, None)]
        + [(4, 3, 7, g, s, 3, None) for g in ("haar", "mesh") for s in (0, 1)]
        + [(2, 4, 14, g, s, 3, None) for g in ("haar", "mesh") for s in (0, 1)]
        + [(3, 4, 4, "haar", 0, None, rel) for rel in (1e-10, 1e-3)]
        + [(4, 3, 7, "haar", 0, 3, rel) for rel in (1e-10, 1e-3)]
        + [(2, 4, 14, "mesh", 1, 3, rel) for rel in (1e-10, 1e-3)],
    )
    def test_certified_scan_trace_equals_the_complex_svd_trace(
        self, photons, modes, meas_modes, generator, seed, r_max, rel_threshold
    ):
        search = tg.find_min_configs(
            photons, modes, meas_modes, generator, seed, r_max, rel_threshold
        )
        assert search.rank_trace == oracles.complex_rank_trace(
            search.configs, photons, modes, rel_threshold
        )

    @pytest.mark.parametrize(
        "rel_threshold,certified", [(None, True), (1e-10, True), (1e-3, False)]
    )
    def test_svds_taken_by_a_scan(self, monkeypatch, rel_threshold, certified):
        # A certified scan takes one SVD, to confirm full rank; at 1e-3 the
        # keep margin leaves directions unsettled and the SVD takes over.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(3, 4, seed=0, rel_threshold=rel_threshold)
        assert search.found is not None
        assert (rank.call_count == 1) is certified

    @pytest.mark.parametrize(
        "photons,modes,meas_modes",
        [(2, 3, 3), (4, 3, 3), (6, 2, 2), (2, 5, 5), (3, 4, 4), (2, 3, 5), (4, 3, 7)],
    )
    @pytest.mark.parametrize("generator", ["haar", "mesh"])
    @pytest.mark.parametrize("seed", [6, 34])
    @pytest.mark.parametrize("rel_threshold", [None, 1e-10, 1e-3])
    def test_level_split_scan_trace_equals_the_complex_svd_trace(
        self, photons, modes, meas_modes, generator, seed, rel_threshold
    ):
        # M' = M cells scan level by level; the padded ones keep one group.
        r_max = 3 if (photons, meas_modes) == (4, 7) else None
        search = tg.find_min_configs(
            photons, modes, meas_modes, generator, seed, r_max, rel_threshold
        )
        assert search.rank_trace == oracles.complex_rank_trace(
            search.configs, photons, modes, rel_threshold
        )

    @pytest.mark.parametrize("seed", [6, 34])
    def test_level_split_certifies_every_step(self, monkeypatch, seed):
        # A single basis over all levels drifted on these seeds and fell back
        # to one SVD per step; level by level, only full rank takes an SVD.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        assert tg.find_min_configs(3, 4, seed=seed).found == min_configs(3, 4)
        assert rank.call_count == 1

    @pytest.mark.parametrize(
        "photons,modes,meas_modes", [(2, 3, 5), (3, 3, 5), (2, 4, 6), (3, 4, 6)]
    )
    def test_padded_scan_certifies_every_step(self, monkeypatch, photons, modes, meas_modes):
        # Padded stacks are where the trace-direction bound on sigma_max falls
        # below sigma_max; it still certifies every step before full rank.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        assert tg.find_min_configs(photons, modes, meas_modes, seed=0).found is not None
        assert rank.call_count == 1

    def test_small_cell_scan_certifies_every_step(self, monkeypatch):
        # With D <= 4 the level split certifies every step: the rotated stack
        # is the one ranked, so T's rounding enters no certificate.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        assert tg.find_min_configs(2, 2, seed=0).found == min_configs(2, 2)
        assert rank.call_count == 1

    @pytest.mark.parametrize(
        "photons,generator,seed",
        [(1, "haar", 0), (1, "haar", 4), (1, "mesh", 3), (1, "mesh", 4), (1, "mesh", 5)]
        + [(3, "haar", 1), (3, "mesh", 1)],
    )
    def test_tiny_cells_take_one_svd(self, monkeypatch, photons, generator, seed):
        # These scans failed a certificate with T's rounding allowance and the
        # one-group override; ranked as the level direct sum, none does.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(photons, 2, generator=generator, seed=seed)
        assert search.found == min_configs(photons, 2)
        assert rank.call_count == 1
        assert search.rank_trace == oracles.complex_rank_trace(search.configs, photons, 2)

    def test_an_uncertified_step_does_not_end_certification(self, monkeypatch):
        # At 1e-3 the keep margin leaves step 5 unsettled; the scan takes the
        # levels' SVD there and certifies again at steps 6 to 12.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(2, 4, seed=3, rel_threshold=1e-3)
        settled = [call.args[0].shape[0] // 10 for call in rank.call_args_list]
        assert len(search.rank_trace) == 15 and settled == [5, 13, 14, 15]
        assert search.rank_trace == oracles.complex_rank_trace(search.configs, 2, 4, 1e-3)

    def test_a_loose_scan_reads_few_level_sigma(self, monkeypatch):
        # At 1e-3 the keep bar KEEP_MARGIN tau_hi, at sigma_max <= sqrt(R), lets most steps
        # stand on their factors; a bar at ||A||_F = sqrt(R D), sqrt(D) higher, reads the
        # levels' sigma 113 times in 28 calls.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        reads, sigma = [], tg._LevelFactor.sigma
        monkeypatch.setattr(tg._LevelFactor, "sigma", lambda *a: reads.append(a) or sigma(*a))
        search = tg.find_min_configs(3, 4, seed=0, rel_threshold=1e-3)
        assert len(reads) <= 79 and rank.call_count <= 19
        assert search.rank_trace == oracles.complex_rank_trace(search.configs, 3, 4, 1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 3])
    def test_padded_drops_inside_a_block_are_certified(self, monkeypatch, seed):
        # Step 1 keeps 196 of 210 directions with sigma_min about 1e-7: the Gram
        # matrix's rounding (about 1.6e-13 on sigma^2) failed it, the factor does not.
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(4, 3, 7, "mesh", seed, r_max=3)
        assert search.rank_trace == [(1, 196), (2, 225)]
        assert rank.call_count == 1

    @pytest.mark.parametrize(
        "photons,modes,meas_modes,seed,rel_threshold",
        [(3, 4, 4, s, None) for s in range(5)] + [(4, 3, 3, 0, None), (2, 3, 5, 0, None)]
        + [(2, 4, 4, 1, 1e-3), (3, 4, 4, 0, 1e-3), (3, 4, 4, 1, 1e-3)],
    )
    def test_certificate_bounds_each_level_from_below(
        self, monkeypatch, photons, modes, meas_modes, seed, rel_threshold
    ):
        # At every certified step, each level's 1 / ||L||_F less the dropped mass is at
        # most its rows' k-th sigma.  At 1e-3 some bounds miss the bar, and those levels
        # are certified from their rows' own sigma_k (``_LevelFactor.sigma``).
        search = tg.find_min_configs(photons, modes, meas_modes, "haar", seed, None, rel_threshold)
        reads, sigma = [], tg._LevelFactor.sigma
        monkeypatch.setattr(tg._LevelFactor, "sigma", lambda *a: reads.append(a) or sigma(*a))
        bases = tg._level_bases(photons, modes, meas_modes)
        scan = tg._RankScan(bases, rel_threshold)
        lifted = tg._restricted_lift(search.configs, photons, modes)
        certified = scan.extend(lifted)
        expected = oracles.complex_rank_trace(search.configs, photons, modes, rel_threshold)
        assert bool(reads) == (rel_threshold is not None)
        if rel_threshold is None:
            assert sum(rank is not None for rank in certified) >= len(certified) - 1
        for step, rank in enumerate(certified):
            if rank is None:
                continue
            assert (step + 1, rank) == expected[step]
            for level, z in zip(scan.levels, bases.sizes):
                k, bound, _ = level.records[step]
                if not k:
                    continue
                rows = np.empty(((step + 1) * z, level.dim))
                level.form(0, step + 1, rows)  # the rows re-formed from the scan's lifts
                sigma_k = np.linalg.svd(rows, compute_uv=False)[k - 1]
                assert bound - scan.dropped_sq**0.5 <= sigma_k * (1 + 1e-12)

    @pytest.mark.parametrize(
        "photons,modes,seed", [(3, 4, 0), (3, 4, 1), (3, 4, 2), (4, 3, 0), (2, 5, 0), (6, 2, 0)]
    )
    def test_a_certified_scan_takes_no_svd_of_a_whole_level(
        self, monkeypatch, photons, modes, seed
    ):
        # Every step certified, full rank too: the one gramian_rank call lets it stand,
        # and no level's rows take a values-only SVD.  The settings arrive in one batch,
        # each level takes them in runs from k = 0, and a level once complete records its
        # later blocks without rotating them: no dormqr at all.
        stacks, whole, original = record_shapes(monkeypatch, "_singular_values"), [], np.linalg.svd
        rotations = record_shapes(monkeypatch, "dormqr")

        def svd(a, *args, **kwargs):
            whole.extend([np.shape(a)] if np.ndim(a) == 2 else [])
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd)
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(photons, modes, seed=seed)
        assert search.found == min_configs(photons, modes) == len(search.configs)
        assert rank.call_count == 1 and stacks == [] and whole == []
        assert rotations == []

    def test_a_singular_square_level_is_settled_by_its_factor(self, monkeypatch):
        # A repeated setting leaves the square level singular at the bound: its factor
        # finds the short rank, and only the steps it leaves unsettled take an SVD.
        scans, draw = [], tg.config_drawer("haar", 0)
        drawn = [draw(3, 1)[0] for _ in range(12)]
        drawn[8] = drawn[0]

        class Recorded(tg._RankScan):
            def __init__(self, *args):
                super().__init__(*args)
                scans.append(self)

        monkeypatch.setattr(tg, "_RankScan", Recorded)
        monkeypatch.setattr(
            tg, "config_drawer",
            lambda *args: lambda modes, count: [drawn.pop(0) for _ in range(count)],
        )
        svds = record_shapes(monkeypatch, "_singular_values")
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(2, 3, r_max=12)
        (scan,) = scans
        square = scan.levels[-1]
        assert square.dim == 27 and square.records[8][0] < 27
        assert search.found == 10
        assert search.rank_trace == oracles.complex_rank_trace(search.configs, 2, 3)
        assert sum(s[0] == 27 for s in svds) <= rank.call_count

    @pytest.mark.parametrize("photons,modes", [(1, 2), (2, 2), (1, 3)])
    def test_a_frozen_level_stays_certified_as_the_threshold_grows(self, photons, modes):
        # The threshold grows with the stack, 80 settings fed one at a time; a level's
        # floor is its certificate's own bound, not the keep margin at its freeze.
        bases = tg._level_bases(photons, modes, modes)
        scan = tg._RankScan(bases, None)
        certified = []
        for config in haar_configs(modes, 80, seed=0):
            certified += scan.extend(tg.build_superoperator([config], photons, modes).lift)
        assert None not in certified and certified[-1] == fock_dimension(photons, modes) ** 2
        assert all(floor > 0 for floor in scan.floors)

    def test_a_stale_floor_leaves_the_step_to_the_levels_svd(self, monkeypatch):
        # Real beamsplitters keep one photon's level 1 in a plane, so the map stays one
        # direction short and the scan runs on.  Level 0 froze at step 1 with floor 1, and
        # at rel_threshold 0.0297 tau_hi = 0.0297 sqrt(R) passes it at R = 1134: from there
        # every step goes to the levels' SVD, although level 1 still clears its bar.
        golden, scans, steps, rel = (math.sqrt(5.0) - 1.0) / 2.0, [], 1140, 0.0297
        angles = [math.pi * (j * golden % 1.0) for j in range(steps)]
        drawn = [lo.InterferometerConfig(2, analytic_m2.beamsplitter(a)) for a in angles]

        class Recorded(tg._RankScan):
            def __init__(self, *args):
                super().__init__(*args)
                scans.append(self)

        monkeypatch.setattr(tg, "_RankScan", Recorded)
        monkeypatch.setattr(
            tg, "config_drawer",
            lambda *args: lambda modes, count: [drawn.pop(0) for _ in range(count)],
        )
        rank = mock.Mock(wraps=tg.gramian_rank)
        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(1, 2, r_max=steps, rel_threshold=rel)
        assert search.found is None and search.rank_trace[-1] == (steps, 3)
        assert search.rank_trace == oracles.complex_rank_trace(search.configs, 1, 2, rel)
        (scan,) = scans
        settled = [call.args[0].shape[0] // 2 for call in rank.call_args_list]
        assert [step for step in settled if step > 10] == list(range(1134, steps + 1))
        tau_hi, cushion, _ = tg._projector_bounds(steps, 2, 2, rel)
        assert 0.0 < scan.floors[0] <= tau_hi + cushion and scan.floors[1] == 0.0
        bar = tg.KEEP_MARGIN * tau_hi + scan.dropped_sq**0.5 + cushion
        assert scan.levels[1].sigma(steps)[1] > bar

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 20, 24, 30])
    def test_level_sigma_is_the_svd_of_exactly_the_first_rows(self, count, monkeypatch):
        # Settings of 4 rows.  A read past the formed rows forms every setting taken so
        # far: reads with 2, 3 and 6 settings taken form blocks of 8, 4 and 12 rows.
        # Counts inside a block and on its boundaries; only the blocks that hold the first
        # count rows are stacked, and only a count past them forms more (30 rows: two
        # more settings, the 8th past the 7 taken).
        source, formed = np.random.default_rng(count).standard_normal((32, 6)), []

        def form(start, stop, out):
            formed.append((start, stop))
            out[:] = source[4 * start : 4 * stop]

        level = tg._LevelFactor(6, 4, form)
        for taken, first in [(2, 1), (3, 9), (6, 13)]:
            level.records = [()] * taken
            level.sigma(first)
        assert formed == [(0, 2), (2, 3), (3, 6)]
        level.records = [()] * 7
        stacked, vstack = [], np.vstack

        def counted(arrays):
            stacked.append(len(arrays))
            return vstack(arrays)

        monkeypatch.setattr(np, "vstack", counted)
        expected = scipy.linalg.svd(source[:count].T, compute_uv=False)
        np.testing.assert_array_equal(level.sigma(count), expected)
        assert stacked == [1 + (count > 8) + (count > 12) + (count > 24)]
        assert formed[3:] == ([(6, 8)] if count > 24 else [])

    @pytest.mark.parametrize("spare", [0, 1])  # the run completes the level, or leaves a block
    @pytest.mark.parametrize("case", ["far above", "within twice", "below", "singular"])
    def test_a_block_takes_an_svd_only_when_its_bound_is_in_doubt(self, monkeypatch, case, spare):
        # Four blocks of three mutually orthogonal rows, sigma 1 but for block 2's smallest:
        # 60 bars, 1.5 bars, half a bar or exactly 0.  1 / ||(R^-1)_jj||_F clears twice the
        # bar in every block of the first case, so only the other three take an SVD, and
        # every case keeps what each block's own SVD keeps.
        z, blocks, tau_hi = 3, 4, 1e-3
        bar = tg.KEEP_MARGIN * tau_hi
        smallest = {"far above": 60, "within twice": 1.5, "below": 0.5, "singular": 0}[case]
        dim = (blocks + spare) * z
        basis = np.linalg.qr(np.random.default_rng(3).standard_normal((dim, dim)))[0]
        scales = np.ones(blocks * z)
        scales[3 * z - 1] = smallest * bar
        rows = scales[:, None] * basis[: blocks * z]
        runs, records = oracles.orthogonal_block_scan(rows, z, [bar] * blocks)
        svds, taken = record_shapes(monkeypatch, "svd", np.linalg), []
        run = tg._LevelFactor._run
        monkeypatch.setattr(tg._LevelFactor, "_run", lambda *a: taken.append(run(*a)) or taken[-1])

        def form(start, stop, out):
            out[:] = rows[z * start : z * stop]

        level = tg._LevelFactor(dim, z, form)
        level.free(blocks)[:] = rows  # as a scan writes a batch's first blocks
        level.take(0, np.full(blocks, tau_hi))
        assert taken == runs == ([4] if smallest > 1 else [2, 1])
        assert level.rank == records[-1][0] == 12 - (smallest < 1)
        np.testing.assert_allclose(np.array(level.records), records, rtol=1e-12, atol=1e-30)
        screened = [shape for shape in svds if len(shape) == 3]  # the screen's, batched
        assert bool(screened) == (case != "far above")
        assert len(svds) - len(screened) == (smallest < 1)  # the cut block's residual

    @pytest.mark.parametrize("photons,modes,meas_modes,count", [(3, 4, 4, 10), (2, 3, 5, 2)])
    def test_level_stack_of_the_rows_equals_the_full_svd(
        self, photons, modes, meas_modes, count
    ):
        bases = tg._level_bases(photons, modes, meas_modes)
        d = fock_dimension(photons, modes)
        configs = haar_configs(meas_modes, count, seed=photons + meas_modes)
        maps = [tg.build_superoperator([c], photons, modes) for c in configs]
        blocks = [oracles.hermitian_coordinates(oracles.complex_rows(superop)) for superop in maps]
        scan = tg._RankScan(bases, None)
        for superop in maps:
            scan.extend(superop.lift)
        stack = tg._LevelStack(scan, count)
        full = tg.gramian_rank(np.vstack(blocks))
        report = tg.gramian_rank(stack)
        assert stack.shape == np.vstack(blocks).shape and full.rank < d * d
        np.testing.assert_allclose(
            report.singular_values, full.singular_values, rtol=0, atol=1e-12 * full.sigma_max
        )
        assert report.rank == full.rank

    @pytest.mark.parametrize("photons,modes,meas_modes", [(3, 4, 4), (2, 3, 5)])
    def test_the_scan_keeps_no_d2_wide_array(self, monkeypatch, photons, modes, meas_modes):
        # Each level's reflectors are d_l x d_l, released once it is complete, and its
        # rows, re-formed from the kept lifts (R, D, D'), d_l wide (with one group,
        # d_0 = D^2): nothing is D^2 wide per level, and a certified scan keeps no rows.
        scans = []

        class Recorded(tg._RankScan):
            def __init__(self, *args):
                super().__init__(*args)
                scans.append(self)

        monkeypatch.setattr(tg, "_RankScan", Recorded)
        search = tg.find_min_configs(photons, modes, meas_modes, seed=0)
        (scan,) = scans
        bases = tg._level_bases(photons, modes, meas_modes)
        lift = tg._restricted_lift(search.configs, photons, modes)
        assert search.found is not None and len(scan.levels) == len(bases.dims)
        assert sum(map(len, scan.lifts)) == scan.steps == len(search.configs)
        assert all(kept.shape[1:] == lift.shape[1:] for kept in scan.lifts)
        levels = zip(scan.levels, bases.sizes, bases.dims, tg._level_rows(bases, lift))
        for level, z, dim, whole in levels:
            if level.rank == dim:
                assert level.reflectors is None and level.tau is None
            else:
                assert level.reflectors.shape == (dim, dim)
            rows = np.empty((scan.steps * z, dim))
            level.form(0, scan.steps, rows)
            assert np.array_equal(rows, whole) and level.formed == []

    def test_a_certified_scan_writes_its_rows_once_into_its_factor_buffers(self, monkeypatch):
        # (3,4): each level fills up with the blocks that fit in its free columns, 1, 5, 14
        # and all 30 of the batch's, so one kernel pass writes every row the scan takes
        # straight into the reflector buffers, and the blocks past them are never formed.
        scans, shared, write = [], [], tg._write_level_rows

        class Recorded(tg._RankScan):
            def __init__(self, *args):
                super().__init__(*args)
                scans.append(self)

        def spy(bases, lifted, levels):
            factors = [level.reflectors for level in scans[0].levels]
            shared.append([np.shares_memory(rows, f) for rows, f in zip(levels, factors)])
            return write(bases, lifted, levels)

        monkeypatch.setattr(tg, "_RankScan", Recorded)
        monkeypatch.setattr(tg, "_write_level_rows", spy)
        search = tg.find_min_configs(3, 4, seed=0)
        assert search.found == 30 and shared == [[True] * 4]
        assert [level.records[-1][0] for level in scans[0].levels] == [1, 15, 84, 300]

    @pytest.mark.parametrize("rel_threshold", [None, 1e-3])  # at 1e-3 the levels' sigma are read
    def test_a_scan_is_freed_when_its_search_returns(self, monkeypatch, rel_threshold):
        # No reference cycle keeps a scan, its lifts or its factors until a collector pass,
        # so a process running scan after scan holds one at a time.
        scans = []

        class Recorded(tg._RankScan):
            def __init__(self, *args):
                super().__init__(*args)
                scans.append(weakref.ref(self))

        monkeypatch.setattr(tg, "_RankScan", Recorded)
        gc.disable()
        try:
            tg.find_min_configs(3, 4, seed=0, rel_threshold=rel_threshold)
            assert len(scans) == 1 and scans[0]() is None
        finally:
            gc.enable()

    @staticmethod
    def confirming_report(monkeypatch, *args, **kwargs):
        """A scan, its one ``gramian_rank`` argument and the report it gave."""
        calls, original = [], tg.gramian_rank

        def rank(superop, rel_threshold=None):
            calls.append((superop, original(superop, rel_threshold)))
            return calls[-1][1]

        monkeypatch.setattr(tg, "gramian_rank", rank)
        search = tg.find_min_configs(*args, **kwargs)
        assert len(calls) == 1
        return search, *calls[0]

    @pytest.mark.parametrize(
        "photons,modes,meas_modes", [(3, 4, 4), (4, 4, 4), (2, 6, 6), (6, 2, 2), (2, 3, 5)]
    )
    def test_level_confirmation_equals_the_full_svd(
        self, monkeypatch, photons, modes, meas_modes
    ):
        search, stack, report = self.confirming_report(monkeypatch, photons, modes, meas_modes)
        assert search.found == min_configs_extended(photons, modes, meas_modes)
        d = fock_dimension(photons, modes)
        superop = tg.build_superoperator(search.configs, photons, modes)
        blocks = oracles.hermitian_coordinates(oracles.complex_rows(superop))
        assert getattr(stack, "matrix", stack).shape == blocks.shape  # 2-D, as the tracer reads it
        full = tg.gramian_rank(blocks)
        assert report.rank == d * d and "singular_values" not in vars(stack)  # not yet read
        sigma = report.singular_values
        assert sigma.shape == (d * d,)
        np.testing.assert_allclose(sigma, full.singular_values, rtol=0, atol=1e-12 * full.sigma_max)
        assert abs(report.threshold - full.threshold) <= 1e-12 * full.threshold

    def test_a_certified_full_rank_is_checked_when_its_sigma_are_read(self, monkeypatch):
        # The certificate stands unread; reading the report's sigma still checks it, so
        # a stack whose SVD lost one sigma makes the read raise.
        stack_sigma = tg._LevelStack.singular_values.func
        short = property(lambda stack: stack_sigma(stack)[:-1])
        monkeypatch.setattr(tg._LevelStack, "singular_values", short)
        search, _, report = self.confirming_report(monkeypatch, 3, 4, 4)
        assert search.found == min_configs(3, 4) and report.rank == 400
        with pytest.raises(RuntimeError, match="rank 400 certified, 399 by SVD"):
            report.singular_values

    @pytest.mark.parametrize("r_max", [None, 7])
    def test_one_lift_covers_the_settings_up_to_the_bound(self, monkeypatch, r_max):
        lift = mock.Mock(wraps=tg.lift_unitary)
        monkeypatch.setattr(tg, "lift_unitary", lift)
        search = tg.find_min_configs(3, 4, seed=0, r_max=r_max)
        assert lift.call_count == 1
        drawn = min(min_configs(3, 4), r_max or min_configs(3, 4))
        assert lift.call_args_list[0].args[0].shape == (drawn, 4, 4)
        assert len(search.configs) == len(search.rank_trace) == drawn
        draw = tg.config_drawer("haar", 0)
        for config in search.configs:
            np.testing.assert_array_equal(config.matrix, draw(4, 1)[0].matrix)

    def test_settings_past_the_bound_are_lifted_one_at_a_time(self, monkeypatch):
        lift = mock.Mock(wraps=tg.lift_unitary)
        monkeypatch.setattr(tg, "lift_unitary", lift)
        search = tg.find_min_configs(2, 2, seed=1, rel_threshold=1e-3)
        extra = search.found - min_configs(2, 2)
        assert extra > 0 and lift.call_count == 1 + extra
        assert all(call.args[0].shape == (1, 2, 2) for call in lift.call_args_list[1:])
        assert search.rank_trace == oracles.complex_rank_trace(search.configs, 2, 2, 1e-3)

    @pytest.mark.parametrize("rel_threshold", [1.0, 1.5])
    def test_a_tolerance_of_one_or_more_is_rejected(self, rel_threshold):
        # no sigma exceeds sigma_max, so such a rank would be 0 whatever the settings
        configs, match = haar_configs(3, 9, seed=0), r"rel_threshold must lie in \(0, 1\)"
        for search in (tg.find_min_configs, tg.find_min_modes):
            with pytest.raises(ValueError, match=match):
                search(2, 3, rel_threshold=rel_threshold)
        with pytest.raises(ValueError, match=match):
            tg.is_complete(configs, 2, 3, rel_threshold)
        with pytest.raises(ValueError, match=match):
            tg.gramian_rank(np.eye(3), rel_threshold)

    def test_min_configs_mesh_generator(self):
        assert tg.find_min_configs(2, 2, generator="mesh", seed=6).found == 5

    def test_r_max_exhaustion_reports_best_rank(self):
        search = tg.find_min_configs(2, 2, seed=1, r_max=2)
        assert search.found is None
        assert 0 < search.best_rank < search.required_rank

    def test_min_modes_search(self):
        for seed in (0, 1):
            search = tg.find_min_modes(2, 2, seed=seed)
            assert search.found == 4
            assert search.found >= search.lower_bound
        assert tg.find_min_modes(1, 2, seed=3).found == 4

    def test_min_modes_cap_exhaustion_is_reported(self):
        search = tg.find_min_modes(2, 2, seed=0, meas_modes_max=3)
        assert search.found is None
        assert [m for m, _, _ in search.rank_by_meas_modes] == [2, 3]
        assert all(rank < req for _, rank, req in search.rank_by_meas_modes)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError):
            tg.find_min_configs(2, 2, generator="bogus")

    def test_callable_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            tg.find_min_configs(2, 2, generator=lo.haar_random_unitary)


class TestLevelSplit:
    @staticmethod
    def rotated_levels(photons, modes, generator):
        """Each level's rows over R_{N,M} rotated settings, and the whole stack."""
        rotation, sizes, _ = tg._level_bases(photons, modes, modes)[:3]
        draw, d = tg.config_drawer(generator, 5), fock_dimension(photons, modes)
        configs = [draw(modes, 1)[0] for _ in range(min_configs(photons, modes))]
        superop = tg.build_superoperator(configs, photons, modes)
        real = oracles.hermitian_coordinates(oracles.complex_rows(superop))
        rows = rotation @ real.reshape(len(configs), d, d * d)
        levels = np.split(rows, np.cumsum(sizes)[:-1], axis=1)
        return [level.reshape(-1, d * d) for level in levels], rows.reshape(-1, d * d)

    @pytest.mark.parametrize("photons,modes", [(1, 2), (2, 3), (3, 4), (6, 2), (4, 4), (8, 3)])
    def test_rotation_is_orthonormal_with_zero_weight_groups(self, photons, modes):
        rotation, sizes, dims = tg._level_bases(photons, modes, modes)[:3]
        d = fock_dimension(photons, modes)
        assert np.abs(rotation @ rotation.T - np.eye(d)).max() < 1e-13
        levels = range(photons + 1)
        assert sizes == tuple(zero_weight_dim(level, modes) for level in levels)
        assert dims == tuple(
            weyl_dimension(adjoint_tower_signature(level, modes), modes) for level in levels
        )
        assert sum(dims) == d * d
        assert tg._level_bases(photons, modes, modes).rotation is rotation  # cached

    @staticmethod
    def hops(photons, modes):
        """E_ij = a_i^dag a_j on the N-photon sector, built state by state."""
        basis = enumerate_fock_basis(photons, modes)
        below = enumerate_fock_basis(photons - 1, modes)
        lowering = np.zeros((modes, len(below), len(basis)))
        for t, state in enumerate(basis):
            for i in range(modes):
                if state[i]:
                    s = below.index_of(state[:i] + (state[i] - 1,) + state[i + 1 :])
                    lowering[i, s, t] = math.sqrt(state[i])
        return [[lowering[i].T @ lowering[j] for j in range(modes)] for i in range(modes)]

    @pytest.mark.parametrize("photons,modes", [(1, 2), (2, 3), (3, 4), (6, 2), (4, 4)])
    def test_row_groups_are_casimir_eigenvectors(self, photons, modes):
        # sum_ij [E_ij, [E_ji, X]] = 2l(l+M-1) X on the diagonal operators of V_l.
        rotation, sizes, _ = tg._level_bases(photons, modes, modes)[:3]
        hops = self.hops(photons, modes)
        for level, group in enumerate(np.split(rotation, np.cumsum(sizes)[:-1])):
            for row in group:
                x = np.diag(row)
                casimir = sum(
                    hops[i][j] @ (hops[j][i] @ x - x @ hops[j][i])
                    - (hops[j][i] @ x - x @ hops[j][i]) @ hops[i][j]
                    for i in range(modes)
                    for j in range(modes)
                )
                expected = 2 * level * (level + modes - 1) * x
                assert np.abs(casimir - expected).max() <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("photons,modes", [(1, 2), (2, 3), (3, 4), (6, 2), (4, 4)])
    def test_low_groups_span_the_low_degree_monomials(self, photons, modes):
        # Groups 0..l span the polynomials of degree <= l in the occupation numbers.
        rotation, sizes, _ = tg._level_bases(photons, modes, modes)[:3]
        nu = np.array(enumerate_fock_basis(photons, modes).states, dtype=float)
        for level in range(photons + 1):
            monomials = np.array(
                [
                    np.prod(nu[:, list(powers)], axis=1)
                    for degree in range(level + 1)
                    for powers in itertools.combinations_with_replacement(range(modes), degree)
                ]
            )
            monomials /= np.linalg.norm(monomials, axis=1, keepdims=True)
            low = rotation[: sum(sizes[: level + 1])]
            assert np.abs(monomials - (monomials @ low.T) @ low).max() <= 1e-12
            assert np.linalg.matrix_rank(monomials) == len(low)

    def test_padded_settings_keep_one_group(self):
        rotation, sizes, dims = tg._level_bases(2, 3, 5)[:3]
        assert rotation is None
        assert (sizes, dims) == ((15,), (36,))

    @pytest.mark.parametrize("generator", ["haar", "mesh"])
    @pytest.mark.parametrize("photons,modes", [(2, 3), (3, 4), (6, 2)])
    def test_rotated_stack_splits_by_level(self, photons, modes, generator):
        levels, stack = self.rotated_levels(photons, modes, generator)
        scale = np.linalg.norm(stack)
        for i, level in enumerate(levels):
            for other in levels[i + 1 :]:
                assert np.abs(level @ other.T).max() <= 1e-13 * scale
        _, _, dims = tg._level_bases(photons, modes, modes)[:3]
        assert [tg.gramian_rank(level).rank for level in levels] == list(dims)
        full = np.linalg.svd(stack, compute_uv=False)
        union = np.sort(np.concatenate([np.linalg.svd(x, compute_uv=False) for x in levels]))
        np.testing.assert_allclose(union[::-1][: len(full)], full, rtol=0, atol=1e-13 * full[0])


@functools.lru_cache(maxsize=None)
def dense_level_bases(photons, modes):
    """Each W_l as a dense (D^2, d_l) matrix of real Hermitian coordinates, read off
    ``_level_estimate``: coordinates e_j give rho = H^T, H having coordinates W e_j."""
    bases = tg._level_bases(photons, modes, modes)
    levels = []
    for level, dim in enumerate(bases.dims):
        columns = []
        for j in range(dim):
            x = [np.zeros(k) for k in bases.dims]
            x[level][j] = 1.0
            h = tg._level_estimate(bases, x).T
            columns.append(oracles.hermitian_coordinates(h.reshape(1, -1))[0])
        levels.append(np.array(columns).T)
    return levels


LEVEL_CELLS = [(1, 2), (2, 3), (3, 4), (6, 2), (4, 4), (2, 6)]


class TestLevelBases:
    @pytest.mark.parametrize("photons,modes", LEVEL_CELLS)
    def test_bases_are_orthonormal_with_weyl_dimensions(self, photons, modes):
        levels, d = dense_level_bases(photons, modes), fock_dimension(photons, modes)
        w = np.hstack(levels)
        assert np.abs(w.T @ w - np.eye(d * d)).max() <= 1e-13
        assert [level.shape[1] for level in levels] == [
            weyl_dimension(adjoint_tower_signature(level, modes), modes)
            for level in range(photons + 1)
        ]

    @pytest.mark.parametrize("photons,modes", LEVEL_CELLS)
    def test_each_column_is_a_casimir_eigenvector(self, photons, modes):
        # sum_ij [E_ij, [E_ji, X]] = 2l(l+M-1) X for every column X of W_l.
        hops = TestLevelSplit.hops(photons, modes)
        for level, w in enumerate(dense_level_bases(photons, modes)):
            x = np.array([oracles.hermitian_matrix(column) for column in w.T])
            casimir = np.zeros_like(x)
            for i in range(modes):
                for j in range(modes):
                    inner = hops[j][i] @ x - x @ hops[j][i]
                    casimir += hops[i][j] @ inner - inner @ hops[i][j]
            expected = 2 * level * (level + modes - 1) * x
            assert np.abs(casimir - expected).max() <= 1e-12 * max(1, level * modes)

    @pytest.mark.parametrize("photons,modes", LEVEL_CELLS)
    def test_rotated_rows_stay_in_their_level(self, photons, modes):
        # A Haar setting's T-rotated rows lie in span W_l, and the kernel's coordinates
        # are their projections onto it.
        bases = tg._level_bases(photons, modes, modes)
        configs = haar_configs(modes, 1, seed=photons + modes)
        superop = tg.build_superoperator(configs, photons, modes)
        rotated = bases.rotation @ oracles.hermitian_coordinates(oracles.complex_rows(superop))
        scale = np.linalg.norm(rotated)
        groups = np.split(rotated, np.cumsum(bases.sizes)[:-1])
        coordinates = tg._level_rows(bases, superop.lift)
        for group, w, fast in zip(groups, dense_level_bases(photons, modes), coordinates):
            assert np.abs(group - (group @ w) @ w.T).max() <= 1e-13 * scale
            assert np.abs(fast - group @ w).max() <= 1e-13 * scale

    @pytest.mark.parametrize("case", ["(3,4)", "2N+1 at N=6", "vacuum", "one mode"])
    def test_raw_equals_the_normal_equation_solution(self, case):
        configs, photons, modes = {
            "(3,4)": (haar_configs(4, min_configs(3, 4), seed=0), 3, 4),
            "2N+1 at N=6": (list(analytic_m2.newton_young_configs(6).configs), 6, 2),
            "vacuum": (haar_configs(3, 2, seed=1), 0, 3),
            "one mode": ([lo.InterferometerConfig(1, np.array([[np.exp(0.3j)]]))], 4, 1),
        }[case]
        superop = tg.build_superoperator(configs, photons, modes)
        exact = superop.apply(tg.random_density_matrix(superop.basis_in, 2))
        noisy = exact + 1e-3 * np.random.default_rng(0).standard_normal(len(exact))
        rows = oracles.complex_rows(superop)
        for p in (exact, noisy):
            explicit = oracles.normal_equation_solve(rows, p.astype(complex))
            assert np.abs(tg.reconstruct(superop, p).raw.reshape(-1) - explicit).max() < 1e-10
        if case == "(3,4)":  # one (R z_l x d_l) factor per level
            shapes = [reflectors.shape for reflectors, _ in superop._factor]
            assert shapes == [(30, 1), (90, 15), (180, 84), (300, 300)]

    @pytest.mark.parametrize("photons,modes,meas_modes", [(2, 3, 5), (6, 2, 6), (0, 2, 2)])
    def test_one_group_takes_one_factorisation(self, monkeypatch, photons, modes, meas_modes):
        factor = mock.Mock(wraps=tg.dgeqrf)
        monkeypatch.setattr(tg, "dgeqrf", factor)
        count = min_configs_extended(photons, modes, meas_modes) if photons else 2
        superop = tg.build_superoperator(haar_configs(meas_modes, count, seed=7), photons, modes)
        rho = tg.random_density_matrix(superop.basis_in, 1)
        tg.reconstruct(superop, superop.apply(rho))
        assert factor.call_count == 1 and superop._bases.rotation is None


class TestProjectorBounds:
    """A setting's outcome projectors sum to the identity on the D inputs, so a map of R
    settings has sigma_max^2 <= R, equal at M' = M, sigma_max^2 >= R D / D' and
    ||L||_F^2 <= R D, equal at M' = M: the bounds ``_projector_bounds`` reads."""

    @staticmethod
    def norms(photons, modes, meas_modes, count):
        """sigma_max^2 and ||L||_F^2 of ``count`` Haar settings' complex rows, and the
        bounds' sqrt(R), sqrt(R D / D') and R D."""
        configs = haar_configs(meas_modes, count, seed=photons + meas_modes)
        rows = oracles.complex_rows(tg.build_superoperator(configs, photons, modes))
        d, d_out = fock_dimension(photons, modes), fock_dimension(photons, meas_modes)
        root, cushion, low = tg._projector_bounds(count, d, d_out, 1.0)
        assert cushion == d * np.finfo(float).eps * (count * d) ** 0.5
        sigma_max = np.linalg.svd(rows, compute_uv=False)[0]
        return sigma_max**2, np.linalg.norm(rows) ** 2, root, low, count * d

    @pytest.mark.parametrize("photons,modes", [(2, 3), (3, 4), (6, 2)])
    def test_bounds_are_attained_without_padding(self, photons, modes):
        count = min_configs(photons, modes)
        sigma_max_sq, frobenius_sq, root, low, total = self.norms(photons, modes, modes, count)
        assert root == low == count**0.5
        assert abs(sigma_max_sq - count) <= 1e-12 * count
        assert abs(frobenius_sq - total) <= 1e-12 * total

    @pytest.mark.parametrize("photons,modes,meas_modes", [(2, 3, 5), (3, 4, 6), (4, 3, 7)])
    def test_bounds_bracket_padded_maps(self, photons, modes, meas_modes):
        count = min(min_configs_extended(photons, modes, meas_modes), 3)
        sigma_max_sq, frobenius_sq, root, low, total = self.norms(
            photons, modes, meas_modes, count
        )
        assert 0.0 < low**2 <= sigma_max_sq <= root**2 * (1 + 1e-12)
        assert frobenius_sq <= total * (1 + 1e-12)


    @pytest.mark.parametrize("rel_threshold", [None, 1e-3])
    @pytest.mark.parametrize("photons,modes,meas_modes", [(3, 4, 4), (2, 4, 6), (1, 2, 2)])
    def test_a_batchs_bounds_are_the_scalar_ones_bit_for_bit(
        self, monkeypatch, photons, modes, meas_modes, rel_threshold
    ):
        # A scan takes every step's scale, bounds and bars from arrays over its batch;
        # each equals what the scalar calls give that step alone, so no certificate moves.
        steps, taken = [], []
        certify, take = tg._RankScan._certify, tg._LevelFactor.take
        monkeypatch.setattr(
            tg._RankScan, "_certify", lambda scan, *step: steps.append(step) or certify(scan, *step)
        )
        monkeypatch.setattr(
            tg._LevelFactor, "take", lambda level, *a: taken.append(a[1]) or take(level, *a)
        )
        search = tg.find_min_configs(photons, modes, meas_modes, rel_threshold=rel_threshold)
        d, d_out = fock_dimension(photons, modes), fock_dimension(photons, meas_modes)
        levels = len(tg._level_bases(photons, modes, meas_modes).dims)
        assert [step[0] for step in steps] == list(range(1, len(search.configs) + 1))
        batch_tau_hi = np.concatenate(taken[::levels])
        assert len(batch_tau_hi) == len(steps) and len(taken) % levels == 0
        for (step, settled, _, _, bar, ceiling, dropped), batch_tau in zip(steps, batch_tau_hi):
            scale = tg._threshold_scale((step * d_out, d * d), rel_threshold)
            tau_hi, cushion, sigma_low = tg._projector_bounds(step, d, d_out, scale)
            assert batch_tau == tau_hi and ceiling == tau_hi + cushion
            assert bar == tg.KEEP_MARGIN * tau_hi + dropped + cushion
            assert settled == (dropped + cushion < scale * (sigma_low - dropped))


class TestPeakMemory:
    """Peaks traced by ``tracemalloc`` (numpy's buffers) against the arrays a run must hold."""

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def level_rows_bytes(bases, count):
        return 8 * count * sum(z * dim for z, dim in zip(bases.sizes, bases.dims))

    def test_a_scan_holds_its_rows_its_factor_buffers_and_its_lift(self):
        # Each completing run inverts its R in place, so no level's square is held twice.
        bases, d = tg._level_bases(5, 4, 4), fock_dimension(5, 4)
        search, peak = self.traced_peak(lambda: tg.find_min_configs(5, 4, seed=0))
        count = len(search.configs)
        buffers = 8 * sum(dim * dim for dim in bases.dims)
        lift = 16 * count * d * d
        assert search.found == count == min_configs(5, 4)
        assert peak < 1.1 * (self.level_rows_bytes(bases, count) + buffers + lift)

    def test_a_scan_holds_no_second_copy_of_its_rows(self):
        # The batch's rows are written into the factor buffers' free columns, and the lifts
        # are kept in their place: the peak is the buffers, the lifts and a margin for the
        # lift's own temporaries (about three lifts) and the kernel's (two RUN_BYTES).  A
        # second copy of the rows, 7.0 MB beside 6.2 MB of buffers, would not fit it.
        bases, d = tg._level_bases(4, 4, 4), fock_dimension(4, 4)
        search, peak = self.traced_peak(lambda: tg.find_min_configs(4, 4, seed=0))
        count = len(search.configs)
        buffers = sum(8 * dim * (dim + 1) for dim in bases.dims)  # reflectors and tau
        lift = 16 * count * d * d
        margin = 3 * lift + 2 * tg.RUN_BYTES
        assert search.found == count == min_configs(4, 4)
        assert margin < self.level_rows_bytes(bases, count) / 1.5
        assert peak < buffers + lift + margin

    def test_a_map_is_factored_in_the_memory_of_its_rows(self):
        configs = haar_configs(4, min_configs(5, 4), seed=0)
        superop = tg.build_superoperator(configs, 5, 4)
        factors, peak = self.traced_peak(lambda: superop._factor)
        rows = self.level_rows_bytes(superop._bases, len(configs))
        assert len(factors) == 6 and peak < 1.1 * rows


class TestSampleShots:
    def test_indicator_and_zero_shots(self):
        p = np.array([0.0, 1.0, 0.0])
        counts = tg.sample_shots(p, 500, seed=0)
        np.testing.assert_array_equal(counts, [0, 500, 0])
        np.testing.assert_array_equal(tg.sample_shots(p, 0, seed=0), [0, 0, 0])

    def test_uniform_counts_within_five_sigma(self):
        dim = 6
        shots = 100_000
        counts = tg.sample_shots(np.full(dim, 1.0 / dim), shots, seed=3)
        assert counts.sum() == shots
        expected = shots / dim
        sigma = math.sqrt(shots * (1.0 / dim) * (1.0 - 1.0 / dim))
        assert np.abs(counts - expected).max() < 5.0 * sigma

    def test_nan_law_is_rejected(self):
        with pytest.raises(ValueError, match="probability entry nan is negative"):
            tg.sample_shots(np.array([np.nan, 1.0]), 10, seed=0)

    def test_empty_law_is_rejected(self):
        with pytest.raises(ValueError, match="empty outcome law"):
            tg.sample_shots(np.array([]), 10, seed=0)

    def test_a_scalar_law_is_refused_by_name(self):
        message = "^cannot sample shots from a scalar; an outcome law is an array$"
        with pytest.raises(ValueError, match=message):
            tg.sample_shots(1.0, 10, 0)
        with pytest.raises(ValueError, match=message):
            tg.sweep_frequencies(1.0, [0])

    def test_determinism_and_validation(self):
        p = np.array([0.25, 0.75])
        np.testing.assert_array_equal(
            tg.sample_shots(p, 1000, seed=9), tg.sample_shots(p, 1000, seed=9)
        )
        np.testing.assert_array_equal(
            tg.sample_shots(p, np.int64(1000), seed=9), tg.sample_shots(p, 1000, seed=9)
        )
        with pytest.raises(ValueError):
            tg.sample_shots(np.array([0.5, 0.4]), 10, seed=0)
        with pytest.raises(ValueError):
            tg.sample_shots(np.array([1.1, -0.1]), 10, seed=0)

    def test_a_stack_equals_its_rows_drawn_one_by_one(self):
        laws = np.random.default_rng(2).random((5, 35)) ** 3
        laws /= laws.sum(axis=1, keepdims=True)
        laws[1, :2] = [-1e-13, laws[1, 0] + laws[1, 1]]  # roundoff, clipped and renormalized
        streams = np.random.SeedSequence(8).spawn(5)
        counts = tg.sample_shots(laws, 10_000, streams)
        assert counts.shape == laws.shape and counts.dtype == np.int64
        for row, law, stream in zip(counts, laws, streams):
            np.testing.assert_array_equal(row, tg.sample_shots(law, 10_000, stream))
            clipped = np.clip(law, 0.0, None)
            direct = np.random.default_rng(stream).multinomial(10_000, clipped / clipped.sum())
            np.testing.assert_array_equal(row, direct)
        np.testing.assert_array_equal(tg.sample_shots(laws, 0, streams), np.zeros((5, 35)))

    @pytest.mark.parametrize("shots", [10.5, True, -1])
    def test_a_bad_shot_count_is_refused_before_drawing(self, shots):
        message = f"shot count must be a non-negative integer, got {shots}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tg.sample_shots([0.5, 0.5], shots, 0)

    @pytest.mark.parametrize("shots", [2**63, 10**20, np.uint64(2**63)])
    def test_a_shot_count_past_int64_is_refused_by_name(self, shots):
        # The sampler draws in int64: 2**63 - 1 is the largest count it takes.
        message = f"shot count must be at most {2**63 - 1}, got {shots}"
        for sample in (lambda: tg.sample_shots([0.5, 0.5], shots, 0),
                       lambda: tg.sweep_frequencies(np.full((3, 2), 0.5), [0, shots])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample()
        assert tg.sample_shots([0.0, 1.0], 2**63 - 1, 0).tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize(
        "seed,got", [(5, "int"), (np.random.SeedSequence(5), "SeedSequence"), ([0, 1], "2 seeds"),
                     ((0, 1, 2, 3), "4 seeds"), (np.arange(2), "2 seeds"), ("abc", "str")]
    )
    def test_a_stack_refuses_a_bad_seed_by_name_before_drawing(self, seed, got, monkeypatch):
        draws = []
        monkeypatch.setattr(np.random, "default_rng", lambda *args: draws.append(args))
        message = f"a stack of 3 laws takes a sequence of 3 seeds, got {got}"
        for shots in (0, 10):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                tg.sample_shots(np.full((3, 2), 0.5), shots, seed)
        assert draws == []

    def test_a_stack_is_checked_row_by_row_and_needs_a_seed_per_row(self):
        laws = np.full((3, 4), 0.25)
        laws[2] = [0.5, 0.4, 0.0, 0.0]
        with pytest.raises(ValueError, match="probabilities sum to 0.9, not 1"):
            tg.sample_shots(laws, 10, [0, 1, 2])
        with pytest.raises(ValueError):
            tg.sample_shots(laws[:2], 10, [0])


class TestSimulateRecords:
    def test_setting_j_uses_the_jth_spawned_stream(self):
        laws = np.array([[0.2, 0.3, 0.5], [0.6, 0.4, 0.0]])
        frequencies = tg.sweep_frequencies(laws, [1000], seed=4)[0]
        streams = np.random.SeedSequence(4).spawn(2)
        for row, law, stream in zip(frequencies, laws, streams):
            np.testing.assert_array_equal(row, tg.sample_shots(law, 1000, stream) / 1000)
        np.testing.assert_array_equal(tg.sweep_frequencies(laws, [0])[0], laws)

    def test_one_config_is_one_setting(self):
        configs = haar_configs(3, 2, seed=5)
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 3), 1)
        for shots in (0, 1000):
            one = tg.simulate_records(rho, configs[0], shots, 6)
            assert one.shape == (6,)
            np.testing.assert_array_equal(one, tg.simulate_records(rho, [configs[0]], shots, 6)[0])

    def test_neighbouring_seeds_do_not_share_streams(self):
        laws = np.full((4, 6), 1.0 / 6.0)
        for seed in range(5):
            here = tg.sweep_frequencies(laws, [1000], seed)[0]
            next_seed = tg.sweep_frequencies(laws, [1000], seed + 1)[0]
            for j in range(3):
                assert not np.array_equal(here[j + 1], next_seed[j])

    @given(
        photons=st.integers(1, 3),
        modes=st.integers(2, 3),
        extra=st.integers(0, 2),
        shots=st.integers(1, 10_000),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_counts_sum_to_shots_and_exact_records_round_trip(
        self, photons, modes, extra, shots, seed
    ):
        meas_modes = min(modes + extra, 4)
        search = tg.find_min_configs(photons, modes, meas_modes, seed=seed)
        assert search.found is not None
        rho = tg.random_density_matrix(enumerate_fock_basis(photons, modes), seed)
        scaled = tg.simulate_records(rho, search.configs, shots, seed) * shots
        counts = np.rint(scaled)
        assert np.abs(scaled - counts).max() < 1e-9 and counts.min() >= 0
        np.testing.assert_array_equal(counts.sum(axis=1), shots)
        exact = tg.simulate_records(rho, search.configs)
        np.testing.assert_array_equal(exact, tg.outcome_probabilities(rho, search.configs))
        superop = tg.build_superoperator(search.configs, photons, modes)
        result = tg.reconstruct(superop, exact)
        assert tg.trace_distance(result.projected, rho) < 1e-8


class TestSweepFrequencies:
    @pytest.mark.parametrize("shots", [(0, 1000, 100_000), (500, 0), (7,)])
    def test_each_entry_is_simulate_records_at_its_shot_count(self, shots):
        configs = haar_configs(3, 6, seed=8)
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 3), 3)
        laws = tg.outcome_probabilities(rho, configs)
        stack = tg.sweep_frequencies(laws, shots, seed=11)
        assert stack.shape == (len(shots), *laws.shape)
        for entry, count in zip(stack, shots):
            np.testing.assert_array_equal(entry, tg.simulate_records(rho, configs, count, 11))

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ([0.6, 0.5, -1e-9], "probability entry -1.000e-09 is negative"),
            ([0.6, 0.5, 0.0], "probabilities sum to 1.1, not 1"),
            ([np.nan, 0.5, 0.5], "probability entry nan is negative"),
        ],
    )
    def test_a_bad_law_raises_its_message(self, bad_row, message):
        laws = np.full((4, 3), 1.0 / 3.0)
        laws[2] = bad_row
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tg.sweep_frequencies(laws, [0, 1000])

    def test_an_empty_law_and_bad_counts_raise_their_messages(self):
        with pytest.raises(ValueError, match="^cannot sample shots from an empty outcome law$"):
            tg.sweep_frequencies(np.empty((3, 0)), [0])
        for shots in (10.5, True, -1):
            message = f"shot count must be a non-negative integer, got {shots}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                tg.sweep_frequencies(np.full((3, 2), 0.5), [0, shots])

    @pytest.mark.parametrize("shots", [False, 0.0, -0.0, True, 10.5, -1])
    def test_every_shot_count_is_checked_before_anything_is_drawn(self, shots, monkeypatch):
        # Zero-like counts that are not integers are refused as sample_shots refuses them,
        # and a bad count late in the sweep stops it before its first draw.
        draws = []
        monkeypatch.setattr(tg, "sample_shots", lambda *args: draws.append(args))
        message = f"shot count must be a non-negative integer, got {shots}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tg.sweep_frequencies(np.full((3, 2), 0.5), [1000, 0, shots])
        assert draws == []

    def test_integer_zeros_return_the_laws_bit_for_bit(self):
        laws = np.random.default_rng(6).random((4, 7))
        laws /= laws.sum(axis=1, keepdims=True)
        stack = tg.sweep_frequencies(laws, [0, np.int64(0)])
        assert stack.tobytes() == np.stack([laws, laws]).tobytes()

    @pytest.mark.parametrize("shots", [(0,), (1000,), (0, 1000)])
    def test_every_shot_count_checks_a_law_by_one_rule(self, shots):
        laws = np.full((3, 4), 0.25)
        laws[1] = [0.25, 0.25, 0.0, 0.0]
        with pytest.raises(ValueError, match=r"^probabilities sum to 0\.5, not 1$"):
            tg.sweep_frequencies(laws, shots)
        laws[1] = [0.25, 0.25, 0.25, 0.25 + 5e-10]
        with pytest.raises(ValueError, match=r"^probabilities sum to 1\.0000000005, not 1$"):
            tg.sweep_frequencies(laws, shots)
        laws[1] = [0.25, 0.25, 0.25, 0.25 + 5e-11]
        stack = tg.sweep_frequencies(laws, shots)
        for entry, count in zip(stack, shots):
            if count == 0:
                np.testing.assert_array_equal(entry, laws)
            else:
                np.testing.assert_allclose(entry.sum(axis=1), 1.0)

    def test_a_single_law_is_one_setting(self):
        laws = np.random.default_rng(1).random((2, 3, 5))
        laws /= laws.sum(axis=-1, keepdims=True)
        stack = tg.sweep_frequencies(laws, [0, 1000], seed=2)
        assert stack.shape == (2, *laws.shape)
        np.testing.assert_array_equal(
            stack, tg.sweep_frequencies(laws.reshape(6, 5), [0, 1000], seed=2).reshape(stack.shape)
        )
        one = tg.sweep_frequencies(laws[0, 0], [0, 1000], seed=2)
        np.testing.assert_array_equal(one, stack[:, 0, 0])
