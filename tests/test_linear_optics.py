import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from focktomo import linear_optics as lo
from focktomo import tomography as tg
from focktomo.combinatorics import enumerate_fock_basis

import oracles


BS_5050 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


class TestLiftUnitary:
    def test_one_photon_lift_is_the_matrix_itself(self):
        config = lo.haar_random_unitary(4, 9)
        lifted = lo.lift_unitary(config, 1)
        np.testing.assert_allclose(lifted.matrix, config.matrix, atol=1e-14)

    def test_identity_lifts_to_identity(self):
        lifted = lo.lift_unitary(np.eye(3), 3)
        np.testing.assert_allclose(lifted.matrix, np.eye(lifted.dimension), atol=1e-12)

    def test_vacuum_lift_is_trivial(self):
        lifted = lo.lift_unitary(lo.haar_random_unitary(3, 2), 0)
        np.testing.assert_allclose(lifted.matrix, [[1.0]], atol=1e-15)

    def test_matches_scalar_amplitudes_entrywise(self):
        config = lo.haar_random_unitary(3, 21)
        basis = enumerate_fock_basis(3, 3)
        lifted = lo.lift_unitary(config, 3)
        for i, alpha in enumerate(basis):
            for j, beta in enumerate(basis):
                assert lifted.matrix[i, j] == pytest.approx(
                    oracles.amplitude_by_permanent(config.matrix, alpha, beta), abs=1e-12
                )

    def test_hong_ou_mandel_cancellation(self):
        lifted = lo.lift_unitary(BS_5050, 2)
        pair, bunch = lifted.basis.index_of((1, 1)), lifted.basis.index_of((2, 0))
        assert lifted.matrix[pair, pair] == pytest.approx(0.0, abs=1e-14)
        assert lifted.matrix[bunch, pair] == pytest.approx(1.0 / math.sqrt(2.0))
        assert lifted.matrix[pair, bunch] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_condensed_entry_is_a_power(self):
        # All N photons in and out of mode 0: the submatrix is constant g00.
        g = lo.haar_random_unitary(3, 3).matrix
        for photons in range(1, 6):
            lifted = lo.lift_unitary(g, photons)
            k = lifted.basis.index_of((photons, 0, 0))
            assert lifted.matrix[k, k] == pytest.approx(g[0, 0] ** photons, abs=1e-12)

    def test_bunched_entries_repeat_one_row_or_column(self):
        # per of N copies of row 0 over columns 0..N-1 is N! prod_j g0j.
        g = lo.haar_random_unitary(4, 2).matrix
        for photons in range(1, 5):
            lifted = lo.lift_unitary(g, photons)
            spread = lifted.basis.index_of((1,) * photons + (0,) * (4 - photons))
            bunched = lifted.basis.index_of((photons, 0, 0, 0))
            scale = math.sqrt(math.factorial(photons))
            assert lifted.matrix[bunched, spread] == pytest.approx(
                scale * np.prod(g[0, :photons]), abs=1e-12
            )
            assert lifted.matrix[spread, bunched] == pytest.approx(
                scale * np.prod(g[:photons, 0]), abs=1e-12
            )

    @given(st.integers(0, 1_000_000), st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_mode_permutations_permute_the_lift(self, seed, modes, photons):
        # Rows of g permuted by p relabel the outputs, columns by q the inputs.
        rng = np.random.default_rng(seed)
        g = lo.haar_random_unitary(modes, seed).matrix
        p, q = rng.permutation(modes), rng.permutation(modes)
        lifted = lo.lift_unitary(g, photons)
        moved = lo.lift_unitary(g[p][:, q], photons)
        for i, alpha in enumerate(lifted.basis):
            for j, beta in enumerate(lifted.basis):
                a, b = [0] * modes, [0] * modes
                for k in range(modes):
                    a[p[k]], b[q[k]] = alpha[k], beta[k]
                row, col = lifted.basis.index_of(tuple(a)), lifted.basis.index_of(tuple(b))
                assert moved.matrix[i, j] == pytest.approx(lifted.matrix[row, col], abs=1e-12)

    def test_untouched_vacuum_modes_keep_the_amplitudes(self):
        # g on 2 modes beside 2 idle modes: <alpha,0,0|U|beta,0,0> = <alpha|U(g)|beta>.
        g = lo.haar_random_unitary(2, 13).matrix
        padded = np.eye(4, dtype=complex)
        padded[:2, :2] = g
        small, large = lo.lift_unitary(g, 3), lo.lift_unitary(padded, 3)
        rows = [large.basis.index_of(alpha + (0, 0)) for alpha in small.basis]
        np.testing.assert_allclose(large.matrix[np.ix_(rows, rows)], small.matrix, atol=1e-12)

    def test_a_block_diagonal_setting_conserves_each_blocks_photons(self):
        # Modes {0} and {1, 2} do not mix, so entries moving a photon between them vanish.
        g = np.zeros((3, 3), dtype=complex)
        g[0, 0] = np.exp(0.4j)
        g[1:, 1:] = lo.haar_random_unitary(2, 4).matrix
        lifted = lo.lift_unitary(g, 3)
        for i, alpha in enumerate(lifted.basis):
            for j, beta in enumerate(lifted.basis):
                if alpha[0] != beta[0]:
                    assert lifted.matrix[i, j] == 0.0

    def test_against_state_vector_expansion(self):
        g = lo.haar_random_unitary(3, 11).matrix
        basis = enumerate_fock_basis(2, 3)
        lifted = lo.lift_unitary(g, 2)
        for i, alpha in enumerate(basis):
            for j, beta in enumerate(basis):
                expected = oracles.amplitude_by_state_vector(g, alpha, beta)
                assert lifted.matrix[i, j] == pytest.approx(expected, abs=1e-12)

    def test_unitarity_and_homomorphism(self):
        for photons, modes, seed in [(2, 3, 0), (3, 2, 1), (2, 4, 2)]:
            g = lo.haar_random_unitary(modes, seed)
            h = lo.haar_random_unitary(modes, seed + 50)
            ug = lo.lift_unitary(g, photons).matrix
            uh = lo.lift_unitary(h, photons).matrix
            ugh = lo.lift_unitary(g.matrix @ h.matrix, photons).matrix
            eye = np.eye(ug.shape[0])
            assert np.abs(ug.conj().T @ ug - eye).max() < 1e-9
            assert np.abs(ugh - ug @ uh).max() < 1e-9

    def test_column_norms_are_one(self):
        lifted = lo.lift_unitary(lo.haar_random_unitary(4, 31), 3)
        norms = np.linalg.norm(lifted.matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-10)

    def test_lift_takes_25_photons(self):
        # The lift computes no permanent, so no matrix-size cap applies.
        lifted = lo.lift_unitary(lo.haar_random_unitary(2, 7), 25)  # checked orthonormal
        assert lifted.matrix.shape == (26, 26)

    def test_input_modes_must_lie_within_the_configuration(self):
        for in_modes in (0, 4):
            with pytest.raises(ValueError):
                lo.lift_unitary(np.eye(3), 2, in_modes=in_modes)


class TestBatchedLift:
    @pytest.mark.parametrize("photons,modes", [(3, 4), (6, 2), (2, 6)])
    @pytest.mark.parametrize("in_modes", [None, 1, 2])
    def test_stack_equals_the_single_lifts_bit_for_bit(self, photons, modes, in_modes):
        stack = np.stack([lo.haar_random_unitary(modes, seed).matrix for seed in range(4)])
        batched = lo.lift_unitary(stack, photons, in_modes=in_modes)
        assert batched.matrix.shape[0] == len(stack)
        for g, lifted in zip(stack, batched.matrix):
            single = lo.lift_unitary(g, photons, in_modes=in_modes).matrix
            assert np.array_equal(lifted, single)

    def test_a_non_unitary_member_is_rejected(self):
        stack = np.stack([lo.haar_random_unitary(3, seed).matrix for seed in range(3)])
        stack[1] *= 1.01
        with pytest.raises(ValueError, match="not orthonormal"):
            lo.lift_unitary(stack, 2)

    def test_a_nan_member_is_rejected(self):
        stack = np.stack([lo.haar_random_unitary(3, seed).matrix for seed in range(3)])
        stack[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match=r"not orthonormal \(residual nan\)"):
            lo.lift_unitary(stack, 2)

    @pytest.mark.parametrize("members", [None, 1, 3])
    def test_the_residual_is_the_general_products(self, members):
        lifted = lo.lift_unitary(lo.haar_random_unitary(3, 5).matrix, 2)
        rng = np.random.default_rng(members)
        u = lifted.matrix if members is None else np.stack([lifted.matrix] * members)
        u = u + 1e-3 * rng.standard_normal(u.shape)  # members differ, with one worst
        expected = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max()
        with pytest.raises(ValueError, match=rf"residual {expected:.3e}\)"):
            lo.FockUnitary(lifted.basis, u)

    @pytest.mark.parametrize("shape", [(2, 3, 4), (0, 3, 3), (2, 2, 3, 3)])
    def test_non_square_empty_and_deeper_stacks_are_rejected(self, shape):
        with pytest.raises(ValueError):
            lo.lift_unitary(np.zeros(shape, dtype=complex), 1)


def padded_rows(photons, modes, meas_modes):
    basis_out = enumerate_fock_basis(photons, meas_modes)
    return [
        basis_out.index_of(state + (0,) * (meas_modes - modes))
        for state in enumerate_fock_basis(photons, modes)
    ]


class TestCreationOperatorLift:
    def test_restricted_rows_match_scalar_amplitudes(self):
        rng = np.random.default_rng(8)
        for _ in range(12):
            photons = int(rng.integers(1, 5))
            modes = int(rng.integers(2, 4))
            meas_modes = int(rng.integers(modes, 6))
            config = lo.haar_random_unitary(meas_modes, int(rng.integers(2**31)))
            rows = tg._restricted_lift(config, photons, modes)
            basis_out = enumerate_fock_basis(photons, meas_modes)
            for a, alpha in enumerate(enumerate_fock_basis(photons, modes)):
                padded = alpha + (0,) * (meas_modes - modes)
                for b in rng.choice(basis_out.dimension, size=4):
                    expected = oracles.amplitude_by_permanent(
                        config.matrix, padded, basis_out.state_at(int(b))
                    )
                    assert abs(rows[a, b] - expected) <= 1e-12

    @pytest.mark.parametrize("photons,modes,meas_modes", [(3, 2, 5), (4, 3, 4), (2, 2, 2)])
    def test_restricted_rows_are_rows_of_the_full_lift(self, photons, modes, meas_modes):
        config = lo.random_mesh_unitary(meas_modes, 3 * photons + meas_modes)
        full = lo.lift_unitary(config, photons).matrix
        rows = tg._restricted_lift(config, photons, modes)
        np.testing.assert_allclose(
            rows, full[padded_rows(photons, modes, meas_modes)], atol=1e-13
        )

    @given(st.integers(0, 1_000_000), st.integers(0, 3), st.integers(1, 4))
    @settings(max_examples=30, deadline=None)
    def test_homomorphism_and_unit_columns(self, seed, photons, modes):
        g = lo.haar_random_unitary(modes, seed).matrix
        h = lo.haar_random_unitary(modes, seed + 1).matrix
        ug = lo.lift_unitary(g, photons).matrix
        uh = lo.lift_unitary(h, photons).matrix
        assert np.abs(lo.lift_unitary(g @ h, photons).matrix - ug @ uh).max() < 1e-12
        np.testing.assert_allclose(np.linalg.norm(ug, axis=0), 1.0, atol=1e-13)

    @pytest.mark.parametrize("photons,modes", [(8, 6), (12, 2)])
    def test_frontier_lifts_are_unitary(self, photons, modes):
        lifted = lo.lift_unitary(lo.haar_random_unitary(modes, photons), photons)
        u = lifted.matrix
        residual = np.abs(u.conj().T @ u - np.eye(lifted.dimension)).max()
        assert residual <= 1e-12 * lifted.dimension


class TestHaarSampling:
    def test_unitarity_and_determinism(self):
        a = lo.haar_random_unitary(5, 123)
        b = lo.haar_random_unitary(5, 123)
        assert a.unitarity_residual < 1e-12
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_single_mode_is_a_phase(self):
        config = lo.haar_random_unitary(1, 7)
        assert abs(abs(config.matrix[0, 0]) - 1.0) < 1e-12

    def test_first_entry_moment_matches_uniform_column(self):
        # E|g_00|^2 = 1/M' for Haar; Monte-Carlo check within 3 standard errors.
        modes = 3
        mean, stderr = oracles.haar_mean_abs_square(modes, 4000, seed=17)
        assert abs(mean - 1.0 / modes) < 3.0 * stderr


class TestBatchedDraws:
    @pytest.mark.parametrize("make", [lo.haar_random_unitary, lo.random_mesh_unitary])
    @pytest.mark.parametrize("modes", [1, 2, 4, 7])
    def test_a_batch_equals_the_single_draws_bit_for_bit(self, make, modes):
        seeds = [0, 5, 2**63 - 1, *np.random.default_rng(modes).integers(2**63, size=5)]
        batch = make(modes, np.array(seeds, dtype=np.int64))
        assert isinstance(batch, list) and len(batch) == len(seeds)
        for config, seed in zip(batch, seeds):
            single = make(modes, int(seed))
            assert config.matrix.tobytes() == single.matrix.tobytes()
            assert config.provenance == single.provenance and type(config.provenance.seed) is int
            if make is lo.haar_random_unitary:
                assert config.matrix.tobytes() == oracles.haar_by_one_qr(modes, seed).tobytes()
        assert make(modes, []) == []

    @pytest.mark.parametrize("count", [1, 2, 30])
    @pytest.mark.parametrize("modes", range(1, 7))
    def test_each_member_of_a_stacked_draw_is_its_seeds_own_draw(self, modes, count):
        # One stack of Ginibre pairs, one QR and one check for the batch, whatever its size.
        seeds = np.random.default_rng(10 * modes + count).integers(2**63, size=count)
        for config, seed in zip(lo.haar_random_unitary(modes, seeds), seeds, strict=True):
            assert config.matrix.tobytes() == lo.haar_random_unitary(modes, seed).matrix.tobytes()
            assert config.matrix.tobytes() == oracles.haar_by_one_qr(modes, seed).tobytes()
            assert config.provenance == lo.Provenance("haar", int(seed))
            assert not config.matrix.flags.writeable and config.modes == modes

    def test_thirty_draws_match_their_pinned_digest(self):
        # SHA-256 of the matrices of seeds 0..29 as drawn when each seed's generator
        # filled its real and imaginary parts in two calls, before the pairs were stacked.
        configs = lo.haar_random_unitary(4, range(30))
        digest = hashlib.sha256(b"".join(c.matrix.tobytes() for c in configs)).hexdigest()
        assert digest == "46e68bbb3699dcfeb9224b91b5a00f7db6fa7c84ea6f50fd75500f51deca1b90"

    @pytest.mark.parametrize("generator", sorted(tg.GENERATORS))
    def test_drawer_counts_split_one_run_of_scalar_seeds(self, generator):
        # The k-th setting drawn is seeded by the k-th scalar draw below 2**63, however
        # the run is split into counts and mode numbers.
        make, rng = tg.GENERATORS[generator], np.random.default_rng(3)
        draw, modes = tg.config_drawer(generator, 3), [4, 4, 4, 2, 5, 5, 3]
        drawn = draw(4, 3) + draw(2, 1) + draw(5, 2) + draw(3, 1)
        for config, m in zip(drawn, modes, strict=True):
            expected = make(m, int(rng.integers(2**63)))
            assert config.matrix.tobytes() == expected.matrix.tobytes()
            assert config.provenance == expected.provenance

    def test_min_modes_draws_one_setting_per_mode_count_from_the_scalar_seeds(self, monkeypatch):
        built, original = [], tg.build_superoperator

        def build(configs, *args):
            built.extend(configs)
            return original(configs, *args)

        monkeypatch.setattr(tg, "build_superoperator", build)
        search = tg.find_min_modes(2, 2, seed=4, meas_modes_max=6)
        rng = np.random.default_rng(4)
        assert [c.modes for c in built] == [m for m, _, _ in search.rank_by_meas_modes]
        for config in built:
            expected = lo.haar_random_unitary(config.modes, int(rng.integers(2**63)))
            assert config.matrix.tobytes() == expected.matrix.tobytes()


class TestMesh:
    def test_trivial_blocks_compose_to_identity(self):
        for modes in (2, 3, 4, 5):
            n_blocks = modes * (modes - 1) // 2
            config = lo.mesh_unitary(modes, [1.0] * n_blocks, [0.0] * n_blocks)
            np.testing.assert_allclose(config.matrix, np.eye(modes), atol=1e-14)

    def test_block_count_is_binomial(self):
        with pytest.raises(ValueError):
            lo.mesh_unitary(4, [1.0] * 5, [0.0] * 5)

    def test_random_mesh_is_unitary_and_deterministic(self):
        for modes in (2, 4):
            a = lo.random_mesh_unitary(modes, 5)
            b = lo.random_mesh_unitary(modes, 5)
            assert a.unitarity_residual < 1e-12
            np.testing.assert_array_equal(a.matrix, b.matrix)
        assert abs(abs(np.linalg.det(lo.random_mesh_unitary(2, 9).matrix)) - 1) < 1e-12

    def test_rejects_bad_transmissivity(self):
        with pytest.raises(ValueError):
            lo.mesh_unitary(2, [1.5], [0.0])

    def test_blocks_applied_in_place_equal_the_embedded_products(self):
        # Each block updates its two rows; the product of embedded identities is
        # the reference, bit for bit, on the meshes that random_mesh_unitary draws.
        for modes in range(2, 9):
            blocks = modes * (modes - 1) // 2
            for seed in range(200):
                rng = np.random.default_rng(seed)
                taus = rng.uniform(0.0, 1.0, size=blocks)
                phis = rng.uniform(0.0, 2.0 * math.pi, size=blocks)
                expected = oracles.mesh_by_embedded_products(modes, taus, phis)
                np.testing.assert_array_equal(lo.random_mesh_unitary(modes, seed).matrix, expected)


class TestUnitarityRule:
    """A config and a stack of Haar draws are held to one rule, ``_check_unitary``."""

    @staticmethod
    def refuses(check) -> bool:
        try:
            check()
        except ValueError:
            return True
        return False

    def test_a_config_and_a_stack_refuse_the_same_matrices(self):
        # ||(1 + t)^2 g^dag g - I|| is about 2t: t brackets UNITARITY_TOL from both sides.
        g = lo.haar_random_unitary(3, 5).matrix
        candidates = [g * (1.0 + t) for t in (0.0, 0.25e-12, 0.45e-12, 0.55e-12, 1e-9)]
        candidates += [np.where(np.eye(3, dtype=bool), np.nan, g), np.triu(np.ones((3, 3)))]
        verdicts = []
        for h in candidates:
            by_config = self.refuses(lambda: lo.InterferometerConfig(3, h))
            stack = np.stack([g, h, g])
            assert self.refuses(lambda: lo._check_unitary(stack, np.array([7, 8, 9]))) == by_config
            assert self.refuses(lambda: lo._check_unitary(h[None])) == by_config
            verdicts.append(by_config)
        assert lo.UNITARITY_TOL == 1e-12
        assert verdicts == [False, False, False, True, True, True, True]

    @pytest.mark.parametrize("member", [0, 2])
    def test_the_stacks_error_names_the_member_and_its_seed(self, member):
        seeds = np.array([4, 5, 6])
        stack = np.stack([c.matrix for c in lo.haar_random_unitary(2, seeds)])
        stack[member, 1, 0] = np.nan
        pattern = rf"matrix {member} \(seed {seeds[member]}\) is not unitary \(residual nan\)"
        with pytest.raises(ValueError, match=pattern):
            lo._check_unitary(stack, seeds)

    def test_a_batch_is_checked_once_as_one_stack(self, monkeypatch):
        shapes, check = [], lo._check_unitary

        def record(g, *seeds):
            shapes.append(g.shape)
            return check(g, *seeds)

        monkeypatch.setattr(lo, "_check_unitary", record)
        configs = lo.haar_random_unitary(4, range(30))
        assert shapes == [(30, 4, 4)] and len(configs) == 30
        assert all(c.unitarity_residual <= lo.UNITARITY_TOL for c in configs)


class TestConfigSerialization:
    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            lo.InterferometerConfig(2, np.array([[1.0, 0.0], [0.0, 1.1]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"not unitary \(residual nan\)"):
            lo.InterferometerConfig(2, np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_encoding_equals_the_per_entry_floats(self):
        tiny = np.nextafter(0.0, 1.0)  # subnormal
        matrices = [
            np.array([[-0.0 + 1e308j, complex(tiny, -1e308)], [3.0 - 0.0j, -2.0 + 5.0j]]),
            np.array([[1, -2], [0, 7]]),
            np.array([[-0.0, tiny], [1e308, -1e308]]),
            lo.haar_random_unitary(3, 8).matrix.T,
        ]
        for matrix in matrices:
            per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in matrix]
            encoded = lo.encode_complex_matrix(matrix)
            assert repr(encoded) == repr(per_entry)  # repr tells -0.0 from 0.0
            assert all(type(x) is float for row in encoded for pair in row for x in pair)
            assert json.dumps(encoded) == json.dumps(per_entry)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_json_round_trip_is_bit_exact(self, seed):
        config = lo.haar_random_unitary(4, seed)
        payload = json.dumps(config.to_json_dict())
        restored = lo.InterferometerConfig.from_json_dict(json.loads(payload))
        np.testing.assert_array_equal(restored.matrix, config.matrix)
        assert restored.provenance == config.provenance
        assert restored.modes == config.modes

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("seed", "7", "'seed' must be an integer"),
            ("seed", 7.0, "'seed' must be an integer"),
            ("index", 2.5, "'index' must be an integer"),
            ("index", True, "'index' must be an integer"),
            ("theta", True, "'theta' must be a number"),
            ("theta", "0.5", "'theta' must be a number"),
            ("kind", 3, "'kind' must be a string"),
            ("kind", None, "'kind' must be a string"),
        ],
    )
    def test_json_provenance_fields_are_type_checked(self, field, value, message):
        record = {"kind": "newton_young", "seed": 7, "index": 2, "theta": 0.5, field: value}
        with pytest.raises(ValueError, match=f"provenance field {message}"):
            lo.Provenance.from_json_dict(record)

    def test_json_provenance_optional_fields_may_be_missing_or_null(self):
        assert lo.Provenance.from_json_dict({"kind": "haar", "seed": 7, "index": None}) == (
            lo.Provenance("haar", seed=7)
        )
        restored = lo.Provenance.from_json_dict({"kind": "newton_young", "index": 1, "theta": 1})
        assert restored == lo.Provenance("newton_young", index=1, theta=1.0)
        assert type(restored.theta) is float

    @pytest.mark.parametrize("record", [[1, 2], 3.0, "config", None])
    def test_json_config_must_be_an_object(self, record):
        with pytest.raises(ValueError, match="a config must be a JSON object"):
            lo.InterferometerConfig.from_json_dict(record)
        good = lo.haar_random_unitary(2, 0).to_json_dict()
        with pytest.raises(ValueError, match="a provenance must be a JSON object"):
            lo.InterferometerConfig.from_json_dict({**good, "provenance": record})

    @pytest.mark.parametrize("field", ["matrix", "provenance"])
    def test_json_config_fields_must_be_present(self, field):
        record = lo.haar_random_unitary(2, 0).to_json_dict()
        del record[field]
        with pytest.raises(ValueError, match=f"^config field '{field}' is missing$"):
            lo.InterferometerConfig.from_json_dict(record)

    @pytest.mark.parametrize("modes", [2.7, 2.0, "2", True, None])
    def test_json_modes_must_be_an_integer(self, modes):
        record = {**lo.haar_random_unitary(2, 0).to_json_dict(), "modes": modes}
        with pytest.raises(ValueError, match="config field 'modes' must be an integer"):
            lo.InterferometerConfig.from_json_dict(record)
