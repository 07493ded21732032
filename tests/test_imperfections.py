import json
import warnings

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from focktomo import imperfections as imp
from focktomo import linear_optics as lo
from focktomo import tomography as tg
from focktomo.combinatorics import enumerate_fock_basis, fock_dimension, min_configs_extended


def haar_configs(modes, count, seed):
    rng = np.random.default_rng(seed)
    return [lo.haar_random_unitary(modes, int(rng.integers(2**63))) for _ in range(count)]


def two_component_mixture(seed=0):
    rho1 = tg.random_density_matrix(enumerate_fock_basis(1, 2), seed + 1)
    rho2 = tg.random_density_matrix(enumerate_fock_basis(2, 2), seed + 2)
    return imp.PhotonNumberMixture(((0.5, rho1), (0.5, rho2))), rho1, rho2


class TestTruncatedBasis:
    def test_ordering_and_sectors(self):
        basis = imp.truncated_basis(2, 2)
        assert basis.states == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
        assert basis.sector_slice(0) == slice(0, 1)
        assert basis.sector_slice(1) == slice(1, 3)
        assert basis.sector_slice(2) == slice(3, 6)
        assert basis.index_of((1, 1)) == 4
        with pytest.raises(ValueError):
            basis.sector_slice(3)
        with pytest.raises(ValueError):
            basis.index_of((3, 0))

    @pytest.mark.parametrize(
        "build,args",
        [
            (enumerate_fock_basis, (2, 0)),
            (enumerate_fock_basis, (2, -1)),
            (imp.truncated_basis, (2, 0)),
        ],
    )
    def test_no_modes_is_a_value_error(self, build, args):
        # Below one mode, _occupations would never reach its one-mode base case.
        with pytest.raises(ValueError, match="mode count must be positive"):
            build(*args)


class TestPhotonNumberMixture:
    def test_validation(self):
        rho1 = tg.maximally_mixed(enumerate_fock_basis(1, 2))
        rho2 = tg.maximally_mixed(enumerate_fock_basis(2, 2))
        with pytest.raises(ValueError):
            imp.PhotonNumberMixture(((0.7, rho1), (0.7, rho2)))
        with pytest.raises(ValueError):
            imp.PhotonNumberMixture(((0.5, rho1), (0.5, rho1)))
        rho3 = tg.maximally_mixed(enumerate_fock_basis(2, 3))
        with pytest.raises(ValueError):
            imp.PhotonNumberMixture(((0.5, rho1), (0.5, rho3)))

    def test_nan_weights_are_refused(self):
        rho1 = tg.maximally_mixed(enumerate_fock_basis(1, 2))
        rho2 = tg.maximally_mixed(enumerate_fock_basis(2, 2))
        for components in [((np.nan, rho1),), ((np.nan, rho1), (1.0, rho2))]:
            with pytest.raises(ValueError, match="^weights sum to nan, not 1$"):
                imp.PhotonNumberMixture(components)

    def test_a_json_nan_weight_is_refused(self):
        # Python's json reads the bare token NaN as a float.
        rho = tg.maximally_mixed(enumerate_fock_basis(1, 2))
        text = json.dumps({"components": [{"weight": float("nan"), **rho.to_json_dict()}]})
        assert '"weight": NaN' in text
        with pytest.raises(ValueError, match="^weights sum to nan, not 1$"):
            imp.PhotonNumberMixture.from_json_dict(json.loads(text))

    def test_json_round_trip(self):
        mixture, _, _ = two_component_mixture()
        payload = json.dumps(mixture.to_json_dict())
        restored = imp.PhotonNumberMixture.from_json_dict(json.loads(payload))
        assert restored.weights() == mixture.weights()
        for (_, a), (_, b) in zip(restored.components, mixture.components):
            np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_json_weights_must_be_numbers(self):
        rho = tg.maximally_mixed(enumerate_fock_basis(1, 2))
        record = {"components": [{"weight": 1, **rho.to_json_dict()}]}
        assert imp.PhotonNumberMixture.from_json_dict(record).weights() == {1: 1.0}
        for weight in ("1.0", True, None):
            record["components"][0]["weight"] = weight
            with pytest.raises(ValueError, match="'weight' must be a number"):
                imp.PhotonNumberMixture.from_json_dict(record)


    @pytest.mark.parametrize(
        "record, message",
        [
            ([1, 2], "a mixture must be a JSON object with a 'components' list"),
            ({"components": 5}, "a mixture must be a JSON object with a 'components' list"),
            ({}, "a mixture must be a JSON object with a 'components' list"),
            ({"components": [1.0]}, "a component must be a JSON object, got float"),
            ({"components": [[0.5]]}, "a component must be a JSON object, got list"),
            (
                {"components": [{"weight": 1.0, "photons": 1, "modes": 2}]},
                "state field 'matrix' is missing",
            ),
        ],
    )
    def test_json_records_and_components_must_be_objects(self, record, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            imp.PhotonNumberMixture.from_json_dict(record)


class TestMixtureProbabilities:
    def test_single_component_reduces_to_plain_probabilities(self):
        rho = tg.random_density_matrix(enumerate_fock_basis(2, 2), 9)
        mixture = imp.PhotonNumberMixture(((1.0, rho),))
        config = lo.haar_random_unitary(2, 4)
        weight, conditional = imp.mixture_probabilities(mixture, config)[2]
        assert weight == 1.0
        np.testing.assert_allclose(
            conditional, tg.outcome_probabilities(rho, config), atol=1e-14
        )

    def test_joint_distribution_and_sector_masses(self):
        mixture, rho1, rho2 = two_component_mixture()
        config = lo.haar_random_unitary(2, 8)
        basis, joint = imp.mixture_joint_probabilities(mixture, config)
        assert joint.sum() == pytest.approx(1.0, abs=1e-12)
        for total, rho in ((1, rho1), (2, rho2)):
            conditional, mass = imp.postselect_total(joint, basis, total)
            assert mass == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(
                conditional, tg.outcome_probabilities(rho, config), atol=1e-12
            )

    def test_truncation_must_cover_all_components(self):
        mixture, _, _ = two_component_mixture()
        with pytest.raises(ValueError):
            imp.mixture_joint_probabilities(
                mixture, lo.haar_random_unitary(2, 0), max_total=1
            )


class TestPostselectTotal:
    def test_lossless_single_component_is_identity(self):
        basis = enumerate_fock_basis(2, 2)
        rho = tg.random_density_matrix(basis, 5)
        config = lo.haar_random_unitary(2, 5)
        p = tg.outcome_probabilities(rho, config)
        tbasis = imp.truncated_basis(2, 2)
        conditional, mass = imp.postselect_total(
            imp.embed_sector(p, 2, tbasis), tbasis, 2
        )
        np.testing.assert_allclose(conditional, p, atol=1e-14)
        assert mass == pytest.approx(1.0)

    def test_sector_mass_under_uniform_loss_is_eta_to_the_n(self):
        eta = 0.75
        photons = 3
        basis = enumerate_fock_basis(photons, 2)
        rho = tg.random_density_matrix(basis, 11)
        config = lo.haar_random_unitary(2, 3)
        p = tg.outcome_probabilities(rho, config)
        tbasis = imp.truncated_basis(photons, 2)
        detected = imp.detector_response(
            imp.embed_sector(p, photons, tbasis),
            tbasis,
            imp.DetectorModel.uniform(eta, 2),
        )
        conditional, mass = imp.postselect_total(detected, tbasis, photons)
        assert mass == pytest.approx(eta**photons, abs=1e-12)
        np.testing.assert_allclose(conditional, p, atol=1e-12)

    def test_empty_sector_is_an_error(self):
        tbasis = imp.truncated_basis(1, 2)
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            imp.postselect_total(p, tbasis, 1)

    def test_counts_work_like_probabilities(self):
        tbasis = imp.truncated_basis(1, 2)
        counts = np.array([10, 60, 30])
        conditional, mass = imp.postselect_total(counts, tbasis, 1)
        np.testing.assert_allclose(conditional, [2.0 / 3.0, 1.0 / 3.0])
        assert mass == pytest.approx(0.9)


class TestDetectorResponse:
    def test_perfect_detectors_are_the_identity(self):
        basis = imp.truncated_basis(2, 2)
        matrix = imp.response_matrix(basis, imp.DetectorModel.uniform(1.0, 2))
        np.testing.assert_allclose(matrix, np.eye(len(basis)), atol=1e-14)

    def test_single_mode_single_photon_binomial(self):
        basis = imp.truncated_basis(1, 1)
        q = imp.detector_response(
            np.array([0.0, 1.0]), basis, imp.DetectorModel.uniform(0.5, 1)
        )
        np.testing.assert_allclose(q, [0.5, 0.5])

    def test_two_modes_coincidence_probability(self):
        eta = 0.6
        basis = imp.truncated_basis(2, 2)
        p = np.zeros(len(basis))
        p[basis.index_of((1, 1))] = 1.0
        q = imp.detector_response(p, basis, imp.DetectorModel.uniform(eta, 2))
        assert q[basis.index_of((1, 1))] == pytest.approx(eta**2)
        assert q[basis.index_of((1, 0))] == pytest.approx(eta * (1 - eta))
        assert q.sum() == pytest.approx(1.0, abs=1e-12)

    def test_support_never_gains_photons(self):
        basis = imp.truncated_basis(2, 2)
        matrix = imp.response_matrix(basis, imp.DetectorModel((0.5, 0.8)))
        for i, detected in enumerate(basis.states):
            for j, incident in enumerate(basis.states):
                gains = any(k > n for k, n in zip(detected, incident))
                if gains:
                    assert matrix[i, j] == 0.0
        # mass is preserved on the downward-closed space
        np.testing.assert_allclose(matrix.sum(axis=0), 1.0, atol=1e-12)

    def test_response_matrix_is_memoised_and_read_only(self):
        basis = imp.truncated_basis(2, 2)
        matrix = imp.response_matrix(basis, imp.DetectorModel((0.5, 0.8)))
        assert imp.response_matrix(basis, imp.DetectorModel((0.5, 0.8))) is matrix
        assert not matrix.flags.writeable

    def test_efficiency_validation(self):
        with pytest.raises(ValueError):
            imp.DetectorModel.uniform(0.0, 2)
        with pytest.raises(ValueError):
            imp.DetectorModel.uniform(1.2, 2)


class TestInvertDetectorResponse:
    @pytest.mark.parametrize("eta", [0.5, 0.7, 0.9])
    @pytest.mark.parametrize("modes,max_total", [(2, 3), (3, 2), (3, 3)])
    def test_round_trip_on_random_distributions(self, eta, modes, max_total):
        basis = imp.truncated_basis(max_total, modes)
        model = imp.DetectorModel.uniform(eta, modes)
        rng = np.random.default_rng(max_total * 10 + modes)
        p = rng.random(len(basis))
        p /= p.sum()
        recovered = imp.invert_detector_response(
            imp.detector_response(p, basis, model), basis, model
        )
        assert np.abs(recovered - p).max() < 1e-10

    def test_perfect_detectors_invert_to_identity(self):
        basis = imp.truncated_basis(2, 2)
        model = imp.DetectorModel.uniform(1.0, 2)
        p = np.array([0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
        np.testing.assert_allclose(
            imp.invert_detector_response(p, basis, model), p, atol=1e-12
        )

    def test_single_mode_hand_solution(self):
        # One mode, one photon: q(1) = eta p(1), so p(1) = q(1) / eta.
        eta = 0.4
        basis = imp.truncated_basis(1, 1)
        model = imp.DetectorModel.uniform(eta, 1)
        q = np.array([1.0 - 0.3, 0.3])
        p = imp.invert_detector_response(q, basis, model)
        assert p[1] == pytest.approx(0.3 / eta)
        assert p.sum() == pytest.approx(1.0)

    def test_truncation_warning(self):
        basis = imp.truncated_basis(1, 2)
        model = imp.DetectorModel.uniform(0.9, 2)
        with pytest.warns(RuntimeWarning, match="missing"):
            imp.invert_detector_response(np.array([0.5, 0.2, 0.2]), basis, model)

    def test_simplex_projection_flag(self):
        basis = imp.truncated_basis(1, 2)
        model = imp.DetectorModel.uniform(0.6, 2)
        noisy = np.array([0.62, 0.21, 0.17])
        raw = imp.invert_detector_response(noisy, basis, model)
        projected = imp.invert_detector_response(noisy, basis, model, project=True)
        assert projected.min() >= 0.0
        assert projected.sum() == pytest.approx(1.0)
        if raw.min() >= 0.0:
            np.testing.assert_allclose(projected, raw, atol=1e-12)

    def test_simplex_projection_is_euclidean(self):
        v = np.array([0.8, 0.5, -0.3])
        projected = imp.simplex_projection(v)
        assert projected.sum() == pytest.approx(1.0)
        # brute-force check on a fine simplex grid
        best = None
        grid = np.linspace(0, 1, 101)
        for a in grid:
            for b in grid[grid <= 1 - a + 1e-12]:
                candidate = np.array([a, b, 1 - a - b])
                if candidate[2] < -1e-12:
                    continue
                dist = np.linalg.norm(candidate - v)
                if best is None or dist < best[0]:
                    best = (dist, candidate)
        assert np.abs(projected - best[1]).max() < 0.02


class TestUniformLossFactorization:
    def test_detected_sector_equals_scaled_lossless_distribution(self):
        for eta in (0.5, 0.9):
            for photons in (1, 2, 3):
                basis = enumerate_fock_basis(photons, 2)
                rho = tg.random_density_matrix(basis, photons)
                config = lo.haar_random_unitary(2, photons + 7)
                p = tg.outcome_probabilities(rho, config)
                tbasis = imp.truncated_basis(photons, 2)
                detected = imp.detector_response(
                    imp.embed_sector(p, photons, tbasis),
                    tbasis,
                    imp.DetectorModel.uniform(eta, 2),
                )
                sector = detected[tbasis.sector_slice(photons)]
                assert np.abs(sector - eta**photons * p).max() < 1e-12


class TestReconstructMixture:
    def test_exact_round_trip(self):
        mixture, rho1, rho2 = two_component_mixture(seed=5)
        required = max(min_configs_extended(n, 2, 2) for n in (1, 2))
        assert required == 5
        configs = haar_configs(2, required, seed=33)
        records = [
            imp.mixture_joint_probabilities(mixture, c)[1] for c in configs
        ]
        estimate = imp.reconstruct_mixture(records, configs, 2, 2)
        assert estimate.weights[1] == pytest.approx(0.5, abs=1e-10)
        assert estimate.weights[2] == pytest.approx(0.5, abs=1e-10)
        assert tg.trace_distance(estimate.states[1].projected, rho1) < 1e-8
        assert tg.trace_distance(estimate.states[2].projected, rho2) < 1e-8

    def test_round_trip_through_imperfect_detectors(self):
        mixture, rho1, rho2 = two_component_mixture(seed=8)
        model = imp.DetectorModel.uniform(0.9, 2)
        basis = imp.truncated_basis(2, 2)
        configs = haar_configs(2, 5, seed=44)
        records = [
            imp.detector_response(
                imp.mixture_joint_probabilities(mixture, c)[1], basis, model
            )
            for c in configs
        ]
        estimate = imp.reconstruct_mixture(records, configs, 2, 2, model=model)
        assert estimate.weights[1] == pytest.approx(0.5, abs=1e-10)
        assert estimate.weights[2] == pytest.approx(0.5, abs=1e-10)
        assert tg.trace_distance(estimate.states[1].projected, rho1) < 1e-8
        assert tg.trace_distance(estimate.states[2].projected, rho2) < 1e-8

    def test_component_order_does_not_matter(self):
        mixture, _, _ = two_component_mixture(seed=2)
        flipped = imp.PhotonNumberMixture(tuple(reversed(mixture.components)))
        configs = haar_configs(2, 5, seed=3)
        records_a = [imp.mixture_joint_probabilities(mixture, c)[1] for c in configs]
        records_b = [imp.mixture_joint_probabilities(flipped, c)[1] for c in configs]
        est_a = imp.reconstruct_mixture(records_a, configs, 2, 2)
        est_b = imp.reconstruct_mixture(records_b, configs, 2, 2)
        assert est_a.weights == est_b.weights
        for total in est_a.states:
            assert (
                tg.trace_distance(
                    est_a.states[total].projected, est_b.states[total].projected
                )
                < 1e-12
            )

    def test_incomplete_sector_is_reported(self):
        mixture, _, _ = two_component_mixture(seed=6)
        configs = haar_configs(2, 3, seed=1)  # enough for N=1, not for N=2
        records = [imp.mixture_joint_probabilities(mixture, c)[1] for c in configs]
        with pytest.raises(imp.IncompleteSectorError) as err:
            imp.reconstruct_mixture(records, configs, 2, 2)
        assert [n for n, _, _ in err.value.deficits] == [2]
        for total, rank, required in err.value.deficits:
            superop = tg.build_superoperator(configs, total, 2)
            assert rank == tg.gramian_rank(superop).rank < required == fock_dimension(total, 2) ** 2

    def test_vacuum_component_yields_trivial_state(self):
        vacuum = tg.DensityMatrix(
            enumerate_fock_basis(0, 2), np.ones((1, 1), dtype=complex)
        )
        one = tg.random_density_matrix(enumerate_fock_basis(1, 2), 4)
        mixture = imp.PhotonNumberMixture(((0.3, vacuum), (0.7, one)))
        configs = haar_configs(2, 3, seed=21)
        records = [
            imp.mixture_joint_probabilities(mixture, c, max_total=1)[1]
            for c in configs
        ]
        estimate = imp.reconstruct_mixture(records, configs, 2, 1)
        assert estimate.weights[0] == pytest.approx(0.3, abs=1e-12)
        assert estimate.weights[1] == pytest.approx(0.7, abs=1e-12)
        assert tg.trace_distance(estimate.states[1].projected, one) < 1e-8

    def test_vacuum_sector_is_reconstructed_as_the_vacuum(self):
        vacuum = tg.DensityMatrix(
            enumerate_fock_basis(0, 2), np.ones((1, 1), dtype=complex)
        )
        one = tg.random_density_matrix(enumerate_fock_basis(1, 2), 4)
        mixture = imp.PhotonNumberMixture(((0.3, vacuum), (0.7, one)))
        configs = haar_configs(2, 3, seed=21)
        records = [
            imp.mixture_joint_probabilities(mixture, c, max_total=1)[1]
            for c in configs
        ]
        state = imp.reconstruct_mixture(records, configs, 2, 1).states[0]
        assert state.rank == 1
        assert state.projected.photons == 0
        assert np.array_equal(state.projected.matrix, [[1.0]])
        assert state.raw == pytest.approx(np.ones((1, 1)), abs=1e-14)
        assert state.residual < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_non_finite_record_is_named_before_the_solve(self, bad):
        mixture, _, _ = two_component_mixture(seed=5)
        configs = haar_configs(2, 5, seed=33)
        records = imp.mixture_joint_probabilities(mixture, configs)[1]
        records[1, 2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no solve runs to warn
            with pytest.raises(ValueError, match="^frequencies of setting 1 are not finite$"):
                imp.reconstruct_mixture(records, configs, 2, 2)

    def test_empty_input_is_named(self):
        with pytest.raises(ValueError, match="at least one configuration"):
            imp.reconstruct_mixture([], [], 2, 1)

    def test_sampled_records_through_detectors_keep_only_sectors_present_in_every_record(self):
        # The inverted vacuum sector of sampled data is zero-mean noise: a sector
        # kept on its mean mass failed post-selection on about half of these seeds.
        rho1 = tg.random_density_matrix(enumerate_fock_basis(1, 2), 1)
        rho2 = tg.random_density_matrix(enumerate_fock_basis(2, 2), 2)
        mixture = imp.PhotonNumberMixture(((0.4, rho1), (0.6, rho2)))
        configs = [lo.haar_random_unitary(2, 100 + j) for j in range(5)]
        model = imp.DetectorModel.uniform(0.8, 2)
        basis, joint = imp.mixture_joint_probabilities(mixture, configs)
        detected = imp.detector_response(joint, basis, model)
        for seed in range(100):
            records = np.random.default_rng(seed).multinomial(10**5, detected) / 10**5
            estimate = imp.reconstruct_mixture(records, configs, 2, 2, model)
            assert abs(estimate.weights[1] - 0.4) <= 0.01
            assert abs(estimate.weights[2] - 0.6) <= 0.01
            assert all(w <= 0.01 for n, w in estimate.weights.items() if n not in (1, 2))

    def test_a_sector_empty_in_one_record_is_absent(self):
        mixture, _, _ = two_component_mixture(seed=5)
        configs = haar_configs(2, 5, seed=33)
        records = imp.mixture_joint_probabilities(mixture, configs)[1]
        basis = imp.truncated_basis(2, 2)
        records[0, basis.sector_slice(1)] = 0.0
        records[0] /= records[0].sum()
        estimate = imp.reconstruct_mixture(records, configs, 2, 2)
        assert sorted(estimate.states) == [2]


def _parent_simplex_projection(v):
    # The one-law projection as written before stacks were accepted.
    ordered = np.sort(v)[::-1]
    cumulative = np.cumsum(ordered) - 1.0
    indices = np.arange(1, len(v) + 1)
    support = ordered - cumulative / indices > 0
    shift = cumulative[support][-1] / indices[support][-1]
    return np.clip(v - shift, 0.0, None)


# (max_total, modes, settings): K = 35 with N = 3, M' = 4, R = 30, and a two-mode basis.
STACKS = [(3, 4, 30), (2, 2, 5)]


@pytest.fixture(params=STACKS, ids=["K35-R30", "K6-R5"])
def stack(request):
    """A mixture over every total up to max_total, its settings, and its detected laws."""
    max_total, modes, count = request.param
    components = tuple(
        (1.0 / max_total, tg.random_density_matrix(enumerate_fock_basis(n, modes), n))
        for n in range(1, max_total + 1)
    )
    mixture = imp.PhotonNumberMixture(components)
    configs = haar_configs(modes, count, seed=modes)
    basis, joint = imp.mixture_joint_probabilities(mixture, configs)
    model = imp.DetectorModel.uniform(0.8, modes)
    detected = imp.detector_response(joint, basis, model)
    sampled = np.random.default_rng(1).multinomial(10**4, np.clip(detected, 0.0, None)) / 1e4
    return mixture, configs, basis, model, joint, detected, sampled


class TestStackedKernels:
    def test_mixture_joint_rows_are_the_single_setting_laws_bit_for_bit(self, stack):
        mixture, configs, basis, _, joint, _, _ = stack
        assert joint.shape == (len(configs), len(basis))
        for config, row in zip(configs, joint):
            single = imp.mixture_joint_probabilities(mixture, config)[1]
            assert np.array_equal(row, single)
            parent = np.zeros(len(basis))
            for weight, rho in mixture.components:
                parent[basis.sector_slice(rho.photons)] += weight * tg.outcome_probabilities(
                    rho, config
                )
            assert np.array_equal(single, parent)

    def test_mixture_probabilities_stack_each_component(self, stack):
        mixture, configs, _, _, _, _, _ = stack
        last = imp.mixture_probabilities(mixture, configs[-1])
        for total, (weight, laws) in imp.mixture_probabilities(mixture, configs).items():
            assert laws.shape == (len(configs), fock_dimension(total, mixture.modes))
            assert weight == last[total][0]
            assert np.array_equal(laws[-1], last[total][1])

    def test_embed_sector(self, stack):
        mixture, configs, basis, _, _, _, _ = stack
        total = mixture.max_photons
        laws = imp.mixture_probabilities(mixture, configs)[total][1]
        embedded = imp.embed_sector(laws, total, basis)
        rows = np.array([imp.embed_sector(p, total, basis) for p in laws])
        assert np.array_equal(embedded, rows)
        parent = np.zeros(len(basis))
        parent[basis.sector_slice(total)] = laws[0]
        assert np.array_equal(rows[0], parent)
        with pytest.raises(ValueError, match=r"got \(%d, %d\)" % (len(laws), laws.shape[1] - 1)):
            imp.embed_sector(laws[:, 1:], total, basis)

    def test_detector_response(self, stack):
        _, _, basis, model, joint, detected, _ = stack
        rows = np.array([imp.detector_response(p, basis, model) for p in joint])
        assert np.array_equal(detected, rows)  # --efficiency laws keep their bits
        assert np.array_equal(rows[0], imp.response_matrix(basis, model) @ joint[0])

    def test_invert_detector_response(self, stack):
        _, _, basis, model, _, _, sampled = stack
        matrix = imp.response_matrix(basis, model)
        for project in (False, True):
            stacked = imp.invert_detector_response(sampled, basis, model, project=project)
            rows = np.array(
                [imp.invert_detector_response(q, basis, model, project=project) for q in sampled]
            )
            assert np.abs(stacked - rows).max() <= 1e-15
            parent = solve_triangular(matrix, sampled[0], lower=False)
            if project:
                parent = _parent_simplex_projection(parent)
            assert np.array_equal(rows[0], parent)
        assert stacked.min() >= 0.0  # the projection acts on every row

    def test_simplex_projection_rows_are_bit_identical(self, stack):
        _, _, basis, model, _, _, sampled = stack
        raw = imp.invert_detector_response(sampled, basis, model)
        projected = imp.simplex_projection(raw)
        for row, v in zip(projected, raw):
            assert np.array_equal(row, imp.simplex_projection(v))
            assert np.array_equal(row, _parent_simplex_projection(v))
        np.testing.assert_allclose(projected.sum(axis=1), 1.0, atol=1e-12)

    def test_postselect_total(self, stack):
        mixture, _, basis, _, _, detected, _ = stack
        total = mixture.max_photons
        conditionals, masses = imp.postselect_total(detected, basis, total)
        rows = [imp.postselect_total(q, basis, total) for q in detected]
        assert masses.shape == (len(detected),)
        assert np.abs(conditionals - np.array([c for c, _ in rows])).max() <= 1e-15
        assert np.abs(masses - [m for _, m in rows]).max() <= 1e-15
        assert all(type(m) is float for _, m in rows)
        sector = detected[0][basis.sector_slice(total)]
        assert np.array_equal(rows[0][0], sector / sector.sum())
        assert rows[0][1] == float(sector.sum() / detected[0].sum())

    def test_postselect_total_raises_when_any_row_is_empty(self, stack):
        mixture, _, basis, _, _, detected, _ = stack
        emptied = detected.copy()
        emptied[-1, basis.sector_slice(mixture.max_photons)] = 0.0
        with pytest.raises(ValueError, match="no statistical weight in the"):
            imp.postselect_total(emptied, basis, mixture.max_photons)
        emptied[-1] = 0.0
        with pytest.raises(ValueError, match="no statistical weight at all"):
            imp.postselect_total(emptied, basis, mixture.max_photons)

    @pytest.mark.parametrize("kernel", ["detector_response", "invert", "postselect"])
    def test_a_wrong_trailing_length_names_the_shape(self, stack, kernel):
        _, _, basis, model, _, detected, _ = stack
        short = detected[:, :-1]
        call = {
            "detector_response": lambda p: imp.detector_response(p, basis, model),
            "invert": lambda p: imp.invert_detector_response(p, basis, model),
            "postselect": lambda p: imp.postselect_total(p, basis, 1),
        }[kernel]
        for bad in (short, short[0], detected[None]):
            with pytest.raises(ValueError, match=r"expected %d outcomes, got \(" % len(basis)):
                call(bad)

    def test_truncation_warning_fires_when_any_row_is_short(self, stack):
        _, _, basis, model, _, detected, _ = stack
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            imp.invert_detector_response(detected, basis, model)
        short = detected.copy()
        short[-1] *= 0.9
        with pytest.warns(RuntimeWarning, match=r"missing 1\.000e-01"):
            imp.invert_detector_response(short, basis, model)
