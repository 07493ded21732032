"""Tomography of multimode photon-number states with linear optics and photon counting."""

from .analytic_m2 import (
    NewtonYoungProtocol,
    SingularHarmonicError,
    beamsplitter,
    choose_theta,
    dft_harmonics,
    newton_young_configs,
    reconstruct_m2,
)
from .combinatorics import (
    DesignSizeBounds,
    FockBasis,
    Signature,
    design_size_bounds,
    enumerate_balanced_signatures,
    enumerate_fock_basis,
    fock_dimension,
    min_configs,
    min_configs_extended,
    min_modes_lower_bound,
    single_config_feasible,
    weyl_dimension,
    zero_weight_dim,
)
from .imperfections import (
    DetectorModel,
    IncompleteSectorError,
    MixtureEstimate,
    PhotonNumberMixture,
    TruncatedBasis,
    detector_response,
    invert_detector_response,
    mixture_joint_probabilities,
    mixture_probabilities,
    postselect_total,
    reconstruct_mixture,
    response_matrix,
    truncated_basis,
)
from .linear_optics import (
    FockUnitary,
    InterferometerConfig,
    Provenance,
    haar_random_unitary,
    lift_unitary,
    mesh_unitary,
    random_mesh_unitary,
)
from .tomography import (
    DensityMatrix,
    IncompleteConfigurationsError,
    RankReport,
    ReconstructionResult,
    Superoperator,
    build_superoperator,
    find_min_configs,
    find_min_modes,
    fock_projector,
    gramian_rank,
    is_complete,
    maximally_mixed,
    outcome_probabilities,
    pure_state,
    random_density_matrix,
    reconstruct,
    sample_shots,
    simulate_records,
    sweep_frequencies,
    trace_distance,
)

__version__ = "0.1.0"
