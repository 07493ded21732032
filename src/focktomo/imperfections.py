"""Source and detector imperfection models.

Sources that emit a photon-number mixture, per-mode sub-unit detection
efficiency (binomial thinning, equivalent to a beamsplitter in front of a
perfect detector), and the post-selection / response-inversion pipelines
that recover the underlying fixed-N states from such data.  Transmission
loss ahead of the detectors is modelled by lowering their efficiencies: a
lossy channel followed by a perfect detector equals a perfect channel
followed by a less efficient one.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.linalg import solve_triangular

from .combinatorics import IndexedStates, enumerate_fock_basis, fock_dimension
from .linear_optics import InterferometerConfig, json_number
from .tomography import (
    DensityMatrix,
    IncompleteConfigurationsError,
    ReconstructionResult,
    _record_frequencies,
    build_superoperator,
    outcome_probabilities,
    reconstruct,
    simplex_projection,
)

WEIGHT_SUM_TOL = 1e-12
TRUNCATION_MASS_TOL = 1e-9
SECTOR_MASS_FLOOR = 1e-10


class IncompleteSectorError(ValueError):
    """Some photon-number sectors cannot be reconstructed from the given configs."""

    def __init__(self, deficits: list[tuple[int, int, int]]):
        self.deficits = deficits
        detail = ", ".join(
            f"N={n} (rank {rank} < {required})" for n, rank, required in deficits
        )
        super().__init__(f"configurations incomplete for sectors: {detail}")


@dataclass(frozen=True)
class TruncatedBasis(IndexedStates):
    """All occupation vectors with total photon number <= max_total.

    States are ordered by ascending total, canonically within each sector, so
    sectors occupy contiguous index ranges.
    """

    max_total: int
    modes: int
    states: tuple[tuple[int, ...], ...]

    def sector_slice(self, total: int) -> slice:
        if not 0 <= total <= self.max_total:
            raise ValueError(f"total {total} outside [0, {self.max_total}]")
        start = sum(fock_dimension(n, self.modes) for n in range(total))
        return slice(start, start + fock_dimension(total, self.modes))


@lru_cache(maxsize=None)
def truncated_basis(max_total: int, modes: int) -> TruncatedBasis:
    """Build (and cache) the all-totals-up-to-N_max basis over M modes."""
    if max_total < 0:
        raise ValueError(f"max_total must be non-negative, got {max_total}")
    states: list[tuple[int, ...]] = []
    for total in range(max_total + 1):
        states.extend(enumerate_fock_basis(total, modes).states)
    return TruncatedBasis(max_total=max_total, modes=modes, states=tuple(states))


def _as_laws(p, outcomes: int, what: str = "outcomes") -> np.ndarray:
    """``p`` as floats: one law of ``outcomes`` entries, or an (R, outcomes) stack."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != outcomes:
        raise ValueError(f"expected {outcomes} {what}, got {p.shape}")
    return p


def embed_sector(p: np.ndarray, total: int, basis: TruncatedBasis) -> np.ndarray:
    """Place a fixed-total law, or an (R, K_N) stack, into the truncated outcome space."""
    sector = basis.sector_slice(total)
    p = _as_laws(p, sector.stop - sector.start, f"states in sector {total}")
    out = np.zeros(p.shape[:-1] + (len(basis),), dtype=float)
    out[..., sector] = p
    return out


def postselect_total(
    p: np.ndarray, basis: TruncatedBasis, total: int
) -> tuple[np.ndarray, float | np.ndarray]:
    """Condition on a fixed detected total; also return the sector mass.

    Works on probabilities or raw counts, one law (a float mass) or an (R, K)
    stack (an (R,) array).  The mass is the sector's share of the input, which
    estimates the emission weight pi_N (or eta^N * pi_N when uncorrected loss
    is present).
    """
    p = _as_laws(p, len(basis))
    grand_total = p.sum(axis=-1, keepdims=True)
    if grand_total.min() <= 0.0:
        raise ValueError("distribution has no statistical weight at all")
    sector = p[..., basis.sector_slice(total)]
    sector_sum = sector.sum(axis=-1, keepdims=True)
    if sector_sum.min() <= 0.0:
        raise ValueError(f"no statistical weight in the {total}-photon sector")
    mass = (sector_sum / grand_total)[..., 0]
    return sector / sector_sum, float(mass) if p.ndim == 1 else mass


@dataclass(frozen=True)
class PhotonNumberMixture:
    """Source model: emits the N-photon state rho_N with probability pi_N."""

    components: tuple[tuple[float, DensityMatrix], ...]

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("mixture needs at least one component")
        total = sum(weight for weight, _ in self.components)
        if not abs(total - 1.0) <= WEIGHT_SUM_TOL:  # NaN fails too
            raise ValueError(f"weights sum to {total}, not 1")
        photon_numbers = [rho.photons for _, rho in self.components]
        if len(set(photon_numbers)) != len(photon_numbers):
            raise ValueError("photon numbers must be distinct across components")
        modes = {rho.modes for _, rho in self.components}
        if len(modes) != 1:
            raise ValueError("all components must share the same mode count")
        for weight, _ in self.components:
            if not weight >= 0.0:
                raise ValueError(f"negative weight {weight}")

    @property
    def modes(self) -> int:
        return self.components[0][1].modes

    @property
    def max_photons(self) -> int:
        return max(rho.photons for _, rho in self.components)

    def weights(self) -> dict[int, float]:
        return {rho.photons: weight for weight, rho in self.components}

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"weight": weight, **rho.to_json_dict()}
                for weight, rho in self.components
            ]
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "PhotonNumberMixture":
        if not isinstance(record, dict) or not isinstance(record.get("components"), list):
            raise ValueError("a mixture must be a JSON object with a 'components' list")
        components = tuple(
            (json_number(entry, "weight", "component", float), DensityMatrix.from_json_dict(entry))
            for entry in record["components"]
        )
        return cls(components)


def mixture_probabilities(
    mixture: PhotonNumberMixture, config: InterferometerConfig | Sequence[InterferometerConfig]
) -> dict[int, tuple[float, np.ndarray]]:
    """Per-component weights and conditional outcome laws, (R, K_N) stacks for R settings."""
    return {
        rho.photons: (weight, outcome_probabilities(rho, config))
        for weight, rho in mixture.components
    }


def mixture_joint_probabilities(
    mixture: PhotonNumberMixture,
    config: InterferometerConfig | Sequence[InterferometerConfig],
    max_total: int | None = None,
) -> tuple[TruncatedBasis, np.ndarray]:
    """Joint detection law over all totals on the truncated basis, (R, K) for R settings."""
    if max_total is None:
        max_total = mixture.max_photons
    if max_total < mixture.max_photons:
        raise ValueError(
            f"truncation at {max_total} drops the {mixture.max_photons}-photon component"
        )
    first = config if isinstance(config, InterferometerConfig) else config[0]
    basis = truncated_basis(max_total, first.modes)
    joint = 0.0
    for total, (weight, conditional) in mixture_probabilities(mixture, config).items():
        joint += weight * embed_sector(conditional, total, basis)
    return basis, joint


@dataclass(frozen=True)
class DetectorModel:
    """Per-mode detection efficiencies, upstream loss included."""

    efficiencies: tuple[float, ...]

    def __post_init__(self) -> None:
        for eta in self.efficiencies:
            if not 0.0 < eta <= 1.0:
                raise ValueError(f"efficiency {eta} outside (0, 1]")

    @classmethod
    def uniform(cls, eta: float, modes: int) -> "DetectorModel":
        return cls(efficiencies=(eta,) * modes)

    @property
    def modes(self) -> int:
        return len(self.efficiencies)


def _binomial_thinning(eta: float, max_total: int) -> np.ndarray:
    # P[k, n] = C(n, k) eta^k (1-eta)^(n-k) for one mode.
    size = max_total + 1
    out = np.zeros((size, size))
    for n in range(size):
        for k in range(n + 1):
            out[k, n] = math.comb(n, k) * eta**k * (1.0 - eta) ** (n - k)
    return out


@lru_cache(maxsize=32)
def response_matrix(basis: TruncatedBasis, model: DetectorModel) -> np.ndarray:
    """Detection map on the truncated space: entry (k, n) is prod_j P_{eta_j}(k_j|n_j).

    Upper triangular in the basis order because detection can only remove
    photons (componentwise k <= n), with strictly positive diagonal
    prod_j eta_j^{k_j}.  Memoised on its (frozen) arguments, so the array
    returned is read-only.
    """
    if model.modes != basis.modes:
        raise ValueError(
            f"model covers {model.modes} modes, basis has {basis.modes}"
        )
    occupations = np.array(basis.states)  # (K, M)
    out = np.ones((len(basis), len(basis)))
    for j, eta in enumerate(model.efficiencies):
        table = _binomial_thinning(float(eta), basis.max_total)
        out *= table[occupations[:, None, j], occupations[None, :, j]]
    out.flags.writeable = False
    return out


def detector_response(
    p: np.ndarray, basis: TruncatedBasis, model: DetectorModel
) -> np.ndarray:
    """Detected law after per-mode binomial thinning, of one law or an (R, K) stack row by row."""
    p = _as_laws(p, len(basis))
    return (response_matrix(basis, model) @ p[..., None])[..., 0]


def invert_detector_response(
    p_detected: np.ndarray,
    basis: TruncatedBasis,
    model: DetectorModel,
    project: bool = False,
) -> np.ndarray:
    """Recover the incident law, or an (R, K) stack, from the detected one.

    Solves the triangular response system exactly (a stack in one solve); with
    sampled data the result can carry small negative entries, which are returned
    as-is unless ``project`` asks for the nearest point on the probability
    simplex, row by row.  A warning is emitted when any law has visibly lost mass
    beyond the truncation (detected events above max_total are not represented).
    """
    q = _as_laws(p_detected, len(basis))
    deficit = np.max(1.0 - q.sum(axis=-1))
    if deficit > TRUNCATION_MASS_TOL:
        warnings.warn(
            f"detected distribution is missing {deficit:.3e} probability mass; "
            f"events beyond the truncation at {basis.max_total} photons are ignored",
            RuntimeWarning,
            stacklevel=2,
        )
    solution = solve_triangular(response_matrix(basis, model), q.T, lower=False).T
    return simplex_projection(solution) if project else solution


@dataclass
class MixtureEstimate:
    """Recovered weights and per-sector states from mixed-total records."""

    weights: dict[int, float]
    states: dict[int, ReconstructionResult]
    sector_masses: dict[int, list[float]]


def reconstruct_mixture(
    records: Sequence[np.ndarray],
    configs: Sequence[InterferometerConfig],
    modes: int,
    max_total: int,
    model: DetectorModel | None = None,
) -> MixtureEstimate:
    """Recover every photon-number component from mixed-total statistics.

    Each record is a distribution over ``truncated_basis(max_total, M')`` for
    the matching configuration.  With a detector model the response is
    inverted first; a sector is kept if its mass exceeds ``SECTOR_MASS_FLOOR``
    in every record (one with no weight in it cannot be post-selected on it),
    its masses estimate its weight, and its state is reconstructed with the
    generic engine.  Completeness is checked per sector at runtime rather than
    assumed, and any deficient sector is reported.
    """
    if not configs:
        raise ValueError("at least one configuration and its record are required")
    if len(records) != len(configs):
        raise ValueError(f"{len(records)} records for {len(configs)} configurations")
    basis = truncated_basis(max_total, configs[0].modes)
    cleaned = _record_frequencies(records, len(configs), len(basis))
    if model is not None:
        cleaned = invert_detector_response(cleaned, basis, model)
    totals = cleaned.sum(axis=1)
    if totals.min() <= 0.0:
        raise ValueError("a record carries no statistical weight")
    masses: dict[int, list[float]] = {}
    states: dict[int, ReconstructionResult] = {}
    deficits: list[tuple[int, int, int]] = []
    for total in range(max_total + 1):
        if (cleaned[:, basis.sector_slice(total)].sum(axis=1) / totals).min() <= SECTOR_MASS_FLOOR:
            continue
        conditionals, sector_masses = postselect_total(cleaned, basis, total)
        masses[total] = sector_masses.tolist()
        try:
            states[total] = reconstruct(build_superoperator(configs, total, modes), conditionals)
        except IncompleteConfigurationsError as short:
            deficits.append((total, short.rank, short.required))
    if deficits:
        raise IncompleteSectorError(deficits)
    return MixtureEstimate(
        weights={total: float(np.mean(m)) for total, m in masses.items()},
        states=states,
        sector_masses=masses,
    )
