"""Closed-form two-mode protocol: fixed beamsplitter, equally spaced phases.

For N photons in two modes, 2N+1 settings suffice: a phase shift
phi_j = 2 pi j / (2N+1) on the second mode followed by a fixed real
beamsplitter of mixing angle theta.  The phase grid turns the outcome
statistics into a discrete Fourier series whose harmonic I couples exactly
the density-matrix entries <n1,n2|rho|n1',n2'> with n2' - n2 = I, so the
state is recovered one harmonic at a time.

Two-mode N-photon states map onto a spin N/2 (mode-occupation difference as
the magnetic quantum number), under which the beamsplitter lift is a Wigner
rotation matrix; that correspondence fixes the admissibility condition on
theta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .combinatorics import enumerate_fock_basis
from .linear_optics import InterferometerConfig, Provenance, lift_unitary
from .tomography import (
    ReconstructionResult,
    _record_frequencies,
    _threshold_scale,
    project_to_state,
)

# The beamsplitter exp(theta (a1^dag a2 - a2^dag a1)) acts on the spin-N/2
# image as exp(-i beta J_y) with beta = -2 theta.  The factor is calibrated
# once against the one-photon lift and then asserted for all N.
BS_SPIN_ANGLE_FACTOR = -2.0

THETA_FLOOR = 1e-3
THETA_GRID_POINTS = 1024


class SingularHarmonicError(ValueError):
    """A phase harmonic's linear system is rank deficient (inadmissible theta)."""

    def __init__(self, harmonic: int, theta: float):
        self.harmonic = harmonic
        self.theta = theta
        super().__init__(
            f"harmonic I={harmonic} is singular at theta={theta!r}; "
            "choose a beamsplitter angle away from Wigner-function zeros"
        )


@lru_cache(maxsize=None)
def _jy_eigenpairs(two_s: int) -> tuple[np.ndarray, np.ndarray]:
    """J_y's eigenvalues and eigenvectors on spin two_s / 2, rows m = S, S-1, ..., -S."""
    spin, m = two_s / 2.0, two_s / 2.0 - np.arange(two_s)  # J_+ |m-1> = c_m |m>
    raising = np.diag(np.sqrt((spin + m) * (spin - m + 1.0)), 1)
    _, vectors = np.linalg.eigh(0.5j * (raising.T - raising))  # J_y = (J_+ - J_-) / 2i
    # The spectrum -S..S taken exact, so that exp(-2 pi i J_y) = (-1)^2S to roundoff.
    return np.arange(-two_s, two_s + 1, 2) / 2.0, vectors


def _rotation(two_s: int, angle: float | np.ndarray, columns=slice(None)) -> np.ndarray:
    """The ``columns`` of d^S(angle) = exp(-i angle J_y) = V exp(-i angle Lambda) V^dag.

    Rows and columns run m = S..-S (S = two_s / 2), the two-mode Fock order
    under m = (n1 - n2)/2.  The margin reads this, not the 2l-photon Fock lift,
    whose |d^l_{m0}| at l = 12 is off by up to 5e-14, against 2e-15 here.
    """
    values, vectors = _jy_eigenpairs(two_s)
    phases = np.exp(-1j * np.multiply.outer(angle, values))
    return np.einsum("...k,ik,jk->...ij", phases, vectors, vectors[columns].conj()).real


def beamsplitter(theta: float) -> np.ndarray:
    """Two-mode real beamsplitter exp(theta (a1^dag a2 - a2^dag a1))."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, s], [-s, c]], dtype=complex)


def admissibility_margin(photons: int, theta: float | np.ndarray) -> float | np.ndarray:
    """Smallest |d^l_{m,0}| over the levels l = 1..N probed by the protocol.

    All harmonic systems are invertible when this margin is bounded away from
    zero; it vanishes at swap-like and balanced angles that hide populations
    or coherences.  An array of angles gives the margin of each.  Columns of
    the 2l-photon lift would break the theta, pi - theta tie by up to 6.1e-14
    at N = 12 through their rounding; ``_rotation``'s keep it within 3e-15.
    """
    angle = BS_SPIN_ANGLE_FACTOR * np.asarray(theta, dtype=float)
    margin = np.full(angle.shape, math.inf)
    for level in range(1, photons + 1):  # the m_in = 0 column of each level
        column = _rotation(2 * level, angle, [level])
        margin = np.minimum(margin, np.abs(column).min(axis=(-2, -1)))
    return float(margin) if margin.ndim == 0 else margin


@lru_cache(maxsize=None)
def choose_theta(photons: int) -> float:
    """Deterministic beamsplitter angle with the best admissibility margin.

    Of ``THETA_GRID_POINTS`` angles equally spaced on (0, pi), scans the half
    below pi/2 and returns the maximin one; the returned margin always clears
    ``THETA_FLOOR``.  theta and pi - theta have the same margin (beta -> -beta
    - 2 pi turns d^l_{m0} into (-1)^m d^l_{m0} at integer l), so the rule takes
    the lower angle of each mirror pair and roundoff never decides between
    them.  The angle depends on N alone, so it is computed once per N.
    """
    if photons < 1:
        raise ValueError(f"photon number must be at least 1, got {photons}")
    grid = np.linspace(0.0, math.pi, THETA_GRID_POINTS + 2)[1 : THETA_GRID_POINTS // 2 + 1]
    margins = admissibility_margin(photons, grid)
    best = int(np.argmax(margins))
    if margins[best] < THETA_FLOOR:
        raise RuntimeError(
            f"no grid angle clears the admissibility floor {THETA_FLOOR} for N={photons}"
        )
    return float(grid[best])


def _phase_grid(photons: int) -> np.ndarray:
    count = 2 * photons + 1
    return 2.0 * math.pi * np.arange(count) / count


@dataclass
class NewtonYoungProtocol:
    """The 2N+1 two-mode settings: phase phi_j on mode 2, then a fixed beamsplitter."""

    photons: int
    theta: float
    phases: np.ndarray
    configs: list[InterferometerConfig]

    def __post_init__(self) -> None:
        if len(self.configs) != 2 * self.photons + 1:
            raise ValueError(
                f"protocol needs {2 * self.photons + 1} settings, got {len(self.configs)}"
            )


def newton_young_configs(
    photons: int, theta: float | None = None
) -> NewtonYoungProtocol:
    """Build the 2N+1 phase-stepped configurations for an admissible theta.

    The phase shifter acts on the state before the beamsplitter, so setting j
    is the matrix diag(1, e^{i phi_j}) followed by the theta-beamsplitter.
    """
    if photons < 1:
        raise ValueError(f"photon number must be at least 1, got {photons}")
    if theta is None:
        theta = choose_theta(photons)
    phases = _phase_grid(photons)
    bs = beamsplitter(theta)
    configs = []
    for j, phi in enumerate(phases):
        g = np.diag([1.0, cmath.exp(1j * phi)]) @ bs
        configs.append(
            InterferometerConfig(
                2, g, Provenance("newton_young", index=j, theta=float(theta))
            )
        )
    return NewtonYoungProtocol(
        photons=photons, theta=float(theta), phases=phases, configs=configs
    )


def dft_harmonics(records: np.ndarray, photons: int) -> np.ndarray:
    """Discrete Fourier transform of the outcome data over the phase grid.

    Returns a (2N+1, n_outcomes) complex array whose row I+N holds
    sum_j exp(-i phi_j I) p_j / (2N+1) for I = -N..N; only these 2N+1
    harmonics exist on the grid, so there is no aliasing.
    """
    data = _record_frequencies(records, 2 * photons + 1)
    phases = _phase_grid(photons)
    harmonics = np.arange(-photons, photons + 1)
    kernel = np.exp(-1j * np.outer(harmonics, phases)) / (2 * photons + 1)
    return kernel @ data


def reconstruct_m2(
    records: np.ndarray,
    photons: int,
    theta: float,
) -> ReconstructionResult:
    """Per-harmonic linear inversion of phase-stepped two-mode data.

    Harmonic I determines the entries <n1,n2|rho|n1',n2'> with n2'-n2 = I
    through the fixed-beamsplitter lift; each harmonic's system is solved by
    least squares, and a rank-deficient system reports the offending I.
    The residual is that of the whole measurement map: the phase-grid DFT is
    unitary up to 1/sqrt(2N+1), so by Parseval it is
    sqrt((2N+1) sum_I |C_I x_I - h_I|^2) over the harmonic systems.
    """
    data = _record_frequencies(records, 2 * photons + 1, photons + 1)
    harmonics = dft_harmonics(data, photons)
    basis = enumerate_fock_basis(photons, 2)
    dim = basis.dimension
    lifted = lift_unitary(beamsplitter(theta), photons).matrix

    occ2 = np.array([state[1] for state in basis])
    systems = []
    for harmonic in range(-photons, photons + 1):
        rows, cols = np.nonzero(occ2[None, :] - occ2[:, None] == harmonic)
        coeffs = (lifted[rows].conj() * lifted[cols]).T  # (D outcomes, n_pairs)
        target = harmonics[harmonic + photons]
        solution, _, _, sigma = np.linalg.lstsq(coeffs, target, rcond=None)
        systems.append((harmonic, rows, cols, coeffs, target, solution, sigma))

    # Rank-test each harmonic against the scale of the whole problem: an
    # inadmissible theta makes a block numerically zero, which would look
    # full-rank under a per-block relative threshold.
    scale = max(sigma[0] for *_, sigma in systems)
    threshold = _threshold_scale((2 * photons + 1, dim), None) * scale

    rho = np.zeros((dim, dim), dtype=complex)
    misfit = 0.0
    for harmonic, rows, cols, coeffs, target, solution, sigma in systems:
        if int((sigma > threshold).sum()) < len(rows):
            raise SingularHarmonicError(harmonic, theta)
        rho[rows, cols] = solution
        misfit += float(np.linalg.norm(coeffs @ solution - target)) ** 2

    return ReconstructionResult(
        raw=rho,
        projected=project_to_state(basis, rho),
        residual=math.sqrt((2 * photons + 1) * misfit),
        rank=dim * dim,
    )
