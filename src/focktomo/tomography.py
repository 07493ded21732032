"""Measurement superoperator assembly, completeness tests, and reconstruction.

The probability of counting the pattern nu' after configuration g is
p = <nu'| U(g)^dag rho_padded U(g) |nu'>.  Collecting these rows over all
outcomes and configurations gives a rectangular linear map L from the D^2
density-matrix entries to outcome probabilities; tomography is possible
exactly when L has numerical rank D^2, and the state is then recovered as the
least-squares solution.

Every row of L is a Hermitian D x D matrix, so rank, completeness and
reconstruction use L's real coordinates (generalised Gell-Mann style; Bertlmann
& Krammer, J. Phys. A 41, 235303 (2008)), split by U(M) level, End(Sym^N C^M) =
V_0 + ... + V_N, which no setting mixes (one group if M' > M or D = 1).  One kernel,
``_write_level_rows``, forms each level's T-rotated rows in its basis W_l, d_l wide,
straight from a map's settings' lifts a run at a time, into row- or column-major buffers.
A map is factored once, by one QR per level of these, each in the buffer its rows were
written to, and its rank, the levels' direct sum's, comes by certificate, min_l 1 /
||R_l^-1||_F <= sigma_min; singular values are computed only when read or when the
certificate fails.  The minimal-R scan takes the same coordinates and certifies each
step's rank from one d_l x d_l Householder factor per level, with no SVD or Gram matrix
per step, and lets a certified full rank stand as a map's does.  It writes each batch's
rows straight into the free columns of its factors' buffers, holding no second copy, and
keeps the batch's lifts instead: the SVD fallback re-forms from them the level it reads.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from ._lapack import dgeqrf, dgesdd, dgesdd_lwork, dormqr, dtrmm, dtrtri, dtrtrs
from .combinatorics import (
    FockBasis,
    adjoint_tower_signature,
    enumerate_fock_basis,
    fock_dimension,
    min_configs_extended,
    min_modes_lower_bound,
    weyl_dimension,
    zero_weight_dim,
)
from .linear_optics import (
    InterferometerConfig,
    _json_field,
    _sector_tables,
    decode_complex_matrix,
    encode_complex_matrix,
    haar_random_unitary,
    json_number,
    lift_unitary,
    random_mesh_unitary,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_TOL = 1e-10
PROBABILITY_SUM_TOL = 1e-10
NEGATIVE_PROBABILITY_TOL = 1e-12
# A certificate keeps a direction only above KEEP_MARGIN tau_hi (``_projector_bounds``).
KEEP_MARGIN = 16.0
# Level rows are formed from lifts one run of settings at a time, the half form that a run's
# level rows are read from (D(D+1)/2 complex entries by D' outcomes a setting) holding about
# half this many bytes (one setting at least): small settings share numpy's per-call cost in
# a run, large ones keep their half form cache-sized, and no map holds its whole row stack.
# The half form is multiplied out from gathered lift rows of about this many bytes at a
# time, so a setting larger than a run holds little more than its half form.  It also caps
# the block copies that inverting a triangle by halves makes: a triangle whose halves would
# not fit is inverted whole, where it lies.
RUN_BYTES = 2**19

ConfigGenerator = Callable[
    [int, int | Sequence[int]], InterferometerConfig | list[InterferometerConfig]
]

GENERATORS: dict[str, ConfigGenerator] = {
    "haar": haar_random_unitary,
    "mesh": random_mesh_unitary,
}


class IncompleteConfigurationsError(ValueError):
    """The assembled superoperator does not determine the state uniquely."""

    def __init__(self, rank: int, required: int):
        self.rank = rank
        self.required = required
        self.deficit = required - rank
        super().__init__(
            f"configurations are tomographically incomplete: rank {rank} < "
            f"{required} (deficit {self.deficit})"
        )


@dataclass
class DensityMatrix:
    """Hermitian, trace-one, positive-semidefinite operator on a Fock basis."""

    basis: FockBasis
    matrix: np.ndarray

    def __post_init__(self) -> None:
        rho = np.array(self.matrix, dtype=complex)
        d = self.basis.dimension
        if rho.shape != (d, d):
            raise ValueError(f"matrix shape {rho.shape} does not match dimension {d}")
        herm = np.abs(rho - rho.conj().T).max()
        if not herm <= HERMITICITY_TOL:  # NaN fails too
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = rho.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"trace is {tr}, not 1")
        lowest = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min()
        if lowest < -EIGENVALUE_TOL:
            raise ValueError(f"matrix has negative eigenvalue {lowest:.3e}")
        rho.flags.writeable = False
        self.matrix = rho

    @property
    def photons(self) -> int:
        return self.basis.photons

    @property
    def modes(self) -> int:
        return self.basis.modes

    def to_json_dict(self) -> dict:
        return {
            "photons": self.basis.photons,
            "modes": self.basis.modes,
            "matrix": encode_complex_matrix(self.matrix),
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "DensityMatrix":
        photons, modes = (json_number(record, name, "state") for name in ("photons", "modes"))
        basis = enumerate_fock_basis(photons, modes)
        return cls(basis, decode_complex_matrix(_json_field(record, "matrix", "state")))


def pure_state(basis: FockBasis, amplitudes: Sequence[complex]) -> DensityMatrix:
    """Density matrix |psi><psi| from a (normalized) amplitude vector."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.shape != (basis.dimension,):
        raise ValueError("amplitude vector does not match the basis dimension")
    norm = np.linalg.norm(psi)
    if norm == 0:
        raise ValueError("amplitude vector must be nonzero")
    psi = psi / norm
    return DensityMatrix(basis, np.outer(psi, psi.conj()))


def fock_projector(basis: FockBasis, state: Sequence[int]) -> DensityMatrix:
    """Projector onto a single Fock state."""
    rho = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    i = basis.index_of(state)
    rho[i, i] = 1.0
    return DensityMatrix(basis, rho)


def maximally_mixed(basis: FockBasis) -> DensityMatrix:
    return DensityMatrix(
        basis, np.eye(basis.dimension, dtype=complex) / basis.dimension
    )


def random_density_matrix(
    basis: FockBasis, seed: int, rank: int | None = None
) -> DensityMatrix:
    """Random full-rank (or fixed-rank) state from a Ginibre ensemble."""
    d = basis.dimension
    r = d if rank is None else rank
    if not 1 <= r <= d:
        raise ValueError(f"rank must lie in [1, {d}], got {r}")
    rng = np.random.default_rng(seed)
    gin = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = gin @ gin.conj().T
    rho /= rho.trace().real
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(basis, rho)


def trace_distance(a: DensityMatrix | np.ndarray, b: DensityMatrix | np.ndarray) -> float:
    """Half the trace norm of the difference of two operators."""
    ma = a.matrix if isinstance(a, DensityMatrix) else np.asarray(a, dtype=complex)
    mb = b.matrix if isinstance(b, DensityMatrix) else np.asarray(b, dtype=complex)
    return 0.5 * float(np.linalg.svd(ma - mb, compute_uv=False).sum())


def _restricted_lift(configs, photons: int, modes: int) -> np.ndarray:
    """Rows of the lifted unitary that start from the M-mode (vacuum-padded) sector.

    Since <alpha|U(g)|nu> = <nu|U(g^T)|alpha>, these rows are the padded
    input columns of the lift of g^T, transposed; the other D' - D rows are
    never built.  A sequence of R settings gives (R, D, D') from one lift.
    """
    one = isinstance(configs, InterferometerConfig)
    g = configs.matrix.T if one else np.stack([c.matrix.T for c in configs])
    return lift_unitary(g, photons, in_modes=modes).matrix.swapaxes(-1, -2)  # (R,) D, D'


def outcome_probabilities(
    rho: DensityMatrix, config: InterferometerConfig | Sequence[InterferometerConfig]
) -> np.ndarray:
    """Photon-counting distribution over the M'-mode outcome basis.

    ``Superoperator.laws`` of ``build_superoperator``'s map: R settings give R laws
    from one lift, each diag(V_r^dag rho V_r) of setting r's restricted lift V_r and
    equal bit for bit to setting r's alone; no row of the map is formed.  Entries may carry
    roundoff at the -1e-16 level and are returned unclipped, so callers can see (and
    report) them; the laws pass ``_law_rows``, or ``RuntimeError`` says which check failed.
    """
    configs = [config] if isinstance(config, InterferometerConfig) else list(config)
    laws = build_superoperator(configs, rho.photons, rho.modes).laws(rho)
    return laws[0] if isinstance(config, InterferometerConfig) else laws


@dataclass
class Superoperator:
    """Linear map from density-matrix entries to stacked outcome probabilities.

    Row (config j, outcome nu') holds conj(<alpha|U_j|nu'>) <beta|U_j|nu'> at
    column (alpha, beta); rows are config-major in the given order, outcomes
    in canonical Fock order, and columns row-major over (alpha, beta).  The map is
    kept once, as its settings' restricted lifts ``lift`` (R, D, D'), read-only, so
    the factors cached from it (one QR per U(M) level) cannot go stale.
    """

    photons: int
    modes: int
    meas_modes: int
    configs: tuple[InterferometerConfig, ...]
    lift: np.ndarray
    basis_in: FockBasis = field(init=False)
    basis_out: FockBasis = field(init=False)
    shape: tuple[int, int] = field(init=False)  # the map's (R D', D^2)

    def __post_init__(self) -> None:
        self.basis_in = enumerate_fock_basis(self.photons, self.modes)
        self.basis_out = enumerate_fock_basis(self.photons, self.meas_modes)
        self.shape = (len(self.configs) * self.basis_out.dimension, self.basis_in.dimension**2)
        expected = (len(self.configs), self.basis_in.dimension, self.basis_out.dimension)
        if self.lift.shape != expected:
            raise ValueError(f"lift shape {self.lift.shape}, expected {expected}")
        self.lift = self.lift.view()
        self.lift.flags.writeable = False

    @property
    def _bases(self) -> _LevelBases:
        return _level_bases(self.photons, self.modes, self.meas_modes)

    @cached_property
    def _factor(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Raw Householder QR (reflectors, tau) of each level's ``_level_rows``, factored in
        place in the column-major buffers they are written to; R_l is their upper triangle."""
        bases, count, factors = self._bases, self.n_configs, []
        levels = [np.empty((count * z, dim), order="F") for z, dim in zip(bases.sizes, bases.dims)]
        _write_level_rows(bases, self.lift, levels)
        for rows in levels:
            reflectors, tau, _, info = dgeqrf(rows, lwork=64 * rows.shape[1], overwrite_a=1)
            if info:
                raise ValueError(f"dgeqrf rejected argument {-info}")
            factors.append((reflectors, tau))
        return factors

    def _triangles(self) -> Iterator[np.ndarray]:
        """Each level's R_l, min(rows, d_l) x d_l, in F order, one at a time."""
        return (_upper(reflectors[: reflectors.shape[1]]) for reflectors, _ in self._factor)

    @cached_property
    def _sigma_min_bound(self) -> float:
        """min_l 1 / ||R_l^-1||_F <= sigma_min(L) (0 if an R_l is short or singular), L's sigma
        being the union of the levels', each R_l inverted in its one copy (``_invert_upper``)."""
        low = np.inf
        for r in self._triangles():
            info = _invert_upper(r) if r.shape[0] == r.shape[1] else 1
            low = min(low, 0.0 if info else 1.0 / float(np.linalg.norm(r)))
            del r  # one level's triangle at a time
        return low

    @cached_property
    def singular_values(self) -> np.ndarray:
        """L's singular values, from the R_l's (one SVD each, on first read)."""
        union = [np.linalg.svd(r, compute_uv=False) for r in self._triangles()]
        return _direct_sum_sigma(union, self.shape)

    @property
    def n_configs(self) -> int:
        return len(self.configs)

    def apply(self, rho: np.ndarray | DensityMatrix) -> np.ndarray:
        """L vec(rho), (R D',): each setting's diag(V_r^dag rho V_r) from its lift V_r, one
        ``einsum`` whose row r holds the bits of setting r's alone."""
        mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
        v = self.lift
        return np.einsum("rav,rav->rv", v.conj(), mat @ v).real.reshape(-1)

    def laws(self, rho: np.ndarray | DensityMatrix) -> np.ndarray:
        """Each setting's outcome law, (R, D').  The map's own output, so a law that fails
        ``_law_rows`` is a numerical failure: its message is raised as ``RuntimeError``."""
        return _law_rows(self.apply(rho).reshape(self.n_configs, -1), RuntimeError)


def build_superoperator(
    configs: Sequence[InterferometerConfig], photons: int, modes: int
) -> Superoperator:
    """The measurement map of the given configurations, from one lift."""
    if not configs:
        raise ValueError("at least one configuration is required")
    counts = sorted({c.modes for c in configs})
    if counts[0] < modes:
        raise ValueError(f"configuration has {counts[0]} modes, state needs at least {modes}")
    if len(counts) > 1:
        raise ValueError(f"all configurations must act on the same number of modes, got {counts}")
    lift = _restricted_lift(configs, photons, modes)
    return Superoperator(photons, modes, counts[0], tuple(configs), lift)


class RankReport:
    """Numerical rank of the measurement map.  The singular values behind it (and
    sigma_max, threshold, smallest_kept, largest_dropped) are taken on first read, which
    raises ``RuntimeError`` if they give another rank than ``rank``."""

    def __init__(self, rank: int, read_sigma: Callable[[], np.ndarray], scale: float):
        self.rank, self._read_sigma, self._scale = rank, read_sigma, scale

    @cached_property
    def singular_values(self) -> np.ndarray:
        sigma = self._read_sigma()
        if (rank := int((sigma > self._scale * sigma[0]).sum())) != self.rank:
            raise RuntimeError(f"rank {self.rank} certified, {rank} by SVD")
        return sigma

    def _sigma_at(self, i: int) -> float | None:
        return float(self.singular_values[i]) if 0 <= i < len(self.singular_values) else None

    sigma_max = property(lambda self: self._sigma_at(0))
    threshold = property(lambda self: self._scale * self.sigma_max)
    smallest_kept = property(lambda self: self._sigma_at(self.rank - 1))
    largest_dropped = property(lambda self: self._sigma_at(self.rank))

    def summary(self) -> str:
        kept = "-" if self.smallest_kept is None else f"{self.smallest_kept:.3e}"
        dropped = "-" if self.largest_dropped is None else f"{self.largest_dropped:.3e}"
        return (
            f"rank {self.rank} (sigma_max {self.sigma_max:.3e}, smallest kept {kept}, "
            f"largest dropped {dropped}, threshold {self.threshold:.3e})"
        )


def _direct_sum_sigma(union: list[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """The levels' sigma ``union``, then their direct sum's exact zeros, to min(shape)."""
    sigma = np.sort(np.concatenate(union + [np.zeros(min(shape))]))[::-1][: min(shape)]
    sigma.flags.writeable = False
    return sigma


def _threshold_scale(shape: tuple, rel_threshold: float | None) -> float | np.ndarray:
    """The rank threshold over sigma_max: max(rows, cols) * eps, or ``rel_threshold``."""
    if rel_threshold is None:
        return np.maximum(*shape) * np.finfo(float).eps
    if not 0.0 < rel_threshold < 1.0:  # at 1 or above no sigma could pass
        raise ValueError(f"rel_threshold must lie in (0, 1), got {rel_threshold}")
    return rel_threshold


def _projector_bounds(r: int | np.ndarray, d: int, d_out: int, scale: float | np.ndarray) -> tuple:
    """tau_hi = scale sqrt(R), the cushion c = sqrt(D^2) eps sqrt(R D) and sqrt(R D / D') for
    a map (or maps) of R = ``r`` settings, D = ``d`` inputs and D' = ``d_out`` outcomes.  A
    setting's outcome projectors u_v u_v^dag sum to the identity on the inputs, so sum_v
    (u_v^dag H u_v)^2 <= tr H^2: sigma_max^2 <= R, equal at M' = M, and ||L||_F^2 = sum
    ||u_v||^4 <= R D; the trace direction vec(I) / sqrt(D) gives sigma_max^2 >= R D / D'."""
    return scale * np.sqrt(r), d * np.finfo(float).eps * np.sqrt(r * d), np.sqrt(r * d / d_out)


def gramian_rank(
    superop: Superoperator | _LevelStack | np.ndarray, rel_threshold: float | None = None
) -> RankReport:
    """Numerical rank of L: its singular values above max(rows, cols) * eps * sigma_max,
    or ``rel_threshold`` times sigma_max.

    One rank policy: a rank certified at this threshold stands, a ``Superoperator``'s full
    rank from its levels' factors or a scan's (``_LevelStack``), and its singular values are
    taken only when the report's are read, which raises if they disagree.  Else an array
    takes a values-only SVD, and a map or a stack its levels' ``singular_values``.  Both
    certify a level by 1 / ||L||_F, L a left inverse of its triangular factor, against a bar
    KEEP_MARGIN (tau_hi + c) in a map and KEEP_MARGIN tau_hi + e + c in a scan (e + c below
    the threshold at sigma_max's lower bound), all read from the map's shape by
    ``_projector_bounds``.  One rounding allowance covers both: c bounds the factor's
    backward error, as the SVD's; the computed 1 / ||L||_F (``_invert_upper``'s inverse,
    whose error bound has ``dtrtri``'s form, then the bordering) errs by a relative d_l eps
    sigma_max ||L||_F or so, about 1 / KEEP_MARGIN at the bar with the default tau (>= D^2
    eps sqrt(R)), and a bound off by 15/17 still clears tau + e + c.  A smaller
    ``rel_threshold`` asks for sigma that no SVD resolves better than c.
    """
    carried = isinstance(superop, (Superoperator, _LevelStack))
    superop = superop if carried else np.asarray(superop)
    shape = superop.shape
    scale = _threshold_scale(shape, rel_threshold)
    if np.prod(shape) == 0:
        raise ValueError("empty superoperator")
    if isinstance(superop, Superoperator):
        d, d_out = superop.basis_in.dimension, superop.basis_out.dimension
        tau_hi, cushion, _ = _projector_bounds(superop.n_configs, d, d_out, scale)
        if superop._sigma_min_bound >= KEEP_MARGIN * (tau_hi + cushion):
            return RankReport(shape[1], lambda: superop.singular_values, scale)
    elif carried and superop.rank is not None and superop.scale == scale:
        return RankReport(superop.rank, lambda: superop.singular_values, scale)
    sigma = superop.singular_values if carried else np.linalg.svd(superop, compute_uv=False)
    return RankReport(int((sigma > scale * sigma[0]).sum()), lambda: sigma, scale)


def is_complete(
    configs: Sequence[InterferometerConfig],
    photons: int,
    modes: int,
    rel_threshold: float | None = None,
) -> bool:
    """True iff the configurations pin down every density-matrix entry."""
    superop = build_superoperator(configs, photons, modes)
    return gramian_rank(superop, rel_threshold).rank == superop.shape[1]


def _record_frequencies(records: np.ndarray, count: int, outcomes: int | None = None) -> np.ndarray:
    """An array of frequencies as a (count, outcomes) array.

    The array holds one row per configuration, or is flat when ``outcomes`` is given;
    with ``outcomes`` None the rows may have any common length.  A row that is not finite
    raises ``ValueError`` naming its setting, before any solve reads it; negative entries
    pass, as inverted detector data carries them.
    """
    data = np.asarray(records, dtype=float)
    if data.ndim == 1 and outcomes and data.size == count * outcomes:
        data = data.reshape(count, outcomes)
    if data.ndim != 2 or data.shape[0] != count or data.shape[1] != (outcomes or data.shape[1]):
        expected = f"({count}, {outcomes})" if outcomes else f"{count} rows"
        raise ValueError(f"frequencies have shape {data.shape}, expected {expected}")
    if not (finite := np.isfinite(data).all(axis=1)).all():
        raise ValueError(f"frequencies of setting {np.argmin(finite)} are not finite")
    return data


@dataclass
class ReconstructionResult:
    """Raw least-squares estimate plus its physical (PSD) projection.

    ``raw`` is the unconstrained least-squares solution (Hermitian); ``projected``
    is the density matrix nearest to it in Frobenius norm (see ``project_to_state``).
    The raw estimate is always reported because the projection is a labelled
    convenience, never a silent substitute.
    """

    raw: np.ndarray
    projected: DensityMatrix
    residual: float
    rank: int


def simplex_projection(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex, row by row along the last axis."""
    v = np.asarray(v, dtype=float)
    ordered = np.flip(np.sort(v, axis=-1), axis=-1)
    cumulative = np.cumsum(ordered, axis=-1) - 1.0
    support = ordered - cumulative / np.arange(1, v.shape[-1] + 1) > 0
    last = v.shape[-1] - 1 - np.argmax(np.flip(support, axis=-1), axis=-1, keepdims=True)
    shift = np.take_along_axis(cumulative, last, axis=-1) / (last + 1)
    return np.clip(v - shift, 0.0, None)


def project_to_state(basis: FockBasis, matrix: np.ndarray) -> DensityMatrix:
    """The density matrix nearest to ``matrix`` in Frobenius norm.

    The anti-Hermitian part is orthogonal to every state, so this is the
    state nearest to the Hermitian part: its eigenvalues are projected onto
    the probability simplex and its eigenvectors kept (Smolin, Gambetta &
    Smith, PRL 108, 070502 (2012)).
    """
    herm = (matrix + matrix.conj().T) / 2.0
    values, vectors = np.linalg.eigh(herm)
    rho = (vectors * simplex_projection(values)) @ vectors.conj().T
    return DensityMatrix(basis, (rho + rho.conj().T) / 2.0)


def reconstruct(
    superop: Superoperator,
    records: np.ndarray,
    rel_threshold: float | None = None,
) -> ReconstructionResult:
    """Recover the state from outcome statistics by least squares on the real form.

    Reads the map's cached factors: each setting's p is rotated by T (one group: not
    at all), each level's part by Q_l^T, its leading d_l entries are solved through R_l
    and mapped back through W_l; the rest give the residual.  At full rank this equals
    the normal-equation solution (L^dag L)^{-1} L^dag p while conditioning better; a
    map below rank D^2 at ``gramian_rank``'s threshold raises
    ``IncompleteConfigurationsError`` with the deficit.
    """
    p = _record_frequencies(records, superop.n_configs, superop.basis_out.dimension)
    required = superop.basis_in.dimension ** 2
    rank = gramian_rank(superop, rel_threshold).rank
    if rank < required:
        raise IncompleteConfigurationsError(rank=rank, required=required)
    bases = superop._bases
    t = bases.rotation  # each setting's outcomes rotated by T, then split by level
    levels = np.split(p if t is None else p @ t.T, np.cumsum(bases.sizes)[:-1], axis=1)
    solutions, tails = [], []
    for (reflectors, tau), rows in zip(superop._factor, levels):
        rotated, _, info = dormqr("L", "T", reflectors, tau, rows.reshape(-1, 1), lwork=1)
        if info != 0:
            raise ValueError(f"dormqr rejected argument {-info}")
        dim = reflectors.shape[1]
        # R^-1 Q^T p, as scipy's solve_triangular takes it but without its checks
        solution, info = dtrtrs(reflectors[:dim], rotated[:dim], lower=0, trans=0)
        if info:
            raise np.linalg.LinAlgError(f"singular R_l: resolution failed at diagonal {info - 1}")
        solutions.append(solution[:, 0])
        tails.append(rotated[dim:, 0])
    raw = _level_estimate(bases, solutions)
    residual = float(np.linalg.norm(np.concatenate(tails)))
    projected = project_to_state(superop.basis_in, raw)
    return ReconstructionResult(raw=raw, projected=projected, residual=residual, rank=rank)


def _law_rows(p: np.ndarray, error: type[Exception]) -> np.ndarray:
    """A stack of outcome laws as (-1, K) rows, once it passes the one law rule: it is an
    array, not empty, every entry lies within [-NEGATIVE_PROBABILITY_TOL, 1 +
    NEGATIVE_PROBABILITY_TOL] (NaN fails) and each law sums to 1 within PROBABILITY_SUM_TOL.
    The first check to fail raises its message as ``error``: the caller says whether a bad
    law is bad input (``ValueError``) or a numerical failure (``RuntimeError``)."""
    if p.ndim == 0:
        raise error("cannot sample shots from a scalar; an outcome law is an array")
    if p.size == 0:
        raise error("cannot sample shots from an empty outcome law")
    low, high = p.min(), p.max()
    if not low >= -NEGATIVE_PROBABILITY_TOL:  # NaN fails too
        raise error(f"probability entry {low:.3e} is negative")
    if not high <= 1.0 + NEGATIVE_PROBABILITY_TOL:
        raise error(f"probability entry {high} exceeds 1")
    rows = p.reshape(-1, p.shape[-1])
    totals = rows.sum(axis=1)
    worst = totals[np.argmax(np.abs(totals - 1.0))]
    if not abs(worst - 1.0) <= PROBABILITY_SUM_TOL:
        raise error(f"probabilities sum to {worst}, not 1")
    return rows


def _check_shots(shots: int) -> None:
    """``ValueError`` unless ``shots`` is a non-negative integer, not a bool, that the
    sampler's int64 holds."""
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)) or shots < 0:
        raise ValueError(f"shot count must be a non-negative integer, got {shots}")
    if int(shots) > (largest := np.iinfo(np.int64).max):  # exact for numpy integers too
        raise ValueError(f"shot count must be at most {largest}, got {shots}")


def sample_shots(
    p: np.ndarray, shots: int, seed: int | np.random.SeedSequence | Sequence
) -> np.ndarray:
    """Multinomial counts for a probability vector, deterministic per seed.

    An (R, K) stack of laws takes a sequence of R seeds and gives (R, K) counts,
    row r equal to law r's own counts with seed r.  ``shots`` passes ``_check_shots``,
    the laws pass ``_law_rows`` (the rule ``Superoperator.laws`` holds its output to) and
    a stack's seeds are one a law, or ``ValueError`` says which failed; tiny negative
    roundoff is clipped to zero (and each law renormalized) before drawing.
    """
    _check_shots(shots)
    p = np.asarray(p, dtype=float)
    laws = _law_rows(p, ValueError)
    seeds = [seed] if p.ndim == 1 else seed
    sized = isinstance(seed, (Sequence, np.ndarray)) and not isinstance(seed, str)
    if p.ndim > 1 and not (sized and len(seed) == len(laws)):
        got = f"{len(seed)} seeds" if sized else type(seed).__name__
        count = len(laws)
        raise ValueError(f"a stack of {count} laws takes a sequence of {count} seeds, got {got}")
    if shots == 0:
        return np.zeros(p.shape, dtype=np.int64)
    clipped = np.clip(laws, 0.0, None)
    clipped /= clipped.sum(axis=1, keepdims=True)
    counts = [
        np.random.default_rng(s).multinomial(shots, law)
        for s, law in zip(seeds, clipped, strict=True)
    ]
    return np.reshape(counts, p.shape)


def sweep_frequencies(laws: np.ndarray, shots: Sequence[int], seed: int = 0) -> np.ndarray:
    """Every shot count's frequencies of ``laws`` as one (S, *laws.shape) stack.

    The laws are read as (-1, K) rows, one setting a row, so a single (K,) law is one
    setting, and are checked once by ``_law_rows`` (the rule ``Superoperator.laws`` holds
    its output to), the same way at every shot count, a bad law raising ``ValueError``;
    every shot count passes ``_check_shots`` before anything is drawn.  Entry k is the
    laws themselves at 0 shots, else counts / shots, setting j drawing from the j-th
    child of ``SeedSequence(seed).spawn(R)``, spawned once for the sweep, so every
    (seed, setting) pair has a stream of its own.
    """
    laws = np.asarray(laws, dtype=float)
    rows = _law_rows(laws, ValueError)
    for n in shots:
        _check_shots(n)
    streams = np.random.SeedSequence(seed).spawn(len(rows))
    stack = np.empty((len(shots), *rows.shape))
    for k, n in enumerate(shots):
        stack[k] = rows if n == 0 else sample_shots(rows, n, streams) / n
    return stack.reshape(len(shots), *laws.shape)


def simulate_records(
    rho: DensityMatrix,
    configs: InterferometerConfig | Sequence[InterferometerConfig],
    shots: int = 0,
    seed: int = 0,
) -> np.ndarray:
    """Exact (shots=0) or finite-shot frequencies, ``sweep_frequencies`` at one shot count:
    (R, K), one row per configuration, or (K,) for one configuration, equal to row 0 of
    the same call on ``[config]``."""
    return sweep_frequencies(outcome_probabilities(rho, configs), [shots], seed)[0]


def config_drawer(generator: str, seed: int) -> Callable[[int, int], list[InterferometerConfig]]:
    """The one rule by which searches and the CLI draw settings.

    ``generator`` is a ``GENERATORS`` name.  ``draw(modes, count)`` makes the next
    ``count`` settings on the given number of modes, in one generator call: the k-th
    setting of a run of draws is seeded by the k-th integer below 2**63 that
    ``np.random.default_rng(seed)`` draws, whatever the counts that split the run.
    """
    try:
        make = GENERATORS[generator]
    except KeyError:
        raise ValueError(
            f"unknown generator {generator!r}; choose from {sorted(GENERATORS)}"
        ) from None
    rng = np.random.default_rng(seed)
    return lambda modes, count: make(modes, rng.integers(2**63, size=count))


@dataclass
class MinConfigSearch:
    """Result of growing a configuration set until the measurement map fills up."""

    photons: int
    modes: int
    meas_modes: int
    generator: str
    seed: int
    found: int | None
    rank_trace: list[tuple[int, int]]
    required_rank: int
    lower_bound: int
    configs: list[InterferometerConfig]

    @property
    def best_rank(self) -> int:
        return max(rank for _, rank in self.rank_trace)


_LevelBases = namedtuple("_LevelBases", "rotation sizes dims entries blocks picks")


@lru_cache(maxsize=None)
def _level_bases(photons: int, modes: int, meas_modes: int) -> _LevelBases:
    """Rotation T of a setting's outcome rows, its row groups' sizes z_l, the levels' d_l
    and their orthonormal bases W_l in real Hermitian coordinates, by weight block.

    End(Sym^N C^M) = V_0 + ... + V_N, no setting mixes the V_l, and the U(M) Casimir
    C(X) = sum_ij [E_ij, [E_ji, X]], E_ij = a_i^dag a_j, is 2l(l+M-1) on V_l.  As
    sum_ij E_ij E_ji = N(N+M-1), C = 2N(N+M-1) - 2 B^T B, B = sum_i a_i (x) a_i mapping
    |s><t| to sum_i sqrt(s_i t_i) |s - e_i><t - e_i|: one ``eigh`` per weight s - t.  At
    weight 0, home of the M' = M outcome projectors, its eigenvectors are T's rows,
    group l the z_l of V_l.  Weights mu and -mu give Re and Im coordinates of |s><t| +
    h.c.  H's half form is its ``entries`` (flat s D + t): from each block's ``start``,
    c weights of n > 1 operators (the diagonal first), eigenvectors (c, n, n); a weight
    of one operator, its own eigenvector, has no block.  W_l reads it so transformed,
    as reals (Re, Im interleaved), at ``picks[l]``.  One group
    (M' > M, or D = 1) has no rotation, z_0 = D' and d_0 = D^2: its half form is the
    diagonal and the a < b pairs, untransformed, read as the real Hermitian coordinates
    (H_aa, sqrt2 Re H_ab, sqrt2 Im H_ab).
    """
    d, d_out = fock_dimension(photons, modes), fock_dimension(photons, meas_modes)
    if meas_modes > modes or d == 1:
        a, b = np.triu_indices(d, 1)
        entries, off = np.r_[np.arange(d) * (d + 1), a * d + b], 2 * (d + np.arange(len(a)))
        picks = (np.r_[2 * np.arange(d), off, off + 1],)
        return _LevelBases(None, (d_out,), (d * d,), entries, (), picks)
    lower, root, _ = _sector_tables(photons, modes)
    below, levels = fock_dimension(photons - 1, modes), np.arange(photons + 1)
    spectrum = 2 * levels * (levels + modes - 1)

    def casimir(s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """C's eigenpairs on c weights' operators |s><t|, (c, n): B's image is named by
        s - e_i, which fixes t - e_i (s_i t_i = 0 adds 0 at index 0)."""
        c, n = s.shape
        b = np.zeros((c, below, n))
        at = (np.arange(c)[:, None, None], lower[s], np.arange(n)[:, None])
        np.add.at(b, at, root[s] * root[t])
        return np.linalg.eigh(spectrum[-1] * np.eye(n) - 2 * b.transpose(0, 2, 1) @ b)  # 2N(N+M-1)

    values, vectors = casimir(*2 * (np.arange(d)[None],))
    a, b = np.triu_indices(d, 1)
    occupations = np.array(enumerate_fock_basis(photons, modes).states)
    weight = occupations[a] - occupations[b]
    flip = weight[np.arange(len(a)), np.argmax(weight != 0, axis=1)] < 0
    weight[flip] *= -1  # |s><t| with s - t leading positive stands for the pair
    order = np.lexsort(weight.T)  # equal weights adjacent
    klass = np.cumsum(np.r_[0, np.any(np.diff(weight[order], axis=0), axis=1)])
    n = np.bincount(klass)[klass]
    order = order[np.lexsort((klass, n))]  # by block size, then weight
    pairs, n = (np.where(flip, b, a) * d + np.where(flip, a, b))[order], np.sort(n)
    entries, blocks, eigenvalues = [np.arange(d) * (d + 1)], [(0, vectors)], [values.ravel()]
    for size in np.unique(n):
        start, block = sum(map(len, entries)), pairs[n == size]
        block_values, block_vectors = casimir(*np.divmod(block.reshape(-1, size), d))
        entries.append(block)
        if size > 1:  # a 1 x 1 block's eigenvector is 1: it leaves its operator as it is
            blocks.append((start, block_vectors))
        eigenvalues += 2 * [block_values.ravel()]
    sizes = tuple(zero_weight_dim(l, modes) for l in levels)
    dims = tuple(weyl_dimension(adjoint_tower_signature(l, modes), modes) for l in levels)
    if max(np.abs(values[0] - np.repeat(spectrum, sizes)).max(),
           np.abs(np.sort(np.concatenate(eigenvalues)) - np.repeat(spectrum, dims)).max()) > 1.0:
        raise AssertionError(f"the Casimir of N={photons}, M={modes} has the wrong spectrum")
    level = np.searchsorted((spectrum[1:] + spectrum[:-1]) / 2, np.concatenate(eigenvalues[1::2]))
    groups, picks = np.cumsum((0,) + sizes), []
    for l in levels:
        eigen = 2 * (d + np.flatnonzero(level == l))
        picks.append(np.r_[2 * np.arange(groups[l], groups[l + 1]), eigen, eigen + 1])
    rotation = vectors[0].T
    rotation.flags.writeable = False
    return _LevelBases(rotation, sizes, dims, np.concatenate(entries), tuple(blocks), tuple(picks))


def _level_estimate(bases: _LevelBases, solutions: Sequence[np.ndarray]) -> np.ndarray:
    """The matrix whose W_l coordinates are ``solutions``, transposed: a row vec(H)
    meets rho as coords(H) . coords(rho^T), so the solutions hold rho^T's."""
    d = round(sum(bases.dims) ** 0.5)
    pairs = bases.entries[d:]
    half, rho = np.zeros(len(bases.entries), dtype=complex), np.empty(d * d, dtype=complex)
    for x, p in zip(solutions, bases.picks):
        half.view(float)[p] = x
    for start, vectors in bases.blocks:
        c, n, _ = vectors.shape
        block = half[start : start + c * n].reshape(c, n, 1)
        block[:] = vectors @ block
    rho[:: d + 1] = half[:d].real
    rho[(pairs % d) * d + pairs // d] = half[d:] / np.sqrt(2.0)  # rho_ts = H_st
    rho[pairs] = half[d:].conj() / np.sqrt(2.0)
    return rho.reshape(d, d)


def _level_rows(bases: _LevelBases, lifted: np.ndarray) -> list[np.ndarray]:
    """Each level's T-rotated rows of R settings' map in W_l coordinates, (R z_l, d_l), from
    their lifts (R, D, D'), row-major; one group's are the real Hermitian coordinates,
    (R D', D^2).  ``_write_level_rows`` forms them."""
    levels = [np.empty((len(lifted) * z, dim)) for z, dim in zip(bases.sizes, bases.dims)]
    _write_level_rows(bases, lifted, levels)
    return levels


def _runs(lift: np.ndarray) -> list[slice]:
    """The settings of ``lift`` (R, D, D') in runs whose half form is about RUN_BYTES / 2."""
    step = max(1, RUN_BYTES // (16 * lift.shape[2] * lift.shape[1] ** 2))
    return [slice(start, start + step) for start in range(0, len(lift), step)]


def _write_level_rows(
    bases: _LevelBases, lifted: np.ndarray, levels: list[np.ndarray | None]
) -> None:
    """``_level_rows``, written run by run into ``levels``: buffers of either layout, each
    holding its level's rows of the first R_l <= R settings, (R_l z_l, d_l), or None for a
    level not formed.  A run forms only H's half form entries-major, conj(<s|U|v>) <t|U|v>
    at ``entries`` by outcome v, (r, E, D'), in one buffer that every run reuses; each level
    is then one gather at its ``picks`` and one product by its row group of T, formed
    row-major and stored: BLAS rounds a product written column-major differently, and both
    layouts must hold the same bits.  Each setting's rows have the same bits whatever the
    run, the other settings and the levels formed beside them."""
    rotation, d, d_out = bases.rotation, lifted.shape[1], lifted.shape[2]
    levels = [  # views, (R_l, z_l, d_l)
        None if rows is None else rows.reshape(-1, z, rows.shape[1])
        for rows, z in zip(levels, bases.sizes)
    ]
    lifted = lifted[: max((len(rows) for rows in levels if rows is not None), default=0)]
    if not len(lifted):
        return
    s, t = np.divmod(bases.entries, d)
    groups = [None] if rotation is None else np.split(rotation, np.cumsum(bases.sizes)[:-1])
    picks = [np.divmod(p, 2) for p in bases.picks]  # (entry, Re 0 or Im 1)
    runs = _runs(lifted)
    buffer = np.empty((len(lifted[runs[0]]), len(s), d_out), dtype=complex)
    step = max(1, RUN_BYTES // (16 * len(buffer) * d_out))  # entries per product
    for run in runs:
        v = lifted[run]
        half, w = buffer[: len(v)], v.conj()
        for start in range(0, len(s), step):
            cut = slice(start, start + step)
            np.multiply(np.take(w, s[cut], axis=1), np.take(v, t[cut], axis=1), out=half[:, cut])
        half[:, d:] *= np.sqrt(2.0)  # sqrt2 Re and Im |s><t| are H's coordinates
        real = half.view(float)  # (r, E, 2 D'): each entry's row, Re and Im by outcome
        for start, vectors in bases.blocks:
            c, n, _ = vectors.shape
            block = real[:, start : start + c * n].reshape(len(v), c, n, -1)
            np.matmul(vectors.transpose(0, 2, 1), block, out=block)
        real = real.reshape(len(v), len(s), d_out, 2)
        for rows, (entry, part), group in zip(levels, picks, groups):
            if rows is not None and len(out := rows[run]):
                x = real[: len(out), entry, :, part].transpose(1, 2, 0)  # (r, D', d_l)
                out[:] = x if group is None else np.matmul(group, x)
                del x  # no temporary outlives its run


def _upper(a: np.ndarray) -> np.ndarray:
    """The upper triangle of ``a``, in a new F-order array if ``a`` is laid out so."""
    return a * np.tri(*a.shape[::-1], dtype=bool).T


def _diagonal_blocks(a: np.ndarray, z: int, m: int) -> np.ndarray:
    """The z x z diagonal blocks of the leading m x m block of ``a``, (m / z, z, z), a view."""
    return np.diagonal(a[:m, :m].reshape(m // z, z, m // z, z), axis1=0, axis2=2).transpose(2, 0, 1)


def _singular_values(a: np.ndarray) -> np.ndarray:
    """The singular values of the float64 matrix ``a``, which may be overwritten, by the
    ``dgesdd`` call and workspace of ``scipy.linalg.svd(a, compute_uv=False, overwrite_a=True)``."""
    work, _ = dgesdd_lwork(*a.shape, compute_uv=0)
    _, sigma, _, info = dgesdd(a, compute_uv=0, lwork=int(work), overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"dgesdd failed with info {info}")
    return sigma


def _invert_upper(r: np.ndarray) -> int:
    """Invert the upper triangle of the square ``r`` in place, as ``dtrtri`` does, and
    return its ``info``: 0, or the first zero pivot from 1, which leaves ``r`` as it was.
    The strictly lower part is neither read nor written.

    By halves: X11 = R11^-1 and X22 = R22^-1 in place, then X12 = -X11 R12 X22 by two
    ``dtrmm``.  ``dtrtri`` takes a triangle whole if it has at most 64 columns (the LAPACK
    panel width) or if its halves would not fit in RUN_BYTES: the wrappers copy each block
    that is not contiguous, so no copy outgrows RUN_BYTES, and ``r``, F-contiguous, is
    inverted where it lies.  Below 512 columns this takes about half ``dtrtri``'s time on
    one OpenBLAS thread.  Its rounding error has a bound of the form ``dtrtri``'s has (Du
    Croz & Higham, IMA J. Numer. Anal. 12, 1992; Higham, Accuracy and Stability of
    Numerical Algorithms, section 14.2), so KEEP_MARGIN's allowance covers both.
    """
    pivots = np.flatnonzero(np.diagonal(r) == 0.0)
    if len(pivots):
        return int(pivots[0]) + 1
    n, h = len(r), len(r) // 2
    if n <= 64 or 8 * (n - h) ** 2 > RUN_BYTES:
        inverse = dtrtri(r, overwrite_c=1)[0]
        if not np.shares_memory(inverse, r):  # a block the wrapper copied
            r[:] = inverse
        return 0
    _invert_upper(r[:h, :h])
    _invert_upper(r[h:, h:])
    product = dtrmm(1.0, r[h:, h:], r[:h, h:], side=1)  # R12 X22
    r[:h, h:] = dtrmm(-1.0, r[:h, :h], product, overwrite_b=1)
    return 0


class _LevelFactor:
    """One level's rows A_l = P Q^T + E: Q's Householder reflectors (d_l x d_l), P's
    rows block lower triangular, and ||E_j||_2 per block.  A run of blocks takes one
    projection out of Q and one ``dgeqrf``, whose R^T holds the run's rows on their new
    directions, block j's diagonal block having the sigma of j's residual.  The first
    block with one under KEEP_MARGIN tau_hi takes its residual's SVD instead: the larger
    directions are kept, the largest other sigma is ||E_j||.  A left inverse L of P,
    bordered as [[L, 0], [-Y^+ X L, Y^+]] by rows [X, Y], gives sigma_min(P) >= 1 / ||L||_F.
    KEEP_MARGIN lets its computed value (R inverted by halves, ``_invert_upper``, with an
    error bound of ``dtrtri``'s form; the bordering) be off by a relative 15/17, the
    rounding allowance that ``gramian_rank`` names.  Neither P nor A_l is kept:
    ``form(start, stop, out)`` writes the level's rows of settings [start, stop) into
    ``out``, row-major, from the scan's lifts.  A batch's first blocks that fit in the free
    columns of ``reflectors`` (``free``) are written there before ``take``, F order d_l x n
    being n rows row-major; a block past them, or one that a cut run overwrote, is formed
    when ``take`` reaches it, and ``sigma``'s rows on its first read.  Once k_l = d_l,
    later blocks add no direction and no mass, so they are recorded, never formed, and Q
    is released.
    """

    def __init__(self, dim: int, size: int, form: Callable[[int, int, np.ndarray], None]):
        self.dim, self.size, self.form, self.rank, self.inverse_norm_sq = dim, size, form, 0, 0.0
        self.reflectors, self.tau = np.zeros((dim, dim), order="F"), np.zeros(dim)
        self.inverse = np.zeros((0, 0))  # L, less the zero columns of rows adding no direction
        self.records: list[tuple] = []  # per block: rank, 1 / ||L||_F, ||E_j||_2^2
        self.formed: list[np.ndarray] = []  # the rows that ``sigma`` formed, in blocks of rows

    def free(self, count: int) -> np.ndarray | None:
        """The free columns that the next min(``count``, (d_l - k_l) / z_l) blocks fill, as
        their rows, row-major (a view); None once the level is complete."""
        if self.rank == self.dim:
            return None
        blocks = min(count, (self.dim - self.rank) // self.size)
        return self.reflectors[:, self.rank : self.rank + blocks * self.size].T

    def _rotate(self, c: np.ndarray) -> np.ndarray:
        """Householder Q's transpose on ``c``, rows^T (d_l x n, F order), in place."""
        if self.rank:
            args = ("L", "T", self.reflectors[:, : self.rank], self.tau[: self.rank], c)
            c[:] = dormqr(*args, 64 * c.shape[1] + 4160, overwrite_c=1)[0]
        return c

    def _border(self, x: np.ndarray, y_inverse: np.ndarray) -> np.ndarray:
        """Append P's rows [x, y] given y's left inverse: ||L||_F^2 as each direction enters."""
        g = y_inverse @ (x @ self.inverse)
        rows_sq = np.einsum("ij,ij->i", g, g) + np.einsum("ij,ij->i", y_inverse, y_inverse)
        norms = self.inverse_norm_sq + np.cumsum(rows_sq)
        zero, self.rank = np.zeros((self.rank, len(x))), self.rank + len(y_inverse)
        self.inverse_norm_sq, complete = norms[-1], self.rank == self.dim
        self.inverse = None if complete else np.block([[self.inverse, zero], [-g, y_inverse]])
        return norms

    def take(self, first: int, tau_hi: np.ndarray) -> None:
        """Factor the blocks of settings ``first``, ``first`` + 1, ..., tau_hi at each one's
        step; those that ``free`` covered are in their columns already."""
        z, start, written = self.size, 0, True
        while start < len(tau_hi) and self.rank < self.dim:
            blocks = min(len(tau_hi) - start, (self.dim - self.rank) // z)
            accepted = 0
            if blocks:
                c = self.reflectors[:, self.rank : self.rank + blocks * z]
                if not written:  # past the free columns at the batch's start, or overwritten
                    self.form(first + start, first + start + blocks, c.T)
                accepted = self._run(c, tau_hi[start : start + blocks])
            start, written = start + accepted, False
            if accepted < blocks or not blocks:  # the cut block
                c = np.empty((self.dim, z), order="F")
                self.form(first + start, first + start + 1, c.T)
                self._drop(c, tau_hi[start])
                start += 1
        if self.rank == self.dim:  # complete: Q is read no more
            self.reflectors = self.tau = None
            self.records += [(self.dim, self.inverse_norm_sq**-0.5, 0.0)] * (len(tau_hi) - start)

    def _run(self, c: np.ndarray, tau_hi: np.ndarray) -> int:
        """The run's blocks, rows^T in the free columns ``c``, up to the first to fail the
        keep margin: how many were taken.
        R^-1's diagonal blocks are the inverses of R's, T_jj, so 1 / ||(R^-1)_jj||_F <=
        sigma_min(T_jj) screens them all; only a block whose bound is within twice its bar
        (or a zero pivot, which leaves R as it was) takes T_jj's SVD.  R is inverted by
        halves (``_invert_upper``), with an error bound of ``dtrtri``'s form (Du Croz &
        Higham 1992), reading R's upper triangle alone: a run that completes the level
        inverts R where it lies, above the reflectors, Q being read no more."""
        k, m = self.rank, c.shape[1]
        c, z = self._rotate(c), m // len(tau_hi)
        qr, tau, _, _ = dgeqrf(c[k:], lwork=64 * m, overwrite_a=1)
        diagonal = _diagonal_blocks(qr, z, m).copy()  # T_jj, before R^-1 may overwrite them
        bar, complete = KEEP_MARGIN * tau_hi, k + m == self.dim
        inverse = qr if complete else _upper(qr[:m, :m])  # R in F order, inverted in place
        info = _invert_upper(inverse)
        blocks = _diagonal_blocks(inverse, z, m)
        low = 0.0 if info else np.einsum("jab,jab,ab->j", blocks, blocks, np.tri(z).T) ** -0.5
        passed = low > 2.0 * bar
        if not passed.all():  # the SVD settles the blocks the bound leaves in doubt
            doubt = ~passed
            sigma = np.linalg.svd(np.triu(diagonal[doubt]), compute_uv=False)
            passed[doubt] = sigma[:, -1] > bar[doubt]
        m = z * (accepted := len(passed) if passed.all() else int(np.argmin(passed)))
        if accepted:
            self.tau[k : k + m] = tau[:m]
            if k + m < self.dim and not np.shares_memory(qr, c):  # in place only when k = 0
                c[k:, :m] = qr[:, :m]
            if m < c.shape[1]:  # the prefix's inverse, R^-1's leading block
                if info:  # R as it was: invert its prefix alone
                    inverse = _upper(qr[:m, :m])
                    if info := _invert_upper(inverse):
                        raise np.linalg.LinAlgError(f"singular factor (info {info})")
                inverse = np.triu(inverse[:m, :m])
            elif complete:  # the reflectors under R^-1, a panel of columns at a time, in place
                lower = np.tri(64, k=-1, dtype=bool)
                for j in range(0, m, 64):
                    inverse[j + 64 :, j : j + 64] = 0.0
                    np.copyto(inverse[j : j + 64, j : j + 64], 0.0, where=lower[: m - j, : m - j])
            lows = self._border(c[:k, :m].T, inverse.T)[z - 1 :: z] ** -0.5
            self.records += zip(k + z * np.arange(1, accepted + 1), lows, [0.0] * accepted)
        return accepted

    def _drop(self, c: np.ndarray, tau_hi: float) -> None:
        """One block, rows^T in ``c`` (d_l x z_l, F order), by its residual's SVD, keeping
        at most d_l - k directions."""
        k, c = self.rank, self._rotate(c)
        w, sigma, vt = np.linalg.svd(c[k:], full_matrices=False)
        keep = int((sigma > KEEP_MARGIN * tau_hi).sum())
        if keep:  # reflectors of the kept directions W, whose R is a sign matrix S
            qr, self.tau[k : k + keep], _, _ = dgeqrf(w[:, :keep])
            self.reflectors[k:, k : k + keep] = qr
            sign = np.sign(np.diag(qr))  # P's new rows V Sigma S: left inverse S Sigma^-1 V^T
            self._border(c[:k].T, (sign / sigma[:keep])[:, None] * vt[:keep])
        low = self.inverse_norm_sq**-0.5 if self.rank else np.inf
        self.records.append((self.rank, low, np.max(sigma[keep:], initial=0.0) ** 2))

    def sigma(self, count: int) -> np.ndarray:
        """The singular values of the level's first ``count`` rows (one values-only SVD).
        A read past the rows formed so far forms those of every setting the level has
        taken, and ``formed`` keeps them for later reads; only the blocks that hold the
        first ``count`` rows are stacked.  A scan so forms each setting's rows for ``sigma``
        at most once, in one kernel pass a read, and one that never reads them keeps none."""
        have = sum(map(len, self.formed)) // self.size
        if count > have * self.size:
            stop = max(-(-count // self.size), len(self.records))  # one record a setting taken
            rows = np.empty(((stop - have) * self.size, self.dim))
            self.form(have, stop, rows)
            self.formed.append(rows)
        covering = np.searchsorted(np.cumsum([len(rows) for rows in self.formed]), count) + 1
        rows = np.vstack(self.formed[:covering])[:count]  # sigma(X) = sigma(X^T), F order
        return _singular_values(rows.T)


def _form_rows(
    bases: _LevelBases, lifts: list[np.ndarray], level: int, start: int, stop: int, out: np.ndarray
) -> None:
    """Level ``level``'s rows of settings [start, stop) of the batches ``lifts`` into
    ``out``, row-major, through ``_write_level_rows`` with that level alone."""
    levels, z, offset = [None] * len(bases.dims), bases.sizes[level], 0
    for lift in lifts:
        low, high = max(start - offset, 0), min(stop - offset, len(lift))
        if low < high:
            levels[level] = out[(offset + low - start) * z : (offset + high - start) * z]
            _write_level_rows(bases, lift[low:high], levels)
        offset += len(lift)


class _RankScan:
    """The certified rank of a growing stack's level direct sum A = A_0 + ... + A_N
    (``_LevelStack``), from one ``_LevelFactor`` per U(M) level.

    The dropped mass e (e^2 = the sum of ||E_j||_2^2 over blocks and open levels)
    bounds each A_l - P Q^T, so Weyl gives rank sum_l k_l when every open level's
    1 / ||L||_F (or, failing that, its rows' own sigma_k plus e, at least sigma_min(P))
    exceeds KEEP_MARGIN tau_hi + e + c and e + c < tau_lo, the threshold at sigma_max's
    lower bound less e, all from ``_projector_bounds`` with D^2 = sum_l d_l and D' = sum_l
    z_l.  A level so certified at k_l = d_l is frozen: its later blocks add no e, and by
    interlacing its sigma_{d_l} stays above its bound less e, which must stay above
    tau_hi + c.  KEEP_MARGIN is the rounding allowance of the computed 1 / ||L||_F, c that
    of the factor, as ``gramian_rank`` argues for maps and scans alike: a certified D^2
    needs no SVD to confirm it.
    """

    def __init__(self, bases: _LevelBases, rel_threshold: float | None):
        self.bases, self.rel_threshold = bases, rel_threshold
        self.sizes, self.width = bases.sizes, sum(bases.dims)
        self.lifts: list[np.ndarray] = []  # each batch's restricted lifts, which ``form`` reads
        # ``form`` holds the list, not the scan: no cycle keeps a finished scan alive.
        self.levels = [
            _LevelFactor(dim, z, partial(_form_rows, bases, self.lifts, l))
            for l, (z, dim) in enumerate(zip(bases.sizes, bases.dims))
        ]
        self.floors = [0.0] * len(bases.dims)  # floor > 0: frozen
        self.steps, self.dropped_sq = 0, 0.0

    def extend(self, lift: np.ndarray) -> list[int | None]:
        """Take the next settings, from their restricted lifts (R, D, D'), which are kept; each
        step's certified rank or None.  Each open level's first blocks are written into its
        free columns (``_LevelFactor.free``), every level in one pass of the kernel."""
        d, d_out, start = round(self.width**0.5), sum(self.sizes), self.steps
        settings = start + np.arange(1, len(lift) + 1)
        scales = _threshold_scale((settings * d_out, self.width), self.rel_threshold)
        tau_hi, cushion, sigma_low = _projector_bounds(settings, d, d_out, scales)
        self.lifts.append(lift)
        _write_level_rows(self.bases, lift, [level.free(len(lift)) for level in self.levels])
        for level in self.levels:
            level.take(start, tau_hi)
        ranks, lows, drops = np.array([level.records[start:] for level in self.levels]).T
        dropped_sq = np.cumsum(np.r_[self.dropped_sq, np.cumsum(drops, axis=1)[:, -1]])[1:]
        self.steps, self.dropped_sq = int(settings[-1]), dropped_sq[-1]
        dropped = np.sqrt(dropped_sq)
        settled = dropped + cushion < scales * (sigma_low - dropped)
        bars, ceilings = KEEP_MARGIN * tau_hi + dropped + cushion, tau_hi + cushion
        steps = settings, settled, ranks.astype(int), lows, bars, ceilings, dropped
        return [self._certify(*step) for step in zip(*(each.tolist() for each in steps))]

    def _certify(self, step, settled, ranks, lows, bar, ceiling, dropped) -> int | None:
        """Step ``step``'s rank sum_l k_l if e + c < tau_lo (``settled``), no frozen floor is at
        most tau_hi + c and every open level's 1 / ||L||_F, or its sigma_k + e, exceeds ``bar``."""
        if not settled or any(0.0 < floor <= ceiling for floor in self.floors):
            return None
        for l, (level, rank, low) in enumerate(zip(self.levels, ranks, lows)):
            if self.floors[l]:
                continue
            if low <= bar:  # sigma_k(A_l) + e >= sigma_k(P): the rows' own sigma_k
                low = level.sigma(step * self.sizes[l])[rank - 1] + dropped
            if low <= bar:
                return None
            if rank == level.dim:  # sigma_{d_l}(A_l) >= low - e
                self.floors[l] = low - dropped
        return sum(ranks)


class _LevelStack:
    """A scan's level direct sum over its first ``steps`` steps: sigma the union of the
    levels' rows' (each level's ``sigma``, on first read), each d_l wide, and then
    the direct sum's exact zeros, to min(R D', D^2); shape the stack's (R D', D^2).
    ``rank`` is the scan's certified rank at that step, or None, at threshold ``scale``."""

    def __init__(self, scan: _RankScan, steps: int, rank: int | None = None):
        self.shape = (steps * sum(scan.sizes), scan.width)
        self.rank, self.scale = rank, _threshold_scale(self.shape, scan.rel_threshold)
        self._levels = scan, steps

    @cached_property
    def singular_values(self) -> np.ndarray:
        scan, steps = self._levels
        sigma = [level.sigma(steps * z) for level, z in zip(scan.levels, scan.sizes)]
        return _direct_sum_sigma(sigma, self.shape)


def find_min_configs(
    photons: int,
    modes: int,
    meas_modes: int | None = None,
    generator: str = "haar",
    seed: int = 0,
    r_max: int | None = None,
    rel_threshold: float | None = None,
) -> MinConfigSearch:
    """Smallest number of freshly drawn configurations reaching full rank.

    Appends one independent configuration at a time and records the rank after each;
    stops at rank D^2 or after ``r_max`` configurations (reporting the best rank
    achieved).  The first min(bound, ``r_max``) are lifted and factored in one call
    per level.  Each setting's rows, d_l wide, are written into the levels' factor
    buffers (``_RankScan.extend``), and each rank is ``gramian_rank``'s on their direct
    sum (``_LevelStack``): the full SVD's, unless a sigma lies within the levels'
    rounding of the threshold.
    ``_RankScan`` certifies steps from each level's triangular factor; the levels' SVDs
    settle a step it cannot, and a certified D^2 stands, its sigma left unread.
    The observed minimum is checked against the counting lower bound on every run.
    """
    if meas_modes is None:
        meas_modes = modes
    draw = config_drawer(generator, seed)
    bound = min_configs_extended(photons, modes, meas_modes)
    if r_max is None:
        r_max = bound + 8
    if r_max < 1:
        raise ValueError(f"r_max must be at least 1, got {r_max}")
    required = fock_dimension(photons, modes) ** 2

    bases = _level_bases(photons, modes, meas_modes)
    scan = _RankScan(bases, rel_threshold)
    configs: list[InterferometerConfig] = []
    certified: list[int | None] = []
    trace: list[tuple[int, int]] = []
    found: int | None = None
    previous_rank = 0
    while len(trace) < r_max:
        if len(trace) == len(configs):  # the bound's settings in one batch, then one at a time
            drawn = draw(meas_modes, 1 if configs else min(bound, r_max))
            configs += drawn
            certified += scan.extend(_restricted_lift(drawn, photons, modes))
        step, rank = len(trace) + 1, certified[len(trace)]
        if rank is None or rank == required:  # the levels' SVDs settle it; a certified D^2 stands
            rank = gramian_rank(_LevelStack(scan, step, rank), rel_threshold).rank
        if rank < previous_rank:
            raise RuntimeError("rank decreased while appending configurations")
        previous_rank = rank
        trace.append((step, rank))
        if rank == required:
            found = step
            break
    if found is not None and found < bound:
        raise RuntimeError(
            f"observed minimal R={found} undercuts the counting bound {bound} "
            f"for N={photons}, M={modes}, M'={meas_modes}"
        )
    return MinConfigSearch(
        photons=photons,
        modes=modes,
        meas_modes=meas_modes,
        generator=generator,
        seed=seed,
        found=found,
        rank_trace=trace,
        required_rank=required,
        lower_bound=bound,
        configs=configs,
    )


@dataclass
class MinModesSearch:
    """Result of scanning M' upward until a single configuration is complete."""

    photons: int
    modes: int
    generator: str
    seed: int
    found: int | None
    lower_bound: int
    rank_by_meas_modes: list[tuple[int, int, int]]  # (M', rank, required)


def find_min_modes(
    photons: int,
    modes: int,
    generator: str = "haar",
    seed: int = 0,
    meas_modes_max: int | None = None,
    rel_threshold: float | None = None,
) -> MinModesSearch:
    """Smallest M' for which one generated configuration is already complete."""
    draw = config_drawer(generator, seed)
    bound = min_modes_lower_bound(photons, modes)
    if meas_modes_max is None:
        meas_modes_max = bound + 6
    if meas_modes_max < modes:
        raise ValueError(f"meas_modes_max must be at least {modes}, got {meas_modes_max}")
    required = fock_dimension(photons, modes) ** 2

    scan: list[tuple[int, int, int]] = []
    found: int | None = None
    for meas_modes in range(modes, meas_modes_max + 1):
        superop = build_superoperator(draw(meas_modes, 1), photons, modes)
        rank = gramian_rank(superop, rel_threshold).rank
        scan.append((meas_modes, rank, required))
        if rank == required:
            found = meas_modes
            break
    if found is not None and found < bound:
        raise RuntimeError(
            f"observed minimal M'={found} undercuts the counting bound {bound} "
            f"for N={photons}, M={modes}"
        )
    return MinModesSearch(
        photons=photons,
        modes=modes,
        generator=generator,
        seed=seed,
        found=found,
        lower_bound=bound,
        rank_by_meas_modes=scan,
    )
