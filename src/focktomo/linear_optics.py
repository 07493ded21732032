"""Interferometer configurations and their lift to multimode Fock space.

A configuration is an M'xM' unitary acting on mode operators.  Its action on
the N-photon sector is a D_{N,M'} x D_{N,M'} unitary whose entry (alpha, beta)
is per(g_{alpha,beta}) / sqrt(alpha! beta!), the permanent of g with row i
repeated alpha_i times and column j repeated beta_j times; ``lift_unitary``
builds it by creation operators.  A stack of R settings is lifted in one pass.
Configurations can be drawn Haar-randomly, built from a rectangular
beamsplitter mesh, or given explicitly; they serialize to JSON with a
bit-exact round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .combinatorics import FockBasis, enumerate_fock_basis, fock_dimension

UNITARITY_TOL = 1e-12
LIFT_UNITARITY_TOL = 1e-9

PROVENANCE_KINDS = ("haar", "mesh", "newton_young", "explicit")


def encode_complex_matrix(matrix: np.ndarray) -> list:
    """The JSON form of a complex matrix: rows of [re, im] pairs."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    return matrix.view(float).reshape(matrix.shape + (2,)).tolist()


def decode_complex_matrix(rows) -> np.ndarray:
    """Inverse of ``encode_complex_matrix``: ``ValueError`` unless ``rows`` are
    equal-length rows of [re, im] number pairs."""
    try:
        pairs = np.array(rows)
    except ValueError:  # ragged rows
        pairs = np.empty(0)
    if pairs.ndim != 3 or pairs.shape[2] != 2 or pairs.dtype.kind not in "iuf":
        raise ValueError("a matrix must be equal-length rows of [re, im] pairs")
    return pairs.astype(float).view(complex)[..., 0]


def json_number(record: dict, name: str, owner: str, kind: type = int, optional: bool = False):
    """``kind(record[name])`` of the JSON object ``record``, refusing what ``int()`` or
    ``float()`` would quietly convert: strings, bools and, for ``kind=int``, numbers that
    are not integers.  An ``optional`` field may be missing or null, giving None."""
    if not isinstance(record, dict):
        raise ValueError(f"a {owner} must be a JSON object, got {type(record).__name__}")
    value = record.get(name)
    if value is None and optional:
        return None
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{owner} field {name!r} must be {what}, got {value!r}")
    return kind(value)


def _check_unitary(g: np.ndarray, seeds: np.ndarray | None = None) -> np.ndarray:
    """The one unitarity rule: the residuals max |g^dag g - I| of the (R, M', M') stack ``g``,
    or ``ValueError`` naming the first over ``UNITARITY_TOL`` (or NaN), by index and seed."""
    residuals = np.abs(g.conj().swapaxes(1, 2) @ g - np.eye(g.shape[-1])).max(axis=(1, 2))
    if not (unitary := residuals <= UNITARITY_TOL).all():  # NaN fails too
        k = int(np.argmin(unitary))
        which = "matrix" if seeds is None else f"matrix {k} (seed {seeds[k]})"
        raise ValueError(f"{which} is not unitary (residual {residuals[k]:.3e})")
    return residuals


def _json_field(record: dict, name: str, owner: str):
    """``record[name]`` of the JSON object ``record``; ``ValueError`` if it is missing."""
    if name not in record:
        raise ValueError(f"{owner} field {name!r} is missing")
    return record[name]


@dataclass(frozen=True)
class Provenance:
    """How a configuration was produced (enough to regenerate it)."""

    kind: str
    seed: int | None = None
    index: int | None = None
    theta: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in PROVENANCE_KINDS:
            raise ValueError(f"unknown provenance kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        return {name: value for name, value in vars(self).items() if value is not None}

    @classmethod
    def from_json_dict(cls, record: dict) -> "Provenance":
        seed = json_number(record, "seed", "provenance", optional=True)
        index = json_number(record, "index", "provenance", optional=True)
        theta = json_number(record, "theta", "provenance", float, optional=True)
        if not isinstance(kind := record.get("kind"), str):
            raise ValueError(f"provenance field 'kind' must be a string, got {kind!r}")
        return cls(kind, seed, index, theta)


@dataclass
class InterferometerConfig:
    """An M'xM' mode transformation, unitary to within ``UNITARITY_TOL``."""

    modes: int
    matrix: np.ndarray
    provenance: Provenance = field(default_factory=lambda: Provenance("explicit"))

    def __post_init__(self) -> None:
        g = np.array(self.matrix, dtype=complex)
        if g.shape != (self.modes, self.modes):
            raise ValueError(f"matrix shape {g.shape} does not match {self.modes} modes")
        _check_unitary(g[None])
        g.flags.writeable = False
        self.matrix = g

    @property
    def unitarity_residual(self) -> float:
        return float(_check_unitary(self.matrix[None])[0])

    def to_json_dict(self) -> dict:
        return {
            "modes": self.modes,
            "matrix": encode_complex_matrix(self.matrix),
            "provenance": self.provenance.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, record: dict) -> "InterferometerConfig":
        return cls(
            modes=json_number(record, "modes", "config"),
            matrix=decode_complex_matrix(_json_field(record, "matrix", "config")),
            provenance=Provenance.from_json_dict(_json_field(record, "provenance", "config")),
        )


def haar_random_unitary(
    modes: int, seed: int | Sequence[int]
) -> InterferometerConfig | list[InterferometerConfig]:
    """Draw a Haar-distributed M'xM' unitary, deterministically for a given seed.

    Ginibre matrix + QR, with the R-diagonal phases pushed back into Q so the
    distribution is exactly Haar rather than merely unitary.  A sequence of
    seeds gives a list, member k equal bit for bit to the draw of seed k: each Ginibre
    pair comes from its own seed's generator, and one QR and one check take them all.
    """
    if modes < 1:
        raise ValueError(f"mode count must be positive, got {modes}")
    seeds = np.atleast_1d(seed)
    pairs = np.empty((len(seeds), 2, modes, modes))  # each seed's real and imaginary draws
    for each, pair in zip(seeds, pairs):
        np.random.default_rng(each).standard_normal(out=pair)
    q, r = np.linalg.qr((pairs[:, 0] + 1j * pairs[:, 1]) / math.sqrt(2.0))
    d = np.diagonal(r, axis1=1, axis2=2)
    q *= (d / np.abs(d))[:, None, :]
    _check_unitary(q, seeds)  # once for the stack, so its members skip __post_init__'s check
    q.flags.writeable = False
    configs = [InterferometerConfig.__new__(InterferometerConfig) for _ in seeds]
    for config, g, each in zip(configs, q, seeds.tolist()):
        vars(config).update(modes=modes, matrix=g, provenance=Provenance("haar", each))
    return configs if np.ndim(seed) else configs[0]


def _mesh_layout(modes: int) -> list[int]:
    # Rectangular arrangement: alternating even/odd layers, C(M',2) blocks total.
    layout = []
    for layer in range(modes):
        for mode in range(layer % 2, modes - 1, 2):
            layout.append(mode)
    return layout


def mesh_unitary(
    modes: int,
    transmissivities: Sequence[float],
    phases: Sequence[float],
    provenance: Provenance | None = None,
) -> InterferometerConfig:
    """Compose a rectangular mesh of two-mode beamsplitter+phase blocks.

    Each block on neighbouring modes (i, i+1) has intensity transmissivity tau
    and phase phi:

        [[sqrt(tau) e^{i phi},  sqrt(1-tau) e^{i phi}],
         [-sqrt(1-tau), sqrt(tau)]]

    The phase sits on the block's first row, the side that faces the state
    under the probability law; a phase on the column side would cancel
    against the photon-number conjugation and lose the antisymmetric part of
    the density matrix.  With all transmissivities 1 and zero phases the mesh
    is the identity.
    """
    layout = _mesh_layout(modes)
    if len(transmissivities) != len(layout) or len(phases) != len(layout):
        raise ValueError(
            f"mesh over {modes} modes needs {len(layout)} blocks, got "
            f"{len(transmissivities)} transmissivities and {len(phases)} phases"
        )
    g = np.eye(modes, dtype=complex)
    for mode, tau, phi in zip(layout, transmissivities, phases):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"transmissivity {tau} outside [0, 1]")
        t = math.sqrt(tau)
        r = math.sqrt(1.0 - tau)
        ph = np.exp(1j * phi)
        block = np.array([[t * ph, r * ph], [-r, t]], dtype=complex)
        g[mode : mode + 2] = block @ g[mode : mode + 2]
    if provenance is None:
        provenance = Provenance("explicit")
    return InterferometerConfig(modes, g, provenance)


def random_mesh_unitary(
    modes: int, seed: int | Sequence[int]
) -> InterferometerConfig | list[InterferometerConfig]:
    """Random rectangular mesh: transmissivities ~ U[0,1], phases ~ U[0,2pi).

    A sequence of seeds gives a list, one mesh per seed.
    """
    if np.ndim(seed):
        return [random_mesh_unitary(modes, each) for each in seed]
    if modes < 1:
        raise ValueError(f"mode count must be positive, got {modes}")
    rng = np.random.default_rng(seed)
    n_blocks = len(_mesh_layout(modes))
    taus = rng.uniform(0.0, 1.0, size=n_blocks)
    phis = rng.uniform(0.0, 2.0 * math.pi, size=n_blocks)
    return mesh_unitary(modes, taus, phis, Provenance("mesh", seed=int(seed)))


@dataclass
class FockUnitary:
    """The N-photon action of a mode unitary, in the canonical Fock order.

    With ``in_modes`` set, ``matrix`` holds only the columns of the input
    states on the first ``in_modes`` modes (vacuum elsewhere), in the order
    of their own canonical basis.  The lift of an (R, M', M') stack has an
    (R, D', C) ``matrix``.  Each member's columns must be orthonormal.
    """

    basis: FockBasis
    matrix: np.ndarray
    in_modes: int | None = None

    def __post_init__(self) -> None:
        u = np.asarray(self.matrix, dtype=complex)
        d = self.basis.dimension
        inputs = self.basis.modes if self.in_modes is None else self.in_modes
        columns = fock_dimension(self.basis.photons, inputs)
        if u.ndim not in (2, 3) or u.shape[-2:] != (d, columns) or u.size == 0:
            raise ValueError(f"matrix shape {u.shape}, expected (R,) {(d, columns)}")
        residual = np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(columns)).max()
        if not residual <= LIFT_UNITARITY_TOL * max(d, 1):  # NaN fails too
            raise ValueError(
                f"lifted columns are not orthonormal (residual {residual:.3e})"
            )
        self.matrix = u

    @property
    def dimension(self) -> int:
        return self.basis.dimension


@lru_cache(maxsize=64)
def _sector_tables(photons: int, modes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # For state t of the N-photon sector: lower[t, i] is the index of t - e_i
    # in the (N-1)-photon sector (0 where t_i = 0, which root[t, i] = sqrt(t_i)
    # masks) and last[t] is t's last occupied mode.
    states = enumerate_fock_basis(photons, modes).states
    below = enumerate_fock_basis(photons - 1, modes)
    lower = np.zeros((len(states), modes), dtype=np.intp)
    for t, state in enumerate(states):
        for i, count in enumerate(state):
            if count:
                lower[t, i] = below.index_of(state[:i] + (count - 1,) + state[i + 1 :])
    occupations = np.array(states)
    last = modes - 1 - np.argmax(occupations[:, ::-1] > 0, axis=1)
    return lower, np.sqrt(occupations), last


def _lift_columns(g: np.ndarray, photons: int, in_modes: int) -> np.ndarray:
    # One photon per sector: the column of beta is the column of beta - e_j
    # (j its last occupied mode) raised by sum_i g_ij a_i^dag and divided by
    # sqrt(beta_j).  Every column of sector k - 1 this needs is itself an
    # input column of that sector.  The batch is axis 1, so gathers take axis 0.
    batch, modes = g.shape[:-2], g.shape[-1]
    g = g.reshape(-1, modes, modes)
    columns = np.ones((1, len(g), 1), dtype=complex)
    for k in range(1, photons + 1):
        lower, root, _ = _sector_tables(k, modes)
        in_lower, in_root, last = _sector_tables(k, in_modes)
        inputs = np.arange(len(last))
        previous = columns[:, :, in_lower[inputs, last]]
        raise_by = g[:, :, last] / in_root[inputs, last]  # (R, M', C_k)
        columns = np.zeros((len(lower), len(g), len(last)), dtype=complex)
        for i in range(modes):
            columns += root[:, i, None, None] * previous[lower[:, i]] * raise_by[:, i]
    return np.ascontiguousarray(columns.swapaxes(0, 1)).reshape(batch + columns.shape[::2])


def lift_unitary(
    config: InterferometerConfig | np.ndarray,
    photons: int,
    in_modes: int | None = None,
) -> FockUnitary:
    """Lift a mode unitary, or an (R, M', M') stack of them, to the N-photon Fock space.

    Entry (alpha, beta) is per(g_{alpha,beta}) / sqrt(alpha! beta!).  Column beta is
    built from the creation-operator identity
    U|beta> = prod_j (sum_i g_ij a_i^dag)^beta_j |0> / sqrt(beta!), one photon
    at a time, for about N M' D' operations per column.  ``in_modes`` keeps
    only the columns of inputs on the first ``in_modes`` modes, which are
    then the only ones built.  A stack is lifted in one pass, member r equal
    bit for bit to the lift of ``g[r]``, into a ``matrix`` of shape (R, D', C).
    """
    if photons < 0:
        raise ValueError(f"photon number must be non-negative, got {photons}")
    g = config.matrix if isinstance(config, InterferometerConfig) else config
    g = np.asarray(g, dtype=complex)
    if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2]:
        raise ValueError("mode transformation must be a square matrix or a stack of them")
    modes = g.shape[-1]
    if in_modes is not None and not 1 <= in_modes <= modes:
        raise ValueError(f"input modes {in_modes} outside [1, {modes}]")
    columns = _lift_columns(g, photons, modes if in_modes is None else in_modes)
    basis = enumerate_fock_basis(photons, modes)
    return FockUnitary(basis=basis, matrix=columns, in_modes=in_modes)
