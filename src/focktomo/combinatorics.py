"""Exact counting for multimode photon-number states.

Dimensions of fixed-photon-number Fock spaces, the minimal number of
interferometer configurations needed for complete photon-counting
tomography, zero-weight state counts, Weyl dimensions of U(M) irreps,
and size bounds for unitary designs.

Everything in this module is exact integer arithmetic: Python integers
never wrap, and ceilings are evaluated on exact rationals, never on
floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, NamedTuple, Sequence


def fock_dimension(photons: int, modes: int) -> int:
    """Dimension C(N+M-1, N) of the N-photon sector of M bosonic modes.

    Args:
        photons: total photon number N >= 0.
        modes: number of modes M >= 1.
    """
    if photons < 0:
        raise ValueError(f"photon number must be non-negative, got {photons}")
    if modes < 1:
        raise ValueError(f"mode count must be positive, got {modes}")
    return math.comb(photons + modes - 1, photons)


def _occupations(photons: int, modes: int) -> Iterator[tuple[int, ...]]:
    # Lexicographically decreasing, so (N, 0, ..., 0) comes first.
    if modes == 1:
        yield (photons,)
        return
    for head in range(photons, -1, -1):
        for tail in _occupations(photons - head, modes - 1):
            yield (head,) + tail


class IndexedStates:
    """Position lookup over a ``states`` tuple of occupation vectors, shared
    by the fixed-total and the truncated bases."""

    states: tuple[tuple[int, ...], ...]

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        return {state: i for i, state in enumerate(self.states)}

    def index_of(self, state: Sequence[int]) -> int:
        key = tuple(int(k) for k in state)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"{key} is not a state of this basis") from None

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class FockBasis(IndexedStates):
    """Canonical ordered enumeration of N-photon occupation vectors over M modes.

    States are ordered lexicographically decreasing; the index of a state is
    stable across the whole package.
    """

    photons: int
    modes: int
    states: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        expected = fock_dimension(self.photons, self.modes)
        if len(self.states) != expected:
            raise ValueError(
                f"basis has {len(self.states)} states, expected {expected}"
            )
        for state in self.states:
            if len(state) != self.modes or any(k < 0 for k in state):
                raise ValueError(f"invalid occupation vector {state}")
            if sum(state) != self.photons:
                raise ValueError(
                    f"occupation {state} does not sum to {self.photons}"
                )

    @property
    def dimension(self) -> int:
        return len(self.states)

    def state_at(self, index: int) -> tuple[int, ...]:
        return self.states[index]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.states)


@lru_cache(maxsize=None)
def enumerate_fock_basis(photons: int, modes: int) -> FockBasis:
    """Build (and cache) the canonical N-photon, M-mode Fock basis."""
    fock_dimension(photons, modes)  # rejects N < 0 and M < 1 before the recursion
    states = tuple(_occupations(photons, modes))
    return FockBasis(photons=photons, modes=modes, states=states)


def min_configs(photons: int, modes: int) -> int:
    """Minimal number of interferometer configurations, C(N+M,N) - C(N+M-2,M).

    This is the lower bound on the number of photon-counting measurement
    settings that can completely determine an N-photon M-mode state when the
    interferometer acts on the M modes alone.  It equals d_N / z_N: the top
    U(M) level's dimension over the rows each setting gives it.
    """
    if photons < 1:
        raise ValueError(f"photon number must be at least 1, got {photons}")
    if modes < 2:
        raise ValueError(f"mode count must be at least 2, got {modes}")
    return math.comb(photons + modes, photons) - math.comb(photons + modes - 2, modes)


def _ceil_ratio(numerator: int, denominator: int) -> int:
    # Exact rational ceiling; never goes through floating point.
    return -(-numerator // denominator)


def min_configs_extended(photons: int, modes: int, meas_modes: int) -> int:
    """Minimal configuration count with vacuum-padded measurement over M' >= M modes.

    Evaluates the exact rational ceiling of
    (N+M-2)! (M'-2)! / ((N+M'-2)! (M-2)!) * R_{N,M}; the equivalent form
    ceil(R_{N,M} * D_{N,M-1} / D_{N,M'-1}) is computed as a cross-check.
    """
    if meas_modes < modes:
        raise ValueError(
            f"measured modes ({meas_modes}) cannot be fewer than state modes ({modes})"
        )
    base = min_configs(photons, modes)
    num = math.factorial(photons + modes - 2) * math.factorial(meas_modes - 2) * base
    den = math.factorial(photons + meas_modes - 2) * math.factorial(modes - 2)
    result = _ceil_ratio(num, den)

    alt = _ceil_ratio(
        base * fock_dimension(photons, modes - 1),
        fock_dimension(photons, meas_modes - 1),
    )
    if alt != result:
        raise AssertionError(
            f"closed forms disagree for N={photons}, M={modes}, M'={meas_modes}: "
            f"{result} vs {alt}"
        )
    return result


def zero_weight_dim(level: int, modes: int) -> int:
    """Number of zero-weight states C(l+M-2, l) at tower level l."""
    if level < 0:
        raise ValueError(f"level must be non-negative, got {level}")
    if modes < 2:
        raise ValueError(f"mode count must be at least 2, got {modes}")
    return math.comb(level + modes - 2, level)


@dataclass(frozen=True)
class Signature:
    """Non-increasing integer M-tuple labelling a U(M) irrep (entries may be negative)."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise ValueError("signature must have at least one part")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"signature parts must be non-increasing: {self.parts}")

    def __len__(self) -> int:
        return len(self.parts)


def _as_signature(parts: Signature | Sequence[int]) -> Signature:
    if isinstance(parts, Signature):
        return parts
    return Signature(tuple(int(p) for p in parts))


def weyl_dimension(signature: Signature | Sequence[int], modes: int) -> int:
    """Dimension of the U(M) irrep with the given highest weight.

    Product over pairs k < k' of (1 + (s_k - s_k') / (k' - k)), evaluated as an
    exact integer ratio; the overall product is asserted to divide exactly.
    """
    sig = _as_signature(signature)
    if len(sig) != modes:
        raise ValueError(f"signature length {len(sig)} != mode count {modes}")
    num = 1
    den = 1
    parts = sig.parts
    for k in range(modes):
        for kp in range(k + 1, modes):
            num *= (kp - k) + parts[k] - parts[kp]
            den *= kp - k
    if num % den != 0:
        raise AssertionError(f"non-integer dimension for signature {parts}")
    dim = num // den
    if dim <= 0:
        raise AssertionError(f"non-positive dimension for signature {parts}")
    return dim


def symmetric_signature(photons: int, modes: int) -> Signature:
    """Highest weight (N, 0, ..., 0) of the N-photon symmetric irrep."""
    return Signature((photons,) + (0,) * (modes - 1))


def adjoint_tower_signature(level: int, modes: int) -> Signature:
    """Highest weight (l, 0, ..., 0, -l) appearing in symmetric x conjugate products."""
    if modes < 2:
        raise ValueError(f"mode count must be at least 2, got {modes}")
    return Signature((level,) + (0,) * (modes - 2) + (-level,))


def enumerate_balanced_signatures(modes: int, max_positive: int) -> list[Signature]:
    """All non-increasing zero-sum M-tuples whose positive parts sum to at most t.

    The zero-sum constraint forces the negative parts to balance the positive
    ones, so every entry lies in [-t, t] and the search space is finite.
    """
    if modes < 2:
        raise ValueError(f"mode count must be at least 2, got {modes}")
    if max_positive < 0:
        raise ValueError(f"bound must be non-negative, got {max_positive}")

    found: list[Signature] = []

    def extend(prefix: list[int], remaining: int, total: int, pos: int) -> None:
        if remaining == 0:
            if total == 0 and pos <= max_positive:
                found.append(Signature(tuple(prefix)))
            return
        upper = prefix[-1] if prefix else max_positive
        for part in range(upper, -max_positive - 1, -1):
            new_pos = pos + max(part, 0)
            if new_pos > max_positive:
                continue
            # Remaining parts are each <= part, so the final sum cannot
            # exceed total + part*(remaining-1); prune when 0 is unreachable.
            if total + part + part * (remaining - 1) < 0 and part <= 0:
                break
            extend(prefix + [part], remaining - 1, total + part, new_pos)

    extend([], modes, 0, 0)
    return sorted(found, key=lambda s: s.parts)


class DesignSizeBounds(NamedTuple):
    lower: int
    upper: int
    dimension_bound: int


def _balanced_dim_square_sum(modes: int, max_positive: int) -> int:
    return sum(
        weyl_dimension(sig, modes) ** 2
        for sig in enumerate_balanced_signatures(modes, max_positive)
    )


def design_size_bounds(modes: int, photons: int) -> DesignSizeBounds:
    """Lower/upper size bounds for the measurement-complete unitary families.

    Returns B(M,N), B(M,2N) and the coarse bound D_{N,M^2}^2, where B(M,t)
    sums squared Weyl dimensions over balanced signatures with positive part
    at most t.
    """
    if modes < 2:
        raise ValueError(f"mode count must be at least 2, got {modes}")
    if photons < 1:
        raise ValueError(f"photon number must be at least 1, got {photons}")
    lower = _balanced_dim_square_sum(modes, photons)
    upper = _balanced_dim_square_sum(modes, 2 * photons)
    dimension_bound = fock_dimension(photons, modes * modes) ** 2
    if not (lower <= upper and lower <= dimension_bound):
        raise AssertionError(
            f"bound ordering violated for M={modes}, N={photons}: "
            f"{lower}, {upper}, {dimension_bound}"
        )
    return DesignSizeBounds(lower, upper, dimension_bound)


def single_config_feasible(photons: int, modes: int, meas_modes: int) -> bool:
    """Whether one fixed configuration over M' modes can be tomographically complete.

    Checks D_{N,M'-1} >= D_{N,M}^2 - D_{N-1,M}^2, which is necessary, not
    sufficient.  One setting's map has only D_{N,M'} rows, so
    D_{N,M'} >= D_{N,M}^2 is necessary too, and sometimes stronger: at
    (N, M, M') = (4, 3, 7) this check holds, but D_{4,7} = 210 < 225 rows, so
    no setting there can be complete (a generic one reaches rank 196).
    ROADMAP.md item 6 (the atlas of attained bounds) tracks taking both.
    """
    if modes < 2:
        raise ValueError(f"mode count must be at least 2, got {modes}")
    if meas_modes < modes:
        raise ValueError(
            f"measured modes ({meas_modes}) cannot be fewer than state modes ({modes})"
        )
    needed = fock_dimension(photons, modes) ** 2
    if photons >= 1:
        needed -= fock_dimension(photons - 1, modes) ** 2
    return fock_dimension(photons, meas_modes - 1) >= needed


def min_modes_lower_bound(photons: int, modes: int) -> int:
    """Smallest M' for which ``single_config_feasible`` holds.

    Linear scan upward from M; terminates because D_{N,M'-1} is strictly
    increasing in M'.
    """
    meas_modes = modes
    while not single_config_feasible(photons, modes, meas_modes):
        meas_modes += 1
    return meas_modes
