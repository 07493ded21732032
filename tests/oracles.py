"""Independent brute-force references used to freeze expected test values.

Everything here is deliberately naive (permutation sums, exhaustive
enumeration, explicit normal equations) and shares no code with the library
paths it checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def permanent_by_permutations(matrix: np.ndarray) -> complex:
    """O(n!) definition of the permanent: sum over permutation products."""
    a = np.asarray(matrix)
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    total = 0.0 + 0.0j
    rows = range(n)
    for perm in itertools.permutations(range(n)):
        product = 1.0 + 0.0j
        for i in rows:
            product *= a[i, perm[i]]
        total += product
    return total


def amplitude_by_permanent(g: np.ndarray, alpha, beta) -> complex:
    """<alpha|U(g)|beta> = per(g_{alpha,beta}) / sqrt(alpha! beta!), where row i of g is
    repeated alpha_i times and column j beta_j times, by the permutation-sum permanent."""
    rows = [i for i, count in enumerate(alpha) for _ in range(count)]
    cols = [j for j, count in enumerate(beta) for _ in range(count)]
    sub = np.asarray(g)[np.ix_(rows, cols)]
    norm = math.prod(math.factorial(k) for k in (*alpha, *beta))
    return permanent_by_permutations(sub) / math.sqrt(norm)


def enumerate_occupations(photons: int, modes: int) -> set[tuple[int, ...]]:
    """All occupation vectors by filtering the full integer grid."""
    return {
        combo
        for combo in itertools.product(range(photons + 1), repeat=modes)
        if sum(combo) == photons
    }


def balanced_signatures_by_filter(modes: int, max_positive: int) -> set[tuple[int, ...]]:
    """All admissible signatures by filtering [-t, t]^M exhaustively."""
    admissible = set()
    values = range(-max_positive, max_positive + 1)
    for combo in itertools.product(values, repeat=modes):
        if any(a < b for a, b in zip(combo, combo[1:])):
            continue
        if sum(combo) != 0:
            continue
        if sum(v for v in combo if v > 0) > max_positive:
            continue
        admissible.add(combo)
    return admissible


def amplitude_by_state_vector(g: np.ndarray, alpha, beta) -> complex:
    """<alpha|U(g)|beta> by expanding the multi-photon input over mode labels.

    Distributes each input photon over the modes with amplitude g[out, in],
    sums over all assignments, and normalizes by the bosonic factorials.
    """
    modes = g.shape[0]
    photons = sum(beta)
    input_modes = [j for j, count in enumerate(beta) for _ in range(count)]
    target = tuple(alpha)
    total = 0.0 + 0.0j
    for assignment in itertools.product(range(modes), repeat=photons):
        occupation = [0] * modes
        for mode in assignment:
            occupation[mode] += 1
        if tuple(occupation) != target:
            continue
        product = 1.0 + 0.0j
        for out_mode, in_mode in zip(assignment, input_modes):
            product *= g[out_mode, in_mode]
        total += product
    # U|beta> = prod_j (sum_i g_ij a_i^dag)^{beta_j} |0> / sqrt(beta!), and the
    # creation-operator string on a fixed occupation contributes sqrt(alpha!).
    norm_alpha = np.prod([math.factorial(k) for k in alpha])
    norm_beta = np.prod([math.factorial(k) for k in beta])
    return total * np.sqrt(norm_alpha / norm_beta)


def normal_equation_solve(matrix: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Explicit (L^dag L)^{-1} L^dag p, valid at full column rank."""
    gram = matrix.conj().T @ matrix
    return np.linalg.solve(gram, matrix.conj().T @ p)


def complex_rows(superop) -> np.ndarray:
    """A map's complex rows (R D', D^2), formed whole from its settings' restricted lifts
    V (R, D, D'): row (r, v) holds conj(V[r, a, v]) V[r, b, v] at column a D + b, each
    entry one ``np.multiply`` of the two."""
    v = superop.lift
    products = np.multiply(v.conj()[:, :, None], v[:, None])  # (R, a, b, D')
    return products.transpose(0, 3, 1, 2).reshape(-1, v.shape[1] ** 2)


def hermitian_coordinates(rows: np.ndarray) -> np.ndarray:
    """Each row vec(H) of a (K, D^2) stack as (H_aa, sqrt2 Re H_ab, sqrt2 Im H_ab), a < b.

    Written out one coordinate column at a time, pairs in row-major order.  For
    Hermitian H this is an isometry onto R^{D^2}, so a stack keeps its singular
    values.
    """
    rows = np.asarray(rows)
    d = math.isqrt(rows.shape[1])
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    columns = [rows[:, a * d + a].real for a in range(d)]
    columns += [math.sqrt(2.0) * rows[:, a * d + b].real for a, b in pairs]
    columns += [math.sqrt(2.0) * rows[:, a * d + b].imag for a, b in pairs]
    return np.column_stack(columns)


def hermitian_matrix(y: np.ndarray) -> np.ndarray:
    """The Hermitian D x D matrix whose ``hermitian_coordinates`` are ``y``, entry by entry."""
    d = math.isqrt(len(y))
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    h = np.zeros((d, d), dtype=complex)
    for a in range(d):
        h[a, a] = y[a]
    for k, (a, b) in enumerate(pairs):
        h[a, b] = complex(y[d + k], y[d + len(pairs) + k]) / math.sqrt(2.0)
        h[b, a] = h[a, b].conjugate()
    return h


def complex_rank_trace(configs, photons: int, modes: int, rel_threshold=None):
    """(R, rank) after each of the first R settings, by an SVD of the complex stack.

    Every step takes the singular values of the whole stacked complex map
    anew, with threshold max(rows, cols) * eps * sigma_max, or
    ``rel_threshold`` * sigma_max when given.
    """
    from focktomo import build_superoperator

    matrix = complex_rows(build_superoperator(configs, photons, modes))
    rows = matrix.shape[0] // len(configs)
    trace = []
    for count in range(1, len(configs) + 1):
        stack = matrix[: count * rows]
        sigma = np.linalg.svd(stack, compute_uv=False)
        scale = max(stack.shape) * np.finfo(float).eps
        threshold = (scale if rel_threshold is None else rel_threshold) * sigma[0]
        trace.append((count, int((sigma > threshold).sum())))
    return trace


def orthogonal_block_scan(rows: np.ndarray, size: int, bars) -> tuple[list[int], list[tuple]]:
    """A level's scan of ``rows`` whose ``size``-row blocks are mutually orthogonal, each
    block settled by its own SVD: it keeps the directions whose sigma exceeds its bar.

    Returns the runs of whole blocks taken (a block keeping fewer ends a run) and, per
    block, (directions kept so far, 1 / ||L||_F, the largest dropped sigma squared).  The
    kept directions are orthogonal, so the coordinates' inverse L is diagonal in them and
    ||L||_F^2 is the sum of the kept sigma^-2 (1 / ||L||_F is infinite before any).
    """
    runs, records, kept = [0], [], []
    for j, bar in enumerate(bars):
        sigma = np.linalg.svd(rows[j * size : (j + 1) * size], compute_uv=False)
        kept += [s for s in sigma if s > bar]
        if sigma[-1] > bar:
            runs[-1] += 1
        else:
            runs.append(0)
        low = sum(s**-2.0 for s in kept) ** -0.5 if kept else math.inf
        records.append((len(kept), low, max((s for s in sigma if s <= bar), default=0.0) ** 2))
    return [run for run in runs if run], records


def haar_by_one_qr(modes: int, seed: int) -> np.ndarray:
    """One Haar draw as a single matrix: a Ginibre matrix from ``default_rng(seed)``,
    its 2-D QR, and R's diagonal phases pushed into Q."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    q, r = np.linalg.qr(z / math.sqrt(2.0))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def mesh_by_embedded_products(modes: int, transmissivities, phases) -> np.ndarray:
    """A rectangular mesh as the product of each block embedded in an M'xM' identity.

    Blocks sit on modes (i, i+1), layer by layer, starting at mode 0 on even
    layers and at mode 1 on odd ones; block j is
    [[sqrt(t) e^{i phi}, sqrt(1-t) e^{i phi}], [-sqrt(1-t), sqrt(t)]].
    """
    layout = [i for layer in range(modes) for i in range(layer % 2, modes - 1, 2)]
    g = np.eye(modes, dtype=complex)
    for mode, tau, phi in zip(layout, transmissivities, phases):
        t, r, ph = np.sqrt(tau), np.sqrt(1.0 - tau), np.exp(1j * phi)
        full = np.eye(modes, dtype=complex)
        full[mode : mode + 2, mode : mode + 2] = [[t * ph, r * ph], [-r, t]]
        g = full @ g
    return g


def is_nearest_state(a: np.ndarray, p: np.ndarray) -> bool:
    """True iff the density matrix P is the one nearest to the Hermitian A.

    P is the Frobenius projection of A onto the density matrices exactly
    when Re tr((A - P)(X - P)) <= 0 for every density matrix X.  The largest
    Re tr((A - P) X) over density matrices is the top eigenvalue of A - P,
    so the test is lambda_max(A - P) <= Re tr((A - P) P), after checking
    that P is a density matrix at all.  Every comparison allows 1e-12.
    """
    tol = 1e-12
    a = np.asarray(a, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if np.abs(p - p.conj().T).max() > tol or abs(np.trace(p) - 1.0) > tol:
        return False
    if np.linalg.eigvalsh(p).min() < -tol:
        return False
    diff = a - p
    top = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0).max()
    return bool(top <= np.trace(diff @ p).real + tol)


def haar_mean_abs_square(modes: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of |g_00|^2 over Haar draws."""
    from focktomo import haar_random_unitary

    rng = np.random.default_rng(seed)
    values = np.empty(samples)
    for i in range(samples):
        config = haar_random_unitary(modes, int(rng.integers(2**63)))
        values[i] = abs(config.matrix[0, 0]) ** 2
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(samples))
