"""Diagonal multipliers of a vector-sequence pair and their norms.

A scalar mask a = (a_1, ..., a_n) with |a_k| <= 1 induces the linear map
u -> sum_k a_k <u, y_k> x_k.  The worst mask norm is the multiplier norm;
replacing scalars by m x m matrices gives the amplified maps whose supremum
over all m is the completely bounded norm.  This module provides exact
evaluation, an alternating-ascent lower bound with certified witnesses, an
exhaustive phase-grid oracle for small n, and a sampled amplified lower
bound.
"""

from dataclasses import dataclass

import numpy as np

from .frames import FramePair
from .linalg import top_singular_triplet

MASK_SLACK = 1e-12


def check_mask(mask: np.ndarray, n: int) -> np.ndarray:
    """Validate a scalar mask: length n, finite, inside the closed unit disc."""
    a = np.asarray(mask, dtype=np.complex128)
    if a.shape != (n,):
        raise ValueError(f"mask shape {a.shape} does not match n={n}")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("mask has non-finite entries")
    big = float(np.max(np.abs(a)))
    if big > 1.0 + MASK_SLACK:
        raise ValueError(f"mask entries must lie in the unit disc, max |a_k| = {big:g}")
    return a


@dataclass(frozen=True)
class MultiplierNormEstimate:
    """A certified lower estimate of the multiplier norm.

    value equals Re sum_k mask_k <u, y_k> <x_k, v> for the stored unit
    witnesses, so any reader can replay the certificate.
    """

    value: float
    witness_u: np.ndarray
    witness_v: np.ndarray
    witness_mask: np.ndarray
    method: str


def _certify(pair: FramePair, mask: np.ndarray, u: np.ndarray,
             v: np.ndarray, method: str) -> MultiplierNormEstimate:
    coeff = mask * (pair.ys.conj() @ u) * (pair.xs @ v.conj())
    value = float(np.real(np.sum(coeff)))
    return MultiplierNormEstimate(value, u, v, mask, method)


def apply_mask(pair: FramePair, mask: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Evaluate the masked map at u: sum_k mask_k <u, y_k> x_k."""
    a = check_mask(mask, pair.n)
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (pair.dim,):
        raise ValueError(f"u has shape {u.shape}, expected ({pair.dim},)")
    return ((a * (pair.ys.conj() @ u))[:, None] * pair.xs).sum(axis=0)


def mask_matrix(pair: FramePair, mask: np.ndarray) -> np.ndarray:
    """Matrix of the masked map: sum_k mask_k x_k y_k^*."""
    a = check_mask(mask, pair.n)
    return np.einsum("k,ki,kj->ij", a, pair.xs, pair.ys.conj())


def norm_lower_alternating(pair: FramePair, restarts: int = 8,
                           max_iters: int = 300, tol: float = 1e-12,
                           seed: int = 0) -> MultiplierNormEstimate:
    """Alternating ascent over masks and unit vectors.

    With the mask fixed, the best (u, v) is the top singular pair of the
    mask matrix; with (u, v) fixed, the best mask aligns each phase so
    every term contributes positively.  Both half-steps are monotone.  The
    first restart starts from the all-ones mask, the rest from random
    phases.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    seeds = np.random.SeedSequence(seed).spawn(restarts)
    best = None
    for r in range(restarts):
        if r == 0:
            eps = np.ones(pair.n, dtype=np.complex128)
        else:
            rng = np.random.default_rng(seeds[r])
            eps = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=pair.n))
        prev = -np.inf
        u = v = None
        for _ in range(max_iters):
            m = mask_matrix(pair, eps)
            sigma, left, right = top_singular_triplet(m)
            u, v = right, left
            terms = (pair.ys.conj() @ u) * (pair.xs @ v.conj())
            mags = np.abs(terms)
            aligned = float(np.sum(mags))
            live = mags > 0.0
            eps = np.where(live, np.conj(terms) / np.where(live, mags, 1.0), eps)
            if aligned - prev <= tol * aligned:
                prev = aligned
                break
            prev = aligned
        cand = _certify(pair, eps, u, v, "alternating")
        if best is None or cand.value > best.value:
            best = cand
    return best


def _batched_op_norm(mats: np.ndarray) -> np.ndarray:
    """Operator norms of a (B, d, d) stack via closed-form Gram eigenvalues.

    d <= 3 uses explicit characteristic-polynomial roots; larger d falls
    back to batched LAPACK.
    """
    d = mats.shape[-1]
    if d == 1:
        return np.abs(mats[:, 0, 0])
    gram = np.einsum("bki,bkj->bij", mats.conj(), mats)
    if d == 2:
        tr = gram[:, 0, 0].real + gram[:, 1, 1].real
        det = (gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]).real
        half = 0.5 * tr
        disc = np.sqrt(np.clip(half * half - det, 0.0, None))
        return np.sqrt(np.clip(half + disc, 0.0, None))
    if d == 3:
        q = (gram[:, 0, 0] + gram[:, 1, 1] + gram[:, 2, 2]).real / 3.0
        b = gram.copy()
        for i in range(3):
            b[:, i, i] -= q
        p = np.sqrt(np.sum(np.abs(b) ** 2, axis=(1, 2)) / 6.0)
        safe = np.where(p > 0.0, p, 1.0)
        det = (
            b[:, 0, 0] * (b[:, 1, 1] * b[:, 2, 2] - b[:, 1, 2] * b[:, 2, 1])
            - b[:, 0, 1] * (b[:, 1, 0] * b[:, 2, 2] - b[:, 1, 2] * b[:, 2, 0])
            + b[:, 0, 2] * (b[:, 1, 0] * b[:, 2, 1] - b[:, 1, 1] * b[:, 2, 0])
        ).real
        r = np.clip(det / (2.0 * safe ** 3), -1.0, 1.0)
        lam = q + 2.0 * safe * np.cos(np.arccos(r) / 3.0)
        lam = np.where(p > 0.0, lam, q)
        return np.sqrt(np.clip(lam, 0.0, None))
    return np.sqrt(np.clip(np.linalg.eigvalsh(gram)[:, -1], 0.0, None))


GRID_MAX_N = 6
GRID_CHUNK = 1 << 18


def norm_oracle_grid(pair: FramePair, phase_steps: int = 48) -> MultiplierNormEstimate:
    """Exhaustive maximum of the mask-matrix norm over a phase grid.

    The norm is convex in the mask, so its maximum over the polydisc is
    attained at unimodular masks; those are discretized to phase_steps
    points per coordinate.  A global phase never changes the norm, so the
    first coordinate is pinned to 1 and phase_steps^(n-1) masks are swept,
    which is an exact reduction.  Cost grows geometrically; n is capped at
    6.
    """
    if pair.n > GRID_MAX_N:
        raise ValueError(f"grid oracle supports n <= {GRID_MAX_N}, got n={pair.n}")
    if phase_steps < 8:
        raise ValueError("phase_steps must be >= 8")
    n, d = pair.n, pair.dim
    phases = np.exp(2j * np.pi * np.arange(phase_steps) / phase_steps)
    rank_ones = np.einsum("ki,kj->kij", pair.xs, pair.ys.conj()).reshape(n, d * d)
    total = phase_steps ** (n - 1)
    best_val = -np.inf
    best_idx = 0
    for lo in range(0, total, GRID_CHUNK):
        idx = np.arange(lo, min(lo + GRID_CHUNK, total))
        eps = np.ones((idx.size, n), dtype=np.complex128)
        rem = idx
        for pos in range(1, n):
            rem, dig = np.divmod(rem, phase_steps)
            eps[:, pos] = phases[dig]
        mats = (eps @ rank_ones).reshape(idx.size, d, d)
        vals = _batched_op_norm(mats)
        arg = int(np.argmax(vals))
        if vals[arg] > best_val:
            best_val = float(vals[arg])
            best_idx = lo + arg
    eps = np.ones(n, dtype=np.complex128)
    rem = best_idx
    for pos in range(1, n):
        rem, dig = divmod(rem, phase_steps)
        eps[pos] = phases[dig]
    m = mask_matrix(pair, eps)
    _, left, right = top_singular_triplet(m)
    return _certify(pair, eps, right, left, "grid")


def check_amplified(mats: np.ndarray, n: int) -> np.ndarray:
    """Validate a stack of n matrix coefficients of common square shape."""
    a = np.asarray(mats, dtype=np.complex128)
    if a.ndim != 3 or a.shape[0] != n or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected matrix coefficients of shape (n, m, m), got {a.shape}")
    if a.shape[1] < 1:
        raise ValueError("amplification order m must be >= 1")
    if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
        raise ValueError("matrix coefficients have non-finite entries")
    return a


def amplified_input_norm(mats: np.ndarray) -> float:
    """max_k of the operator norms of the matrix coefficients."""
    a = check_amplified(mats, mats.shape[0])
    return float(np.max(_batched_op_norm(a)))


def amplified_apply(pair: FramePair, mats: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Apply the amplified map to a tuple of vectors.

    Input us has shape (m, d); output row i is
    sum_j sum_k mats[k, i, j] <u_j, y_k> x_k.
    """
    a = check_amplified(mats, pair.n)
    m = a.shape[1]
    us = np.asarray(us, dtype=np.complex128)
    if us.shape != (m, pair.dim):
        raise ValueError(f"us has shape {us.shape}, expected ({m}, {pair.dim})")
    coeff = us @ pair.ys.conj().T
    return np.einsum("kij,jk,kd->id", a, coeff, pair.xs)


def assemble_block(pair: FramePair, mats: np.ndarray) -> np.ndarray:
    """Matrix of the amplified map on C^m (x) C^d.

    Block (i, j) of size d x d is sum_k mats[k, i, j] x_k y_k^*.
    """
    a = check_amplified(mats, pair.n)
    m = a.shape[1]
    d = pair.dim
    big = np.einsum("kab,ki,kj->aibj", a, pair.xs, pair.ys.conj())
    return big.reshape(m * d, m * d)


def cb_lower_sampled(pair: FramePair, m: int = 2, samples: int = 12,
                     seed: int = 0,
                     scalar: MultiplierNormEstimate | None = None) -> float:
    """Sampled lower bound on the completely bounded multiplier norm.

    Candidates: the identity coefficients (norm of the unmasked sum), the
    best alternating scalar witness, and random unitary or diagonal-phase
    coefficient tuples of order m.  The result is the largest amplified
    norm seen, hence monotone in the sample set.  A caller that already
    ran norm_lower_alternating(pair, seed=seed) passes its estimate as
    scalar, and the ascent is not repeated.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if samples < 0:
        raise ValueError("samples must be >= 0")
    n, d = pair.n, pair.dim
    eye = np.broadcast_to(np.eye(m, dtype=np.complex128), (n, m, m)).copy()
    best, _, _ = top_singular_triplet(assemble_block(pair, eye))
    if scalar is None:
        scalar = norm_lower_alternating(pair, seed=seed)
    best = max(best, scalar.value)
    rng = np.random.default_rng(np.random.SeedSequence([seed, m]))
    for s in range(samples):
        if s % 2 == 0:
            mats = np.stack([_haar(rng, m) for _ in range(n)])
        else:
            mats = np.zeros((n, m, m), dtype=np.complex128)
            idx = np.arange(m)
            for k in range(n):
                mats[k, idx, idx] = np.exp(2j * np.pi * rng.uniform(size=m))
        sigma, _, _ = top_singular_triplet(assemble_block(pair, mats))
        best = max(best, float(sigma))
    return float(best)


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))
