"""Random pair generators used by the experiment suites and the CLI.

All generators are deterministic given a numpy Generator; callers seed.
The annotations stay unevaluated, so importing this module does not load
numpy.random; the first draw does.
"""

from __future__ import annotations

import numpy as np

from .frames import FramePair, frame_operator, is_schauder_identity
from .linalg import eigh

GENERATOR_KINDS = ("gaussian", "schauder_mangled", "onb_union", "d1_scalars")
MIN_CONDITIONING = 0.05  # canonical_dual_pair redraws frames below this


def random_complex(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rng, d, d))
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def mangling_scalars(rng: np.random.Generator, n: int,
                     scaling_range=(1e-3, 1e3)) -> np.ndarray:
    """Nonzero complex scalars with log-uniform magnitudes in scaling_range."""
    lo, hi = float(scaling_range[0]), float(scaling_range[1])
    if not (0.0 < lo <= hi):
        raise ValueError(f"bad scaling range ({lo:g}, {hi:g})")
    mags = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=n))
    return mags * phases


def mangle(pair: FramePair, beta: np.ndarray) -> FramePair:
    """Diagonal reparameterization (x_k, y_k) -> (b_k x_k, conj(b_k)^-1 y_k).

    Leaves every masked combination sum_k a_k x_k y_k^* unchanged, so all
    multiplier quantities are invariant; frame bounds of the separate
    families are not.
    """
    beta = np.asarray(beta, dtype=np.complex128)
    if beta.shape != (pair.n,) or np.any(np.abs(beta) <= 0.0):
        raise ValueError("beta must be a length-n vector of nonzero scalars")
    return FramePair(beta[:, None] * pair.xs,
                     (1.0 / np.conj(beta))[:, None] * pair.ys)


def gaussian_pair(rng: np.random.Generator, n: int, d: int) -> FramePair:
    """Independent complex Gaussian rows, normalized to unit average energy."""
    return FramePair(random_complex(rng, n, d) / np.sqrt(2.0 * d),
                     random_complex(rng, n, d) / np.sqrt(2.0 * d))


def canonical_dual_pair(rng: np.random.Generator, n: int, d: int) -> FramePair:
    """A random frame together with its canonical dual; reproduces identity.

    Frames with smallest-to-largest eigenvalue ratio below MIN_CONDITIONING
    are redrawn so the dual is computed accurately.
    """
    if n < d:
        raise ValueError(f"need n >= d for a frame, got n={n}, d={d}")
    for _ in range(200):
        xs = random_complex(rng, n, d) / np.sqrt(2.0 * d)
        s = frame_operator(xs)
        w, v = eigh(s)
        if w[0] > MIN_CONDITIONING * w[-1]:
            inv = (v / w) @ v.conj().T
            # rows are vectors, so applying S^-1 to each row is a right
            # multiplication by its transpose
            ys = xs @ inv.T
            return FramePair(xs, ys)
    raise RuntimeError("failed to draw a well-conditioned frame")


def onb_union_pair(rng: np.random.Generator, n: int, d: int) -> FramePair:
    """Union of q = n/d orthonormal bases with dual vectors y_k = x_k / q."""
    if n % d != 0:
        raise ValueError(f"onb_union needs n divisible by d, got n={n}, d={d}")
    q = n // d
    xs = np.concatenate([haar_unitary(rng, d).T for _ in range(q)], axis=0)
    return FramePair(xs, xs / q)


def d1_scalar_pair(rng: np.random.Generator, n: int) -> FramePair:
    """Scalar sequences (d = 1), magnitudes log-uniform in 1e-1 ... 1e1."""
    xs = mangling_scalars(rng, n, (1e-1, 1e1))[:, None]
    ys = mangling_scalars(rng, n, (1e-1, 1e1))[:, None]
    return FramePair(xs, ys)


def generate(kind: str, rng: np.random.Generator, n: int, d: int,
             scaling_range=(1e-3, 1e3)) -> FramePair:
    """Dispatch by generator kind; see GENERATOR_KINDS.

    Only schauder_mangled reads scaling_range, for its mangling scalars;
    d1_scalars draws from its fixed 1e-1 ... 1e1 and needs d = 1.
    """
    if kind == "gaussian":
        return gaussian_pair(rng, n, d)
    if kind == "schauder_mangled":
        pair = canonical_dual_pair(rng, n, d)
        if not is_schauder_identity(pair, tol=1e-10):
            raise RuntimeError("canonical dual failed the identity check")
        return mangle(pair, mangling_scalars(rng, n, scaling_range))
    if kind == "onb_union":
        return onb_union_pair(rng, n, d)
    if kind == "d1_scalars":
        if d != 1:
            raise ValueError(f"d1_scalars needs d=1, got d={d}")
        return d1_scalar_pair(rng, n)
    raise ValueError(f"unknown generator kind {kind!r}; choose from {GENERATOR_KINDS}")
