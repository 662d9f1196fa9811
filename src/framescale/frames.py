"""Finite vector-sequence pairs and their frame-theoretic operators.

A pair is two finite sequences (x_k), (y_k) in C^d of equal length.  The
inner product convention is linear in the first slot: <a, b> = sum a_i
conj(b_i).  Vectors are stored as rows of (n, d) arrays.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import eigh, top_singular_triplet

MIN_VECTOR_NORM = 1e-14
FRAME_TOL = 1e-10  # is_frame needs lower > FRAME_TOL * upper


def pow2_scale(a: np.ndarray, name: str = "array") -> float:
    """The power of two, at most 2^1023, that puts the largest |Re| or
    |Im| of a (read off its float64 view) in [0.5, 1); 1 if a is zero.

    Multiplying by it is exact, so it moves no comparison, and squares
    and cubes of the scaled entries stay in the float range.  ValueError
    names a as name unless a is finite.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    big = float(np.abs(parts).max())
    if not math.isfinite(big):
        raise ValueError(f"{name} has non-finite entries")
    return math.ldexp(1.0, min(1023, -math.frexp(big)[1]))


def _check_vectors(vectors: np.ndarray, name: str):
    v = np.asarray(vectors, dtype=np.complex128)
    if v.ndim != 2:
        raise ValueError(f"{name}: expected shape (n, d), got {v.shape}")
    if v.shape[0] < 1 or v.shape[1] < 1:
        raise ValueError(f"{name}: need at least one vector in dimension >= 1")
    if not np.isfinite(v).all():
        raise ValueError(f"{name}: non-finite entries")
    # rows and threshold times powers of two: no square overflows, no test moves
    big = np.maximum(np.abs(v.real), np.abs(v.imag)).max(axis=1)
    scale = np.ldexp(1.0, np.minimum(1023, -np.frexp(big)[1]))[:, None]
    norms = np.sqrt((np.abs(v * scale) ** 2).sum(axis=1, keepdims=True))
    if (norms <= MIN_VECTOR_NORM * scale).any():
        raise ValueError(f"{name}: vector norms must exceed {MIN_VECTOR_NORM:g}")
    return v, float(scale.min())  # v's pow2_scale: its smallest row scale


@dataclass(frozen=True)
class FramePair:
    """Two equal-length sequences of nonzero vectors in the same C^d, and
    scale_x and scale_y, the pow2_scale of xs and of ys (see scaled)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs, scale_x = _check_vectors(self.xs, "xs")
        ys, scale_y = _check_vectors(self.ys, "ys")
        if xs.shape != ys.shape:
            raise ValueError(f"shape mismatch: xs {xs.shape} vs ys {ys.shape}")
        self.__dict__.update(xs=xs, ys=ys, scale_x=scale_x, scale_y=scale_y)

    @functools.cached_property
    def scaled(self) -> "FramePair":
        """The pair (scale_x xs, scale_y ys), built once, on first use.

        It skips the constructor's checks, which is safe: its families are
        validated ones times exact powers of two, so they stay finite and
        exact (short of an entry 2^1021 below its family's largest, which
        turns subnormal), and its scales are 1.  Only MIN_VECTOR_NORM, an
        absolute floor, could refuse it, and no check holds it to that.
        """
        scaled = object.__new__(FramePair)
        scaled.__dict__.update(xs=self.xs * self.scale_x, scale_x=1.0,
                               ys=self.ys * self.scale_y, scale_y=1.0)
        return scaled

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def dim(self) -> int:
        return self.xs.shape[1]


class BesselBounds(NamedTuple):
    lower: float
    upper: float
    is_frame: bool


def frame_operator(vectors: np.ndarray) -> np.ndarray:
    """Sum of rank-one maps v_k v_k^*; Hermitian positive semidefinite."""
    v, _ = _check_vectors(vectors, "vectors")
    return np.einsum("ki,kj->ij", v, v.conj())


def bounds_from_spectrum(w: np.ndarray) -> BesselBounds:
    """Bounds from the ascending spectrum w of a frame operator: upper w[-1],
    lower w[0] clamped at 0, and is_frame when lower > FRAME_TOL * upper,
    a test that no global scale of the vectors moves."""
    lam_min, upper = max(float(w[0]), 0.0), float(w[-1])
    return BesselBounds(lam_min, upper, lam_min > FRAME_TOL * upper)


def bessel_and_frame_bounds(vectors: np.ndarray) -> BesselBounds:
    """Optimal Bessel bound and lower frame bound of a vector sequence."""
    w, _ = eigh(frame_operator(vectors))
    return bounds_from_spectrum(w)


def pair_operator(pair: FramePair) -> np.ndarray:
    """The map u -> sum_k <u, y_k> x_k as a d x d matrix."""
    return np.einsum("ki,kj->ij", pair.xs, pair.ys.conj())


def coefficients(pair: FramePair, us: np.ndarray, vs: np.ndarray):
    """The coefficient tables cu[k, j] = <u_j, y_k> and cv[k, i] = <x_k, v_i>
    of (m, d) tuples us and vs; 1-D u and v give the (n,) tables of m = 1.

    Every bilinear form of the pair in u and v is read off these two
    tables.  us and vs are arrays, validated by the caller.
    """
    return pair.ys.conj() @ us.T, pair.xs @ vs.conj().T


def dual_terms(cu: np.ndarray, cv: np.ndarray) -> np.ndarray:
    """The terms ||cu_k|| ||cv_k|| of D for coefficient tables cu and cv:
    rows of (n, m) tables, entries of (n,) tables."""
    if cu.ndim == 1:
        return np.abs(cu) * np.abs(cv)
    return (np.sqrt((np.abs(cu) ** 2).sum(axis=1))
            * np.sqrt((np.abs(cv) ** 2).sum(axis=1)))


def dual_value(pair: FramePair, us: np.ndarray, vs: np.ndarray) -> float:
    """D = sum_k ||(<u_j, y_k>)_j|| ||(<x_k, v_i>)_i|| of (m, d) tuples; at
    unit tuples a lower bound on the cb norm (see rescale.CbBracket)."""
    return float(dual_terms(*coefficients(pair, us, vs)).sum())


def identity_deviation(pair: FramePair) -> float:
    """Operator norm of pair_operator(pair) - I: 0 for a reproducing pair."""
    sigma, _, _ = top_singular_triplet(pair_operator(pair) - np.eye(pair.dim))
    return sigma


def is_schauder_identity(pair: FramePair, tol: float = 1e-10) -> bool:
    """Whether the pair reproduces every vector: sum_k <u, y_k> x_k = u."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    return identity_deviation(pair) <= tol
